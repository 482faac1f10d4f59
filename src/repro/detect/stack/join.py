"""Stack layer 2 (elastic) — live join of genuinely new monitors.

The membership layer's churn support (crash + restart, PR 8) keeps the
monitor *set* fixed: a restarted monitor reclaims its old slot.  This
module adds the missing half of elasticity — a :class:`StandbyMonitor`
that did not exist when the run started can join mid-run:

1. **Join handshake** — the joiner retransmits a ``join`` (carrying its
   globally fresh slot and actor name, incarnation 0) to one *seed
   contact* until the contact's ``join_ack`` arrives with a full
   membership snapshot and the current takeover-election epoch.
2. **Anti-entropy state sync** — the contact follows up with its
   persisted token frames and its cumulative candidate-ack baseline;
   the joiner fast-forwards its :class:`CandidateInbox` to the
   baseline, so its stream starts mid-sequence instead of demanding
   history the feeders may have retired.
3. **Epidemic dissemination** — the contact admits the joiner into its
   SWIM table with a *named* ``alive`` update; the name rides the
   normal piggyback buffer, so every other member learns the joiner at
   O(1) dedicated bytes — no broadcast round (contrast the heartbeat
   detector, where introducing a member costs O(N) hello beacons).
4. **Feeder subscription** — the contact tells its feeder to open a
   second sequenced stream to the joiner from the baseline on
   (``feed_join``), giving the joiner live candidate traffic with the
   same retransmission guarantees as the primary stream.

A standby is a *full* gossip member — it probes, is probed, refutes
suspicion with incarnation bumps, answers takeover elections with its
persisted frames — but holds no predicate slot: it reports
``red=False`` so it never hosts a regenerated token, and
``_fd_can_take_over = False`` so it never initiates an election.  Its
value is purely added robustness (extra frame replicas, extra election
quorum) and scale-out capacity; because it only ever *adds* passive
redundancy, the detected cut of a run with joiners is bit-identical to
the same run without them (the join-exactness suite enforces this).
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError
from repro.detect.stack.gossip import (
    ALIVE,
    JOIN_ACK_KIND,
    JOIN_KIND,
    STATE_SYNC_KIND,
    GossipUpdate,
    Join,
    JoinWelcome,
    StateSync,
)
from repro.detect.stack.membership import (
    FailureDetectorConfig,
    FailureDetectorMixin,
)
from repro.detect.stack.transport import (
    AdaptiveRetryPolicy,
    ReliableEndpoint,
)
from repro.simulation.actors import Actor

__all__ = [
    "StandbyMonitor",
    "spawn_joiners",
]


class StandbyMonitor(FailureDetectorMixin, ReliableEndpoint, Actor):
    """A monitor that joins the group mid-run (no predicate slot).

    ``slot`` must be globally fresh — the harness assigns
    ``n + join-index`` so it can never collide with an existing member
    even when several joiners pick the same seed contact concurrently.
    """

    _fd_can_take_over = False

    def __init__(
        self,
        name: str,
        slot: int,
        seed_contact: str,
        seed_slot: int,
        *,
        config: FailureDetectorConfig,
        retry: AdaptiveRetryPolicy | None = None,
    ) -> None:
        super().__init__(name)
        if config is None or config.membership != "gossip":
            raise ConfigurationError(
                "a StandbyMonitor requires gossip membership "
                "(FailureDetectorConfig(membership='gossip'))"
            )
        self._init_reliability(retry)
        self._init_failure_detector(config)
        self._slot = slot
        self._seed_slot = seed_slot
        self._seed_contact = seed_contact
        self.joined = False
        self.synced = False
        self.candidates_absorbed = 0
        self.detected = False
        self.aborted = False

    # ------------------------------------------------------------------
    # Membership-layer hooks
    # ------------------------------------------------------------------
    def _fd_slot(self) -> int:
        return self._slot

    def _fd_peers(self) -> dict[int, str]:
        # The seed contact is the one member known up front; the welcome
        # snapshot adds the rest as runtime-learned peers.
        return {self._seed_slot: self._seed_contact}

    def _fd_is_red(self) -> bool:
        return False  # never hosts a regenerated token

    def _fd_names(self) -> dict[int, str]:
        return {self._slot: self.name}

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self):
        if self.halted:
            yield from self._linger()
            return
        yield from self._join_handshake()
        if self.gave_up:
            return
        while not self.halted:
            self._drain_inbox()
            msg = yield from self._fd_receive(f"{self.name} standing by")
            if msg is None:
                continue  # idle gossip tick; re-examine state
            code = yield from self._dispatch(msg)
            if code == "halt":
                break
        yield from self._linger()

    def _join_handshake(self):
        """Retransmit ``join`` until welcomed (or the budget burns out).

        ``joined`` is persisted, so a crash-restarted standby re-enters
        ``run`` and skips straight to the main loop — its gossip state
        rejoins with a bumped incarnation like any other member.
        """
        attempt = 0
        join = Join(self._slot, self.name)
        while not self.joined and not self.halted:
            yield self.send(
                self._seed_contact, join, kind=JOIN_KIND,
                size_bits=join.size_bits(),
            )
            deadline = self.now + self._retry.timeout(attempt)
            while not self.joined and self.now < deadline:
                msg = yield self.receive_timeout(
                    timeout=deadline - self.now,
                    description=f"{self.name} awaiting join ack",
                )
                if msg is None:
                    break
                code = yield from self._dispatch(msg)
                if code == "halt":
                    return
            if self.joined:
                return
            attempt += 1
            if attempt > self._retry.max_attempts:
                self.gave_up = True
                return

    def _drain_inbox(self) -> None:
        """Absorb in-order candidates (the standby keeps no predicate
        state; consuming bounds the space gauge and counts traffic)."""
        while True:
            entry = self._inbox.pop()
            if entry is None:
                return
            self.metrics.adjust_space(-entry[1])
            self.candidates_absorbed += 1

    # ------------------------------------------------------------------
    # Dispatch: transport, then membership, then the join handshake.
    # ------------------------------------------------------------------
    def _dispatch(self, msg):
        code = yield from self._dispatch_common(msg)
        if code != "unhandled":
            return code
        code = yield from self._dispatch_fd(msg)
        if code != "unhandled":
            return code
        if msg.corrupted:
            return "handled"  # the sender retransmits
        if msg.kind == JOIN_ACK_KIND:
            self._absorb_welcome(msg.payload)
            return "handled"
        if msg.kind == STATE_SYNC_KIND:
            self._absorb_sync(msg.payload)
            return "handled"
        return "handled"  # stragglers from protocols this actor ignores

    def _absorb_welcome(self, welcome: JoinWelcome) -> None:
        """Fold the membership snapshot in; adopt the election epoch."""
        swim = self._swim_state()
        for slot, name, incarnation, status in welcome.members:
            if slot == self._slot:
                continue
            self._fd_learn(slot, name)
            swim.add_member(
                slot, name, incarnation=incarnation, announce=False
            )
            if status != ALIVE:
                swim.apply(
                    GossipUpdate(slot, status, incarnation, name), self.now
                )
        self._adopt_epoch(welcome.epoch)
        self.joined = True

    def _absorb_sync(self, sync: StateSync) -> None:
        """Bootstrap persisted frames and the candidate-stream baseline.

        Frames only extend ``_last_frames`` (the election contribution);
        ``_seen_hops`` is left alone so a genuinely routed frame is
        never mistaken for a duplicate of synced state.
        """
        for frame in sync.frames:
            best = self._last_frames.get(frame.gid)
            if best is None or frame.order > best.order:
                self._last_frames[frame.gid] = frame
        for _stream, ack in sync.baselines:
            released = self._inbox.fast_forward(ack)
            if released:
                self.metrics.adjust_space(-released)
        self.synced = True


def spawn_joiners(
    sim,
    plan,
    monitor_names,
    *,
    hardened: bool,
    config: FailureDetectorConfig | None,
    retry: AdaptiveRetryPolicy | None = None,
) -> list[StandbyMonitor]:
    """Realize a fault plan's join events as standby monitors.

    One :class:`StandbyMonitor` per ``JoinEvent``, spawned into ``sim``
    at the event's time with slot ``n + index`` (index in ``(at, actor)``
    order, so concurrent joins get distinct slots deterministically).
    The seed contact defaults to the first monitor.  Joins require the
    hardened stack with gossip membership — the heartbeat detector has
    no dissemination channel for an introduction, and a plain detector
    has no membership at all.
    """
    joins = tuple(getattr(plan, "joins", ()) or ()) if plan else ()
    if not joins:
        return []
    if not hardened or config is None or config.membership != "gossip":
        raise ConfigurationError(
            "fault plan contains join events, which require the hardened "
            "stack with gossip membership — pass hardened=True and "
            "failure_detector=FailureDetectorConfig(membership='gossip')"
        )
    monitor_names = list(monitor_names)
    slot_of = {name: slot for slot, name in enumerate(monitor_names)}
    joiners: list[StandbyMonitor] = []
    n = len(monitor_names)
    for index, event in enumerate(sorted(joins, key=lambda j: (j.at, j.actor))):
        contact = event.seed_contact or monitor_names[0]
        if contact not in slot_of:
            raise ConfigurationError(
                f"join seed contact {contact!r} is not a monitor "
                f"(expected one of {monitor_names})"
            )
        if event.actor in slot_of:
            raise ConfigurationError(
                f"joiner {event.actor!r} collides with an existing monitor"
            )
        joiner = StandbyMonitor(
            event.actor, n + index, contact, slot_of[contact],
            config=config, retry=retry,
        )
        sim.spawn_new(event.at, joiner)
        joiners.append(joiner)
    return joiners

"""Stack layer 2 — membership: heartbeat failure detection + takeover.

The paper assumes ever-live monitors (§2); PR 1's reliability layer
relaxed that to crash/*restart*, converting permanent monitor death into
a ``degraded`` outcome once the retry budget burned out.  This module
closes the remaining gap with the standard construction (an eventually-
perfect failure detector plus coordinated takeover):

* **Failure detection** — every hardened monitor heartbeats its peers
  from its idle loop (a ``receive_timeout`` tick, so heartbeats ride the
  same mailbox as protocol traffic and cost nothing while the protocol
  is busy).  A peer silent for longer than ``suspicion_after`` is
  *suspected*; suspicion is eventually perfect in the model because a
  live, un-partitioned peer always ticks within one interval.
* **Takeover election** — when the token has been silent past ``grace``
  and this monitor is the lowest-slot unsuspected survivor, it bumps the
  takeover epoch and broadcasts ``elect``.  Respondents adopt the epoch
  (which ack-and-discards every stale token of earlier epochs, see
  :meth:`~repro.detect.stack.transport.ReliableEndpoint._handle_token_arrival`)
  and reply with their best persisted frames.  The deterministic winner
  — the lowest responding slot — regenerates each token from the
  lexicographically greatest ``(epoch, hop)`` frame collected, restamped
  with the new epoch.
* **Safety under false suspicion** — a live holder that receives the
  ``elect`` responds with its own (most advanced) frame, so the
  regenerated token continues from the live state; its now-stale frames
  are discarded on receipt everywhere.  Monitors replay their persisted
  accepted candidate (:class:`~repro.detect.token_vc.Fig3Slot`) when a
  regenerated token re-presents an already-satisfied bound, so re-visits
  consume no fresh candidates and the detected cut is unchanged —
  elimination bounds are monotone, and every bound a stale token
  established was valid.

Heartbeat ticking is bounded by ``max_idle_rounds`` consecutive idle
ticks so runs whose predicate never becomes true still quiesce to the
kernel's deadlock detection (mapped to "not detected" / ``degraded``).
Takeover is bounded the same way: once ``max_idle_rounds`` consecutive
elections initiated by one monitor regenerate an unchanged token state
(the token keeps being forwarded to a red slot whose monitor is dead),
that monitor stops initiating elections and the run quiesces.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.rng import derive_seed
from repro.common.types import WORD_BITS
from repro.common.validation import require_finite
from repro.detect.base import HALT_KIND, TOKEN_KIND
from repro.detect.stack.gossip import (
    ALIVE,
    GOSSIP_KINDS,
    JOIN_ACK_KIND,
    JOIN_KIND,
    PIGGYBACK_LIMIT,
    PING_ACK_KIND,
    PING_KIND,
    PING_REQ_KIND,
    STATE_SYNC_KIND,
    GossipUpdate,
    Join,
    JoinWelcome,
    Ping,
    PingAck,
    PingReq,
    StateSync,
    SwimState,
)
from repro.detect.stack.transport import (
    FEED_JOIN_KIND,
    HALT_ACK_BITS,
    HALT_ACK_KIND,
    FeedJoin,
    TokenFrame,
)
from repro.simulation.effects import Receive

__all__ = [
    "HEARTBEAT_KIND",
    "ELECT_KIND",
    "ELECT_OK_KIND",
    "REGEN_KIND",
    "HEARTBEAT_BITS",
    "ELECT_BITS",
    "FailureDetectorConfig",
    "Heartbeat",
    "Elect",
    "ElectOk",
    "RegenRequest",
    "FailureDetectorMixin",
    "best_frames",
]

# Message kinds introduced by the failure-detection layer.
HEARTBEAT_KIND = "heartbeat"     # liveness beacon, monitor -> monitor
ELECT_KIND = "elect"             # takeover proposal (new epoch)
ELECT_OK_KIND = "elect_ok"       # proposal ack + best persisted frames
REGEN_KIND = "regen_request"     # appoint the winner to regenerate

HEARTBEAT_BITS = 2 * WORD_BITS + 1   # (slot, epoch, holding)
ELECT_BITS = 2 * WORD_BITS       # (epoch, slot)

#: Kinds whose arrival does not reset the idle-round counter (pure
#: liveness traffic must not keep a dead run from quiescing).
_HEARTBEAT_ONLY = frozenset({HEARTBEAT_KIND})


@dataclass(frozen=True, slots=True)
class FailureDetectorConfig:
    """Knobs for the heartbeat detector and takeover election.

    ``heartbeat_interval``
        idle-tick period; each tick heartbeats every peer.
    ``suspicion_after``
        heartbeat silence before a peer is suspected (must exceed the
        interval by enough slack to ride out transient loss).
    ``grace``
        token silence before a takeover election may start; the paper's
        token is never idle this long in a healthy run, so the grace
        period is what keeps false takeovers rare (they are safe, just
        wasteful).
    ``election_window``
        how long the initiator collects ``elect_ok`` replies before
        appointing the winner.
    ``max_idle_rounds``
        consecutive idle ticks before a monitor stops ticking and falls
        back to a blocking receive — the quiescence bound that lets
        never-true-predicate runs end in kernel deadlock as before.
    ``membership``
        which layer-2 implementation runs: ``"heartbeat"`` (all-to-all
        beacons, O(N²) liveness traffic) or ``"gossip"`` (SWIM-style
        randomized probing with epidemic dissemination, O(N); see
        :mod:`repro.detect.stack.gossip`).
    ``gossip_fanout``
        gossip mode only: how many helpers an indirect probe asks, and
        how many peers election/halt announcements are pushed to per
        round.
    ``gossip_interval``
        gossip mode only: the probe-tick period (defaults to
        ``heartbeat_interval``).  In gossip mode ``suspicion_after`` is
        reused as the suspect→confirm refutation window.
    ``gossip_timeout``
        gossip mode only: how long a direct (and then indirect) probe
        waits before escalating/suspecting (defaults to the tick
        interval).  Shorter timeouts detect faster but false-suspect
        more under loss; both effects are refutation-safe.
    """

    heartbeat_interval: float = 4.0
    suspicion_after: float = 12.0
    grace: float = 30.0
    election_window: float = 10.0
    max_idle_rounds: int = 60
    membership: str = "heartbeat"
    gossip_fanout: int = 3
    gossip_interval: float | None = None
    gossip_timeout: float | None = None

    def __post_init__(self) -> None:
        require_finite(self.heartbeat_interval, "heartbeat_interval", strict=True)
        require_finite(
            self.suspicion_after, "suspicion_after", self.heartbeat_interval
        )
        require_finite(self.grace, "grace", strict=True)
        require_finite(self.election_window, "election_window", strict=True)
        if self.max_idle_rounds < 1:
            raise ConfigurationError("max_idle_rounds must be >= 1")
        if self.membership not in ("heartbeat", "gossip"):
            raise ConfigurationError(
                "membership must be 'heartbeat' or 'gossip', "
                f"got {self.membership!r}"
            )
        if self.gossip_fanout < 1:
            raise ConfigurationError(
                f"gossip_fanout must be >= 1, got {self.gossip_fanout}"
            )
        if self.gossip_interval is not None:
            require_finite(self.gossip_interval, "gossip_interval", strict=True)
        if self.gossip_timeout is not None:
            require_finite(self.gossip_timeout, "gossip_timeout", strict=True)

    @property
    def tick_interval(self) -> float:
        """The idle-tick period for the selected membership style."""
        if self.membership == "gossip" and self.gossip_interval is not None:
            return self.gossip_interval
        return self.heartbeat_interval

    @property
    def probe_timeout(self) -> float:
        """The gossip probe deadline (per stage, direct or indirect)."""
        if self.membership == "gossip" and self.gossip_timeout is not None:
            return self.gossip_timeout
        return self.tick_interval


@dataclass(frozen=True, slots=True)
class Heartbeat:
    """A liveness beacon: the sender's slot and current epoch.

    ``holding`` advertises that the sender currently holds (or is
    transferring) a token; receivers treat it as token activity, so no
    takeover election starts while a live holder is merely slow.
    """

    slot: int
    epoch: int
    holding: bool = False


@dataclass(frozen=True, slots=True)
class Elect:
    """A takeover proposal for ``epoch``, initiated by ``slot``."""

    epoch: int
    slot: int


@dataclass(frozen=True, slots=True)
class ElectOk:
    """A proposal ack: the responder's best persisted frames.

    ``red`` reports whether the responder's own slot is currently
    eligible to host the token (always True for the vector-clock
    algorithms; the direct-dependence token may only sit at a red
    process).
    """

    epoch: int
    slot: int
    frames: tuple[TokenFrame, ...]
    red: bool = True

    def size_bits(self) -> int:
        return 2 * WORD_BITS + sum(
            _frame_bits(frame) for frame in self.frames
        )


@dataclass(frozen=True, slots=True)
class RegenRequest:
    """Appointment of the election winner, with the collected state."""

    epoch: int
    frames: tuple[TokenFrame, ...]
    red_slots: tuple[int, ...] = ()

    def size_bits(self) -> int:
        return WORD_BITS * (1 + len(self.red_slots)) + sum(
            _frame_bits(frame) for frame in self.frames
        )


def _frame_bits(frame: TokenFrame) -> int:
    """Accounting size of one frame inside an election message."""
    body_bits = 0
    size_of = getattr(frame.body, "size_bits", None)
    if callable(size_of):
        body_bits = size_of()
    return 3 * WORD_BITS + body_bits


def best_frames(frames) -> tuple[TokenFrame, ...]:
    """The lexicographically greatest ``(epoch, hop)`` frame per gid."""
    best: dict[int, TokenFrame] = {}
    for frame in frames:
        incumbent = best.get(frame.gid)
        if incumbent is None or frame.order > incumbent.order:
            best[frame.gid] = frame
    return tuple(best[gid] for gid in sorted(best))


class FailureDetectorMixin:
    """Failure detection + takeover, layered over ``ReliableEndpoint``.

    Hosts call :meth:`_init_failure_detector` after
    ``_init_reliability``, replace their idle ``receive`` with
    :meth:`_fd_receive`, and route unhandled message kinds through
    :meth:`_dispatch_fd`.  Hosts provide:

    ``_fd_slot()``
        this monitor's election identity (lower wins);
    ``_fd_peers()``
        ``{slot: actor_name}`` for every peer known from the start (the
        default: every other entry of the host's ``_monitors``, keyed by
        slot).  It is read once per monitor; members learned at run time
        go into ``_fd_extra_peers`` instead;
    ``_fd_is_red()``
        whether this monitor may host a regenerated token
        (direct-dependence routing; vector-clock hosts return True);
    ``_fd_install(frame, red_slots)``
        generator taking possession of a regenerated frame (the default
        holds it locally as if freshly accepted).

    Hosts whose token state is *not* recoverable from peers set
    ``_fd_can_take_over = False``: the detector still heartbeats and
    answers elections, but never initiates one.  The direct-dependence
    algorithm is the motivating case — its token is an empty baton and
    all protocol state (including the red-chain pointers) lives in the
    holder, so a dead holder's persisted frame IS the token: recovery is
    resume-on-restart, and permanent death honestly degrades the run.
    """

    #: Whether this host may initiate takeover elections.
    _fd_can_take_over = True

    def _init_failure_detector(
        self, config: FailureDetectorConfig | None
    ) -> None:
        self._fd = config
        self._fd_last_heard: dict[int, float] = {}
        self._fd_idle_rounds = 0
        self._fd_regen_epoch = 0
        #: Consecutive elections this monitor initiated whose regenerated
        #: token state was the same as the previous one's, and that state.
        self._fd_futile = 0
        self._fd_last_regen: tuple = ()
        self._swim: SwimState | None = None
        #: The host's static ``_fd_peers``, read on first use.
        self._fd_static: dict[int, str] | None = None
        #: Members learned at runtime (elastic join, a standby's welcome),
        #: ``{slot: name}`` — merged with the static peers everywhere the
        #: detector routes by slot.
        self._fd_extra_peers: dict[int, str] = {}
        #: Idle receives per description: ``(blocking, ticking)``.
        self._fd_idle: dict[str, tuple[Receive, Receive | None]] = {}
        self.elections = 0
        self.takeovers = 0

    # ------------------------------------------------------------------
    # Host hooks (overridable)
    # ------------------------------------------------------------------
    def _fd_peers(self) -> dict[int, str]:
        me = self._fd_slot()
        return {
            slot: name
            for slot, name in enumerate(self._monitors)
            if slot != me
        }

    def _fd_is_red(self) -> bool:
        return True

    def _fd_names(self) -> dict[int, str]:
        """Names to pre-seed the SWIM state with (elastic members only;
        static members are routable without carrying a name)."""
        return {}

    def _fd_all_peers(self) -> dict[int, str]:
        """The host's static peers plus every runtime-joined member
        (read-only: without joiners it is the static map itself)."""
        peers = self._fd_static
        if peers is None:
            peers = self._fd_static = self._fd_peers()
        if self._fd_extra_peers:
            peers = {**peers, **self._fd_extra_peers}
        return peers

    def _fd_learn(self, slot: int, name: str) -> None:
        """Route to a member learned at run time; start its silence clock."""
        self._fd_extra_peers[slot] = name
        self._fd_last_heard.setdefault(slot, self.now)

    def _fd_finished(self) -> bool:
        """Whether the protocol has locally concluded.

        A finished monitor answers takeover proposals with a fresh
        ``halt`` instead of an election reply: a partition can eat every
        halt retransmission the declaring monitor had budget for, and
        without this the survivors would re-elect (and regenerate tokens
        for a decided run) forever.  Elections double as the recovery
        channel for lost halts.
        """
        return bool(
            self.halted
            or getattr(self, "detected", False)
            or getattr(self, "aborted", False)
        )

    def _fd_install(self, frame: TokenFrame, red_slots):
        """Take possession of a regenerated token frame (default: hold)."""
        self._seen_hops[frame.gid] = frame.order
        self._last_frames[frame.gid] = frame
        self._held.append(self._snapshot_frame(frame))
        self._on_token_accepted(frame)
        return
        yield  # pragma: no cover - generator marker

    # ------------------------------------------------------------------
    # Idle loop
    # ------------------------------------------------------------------
    def _fd_receive(self, description: str):
        """Receive one message, ticking the detector while idle.

        Returns the message, or ``None`` after an idle tick (the caller
        just loops).  Once ``max_idle_rounds`` consecutive idle ticks
        pass with no protocol traffic, falls back to a blocking receive
        so a dead run can quiesce.  Both receives are built once per
        description: the kernel tells blocks apart by epoch, not object.
        """
        idle = self._fd_idle.get(description)
        if idle is None:
            idle = self._fd_idle[description] = (
                self.receive(description=description),
                None if self._fd is None else self.receive_timeout(
                    timeout=self._fd.tick_interval, description=description
                ),
            )
        block, tick = idle
        if tick is None or self._fd_idle_rounds >= self._fd.max_idle_rounds:
            msg = yield block
            return msg
        passive = (
            GOSSIP_KINDS if self._fd.membership == "gossip"
            else _HEARTBEAT_ONLY
        )
        msg = yield tick
        if msg is not None:
            if msg.kind not in passive:
                self._fd_idle_rounds = 0
            return msg
        yield from self._fd_tick()
        return None

    def _fd_holding(self) -> bool:
        """Whether a token is demonstrably here (held or mid-transfer)."""
        return bool(self._held) or any(
            kind == TOKEN_KIND
            for (_d, kind, _f, _b) in self._pending_out.values()
        )

    def _fd_alive_slots(self, now: float) -> set[int]:
        """Slots this monitor considers live (including itself)."""
        assert self._fd is not None
        if self._fd.membership == "gossip":
            return self._swim_state().alive_slots()
        return {self._fd_slot()} | {
            slot
            for slot, heard in self._fd_last_heard.items()
            if now - heard <= self._fd.suspicion_after
        }

    def _fd_tick(self):
        """One idle tick: beacon or probe the peers, maybe elect."""
        assert self._fd is not None
        self._fd_idle_rounds += 1
        holding = self._fd_holding()
        if self._fd.membership == "gossip":
            yield from self._swim_tick(holding)
        else:
            peers = self._fd_all_peers()
            beat = Heartbeat(self._fd_slot(), self._epoch, holding)
            yield [
                self.send(name, beat, kind=HEARTBEAT_KIND,
                          size_bits=HEARTBEAT_BITS)
                for _slot, name in sorted(peers.items())
            ]
        now = self.now
        if not self._fd_can_take_over:
            return
        if now - self._token_activity < self._fd.grace:
            return
        if holding:
            return  # the token is demonstrably here; nothing to take over
        if self._fd_futile >= self._fd.max_idle_rounds:
            # Takeovers keep regenerating the same token (it is forwarded
            # to a dead red slot every time): let the run quiesce.
            return
        alive = self._fd_alive_slots(now)
        if self._fd_slot() != min(alive):
            return  # a lower unsuspected slot is responsible for takeover
        yield from self._fd_run_election()

    # ------------------------------------------------------------------
    # Gossip (SWIM) membership
    # ------------------------------------------------------------------
    def _swim_state(self) -> SwimState:
        """The persisted SWIM state machine (created on first use)."""
        assert self._fd is not None
        if self._swim is None:
            self._swim = SwimState(
                self._fd_slot(),
                self._fd_all_peers(),
                fanout=self._fd.gossip_fanout,
                seed=derive_seed(0, self.name),
                names={**self._fd_extra_peers, **self._fd_names()},
            )
        return self._swim

    def _swim_tick(self, holding: bool):
        """One gossip tick: advance the probe state machine by one step.

        Direct ping -> (on timeout) k-way indirect ping-req -> (on
        timeout) suspect; overdue suspects are confirmed after the
        refutation window.  Cost per tick is O(1) messages regardless
        of the monitor-group size.
        """
        assert self._fd is not None
        swim = self._swim_state()
        now = self.now
        timeout = self._fd.probe_timeout
        peers = self._fd_all_peers()
        if swim.probe_target is not None and swim.probe_due(now):
            if swim.probe_stage == "direct":
                helpers = swim.escalate(now, timeout, self._fd.gossip_fanout)
                if helpers:
                    req = PingReq(
                        swim.probe_seq, swim.slot, swim.incarnation,
                        swim.probe_target, swim.piggyback(PIGGYBACK_LIMIT),
                    )
                    yield [
                        self.send(peers[h], req, kind=PING_REQ_KIND,
                                  size_bits=req.size_bits())
                        for h in helpers
                    ]
                else:
                    swim.fail_probe(now)
            else:
                swim.fail_probe(now)
        if swim.probe_target is None:
            target = swim.next_target()
            if target is not None and target in peers:
                seq = swim.begin_probe(target, now, timeout)
                ping = Ping(
                    seq, swim.slot, swim.incarnation, swim.slot,
                    holding, swim.piggyback(PIGGYBACK_LIMIT),
                )
                yield self.send(peers[target], ping, kind=PING_KIND,
                                size_bits=ping.size_bits())
        swim.promote_due(now, self._fd.suspicion_after)

    def _swim_note_peer(self, slot: int, incarnation: int,
                        holding: bool) -> None:
        """First-hand contact with ``slot``: implicit alive + activity."""
        swim = self._swim_state()
        swim.apply(GossipUpdate(slot, ALIVE, incarnation), self.now)
        self._fd_last_heard[slot] = self.now
        if holding:
            self._token_activity = self.now

    def _swim_ingest(self, updates):
        """Fold piggybacked gossip in; react to fresh announcements.

        A fresh *elect* announcement is answered exactly like a direct
        ``elect`` message (halt re-delivery for finished runs, epoch
        adoption + ``elect_ok`` otherwise); a fresh *halt* announcement
        terminates this monitor and acks the halt's originator.
        Returns ``"halt"`` when the caller must terminate.
        """
        swim = self._swim_state()
        code = "handled"
        for event in swim.ingest(updates, self.now):
            tag = event[0]
            if tag == "joined":
                self._fd_learn(*event[1:])
                continue
            peers = self._fd_all_peers()
            if tag == "elect":
                _, epoch, slot = event
                origin = peers.get(slot)
                if origin is None or slot == swim.slot:
                    continue
                if self._fd_finished():
                    yield self.send(origin, None, kind=HALT_KIND,
                                    size_bits=1)
                elif epoch > self._epoch:
                    self._adopt_epoch(epoch)
                    self._drop_stale_held()
                    reply = self._fd_state(epoch)
                    yield self.send(origin, reply, kind=ELECT_OK_KIND,
                                    size_bits=reply.size_bits())
            elif tag == "halt":
                _, _epoch, slot = event
                origin = peers.get(slot)
                self.halted = True
                if origin is not None:
                    yield self.send(origin, None, kind=HALT_ACK_KIND,
                                    size_bits=HALT_ACK_BITS)
                code = "halt"
        return code

    # ------------------------------------------------------------------
    # Election
    # ------------------------------------------------------------------
    def _fd_state(self, epoch: int) -> ElectOk:
        """This monitor's contribution to an election for ``epoch``."""
        gids = set(self._last_frames)
        gids.update(
            frame.gid
            for (_d, kind, frame, _b) in self._pending_out.values()
            if kind == TOKEN_KIND
        )
        frames = []
        for gid in sorted(gids):
            frame = self._best_frame(gid)
            if frame is not None:
                frames.append(frame)
        return ElectOk(
            epoch=epoch,
            slot=self._fd_slot(),
            frames=tuple(frames),
            red=self._fd_is_red(),
        )

    def _fd_run_election(self):
        """Run one takeover election as its initiator."""
        assert self._fd is not None
        epoch = self._epoch + 1
        self._adopt_epoch(epoch)
        self._drop_stale_held()
        self.elections += 1
        my_slot = self._fd_slot()
        peers = self._fd_all_peers()
        if self._fd.membership == "gossip":
            # No broadcast: announce the election through the gossip
            # channel and push it to ``fanout`` peers immediately; the
            # epidemic spread recruits the rest, each respondent
            # replying elect_ok straight to this initiator.
            swim = self._swim_state()
            swim.announce("elect", epoch, my_slot)
            targets = sorted(
                (s for s in swim.alive_slots()
                 if s != my_slot and s in peers),
                key=lambda s: derive_seed(swim.seed, f"elect:{epoch}:{s}"),
            )[: self._fd.gossip_fanout]
            sends = []
            for slot in targets:
                seq = swim.new_seq()
                ping = Ping(
                    seq, my_slot, swim.incarnation, my_slot,
                    False, swim.piggyback(PIGGYBACK_LIMIT),
                )
                sends.append(self.send(
                    peers[slot], ping, kind=PING_KIND,
                    size_bits=ping.size_bits(),
                ))
            if sends:
                yield sends
        else:
            proposal = Elect(epoch, my_slot)
            yield [
                self.send(name, proposal, kind=ELECT_KIND,
                          size_bits=ELECT_BITS)
                for _slot, name in sorted(peers.items())
            ]
        deadline = self.now + self._fd.election_window
        replies: dict[int, ElectOk] = {my_slot: self._fd_state(epoch)}
        while self.now < deadline:
            msg = yield self.receive_timeout(
                timeout=deadline - self.now,
                description=f"{self.name} collecting election replies",
            )
            if msg is None:
                break
            if msg.corrupted:
                continue
            if msg.kind == ELECT_OK_KIND and msg.payload.epoch == epoch:
                reply: ElectOk = msg.payload
                replies[reply.slot] = reply
                self._fd_last_heard[reply.slot] = self.now
                continue
            code = yield from self._dispatch(msg)
            if code == "halt" or self._epoch > epoch:
                return  # halted, or a higher-epoch election superseded us
        if self._epoch > epoch:
            return
        # Election over; the token counts as "active" again so the next
        # grace period starts fresh (a natural re-election cooldown).
        self._token_activity = self.now
        frames = best_frames(
            frame for reply in replies.values() for frame in reply.frames
        )
        state = tuple((frame.gid, frame.body) for frame in frames)
        futile = state == self._fd_last_regen
        self._fd_futile = self._fd_futile + 1 if futile else 0
        self._fd_last_regen = state
        if not frames:
            return  # nothing survives to regenerate from
        red_slots = tuple(sorted(
            slot for slot, reply in replies.items() if reply.red
        ))
        if not red_slots:
            # No surviving monitor may host the token (direct-dependence
            # routing: the only red holder died for good) — the run will
            # degrade honestly instead of detecting from a bad cut.
            return
        winner = red_slots[0]
        if winner == my_slot:
            yield from self._fd_regenerate(epoch, frames, red_slots)
        else:
            request = RegenRequest(epoch, frames, red_slots)
            yield self.send(
                peers[winner], request, kind=REGEN_KIND,
                size_bits=request.size_bits(),
            )

    def _fd_regenerate(self, epoch: int, frames, red_slots):
        """Regenerate every collected token, restamped with ``epoch``."""
        if epoch <= self._fd_regen_epoch:
            return  # this epoch's takeover already happened here
        self._fd_regen_epoch = epoch
        self.takeovers += 1
        self._token_activity = self.now
        self._fd_idle_rounds = 0
        for frame in frames:
            reborn = TokenFrame(
                hop=frame.hop, body=frame.body, gid=frame.gid, epoch=epoch
            )
            yield from self._fd_install(reborn, red_slots)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch_fd(self, msg):
        """Handle failure-detection kinds; mirrors ``_dispatch_common``."""
        if self._fd is None:
            return "unhandled"
        if msg.kind == HEARTBEAT_KIND:
            if not msg.corrupted:
                beat: Heartbeat = msg.payload
                self._fd_last_heard[beat.slot] = self.now
                if beat.holding:
                    self._token_activity = self.now
                if beat.epoch > self._epoch:
                    self._adopt_epoch(beat.epoch)
                    self._drop_stale_held()
            return "handled"
        if msg.kind == ELECT_KIND:
            if msg.corrupted:
                return "handled"  # the initiator retries via re-election
            proposal: Elect = msg.payload
            self._fd_last_heard[proposal.slot] = self.now
            if self._fd_finished():
                # The run is already decided here; the initiator missed
                # the halt (a partition ate it).  Re-deliver it instead
                # of letting a dead protocol be resurrected.
                yield self.send(msg.src, None, kind=HALT_KIND, size_bits=1)
                return "handled"
            if proposal.epoch > self._epoch:
                self._adopt_epoch(proposal.epoch)
                self._drop_stale_held()
                reply = self._fd_state(proposal.epoch)
                yield self.send(
                    msg.src, reply, kind=ELECT_OK_KIND,
                    size_bits=reply.size_bits(),
                )
            return "handled"
        if msg.kind == ELECT_OK_KIND:
            return "handled"  # a straggler from a closed election window
        if msg.kind == REGEN_KIND:
            if msg.corrupted:
                return "handled"
            request: RegenRequest = msg.payload
            if self._fd_finished():
                yield self.send(msg.src, None, kind=HALT_KIND, size_bits=1)
                return "handled"
            if request.epoch >= self._epoch:
                self._adopt_epoch(request.epoch)
                self._drop_stale_held()
                yield from self._fd_regenerate(
                    request.epoch, request.frames, request.red_slots
                )
            return "handled"
        if msg.kind == PING_KIND:
            if msg.corrupted:
                return "handled"  # the prober times out and escalates
            ping: Ping = msg.payload
            code = yield from self._swim_ingest(ping.updates)
            if code == "halt":
                return code
            self._swim_note_peer(ping.slot, ping.incarnation, ping.holding)
            swim = self._swim_state()
            dest = self._fd_all_peers().get(ping.reply_to)
            if dest is None and ping.reply_to == ping.slot:
                # A direct probe from a joiner this monitor has not been
                # introduced to yet: the sender is still routable.
                dest = msg.src
            if dest is not None:
                ack = PingAck(
                    ping.seq, swim.slot, swim.incarnation,
                    self._fd_holding(), swim.piggyback(PIGGYBACK_LIMIT),
                )
                yield self.send(dest, ack, kind=PING_ACK_KIND,
                                size_bits=ack.size_bits())
            return "handled"
        if msg.kind == PING_ACK_KIND:
            if msg.corrupted:
                return "handled"
            ack_in: PingAck = msg.payload
            code = yield from self._swim_ingest(ack_in.updates)
            if code == "halt":
                return code
            self._swim_note_peer(ack_in.slot, ack_in.incarnation,
                                 ack_in.holding)
            self._swim_state().on_ack(ack_in.slot, ack_in.seq)
            return "handled"
        if msg.kind == PING_REQ_KIND:
            if msg.corrupted:
                return "handled"
            req: PingReq = msg.payload
            code = yield from self._swim_ingest(req.updates)
            if code == "halt":
                return code
            self._swim_note_peer(req.slot, req.incarnation, False)
            swim = self._swim_state()
            dest = self._fd_all_peers().get(req.target)
            if dest is not None:
                # Stateless relay: the target acks straight back to the
                # requester (``reply_to``), so no helper bookkeeping.
                relay = Ping(
                    req.seq, swim.slot, swim.incarnation, req.slot,
                    False, swim.piggyback(PIGGYBACK_LIMIT),
                )
                yield self.send(dest, relay, kind=PING_KIND,
                                size_bits=relay.size_bits())
            return "handled"
        if msg.kind == JOIN_KIND:
            if msg.corrupted:
                return "handled"  # the joiner retransmits
            if self._fd.membership != "gossip":
                return "handled"  # elastic join is gossip-only
            join: Join = msg.payload
            swim = self._swim_state()
            fresh = swim.add_member(
                join.slot, join.name, incarnation=join.incarnation
            )
            self._fd_extra_peers[join.slot] = join.name
            self._fd_last_heard[join.slot] = self.now
            # Welcome: the full membership snapshot plus the current
            # election epoch, so the joiner is correct from message one.
            # Re-sent on every retransmitted join (the previous welcome
            # may have been lost); membership admission is idempotent.
            peers = self._fd_all_peers()
            me = swim.table[swim.slot]
            members = [(swim.slot, self.name, me.incarnation, me.status)]
            for slot in sorted(peers):
                entry = swim.table.get(slot)
                if entry is None or slot == swim.slot:
                    continue
                members.append(
                    (slot, peers[slot], entry.incarnation, entry.status)
                )
            welcome = JoinWelcome(tuple(members), self._epoch)
            yield self.send(msg.src, welcome, kind=JOIN_ACK_KIND,
                            size_bits=welcome.size_bits())
            # Anti-entropy: this monitor's persisted token frames and its
            # candidate-ack baseline, so the joiner's inbox starts at the
            # right sequence number instead of demanding retired history.
            frames = tuple(
                f for f in (
                    self._best_frame(gid) for gid in sorted(self._last_frames)
                )
                if f is not None
            )
            stream = self._app_src
            baselines = ((stream, self._inbox.ack),) if stream else ()
            sync = StateSync(
                frames=frames, baselines=baselines,
                frame_bits=sum(_frame_bits(f) for f in frames),
            )
            yield self.send(msg.src, sync, kind=STATE_SYNC_KIND,
                            size_bits=sync.size_bits())
            if stream:
                # Subscribe the joiner to this monitor's feeder stream
                # from the baseline on (idempotent at the feeder).
                feed = FeedJoin(join.name, self._inbox.ack)
                yield self.send(stream, feed, kind=FEED_JOIN_KIND,
                                size_bits=feed.size_bits())
            return "handled"
        return "unhandled"

    # ------------------------------------------------------------------
    # Gossip piggybacking on token traffic (transport hooks)
    # ------------------------------------------------------------------
    def _stamp_frame(self, frame: TokenFrame, bits: int):
        """Piggyback pending membership updates on an outgoing token.

        Announcements never ride frames — frame ingestion happens in a
        non-yielding hook, so it could not send the replies an election
        or halt announcement demands.
        """
        if self._fd is None or self._fd.membership != "gossip":
            return frame, bits
        updates = self._swim_state().piggyback(
            PIGGYBACK_LIMIT, membership_only=True
        )
        if not updates:
            return frame, bits
        stamped = TokenFrame(
            hop=frame.hop, body=frame.body, gid=frame.gid,
            epoch=frame.epoch, gossip=updates,
        )
        return stamped, bits + sum(u.size_bits() for u in updates)

    def _ingest_frame(self, frame: TokenFrame) -> None:
        """Fold membership gossip off an arriving token frame.

        Runs before dedup, so even a duplicate frame's piggyback is
        used; ingestion is idempotent (precedence is a total order).
        """
        if self._fd is None or self._fd.membership != "gossip":
            return
        gossip = getattr(frame, "gossip", ())
        if gossip:
            # This hook cannot yield, so announcement events are left to
            # the direct protocol messages that carry them; joiner
            # introductions must be registered here though, or a later
            # probe escalation picks a slot the transport cannot name.
            for event in self._swim_state().ingest(gossip, self.now):
                if event[0] == "joined":
                    self._fd_learn(*event[1:])

    # ------------------------------------------------------------------
    # Gossip-disseminated reliable halt
    # ------------------------------------------------------------------
    def _reliable_halt(self, targets):
        """Reliable halt without an all-to-all broadcast.

        The halt is announced through the gossip channel: the first
        rounds push it (as ping piggyback) to ``fanout`` monitor peers,
        whose dispatch acks the originator and re-gossips, so a large
        group halts in O(log N) epidemic rounds with O(N) total acks.
        Feeders don't gossip and are always halted directly.  Later
        rounds fall back to direct ``halt`` for whoever hasn't acked,
        preserving the bounded-retry ``halt_incomplete`` contract.
        """
        if self._fd is None or self._fd.membership != "gossip":
            yield from super()._reliable_halt(targets)
            return
        swim = self._swim_state()
        swim.announce("halt", self._epoch, swim.slot)
        if self._halting_targets is None:
            # Runtime-joined members halt too — they are full gossip
            # members even though no host enumerated them up front.
            everybody = set(targets) | set(self._fd_extra_peers.values())
            self._halting_targets = {t for t in everybody if t != self.name}
        pending = self._halting_targets
        peers = self._fd_all_peers()
        slot_by_name = {name: slot for slot, name in peers.items()}
        attempt = 0
        while pending:
            use_gossip = attempt < 2
            ping_slots = []
            sends = []
            for t in sorted(pending):
                slot = slot_by_name.get(t)
                if (
                    use_gossip and slot is not None
                    and len(ping_slots) < self._fd.gossip_fanout
                ):
                    ping_slots.append(slot)
                else:
                    sends.append(self.send(t, None, kind=HALT_KIND,
                                           size_bits=1))
            for slot in ping_slots:
                seq = swim.new_seq()
                ping = Ping(
                    seq, swim.slot, swim.incarnation, swim.slot,
                    False, swim.piggyback(PIGGYBACK_LIMIT),
                )
                sends.append(self.send(
                    peers[slot], ping, kind=PING_KIND,
                    size_bits=ping.size_bits(),
                ))
            if sends:
                yield sends
            if not (yield from self._await_halt_acks(pending, attempt)):
                return
            attempt += 1

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def restart(self):
        """Rejoin the gossip group with a fresh incarnation, refuting
        any suspicion accrued while this monitor was down."""
        if (
            self._fd is not None
            and self._fd.membership == "gossip"
            and self._swim is not None
        ):
            self._swim.rejoin()
        return super().restart()

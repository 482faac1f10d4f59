"""§3.5: the multi-token (grouped) variant of the vector-clock algorithm.

The single-token algorithm has no concurrency — only the token holder is
active.  §3.5 partitions the monitors into ``g`` groups with one token
each.  Within a group the single-token algorithm runs unchanged except
that the token never leaves the group; once no slot *of the group* is
red in its token, the token returns to a pre-determined **leader**.

The leader merges the ``g`` tokens into a global candidate cut.  Merging
uses elimination semantics: a red entry ``(G, red)`` means states up to
and including ``G`` are eliminated; a green entry ``(G, green)`` means
``G`` is a live candidate (states before it eliminated).  A slot's live
candidate comes only from its own group's token (other tokens can only
*eliminate* it).  If the merged cut is all green the WCP is detected —
the same pairwise-concurrency argument as Theorem 3.2 applies, because a
green candidate surviving every token's elimination bound cannot have
happened before any other green candidate.  Otherwise the leader sends
refreshed tokens into every group that still has a red slot and repeats.

Totals match the single-token algorithm; the win is concurrency: ``g``
monitors can be active at once, which experiment E4 measures as
makespan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from repro.common.errors import ConfigurationError
from repro.common.types import WORD_BITS
from repro.detect.base import (
    GREEN,
    HALT_KIND,
    RED,
    TOKEN_KIND,
    DetectionReport,
    monitor_name,
)
from repro.detect.launch import OnlineRun
from repro.detect.stack import (
    AdaptiveRetryPolicy,
    FailureDetectorConfig,
    StackGlue,
    TokenFrame,
    harden,
    register_glue,
)
from repro.detect.token_vc import (
    Fig3Slot,
    VCToken,
    candidate_feed_items,
    receive_candidate,
)
from repro.predicates.conjunctive import WeakConjunctivePredicate
from repro.simulation.actors import Actor
from repro.simulation.network import ChannelModel
from repro.trace.computation import Computation
from repro.trace.cuts import Cut

if TYPE_CHECKING:  # annotation-only: cores stay decoupled from the fault layer
    from repro.simulation.faults import FaultPlan

__all__ = [
    "GroupToken",
    "GroupMonitor",
    "LeaderActor",
    "HardenedGroupMonitor",
    "HardenedLeader",
    "detect",
    "LEADER_NAME",
]

LEADER_NAME = "leader"


@dataclass
class GroupToken:
    """One group's token: a full-width :class:`VCToken` tagged with its group."""

    group: int
    token: VCToken

    def size_bits(self) -> int:
        """Group tag plus the token vectors."""
        return WORD_BITS + self.token.size_bits()

    def copy(self) -> "GroupToken":
        return GroupToken(self.group, self.token.copy())


class GroupMonitor(Actor):
    """A Fig. 3 monitor restricted to in-group token travel.

    Identical to the single-token monitor except: the red-slot search
    only considers slots in this monitor's group, and when none are red
    the token is returned to the leader.  Detection is always declared
    by the leader.
    """

    def __init__(
        self,
        pid: int,
        slot: int,
        monitor_names: list[str],
        group_slots: frozenset[int],
    ) -> None:
        super().__init__(monitor_name(pid))
        self._fig3 = Fig3Slot(slot, len(monitor_names))
        self._pid = pid
        self._slot = slot
        self._monitors = list(monitor_names)
        self._n = len(monitor_names)
        self._group_slots = group_slots
        self.aborted = False
        self.token_visits = 0

    def run(self):
        while True:
            msg = yield self.receive(TOKEN_KIND, HALT_KIND)
            if msg.kind == HALT_KIND:
                return
            gtoken: GroupToken = msg.payload
            self.token_visits += 1
            # As in TokenVCMonitor.run: a plain visit replays nothing.
            assert gtoken.token.color[self._slot] == RED
            self._fig3.accepted = None
            code = yield from self._fig3.visit(
                self, gtoken.token, partial(receive_candidate, self)
            )
            if code == "abort":
                self.aborted = True
                yield self.broadcast(
                    [m for m in self._monitors if m != self.name] + [LEADER_NAME],
                    None,
                    kind=HALT_KIND,
                    size_bits=1,
                )
                return
            yield self.send(
                self._next_holder(gtoken.token), gtoken, kind=TOKEN_KIND,
                size_bits=gtoken.size_bits(),
            )

    def _next_holder(self, token: VCToken) -> str:
        """The next red slot of this group (cyclic), else the leader."""
        for step in range(1, self._n + 1):
            j = (self._slot + step) % self._n
            if j in self._group_slots and token.color[j] == RED:
                return self._monitors[j]
        return LEADER_NAME


class LeaderActor(Actor):
    """§3.5's pre-determined leader: merges tokens, re-dispatches, detects.

    Maintains the merged candidate cut as ``(live, elim)`` per slot:
    ``live[i]`` is the current candidate from group(i)'s token (or None),
    ``elim[i]`` the highest eliminated interval from any token.
    """

    def __init__(
        self,
        groups: list[frozenset[int]],
        group_of: list[int],
        monitor_names: list[str],
    ) -> None:
        super().__init__(LEADER_NAME)
        self._groups = groups
        self._group_of = group_of
        self._monitors = monitor_names
        self._n = len(monitor_names)
        self.detected = False
        self.detected_cut: tuple[int, ...] | None = None
        self.detected_at: float | None = None
        self.rounds = 0

    def run(self):
        n = self._n
        live: list[int | None] = [None] * n
        elim: list[int] = [0] * n  # states <= elim[i] are eliminated; 0 = none
        while True:
            tokens = self._round_tokens(live, elim)
            if self.detected:
                yield self.broadcast(
                    self._monitors, None, kind=HALT_KIND, size_bits=1
                )
                return
            for entry, gtoken in tokens:
                yield self.send(
                    self._monitors[entry],
                    gtoken,
                    kind=TOKEN_KIND,
                    size_bits=gtoken.size_bits(),
                )
            outstanding = len(tokens)
            while outstanding:
                msg = yield self.receive(TOKEN_KIND, HALT_KIND)
                if msg.kind == HALT_KIND:
                    return
                returned: GroupToken = msg.payload
                yield self.work(n)
                self._merge(returned, live, elim)
                outstanding -= 1

    def _round_tokens(
        self, live: list[int | None], elim: list[int]
    ) -> list[tuple[int, GroupToken]]:
        """Start one merge round over the merged cut ``(live, elim)``.

        Counts the round.  With no red slot left, declares detection and
        returns no tokens; otherwise returns ``(entry_slot, token)`` for
        each group with a red slot, entering at its lowest red slot.
        Each group gets its own token object.
        """
        self.rounds += 1
        n = self._n
        red = [live[i] is None or live[i] <= elim[i] for i in range(n)]
        if not any(red):
            self.detected = True
            self.detected_cut = tuple(live)  # type: ignore[arg-type]
            self.detected_at = self.now
            return []
        G = [elim[i] if red[i] else live[i] for i in range(n)]
        color = [RED if red[i] else GREEN for i in range(n)]
        entry: dict[int, int] = {}
        for i in range(n):
            if red[i]:
                entry.setdefault(self._group_of[i], i)
        return [
            (slot, GroupToken(g, VCToken(G=list(G), color=list(color))))
            for g, slot in sorted(entry.items())
        ]

    def _merge(
        self, gtoken: GroupToken, live: list[int | None], elim: list[int]
    ) -> None:
        token = gtoken.token
        for i in range(self._n):
            if self._group_of[i] == gtoken.group:
                # Authoritative candidate for this slot.
                live[i] = token.G[i] if token.color[i] == GREEN else None
                bound = token.G[i] if token.color[i] == RED else token.G[i] - 1
                elim[i] = max(elim[i], bound)
            else:
                # Other groups can only eliminate.
                bound = token.G[i] if token.color[i] == RED else token.G[i] - 1
                elim[i] = max(elim[i], bound)


class GroupVCGlue(StackGlue):
    """Stack glue for the crash/loss-tolerant §3.5 group monitor.

    The in-group token travels in hop-numbered frames keyed by the group
    id (each group's token has its own hop sequence), acked per hop and
    retransmitted from the previous holder's persisted copy; candidates
    arrive through the sequence-numbered inbox.  See
    :class:`repro.detect.token_vc.TokenVCGlue` for the shared
    crash-resume argument and for the takeover semantics when a
    failure detector is configured.
    """

    def _snapshot_frame(self, frame: TokenFrame) -> TokenFrame:
        return TokenFrame(frame.hop, frame.body.copy(), frame.gid, frame.epoch)

    def _on_token_accepted(self, frame: TokenFrame) -> None:
        self.token_visits += 1

    def _fd_slot(self) -> int:
        return self._slot

    def _fd_peers(self) -> dict[int, str]:
        # The leader participates at slot -1, so a live leader always
        # initiates (and wins) takeover elections — only it can merge.
        peers = {
            slot: name
            for slot, name in enumerate(self._monitors)
            if slot != self._slot
        }
        peers[-1] = LEADER_NAME
        return peers

    def _halt_targets(self) -> list[str]:
        return [*super()._halt_targets(), LEADER_NAME]

    def _handle_frame(self, frame: TokenFrame):
        """One (possibly crash-resumed) visit of the held group token."""
        return (
            yield from self._fig3.visit(
                self, frame.body.token, self._next_candidate
            )
        )

    def _resolve_frame(self, frame: TokenFrame, code: str) -> None:
        if code == "abort":
            self.aborted = True
        else:  # forward: in group, or back to the leader
            gtoken: GroupToken = frame.body
            self._begin_transfer(
                self._next_holder(gtoken.token),
                TokenFrame(frame.hop + 1, gtoken, frame.gid, frame.epoch),
                gtoken.size_bits() + WORD_BITS,
            )


class LeaderGlue(StackGlue):
    """Stack glue for the crash/loss-tolerant §3.5 leader.

    The merge state (``live`` / ``elim``) and the set of groups whose
    tokens are outstanding live in persisted attributes; merging a
    returned token and retiring it from the outstanding set happen in
    one atomic block, and merging is idempotent (component-wise max), so
    a crash between rounds or mid-merge resumes cleanly.  Each round's
    fresh group tokens are numbered ``seen_hop(group) + 1``, continuing
    the group's hop sequence across rounds.  Rounds start from the
    stack run loop's idle hook (:meth:`_stack_idle`).

    With a failure detector the leader takes election slot ``-1``: it
    always initiates and wins takeovers (only it holds the merge state),
    regenerates lost group tokens from the survivors' persisted frames,
    merges them as returned tokens (the merge is monotone, so a mid-tour
    token's bounds are valid) and re-dispatches on the next round.
    """

    def _init_visit_state(self) -> None:
        self._live: list[int | None] = [None] * self._n
        self._elim: list[int] = [0] * self._n
        self._outstanding: set[int] = set()

    # ------------------------------------------------------------------
    def _snapshot_frame(self, frame: TokenFrame) -> TokenFrame:
        return TokenFrame(frame.hop, frame.body.copy(), frame.gid, frame.epoch)

    def _fd_slot(self) -> int:
        return -1

    def _fd_peers(self) -> dict[int, str]:
        return dict(enumerate(self._monitors))

    def _idle_description(self) -> str:
        return f"{self.name} awaiting group tokens"

    # ------------------------------------------------------------------
    def _handle_frame(self, frame: TokenFrame):
        yield self.work(self._n)
        return "merge"

    def _resolve_frame(self, frame: TokenFrame, code: str) -> None:
        # Atomic: merge the returned token and retire it together.
        gtoken: GroupToken = frame.body
        self._merge(gtoken, self._live, self._elim)
        self._outstanding.discard(gtoken.group)

    def _stack_idle(self) -> bool:
        """Start a new merge round once every group token has returned."""
        if self._outstanding:
            return False
        tokens = self._round_tokens(self._live, self._elim)
        for entry, gtoken in tokens:
            g = gtoken.group
            last_hop = self._seen_hops.get(g, (0, 0))[1]
            self._begin_transfer(
                self._monitors[entry],
                TokenFrame(last_hop + 1, gtoken, gid=g, epoch=self._epoch),
                gtoken.size_bits() + WORD_BITS,
            )
        self._outstanding = {gtoken.group for _, gtoken in tokens}
        return True


register_glue(GroupMonitor, GroupVCGlue)
register_glue(LeaderActor, LeaderGlue)

#: Hardened §3.5 actors: plain cores + protocol stack, by composition.
HardenedGroupMonitor = harden(GroupMonitor)
HardenedLeader = harden(LeaderActor, name="HardenedLeader")


def _partition(n: int, g: int) -> tuple[list[frozenset[int]], list[int]]:
    """Contiguous partition of slots 0..n-1 into g non-empty groups."""
    if g < 1:
        raise ConfigurationError(f"groups must be >= 1, got {g}")
    g = min(g, n)
    base, extra = divmod(n, g)
    groups: list[frozenset[int]] = []
    group_of = [0] * n
    start = 0
    for k in range(g):
        size = base + (1 if k < extra else 0)
        members = frozenset(range(start, start + size))
        groups.append(members)
        for i in members:
            group_of[i] = k
        start += size
    return groups, group_of


def detect(
    computation: Computation,
    wcp: WeakConjunctivePredicate,
    *,
    seed: int = 0,
    channel_model: ChannelModel | None = None,
    spacing: float = 1.0,
    groups: int = 2,
    observers: list | None = None,
    faults: FaultPlan | None = None,
    hardened: bool | None = None,
    retry: AdaptiveRetryPolicy | None = None,
    failure_detector: FailureDetectorConfig | None = None,
) -> DetectionReport:
    """Run the §3.5 multi-token algorithm with ``groups`` tokens.

    ``faults`` / ``hardened`` / ``retry`` / ``failure_detector`` behave
    as in :func:`repro.detect.token_vc.detect`.
    """
    run = OnlineRun(
        computation, wcp, seed=seed, channel_model=channel_model,
        observers=observers, faults=faults, hardened=hardened, retry=retry,
        failure_detector=failure_detector,
    )
    pids = wcp.pids
    group_sets, group_of = _partition(wcp.n, groups)
    names = [monitor_name(pid) for pid in pids]
    monitors = [
        run.monitor(GroupMonitor, pid, slot, names, group_sets[group_of[slot]])
        for slot, pid in enumerate(pids)
    ]
    # The leader sends each round's group tokens itself: nothing to inject.
    leader = run.host(LeaderActor, group_sets, group_of, names)
    run.feed(
        pids, candidate_feed_items(computation, wcp.predicate_map(), pids),
        spacing,
    )
    run.start()

    extras = {"groups": len(group_sets), "rounds": leader.rounds}
    if leader.detected:
        return run.report(
            "token_vc_multi", extras, cut=Cut(pids, leader.detected_cut),
            detection_time=leader.detected_at,
        )
    return run.report(
        "token_vc_multi", extras,
        partial_cut=[
            None if m._fig3.accepted is None else m._fig3.accepted[slot]
            for slot, m in enumerate(monitors)
        ],
    )

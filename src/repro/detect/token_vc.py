"""§3: the single-token, vector-clock WCP detection algorithm.

This is the paper's first contribution (Figs. 2 and 3), implemented as
simulated monitor actors:

* Application processes (replayed by
  :class:`~repro.simulation.replay.SnapshotFeeder`) send one vector-clock
  snapshot per predicate-true interval to their monitor over a FIFO
  channel.
* A unique token carries the candidate cut ``G`` and a ``color`` vector.
  ``color[i] = red`` means state ``(i, G[i])`` and all predecessors are
  eliminated; ``green`` means no state in ``G`` is known to follow it.
* The monitor holding the token (Fig. 3) advances its own candidate past
  ``G[i]``, then scans the accepted candidate's vector: any ``j`` with
  ``candidate[j] >= G[j]`` has ``(j, G[j]) -> (i, G[i])`` (vector-clock
  property 2) and is repainted red with ``G[j] := candidate[j]``.
* All green ⇒ the cut is consistent and the WCP is detected — and by
  Theorem 3.2 it is the *first* such cut.

Termination extension (see DESIGN.md): an end-of-trace marker from the
application aborts the protocol with "not detected" when a red process
has no further candidates.

Cost accounting (experiment E1): one work unit per candidate consumed,
one per vector-component comparison in the Fig. 3 for-loop, ``n`` per
token visit for the red-scan; the token message is ``2n`` words, a
candidate message ``n`` words.
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
from repro.predicates.conjunctive import WeakConjunctivePredicate
from repro.simulation.actors import Actor
from repro.simulation.network import ChannelModel
from repro.simulation.replay import CANDIDATE_KIND, END_OF_TRACE_KIND, FeedItem
from repro.trace.computation import Computation
from repro.trace.cuts import Cut
from repro.trace.snapshots import vc_snapshots

if TYPE_CHECKING:  # annotation-only: cores stay decoupled from the fault layer
    from repro.simulation.faults import FaultPlan

__all__ = [
    "ROUTINGS",
    "VCToken",
    "Fig3Slot",
    "receive_candidate",
    "TokenVCMonitor",
    "HardenedTokenVCMonitor",
    "candidate_feed_items",
    "detect",
]


def candidate_feed_items(
    computation: Computation,
    predicates,
    pids: tuple[int, ...],
) -> dict[int, list[FeedItem]]:
    """The Fig. 2 candidate streams as feeder-ready items, one per pid.

    ``predicates`` maps each emitting pid to its local predicate;
    ``pids`` is the projection target (the WCP's pids for a
    single-predicate run, the registered union for the multi-predicate
    service).  Extracted from :func:`detect` so N predicates can be
    evaluated against one interval stream: the emission points depend
    only on ``(computation, pid, clause)``, so every consumer of the
    same clause sees the identical stream.
    """
    streams = vc_snapshots(computation, dict(predicates))
    width = len(pids)
    return {
        pid: [
            FeedItem(
                payload=snap.vector.project(pids),
                size_bits=width * WORD_BITS,
                time=snap.time,
            )
            for snap in stream
        ]
        for pid, stream in streams.items()
    }


@dataclass
class VCToken:
    """The unique token: candidate cut ``G`` plus per-slot colors.

    Slot ``k`` corresponds to ``wcp.pids[k]``.  ``G`` holds 1-based
    interval indices (0 = no candidate yet); exactly one monitor holds
    the token at any time, so in-place mutation is safe.
    """

    G: list[int]
    color: list[str]

    @classmethod
    def initial(cls, n: int) -> "VCToken":
        """The paper's initialization: all zeros, all red."""
        return cls(G=[0] * n, color=[RED] * n)

    def size_bits(self) -> int:
        """Accounting size: two n-vectors (G in words, colors counted as
        words too, matching the paper's O(n)-words token)."""
        return 2 * len(self.G) * WORD_BITS

    def all_green(self) -> bool:
        """True iff every slot is green (detection condition)."""
        return all(c == GREEN for c in self.color)

    def copy(self) -> "VCToken":
        """An independent copy (a hardened receiver mutates its own)."""
        return VCToken(G=list(self.G), color=list(self.color))


#: Token-routing policies for choosing which red slot receives the token
#: next.  The paper leaves the choice open ("sends the token to a process
#: whose color is red"); the ablation benchmark compares:
#: ``cyclic`` — first red slot after ours, round robin (default);
#: ``first`` — lowest-index red slot;
#: ``most_stale`` — the red slot with the smallest eliminated bound (the
#: candidate furthest behind).
ROUTINGS = ("cyclic", "first", "most_stale")


class Fig3Slot:
    """One monitor slot of the Fig. 3 algorithm: the visit and the router.

    Every §3 host (the plain and hardened single-token monitors, the
    §3.5 group monitors and the service's per-predicate machines) runs
    its token visits through :meth:`visit` and, where it routes by
    policy, picks the next holder with :meth:`next_red`.  A host keeps
    only its candidate source and what it does with the outcome.

    ``accepted`` is the candidate the last visit accepted.  It lives in
    an actor attribute, so it survives a crash: a crash-resumed visit
    repaints from it, and a token regenerated by a takeover that
    re-presents a bound this slot already advanced past replays it
    instead of consuming fresh candidates.  A fault-free plain run never
    replays: its one token's ``G`` only grows, so it always arrives at
    or above the slot's last acceptance.
    """

    __slots__ = ("slot", "n", "routing", "accepted")

    def __init__(self, slot: int, n: int, routing: str = "cyclic") -> None:
        if routing not in ROUTINGS:
            raise ConfigurationError(
                f"routing must be one of {ROUTINGS}, got {routing!r}"
            )
        self.slot = slot
        self.n = n
        self.routing = routing
        self.accepted: tuple[int, ...] | None = None

    def visit(self, actor: Actor, token: VCToken, next_candidate):
        """One (possibly crash-resumed) Fig. 3 visit of ``token``.

        ``next_candidate()`` is a generator returning the next candidate
        vector, ``None`` at end of trace, or ``"halt"``.  Returns
        ``"halt"``, ``"abort"`` (end of trace while eliminated: by Lemma
        3.1(4) the WCP cannot hold), ``"detected"`` (all green) or
        ``"forward"``.  Safe to re-enter after a crash: each token
        mutation happens in the same atomic block as the candidate pop
        or ``accepted`` write that justified it, and the repaint is
        idempotent.  Work: one unit per candidate consumed or replayed,
        charged before the next candidate wait; then one per repaint
        comparison plus ``n`` for the red-scan.
        """
        slot = self.slot
        # Fig. 3 while-loop: advance own candidate past the eliminated G[i].
        while token.color[slot] == RED:
            accepted = self.accepted
            if accepted is not None and accepted[slot] > token.G[slot]:
                token.G[slot] = accepted[slot]
                token.color[slot] = GREEN
            else:
                cand = yield from next_candidate()
                if cand == "halt":
                    return "halt"
                if cand is None:
                    return "abort"
                if cand[slot] > token.G[slot]:
                    token.G[slot] = cand[slot]
                    token.color[slot] = GREEN
                    self.accepted = cand
            yield actor.work(1)
        # Fig. 3 for-loop: repaint every j whose current candidate
        # happened before ours (vector-clock property 2) — only when the
        # token's bound for this slot is the one ``accepted`` justified:
        # on a regenerated token installed at a green slot the persisted
        # candidate may predate the bound and could eliminate states it
        # cannot see.
        candidate = self.accepted
        comparisons = 0
        if candidate is not None and token.G[slot] == candidate[slot]:
            comparisons = self.n - 1
            for j in range(self.n):
                if j != slot and candidate[j] >= token.G[j]:
                    token.G[j] = candidate[j]
                    token.color[j] = RED
        yield actor.work(comparisons + self.n)
        return "detected" if token.all_green() else "forward"

    def next_red(self, token: VCToken) -> int:
        """The red slot to forward the token to, per the routing."""
        reds = [j for j in range(self.n) if token.color[j] == RED]
        if not reds:
            raise AssertionError("no red slot despite not all green")
        if self.routing == "first":
            return reds[0]
        if self.routing == "most_stale":
            return min(reds, key=lambda j: (token.G[j], j))
        for step in range(1, self.n + 1):  # cyclic
            j = (self.slot + step) % self.n
            if token.color[j] == RED:
                return j
        raise AssertionError("unreachable")


def receive_candidate(actor: Actor):
    """A plain monitor's candidate source for :meth:`Fig3Slot.visit`:
    the next Fig. 2 snapshot from its app, or ``None`` at end of trace."""
    cmsg = yield actor.receive(CANDIDATE_KIND, END_OF_TRACE_KIND)
    return None if cmsg.kind == END_OF_TRACE_KIND else cmsg.payload


class TokenVCMonitor(Actor):
    """The Fig. 3 monitor process for one predicate slot.

    Exposes the detection outcome to the runner via attributes:
    ``detected`` / ``detected_cut`` / ``detected_at`` on the declaring
    monitor, ``aborted`` on a monitor that exhausted its candidates.
    """

    #: The routing policies (see :data:`ROUTINGS`).
    ROUTINGS = ROUTINGS

    def __init__(
        self,
        pid: int,
        slot: int,
        monitor_names: list[str],
        routing: str = "cyclic",
    ) -> None:
        super().__init__(monitor_name(pid))
        self._fig3 = Fig3Slot(slot, len(monitor_names), routing)
        self._pid = pid
        self._slot = slot
        self._monitors = list(monitor_names)
        self.detected = False
        self.detected_cut: tuple[int, ...] | None = None
        self.detected_at: float | None = None
        self.aborted = False
        self.token_visits = 0

    # ------------------------------------------------------------------
    def run(self):
        while True:
            msg = yield self.receive(TOKEN_KIND, HALT_KIND)
            if msg.kind == HALT_KIND:
                return
            token: VCToken = msg.payload
            self.token_visits += 1
            # The plain protocol forwards its token only to red slots and
            # never regenerates it, so each visit accepts a candidate of
            # its own.  Only an injected duplicate breaks this; clearing
            # ``accepted`` keeps such runs on the paper's per-visit
            # candidate instead of the hardened replay.
            assert token.color[self._slot] == RED
            self._fig3.accepted = None
            code = yield from self._fig3.visit(
                self, token, partial(receive_candidate, self)
            )
            if code == "forward":
                target = self._fig3.next_red(token)
                yield self.send(
                    self._monitors[target], token, kind=TOKEN_KIND,
                    size_bits=token.size_bits(),
                )
                continue
            if code == "abort":
                self.aborted = True
            else:
                self.detected = True
                self.detected_cut = tuple(token.G)
                self.detected_at = self.now
            others = [m for m in self._monitors if m != self.name]
            yield self.broadcast(others, None, kind=HALT_KIND, size_bits=1)
            return


class TokenVCGlue(StackGlue):
    """Stack glue for the crash/loss-tolerant §3 monitor.

    ``harden(TokenVCMonitor)`` composes this glue with the shared
    :class:`~repro.detect.stack.StackedMonitor` run loop and the plain
    Fig. 3 core; the composition is semantically identical to
    :class:`TokenVCMonitor` — under any fault schedule with eventual
    delivery it declares the same first consistent cut — because:

    * candidates arrive through the sequence-numbered
      :class:`~repro.detect.stack.CandidateInbox` (duplicates
      discarded, order restored);
    * the token travels in hop-numbered frames, acked per hop and
      retransmitted by the previous holder until acked — a lost or
      crash-swallowed token is regenerated from the sender's persisted
      copy;
    * a crash-restart re-enters the stack run loop, which resumes the
      visit in progress from the held frame and the slot's persisted
      accepted candidate (see :meth:`Fig3Slot.visit`);
    * with a :class:`~repro.detect.stack.FailureDetectorConfig`,
      permanent monitor death is survived too: the surviving monitors
      elect a takeover, regenerate the token under a new epoch, and
      replay persisted accepted candidates on re-visits so the
      detected cut is unchanged.
    """

    def _snapshot_frame(self, frame: TokenFrame) -> TokenFrame:
        return TokenFrame(frame.hop, frame.body.copy(), frame.gid, frame.epoch)

    def _on_token_accepted(self, frame: TokenFrame) -> None:
        self.token_visits += 1

    def _fd_slot(self) -> int:
        return self._slot

    def _handle_frame(self, frame: TokenFrame):
        """One (possibly resumed) token visit over the held frame."""
        return (
            yield from self._fig3.visit(self, frame.body, self._next_candidate)
        )

    def _resolve_frame(self, frame: TokenFrame, code: str) -> None:
        token: VCToken = frame.body
        if code == "abort":
            self.aborted = True
        elif code == "detected":
            self.detected = True
            self.detected_cut = tuple(token.G)
            self.detected_at = self.now
        else:  # forward
            target = self._fig3.next_red(token)
            self._begin_transfer(
                self._monitors[target],
                TokenFrame(frame.hop + 1, token, frame.gid, frame.epoch),
                token.size_bits() + WORD_BITS,
            )


register_glue(TokenVCMonitor, TokenVCGlue)

#: The hardened §3 monitor: plain core + protocol stack, by composition.
HardenedTokenVCMonitor = harden(TokenVCMonitor)


def detect(
    computation: Computation,
    wcp: WeakConjunctivePredicate,
    *,
    seed: int = 0,
    channel_model: ChannelModel | None = None,
    spacing: float = 1.0,
    routing: str = "cyclic",
    observers: list | None = None,
    faults: FaultPlan | None = None,
    hardened: bool | None = None,
    retry: AdaptiveRetryPolicy | None = None,
    failure_detector: FailureDetectorConfig | None = None,
) -> DetectionReport:
    """Run the §3 algorithm on a recorded computation.

    Builds a simulation with one snapshot feeder and one monitor per
    predicate process, injects the token, runs to quiescence, and reads
    the verdict off the monitor actors.  ``routing`` selects the
    red-slot forwarding policy (see :data:`ROUTINGS`).

    ``faults`` injects failures (see :mod:`repro.simulation.faults`);
    ``hardened`` selects the loss/crash-tolerant actors and defaults to
    "on exactly when faults are injected" — pass ``hardened=True`` with
    no faults to measure the reliability layer's overhead, or
    ``hardened=False`` with faults to watch the plain protocol fail.
    ``retry`` tunes the hardened actors' retransmission schedule and
    defaults to the RTT-adaptive policy; ``failure_detector`` enables
    heartbeat failure detection with token takeover (self-healing
    against *permanent* monitor death — see ``docs/faults.md``).
    """
    run = OnlineRun(
        computation, wcp, seed=seed, channel_model=channel_model,
        observers=observers, faults=faults, hardened=hardened, retry=retry,
        failure_detector=failure_detector,
    )
    pids = wcp.pids
    names = [monitor_name(pid) for pid in pids]
    monitors = [
        run.monitor(TokenVCMonitor, pid, slot, names, routing=routing)
        for slot, pid in enumerate(pids)
    ]
    run.feed(
        pids, candidate_feed_items(computation, wcp.predicate_map(), pids),
        spacing,
    )
    token = VCToken.initial(wcp.n)
    run.inject(token, token.size_bits())
    run.start()

    extras = {
        "candidates_sent": run.kernel.metrics.messages_of_kind(CANDIDATE_KIND)
    }
    winner = next((m for m in monitors if m.detected), None)
    if winner is not None:
        return run.report(
            "token_vc", extras, cut=Cut(pids, winner.detected_cut),
            detection_time=winner.detected_at,
        )
    return run.report(
        "token_vc", extras,
        partial_cut=[
            None if m._fig3.accepted is None else m._fig3.accepted[slot]
            for slot, m in enumerate(monitors)
        ],
    )

"""§4.5: the parallel variant of the direct-dependence algorithm.

In the base §4 algorithm only the token holder is active.  §4.5 observes
that *any red process can safely search for a new candidate state*: it
consumes candidates, accumulates dependences, and polls the dependence
sources — splicing newly red processes into the red chain through its
own chain pointer — all before the token arrives.  When the token does
arrive, the pre-validated candidate is adopted immediately and the token
moves on, so candidate searches across processes overlap in time.

Safety hinges on two rules the paper states:

* poll messages are acknowledged, so a process cannot be inserted into
  the chain twice (a second poll finds it already red: "no change");
* only the token removes a process from the chain, so the chain is never
  broken by concurrent insertions.

Implementation notes: because many monitors are concurrently active,
every blocking wait (for candidates or poll responses) must also *serve*
incoming polls, otherwise two searchers polling each other would
deadlock.  A proactively found candidate is re-validated against ``G``
before use — an intervening poll may have eliminated it, in which case
the search resumes.

As a termination extension, a red searcher whose candidate stream ends
aborts immediately (its eliminated states can never satisfy the WCP), so
even token-less monitors produce a prompt "not detected".
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.detect.base import (
    GREEN,
    HALT_KIND,
    POLL_KIND,
    POLL_RESPONSE_KIND,
    RED,
    TOKEN_KIND,
    DetectionReport,
    monitor_name,
)
from repro.detect.direct_dep import (
    POLL_BITS,
    RESPONSE_BITS,
    TOKEN_BITS,
    DirectDepGlue,
    Poll,
    _run_chain,
    answer_poll,
)
from repro.detect.launch import OnlineRun
from repro.detect.stack import (
    AdaptiveRetryPolicy,
    FailureDetectorConfig,
    harden,
    register_glue,
)
from repro.predicates.conjunctive import WeakConjunctivePredicate
from repro.simulation.actors import Actor
from repro.simulation.network import ChannelModel
from repro.simulation.replay import CANDIDATE_KIND, END_OF_TRACE_KIND
from repro.trace.computation import Computation
from repro.trace.snapshots import DDSnapshot

if TYPE_CHECKING:  # annotation-only: cores stay decoupled from the fault layer
    from repro.simulation.faults import FaultPlan

__all__ = [
    "ParallelDDMonitor",
    "HardenedParallelDDMonitor",
    "detect",
]


class ParallelDDMonitor(Actor):
    """A §4.5 monitor: searches proactively while red, serves polls always."""

    def __init__(
        self, pid: int, num_processes: int, initial_next_red: int | None
    ) -> None:
        super().__init__(monitor_name(pid))
        self._pid = pid
        self._n = num_processes
        self.G = 0
        self.color = RED
        self.next_red: int | None = initial_next_red
        self.pending: int | None = None  # pre-validated candidate clock
        self.has_token = False
        # True while this monitor is the chain head (from entering its
        # token phase until it passes the token on): see answer_poll.
        self.holding = False
        self.exhausted = False
        self.detected = False
        self.detected_at: float | None = None
        self.aborted = False
        self.token_visits = 0
        self.proactive_searches = 0

    # ------------------------------------------------------------------
    def run(self):
        while True:
            if self.has_token:
                self.has_token = False
                if (yield from self._token_phase()):
                    return
                continue
            if self.color == RED and not self.exhausted and not self._pending_valid():
                if (yield from self._search_phase()):
                    return
                continue
            msg = yield self.receive(TOKEN_KIND, POLL_KIND, HALT_KIND)
            if msg.kind == HALT_KIND:
                return
            if msg.kind == POLL_KIND:
                yield from self._respond_poll(msg)
                continue
            self.has_token = True

    def _pending_valid(self) -> bool:
        return self.pending is not None and self.pending > self.G

    # ------------------------------------------------------------------
    def _search_phase(self):
        """Proactive candidate search + dependence polling (token-less).

        Returns True when the actor should terminate (halt/abort).
        """
        self.proactive_searches += 1
        deplist: list = []
        found: int | None = None
        while found is None:
            msg = yield self.receive(
                CANDIDATE_KIND,
                END_OF_TRACE_KIND,
                TOKEN_KIND,
                POLL_KIND,
                HALT_KIND,
            )
            if msg.kind == HALT_KIND:
                return True
            if msg.kind == TOKEN_KIND:
                self.has_token = True  # keep searching; adopt result on exit
                continue
            if msg.kind == POLL_KIND:
                yield from self._respond_poll(msg)
                continue
            if msg.kind == END_OF_TRACE_KIND:
                self.aborted = True
                yield self._halt_others()
                return True
            yield self.work(1)
            snapshot: DDSnapshot = msg.payload
            deplist.extend(snapshot.deps)
            if snapshot.clock > self.G:
                found = snapshot.clock
        if (yield from self._poll_deps(deplist)):
            return True
        # Commit only if no intervening poll eliminated the candidate.
        self.pending = found if found > self.G else None
        return False

    # ------------------------------------------------------------------
    def _token_phase(self):
        """Token visit: adopt the pre-validated candidate or search inline.

        While the visit is in progress a concurrent searcher may poll us
        and eliminate the candidate we just went green on; the
        ``holding`` flag makes that repaint keep our chain pointer, and
        the outer loop simply acquires another candidate before the
        token moves on.
        """
        self.token_visits += 1
        self.holding = True
        while True:
            if self._pending_valid():
                assert self.pending is not None
                self.G = self.pending
                self.pending = None
                self.color = GREEN
            else:
                deplist: list = []
                while True:
                    msg = yield self.receive(
                        CANDIDATE_KIND, END_OF_TRACE_KIND, POLL_KIND, HALT_KIND
                    )
                    if msg.kind == HALT_KIND:
                        return True
                    if msg.kind == POLL_KIND:
                        yield from self._respond_poll(msg)
                        continue
                    if msg.kind == END_OF_TRACE_KIND:
                        self.aborted = True
                        yield self._halt_others()
                        return True
                    yield self.work(1)
                    snapshot: DDSnapshot = msg.payload
                    deplist.extend(snapshot.deps)
                    if snapshot.clock > self.G:
                        self.G = snapshot.clock
                        break
                self.color = GREEN
                if (yield from self._poll_deps(deplist)):
                    return True
            if self.color == GREEN:
                break
            # A poll served during this visit eliminated our fresh
            # candidate; stay at the head and search again.
        if self.next_red is None:
            self.detected = True
            self.detected_at = self.now
            yield self._halt_others()
            return True
        target = self.next_red
        self.holding = False
        yield self.send(
            monitor_name(target), None, kind=TOKEN_KIND, size_bits=TOKEN_BITS
        )
        return False

    # ------------------------------------------------------------------
    def _poll_deps(self, deplist):
        """Poll every dependence source, serving polls/token meanwhile."""
        for dep in deplist:
            yield self.work(1)
            yield self.send(
                monitor_name(dep.source),
                Poll(dep.clock, self.next_red),
                kind=POLL_KIND,
                size_bits=POLL_BITS,
            )
            while True:
                msg = yield self.receive(
                    POLL_RESPONSE_KIND, POLL_KIND, TOKEN_KIND, HALT_KIND
                )
                if msg.kind == HALT_KIND:
                    return True
                if msg.kind == TOKEN_KIND:
                    self.has_token = True
                    continue
                if msg.kind == POLL_KIND:
                    yield from self._respond_poll(msg)
                    continue
                if msg.payload.became_red:
                    self.next_red = dep.source
                break
        return False

    # ------------------------------------------------------------------
    def _respond_poll(self, msg):
        """Fig. 5 with the §4.5 head rule (see :func:`answer_poll`)."""
        yield self.work(1)
        yield self.send(
            msg.src, answer_poll(self, msg.payload), kind=POLL_RESPONSE_KIND,
            size_bits=RESPONSE_BITS,
        )

    def _halt_others(self):
        others = [monitor_name(p) for p in range(self._n) if p != self._pid]
        return self.broadcast(others, None, kind=HALT_KIND, size_bits=1)


class ParallelDDGlue(DirectDepGlue):
    """Stack glue for the crash/loss-tolerant §4.5 monitor.

    Inherits every hook from :class:`~repro.detect.direct_dep.DirectDepGlue`
    unchanged — the hardened composition *serialises* visits, running the
    §4 protocol over the §4.5 core's state (``G`` / ``color`` /
    ``next_red`` are the same Table 1 fields).  The proactive search is
    a fault-free *latency* optimisation: it finds candidates earlier but
    never changes which cut is first (Lemmas 4.1/4.2 fix the answer), so
    under faults the stack falls back to token-driven visits, where
    retransmission, crash resume and exactly-once polls are already
    proved out.  ``proactive_searches`` is therefore 0 in hardened runs.
    """


register_glue(ParallelDDMonitor, ParallelDDGlue)

#: The hardened §4.5 monitor — pure composition, no new protocol code.
HardenedParallelDDMonitor = harden(
    ParallelDDMonitor, name="HardenedParallelDDMonitor"
)


def detect(
    computation: Computation,
    wcp: WeakConjunctivePredicate,
    *,
    seed: int = 0,
    channel_model: ChannelModel | None = None,
    spacing: float = 1.0,
    observers: list | None = None,
    faults: FaultPlan | None = None,
    hardened: bool | None = None,
    retry: AdaptiveRetryPolicy | None = None,
    failure_detector: FailureDetectorConfig | None = None,
) -> DetectionReport:
    """Run the §4.5 parallel direct-dependence algorithm.

    ``faults`` / ``hardened`` / ``retry`` / ``failure_detector`` behave
    as in :func:`repro.detect.token_vc.detect`; the hardened variant is
    :class:`HardenedParallelDDMonitor` (see :class:`ParallelDDGlue` for
    why hardened runs serialise the §4.5 search).
    """
    run = OnlineRun(
        computation, wcp, seed=seed, channel_model=channel_model,
        observers=observers, faults=faults, hardened=hardened, retry=retry,
        failure_detector=failure_detector,
    )
    return _run_chain(
        run, ParallelDDMonitor, "direct_dep_parallel", computation, wcp,
        spacing, counters=("proactive_searches",),
    )

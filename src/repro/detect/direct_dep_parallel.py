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

Implementation notes: the search and the token phase run the §4 visit
of :mod:`repro.detect.direct_dep`.  Because many monitors are
concurrently active, every blocking wait (for candidates or poll
responses) goes through ``_serve``, which also answers incoming polls;
otherwise two searchers polling each other would deadlock.  A
proactively found candidate is re-validated against ``G`` before use —
an intervening poll may have eliminated it, in which case the search
resumes.

As a termination extension, a red searcher whose candidate stream ends
aborts immediately (its eliminated states can never satisfy the WCP), so
even token-less monitors produce a prompt "not detected".
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from repro.detect.base import (
    GREEN,
    HALT_KIND,
    POLL_KIND,
    POLL_RESPONSE_KIND,
    RED,
    TOKEN_KIND,
    DetectionReport,
)
from repro.detect.direct_dep import (
    DirectDepGlue,
    DirectDepMonitor,
    _run_chain,
    fig4_visit,
    gather,
    poll_deps,
)
from repro.detect.launch import OnlineRun
from repro.detect.stack import (
    AdaptiveRetryPolicy,
    FailureDetectorConfig,
    harden,
    register_glue,
)
from repro.predicates.conjunctive import WeakConjunctivePredicate
from repro.simulation.network import ChannelModel
from repro.simulation.replay import CANDIDATE_KIND, END_OF_TRACE_KIND
from repro.trace.computation import Computation

if TYPE_CHECKING:  # annotation-only: cores stay decoupled from the fault layer
    from repro.simulation.faults import FaultPlan

__all__ = [
    "ParallelDDMonitor",
    "HardenedParallelDDMonitor",
    "detect",
]


#: What a §4.5 monitor waits for: a candidate while searching (the token
#: may arrive meanwhile) or while holding the token, and a poll's answer.
_SEARCHING = (CANDIDATE_KIND, END_OF_TRACE_KIND, TOKEN_KIND, POLL_KIND, HALT_KIND)
_HOLDING = (CANDIDATE_KIND, END_OF_TRACE_KIND, POLL_KIND, HALT_KIND)
_ANSWER = (POLL_RESPONSE_KIND, POLL_KIND, TOKEN_KIND, HALT_KIND)


class ParallelDDMonitor(DirectDepMonitor):
    """A §4.5 monitor: searches proactively while red, serves polls always.

    ``holding`` is True from entering the token phase until the token
    is passed on (see :func:`~repro.detect.direct_dep.answer_poll`).
    """

    def __init__(
        self, pid: int, num_processes: int, initial_next_red: int | None
    ) -> None:
        super().__init__(pid, num_processes, initial_next_red)
        self.pending: int | None = None  # pre-validated candidate clock
        self.has_token = False
        self.proactive_searches = 0

    # ------------------------------------------------------------------
    def run(self):
        while True:
            if self.has_token:
                self.has_token = False
                if (yield from self._token_phase()):
                    return
                continue
            if self.color == RED and not self._pending_valid():
                if (yield from self._search_phase()):
                    return
                continue
            msg = yield self.receive(TOKEN_KIND, POLL_KIND, HALT_KIND)
            if msg.kind == HALT_KIND:
                return
            if msg.kind == POLL_KIND:
                yield from self._handle_poll(msg)
                continue
            self.has_token = True

    def _pending_valid(self) -> bool:
        return self.pending is not None and self.pending > self.G

    # ------------------------------------------------------------------
    def _serve(self, *kinds):
        """The next message of ``kinds`` (``None`` on halt), answering
        polls and noting the token's arrival meanwhile."""
        while True:
            msg = yield self.receive(*kinds)
            if msg.kind == POLL_KIND:
                yield from self._handle_poll(msg)
            elif msg.kind == TOKEN_KIND:
                self.has_token = True
            else:
                return None if msg.kind == HALT_KIND else msg

    def _candidate(self, kinds):
        """A candidate source for :func:`gather`, waiting on ``kinds``."""
        msg = yield from self._serve(*kinds)
        if msg is None:
            return "halt"
        return None if msg.kind == END_OF_TRACE_KIND else msg.payload

    def _poll(self, dep):
        """The poll exchange, serving polls and the token meanwhile."""
        yield self._poll_request(dep)
        msg = yield from self._serve(*_ANSWER)
        return "halt" if msg is None else msg.payload.became_red

    # ------------------------------------------------------------------
    def _search_phase(self):
        """Proactive candidate search + dependence polling (token-less).

        Returns True when the actor should terminate (halt/abort).
        """
        self.proactive_searches += 1
        self._begin_visit()
        found = yield from gather(self, partial(self._candidate, _SEARCHING))
        if found is None:
            return (yield from self._conclude("abort"))
        if found == "halt" or (yield from poll_deps(self, self._poll)) == "halt":
            return True
        # Commit only if no intervening poll eliminated the candidate.
        self.pending = found if found > self.G else None
        return False

    def _token_phase(self):
        """Token visit: adopt the pre-validated candidate or run Fig. 4.

        While the visit is in progress a concurrent searcher may poll us
        and eliminate the candidate we just went green on; the
        ``holding`` flag makes that repaint keep our chain pointer, and
        the loop simply acquires another candidate before the token
        moves on.
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
                self._begin_visit()
                code = yield from fig4_visit(
                    self, partial(self._candidate, _HOLDING), self._poll
                )
                if code in ("halt", "abort"):
                    return (yield from self._conclude(code))
            if self.color == GREEN:
                break
            # A poll served during this visit eliminated our fresh
            # candidate; stay at the head and search again.
        code = "detected" if self.next_red is None else "forward"
        return (yield from self._conclude(code))


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

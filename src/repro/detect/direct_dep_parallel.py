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

from repro.common.types import WORD_BITS
from repro.detect.base import (
    GREEN,
    HALT_KIND,
    POLL_KIND,
    POLL_RESPONSE_KIND,
    RED,
    TOKEN_KIND,
    DetectionReport,
    app_name,
    monitor_name,
)
from repro.detect.direct_dep import (
    POLL_BITS,
    RESPONSE_BITS,
    TOKEN_BITS,
    DirectDepGlue,
    Poll,
    PollResponse,
    dd_feed_items,
)
from repro.detect.stack import (
    AdaptiveRetryPolicy,
    FailureDetectorConfig,
    ReliableFeeder,
    ReliableInjector,
    RetryPolicy,
    TokenFrame,
    TokenInjector,
    harden,
    register_glue,
    spawn_joiners,
)
from repro.predicates.conjunctive import WeakConjunctivePredicate
from repro.simulation.actors import Actor
from repro.simulation.kernel import Kernel
from repro.simulation.network import ChannelModel
from repro.simulation.replay import (
    CANDIDATE_KIND,
    END_OF_TRACE_KIND,
    SnapshotFeeder,
)
from repro.trace.computation import Computation
from repro.trace.cuts import Cut
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
        # True while this monitor occupies the chain-head position (from
        # entering its token phase until it passes the token on).  A
        # head that is repainted red by a poll must NOT adopt the
        # poller's chain pointer — it is already on the chain, at the
        # head — otherwise its own tail would be orphaned.
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
        """Fig. 5, plus the head rule for the parallel variant.

        A monitor in its token phase is the chain *head*; if a poll
        repaints it red it must keep its own chain pointer and answer
        "no change" — it is already on the chain and will retry before
        releasing the token.
        """
        poll: Poll = msg.payload
        yield self.work(1)
        old_color = self.color
        if poll.clock >= self.G:
            self.color = RED
            self.G = poll.clock
        if self.color == RED and old_color == GREEN and not self.holding:
            self.next_red = poll.next_red
            response = PollResponse(became_red=True)
        else:
            response = PollResponse(became_red=False)
        yield self.send(
            msg.src, response, kind=POLL_RESPONSE_KIND, size_bits=RESPONSE_BITS
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
    retry: RetryPolicy | AdaptiveRetryPolicy | None = None,
    failure_detector: FailureDetectorConfig | None = None,
) -> DetectionReport:
    """Run the §4.5 parallel direct-dependence algorithm.

    ``faults`` / ``hardened`` / ``retry`` / ``failure_detector`` behave
    as in :func:`repro.detect.token_vc.detect`; the hardened variant is
    :class:`HardenedParallelDDMonitor` (see :class:`ParallelDDGlue` for
    why hardened runs serialise the §4.5 search).
    """
    wcp.check_against(computation.num_processes)
    big_n = computation.num_processes
    use_hardened = (faults is not None) if hardened is None else hardened
    if use_hardened and retry is None:
        retry = AdaptiveRetryPolicy(seed=seed)
    kernel = Kernel(
        channel_model=channel_model, seed=seed, observers=observers, faults=faults
    )
    monitor_cls = HardenedParallelDDMonitor if use_hardened else ParallelDDMonitor
    options = (
        {"retry": retry, "failure_detector": failure_detector}
        if use_hardened
        else {}
    )
    monitors = [
        monitor_cls(
            pid,
            big_n,
            initial_next_red=(pid + 1 if pid + 1 < big_n else None),
            **options,
        )
        for pid in range(big_n)
    ]
    for mon in monitors:
        kernel.add_actor(mon)
    items_by_pid = dd_feed_items(computation, wcp.predicate_map())
    feeders = []
    for pid in range(big_n):
        items = items_by_pid[pid]
        if use_hardened:
            feeder = ReliableFeeder(
                app_name(pid), monitor_name(pid), items, spacing, retry
            )
        else:
            feeder = SnapshotFeeder(app_name(pid), monitor_name(pid), items, spacing)
        feeders.append(feeder)
        kernel.add_actor(feeder)
    injector = None
    if use_hardened:
        injector = ReliableInjector(
            monitor_name(0),
            TokenFrame(hop=1, body=None),
            TOKEN_BITS + WORD_BITS,
            retry,
        )
        kernel.add_actor(injector)
    else:
        kernel.add_actor(TokenInjector(monitor_name(0), None, TOKEN_BITS))
    joiners = spawn_joiners(
        kernel, faults, [monitor_name(pid) for pid in range(big_n)],
        hardened=use_hardened, config=failure_detector, retry=retry,
    )
    sim = kernel.run()

    winner = next((m for m in monitors if m.detected), None)
    aborted = any(m.aborted for m in monitors)
    actor_metrics = kernel.metrics.actors()
    extras = {
        "token_hops": sum(
            m.sent_by_kind.get(TOKEN_KIND, 0)
            for name, m in actor_metrics.items()
            if name.startswith("mon-")
        ),
        "polls": kernel.metrics.messages_of_kind(POLL_KIND),
        "token_visits": sum(m.token_visits for m in monitors),
        "proactive_searches": sum(m.proactive_searches for m in monitors),
        "aborted": aborted,
        "hardened": use_hardened,
    }
    if use_hardened:
        participants = [*monitors, *feeders, injector]
        extras["gave_up"] = any(
            getattr(a, "gave_up", False) for a in participants
        )
        extras["halt_incomplete"] = any(
            getattr(a, "halt_incomplete", False) for a in participants
        )
        extras["elections"] = sum(
            getattr(m, "elections", 0) for m in monitors
        )
        extras["takeovers"] = sum(
            getattr(m, "takeovers", 0) for m in monitors
        )
        if joiners:
            extras["joiners"] = len(joiners)
            extras["joined"] = sum(1 for j in joiners if j.joined)
            extras["synced"] = sum(1 for j in joiners if j.synced)
    if winner is not None:
        full = Cut(
            tuple(range(big_n)), tuple(monitors[p].G for p in range(big_n))
        )
        return DetectionReport(
            detector="direct_dep_parallel",
            detected=True,
            cut=full.project(wcp.pids),
            full_cut=full,
            detection_time=winner.detected_at,
            sim=sim,
            metrics=kernel.metrics,
            extras=extras,
        )
    degraded = faults is not None and not aborted
    if use_hardened and degraded:
        dead = set(sim.crashed)
        extras["unobservable"] = [
            p
            for p in range(big_n)
            if app_name(p) in dead or monitor_name(p) in dead
        ]
        # The §4 candidate is a scalar clock per process (0 = none yet).
        extras["partial_cut"] = [m.G if m.G > 0 else None for m in monitors]
    return DetectionReport(
        detector="direct_dep_parallel",
        detected=False,
        sim=sim,
        metrics=kernel.metrics,
        extras=extras,
        degraded=degraded,
    )

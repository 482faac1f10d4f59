"""§4: the direct-dependence WCP detection algorithm (Figs. 4 and 5).

No vector clocks: application processes tag messages with a scalar
interval counter and record each receive as a *direct dependence*
``(source, clock)``.  All ``N`` processes participate (Lemma 4.1 only
equates direct- and transitive-dependence consistency when the cut has
a component on every process); processes without a local predicate run
with the constant-true predicate.

Monitor state is fully distributed — the token is empty:

* ``G`` / ``color`` — this process's candidate clock and color (Table 1:
  the distributed counterparts of the vector-clock token's fields);
* ``next_red`` — the red-chain pointer.  All red monitors are linked in
  a null-terminated chain whose head holds the token.

The token holder (Fig. 4) consumes candidates until one has
``clock > G``, accumulating their flushed dependence lists; turns green;
then *polls* the source of every accumulated dependence.  A polled
monitor (Fig. 5) whose candidate is dominated (``poll.clock >= G``)
turns red, adopts the poll's ``next_red`` (splicing itself into the
chain right after the holder), and answers "became red"; the holder then
points its own ``next_red`` at it.  An empty chain after polling means
every monitor is green: by Lemmas 4.1/4.2 the ``G`` values form the
first consistent cut satisfying the WCP.

The visit is written once, as :func:`fig4_visit` over :func:`gather`
and :func:`poll_deps`, beside Fig. 5's :func:`answer_poll`.  The plain
§4 monitor, the §4.5 monitor and the hardened glue each supply only a
candidate source, a one-poll exchange and what to do with the outcome.

Cost accounting (experiment E2): one work unit per candidate consumed,
per dependence processed, and per poll handled; polls are two words,
responses and the token one bit each; a snapshot is ``1 + 2·|deps|``
words.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
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
    monitor_name,
)
from repro.detect.launch import OnlineRun
from repro.detect.stack import (
    AdaptiveRetryPolicy,
    FailureDetectorConfig,
    StackGlue,
    Tagged,
    TokenFrame,
    harden,
    register_glue,
)
from repro.detect.token_vc import receive_candidate
from repro.predicates.conjunctive import WeakConjunctivePredicate
from repro.simulation.actors import Actor
from repro.simulation.network import ChannelModel
from repro.simulation.replay import FeedItem
from repro.trace.computation import Computation
from repro.trace.cuts import Cut
from repro.trace.snapshots import DDSnapshot, dd_snapshots

if TYPE_CHECKING:  # annotation-only: cores stay decoupled from the fault layer
    from repro.simulation.faults import FaultPlan

__all__ = [
    "Poll",
    "PollResponse",
    "DirectDepMonitor",
    "DirectDepGlue",
    "HardenedDirectDepMonitor",
    "dd_feed_items",
    "detect",
]

POLL_BITS = 2 * WORD_BITS
RESPONSE_BITS = 1
TOKEN_BITS = 1


@dataclass(frozen=True, slots=True)
class Poll:
    """A poll message: the dependence clock and the sender's chain pointer."""

    clock: int
    next_red: int | None


@dataclass(frozen=True, slots=True)
class PollResponse:
    """Reply to a poll: did the polled monitor turn red just now?"""

    became_red: bool


def snapshot_bits(snapshot: DDSnapshot) -> int:
    """Accounting size of a §4.1 local snapshot: clock + dependence pairs."""
    return (1 + 2 * len(snapshot.deps)) * WORD_BITS


def answer_poll(monitor, poll: Poll) -> PollResponse:
    """Fig. 5: the polled ``monitor``'s state change and its answer.

    A poll whose clock reaches the monitor's candidate ``G`` eliminates
    it: the monitor turns red at the poll's clock.  A monitor that turns
    red here splices itself into the red chain right after the poller
    (adopting the poll's ``next_red``) and answers "became red".  The
    §4.5 head rule: a monitor ``holding`` the token is already on the
    chain, at its head, so it keeps its own pointer (adopting the
    poller's would orphan its tail) and answers "no change"; it searches
    again before passing the token on.
    """
    spliced = False
    if poll.clock >= monitor.G:
        spliced = monitor.color == GREEN and not monitor.holding
        monitor.color = RED
        monitor.G = poll.clock
        if spliced:
            monitor.next_red = poll.next_red
    return PollResponse(became_red=spliced)


def gather(monitor, next_candidate):
    """Fig. 4's repeat-until: consume candidates until one passes ``G``.

    ``next_candidate()`` is a generator returning the next §4.1
    snapshot, ``None`` at end of trace, or ``"halt"``.  Each candidate's
    dependences join ``monitor._deplist`` in the block that consumed it,
    at one work unit.  Returns the first clock above ``G``, which the
    caller commits, or ``None`` / ``"halt"``.
    """
    while True:
        snap = yield from next_candidate()
        if snap is None or isinstance(snap, str):
            return snap
        monitor._deplist.extend(snap.deps)
        yield monitor.work(1)
        if snap.clock > monitor.G:
            return snap.clock


def poll_deps(monitor, poll):
    """Fig. 4's for-loop: poll the source of every gathered dependence.

    Walks the persisted ``monitor._deplist`` from ``_dep_idx``, so a
    crash-resumed walk re-drives only the poll in flight.  ``poll(dep)``
    is a generator running one exchange; it returns the answer's
    ``became_red``, or ``"halt"`` / ``"gave_up"``, which end the walk
    (and are returned).  A source that became red is spliced into the
    red chain right after this monitor; the splice and the poll's
    retirement commit together.  One work unit per poll driven.
    """
    while monitor._dep_idx < len(monitor._deplist):
        dep = monitor._deplist[monitor._dep_idx]
        yield monitor.work(1)
        became_red = yield from poll(dep)
        if isinstance(became_red, str):
            return became_red
        if became_red:
            monitor.next_red = dep.source
        monitor._dep_idx += 1
    return None


def fig4_visit(monitor, next_candidate, poll):
    """One (possibly crash-resumed) Fig. 4 visit of the token holder.

    Gathers until a candidate passes ``G`` and turns green on it in the
    same atomic block (``Work`` never suspends an actor; a visit resumed
    after that point skips straight to its walk), then polls every
    gathered dependence.  Returns ``"halt"`` /
    ``"gave_up"`` from the candidate source or the exchange, ``"abort"``
    at end of trace (the eliminated candidates can never satisfy the
    WCP), ``"detected"`` when the red chain is empty (Lemmas 4.1/4.2:
    the ``G`` values are the first cut) or ``"forward"`` to
    ``next_red``: the contract of
    :meth:`repro.detect.token_vc.Fig3Slot.visit`.
    """
    if monitor._visit_phase == "gather":
        clock = yield from gather(monitor, next_candidate)
        if clock is None:
            return "abort"
        if clock == "halt":
            return "halt"
        monitor.G = clock
        monitor.color = GREEN
        monitor._visit_phase = "poll"
    code = yield from poll_deps(monitor, poll)
    if code is not None:
        return code
    return "detected" if monitor.next_red is None else "forward"


def dd_feed_items(
    computation: Computation,
    predicates,
) -> dict[int, list[FeedItem]]:
    """The §4.1 snapshot streams as feeder-ready items, one per process.

    Extracted from :func:`detect` (mirroring
    :func:`repro.detect.token_vc.candidate_feed_items`) so multi-
    predicate callers can evaluate several predicates against one
    interval stream; all ``N`` processes participate (§4's requirement),
    with the constant-true predicate where none is registered.
    """
    streams = dd_snapshots(computation, dict(predicates))
    return {
        pid: [
            FeedItem(payload=snap, size_bits=snapshot_bits(snap), time=snap.time)
            for snap in stream
        ]
        for pid, stream in streams.items()
    }


class DirectDepMonitor(Actor):
    """One §4 monitor process (there is one per system process).

    Runner-visible attributes: ``G``, ``color``, ``detected`` (on the
    declaring monitor), ``aborted``.  ``_visit_phase`` / ``_deplist`` /
    ``_dep_idx`` are the visit in progress (see :func:`fig4_visit`).
    """

    def __init__(
        self, pid: int, num_processes: int, initial_next_red: int | None
    ) -> None:
        super().__init__(monitor_name(pid))
        self._pid = pid
        self._monitors = [monitor_name(p) for p in range(num_processes)]
        self.G = 0
        self.color = RED
        self.next_red: int | None = initial_next_red
        # The §4.5 head rule's flag (see answer_poll); only §4.5 raises it.
        self.holding = False
        self.detected = False
        self.detected_at: float | None = None
        self.aborted = False
        self.token_visits = 0
        self._begin_visit()

    # ------------------------------------------------------------------
    def run(self):
        while True:
            msg = yield self.receive(TOKEN_KIND, POLL_KIND, HALT_KIND)
            if msg.kind == HALT_KIND:
                return
            if msg.kind == POLL_KIND:
                yield from self._handle_poll(msg)
                continue
            self.token_visits += 1
            self._begin_visit()
            code = yield from fig4_visit(
                self, partial(receive_candidate, self), self._poll
            )
            if (yield from self._conclude(code)):
                return

    def _begin_visit(self) -> None:
        """A fresh visit: nothing gathered (a plain visit always ends
        its walk or the run, so it has nothing to carry over)."""
        self._visit_phase = "gather"
        self._deplist: list = []
        self._dep_idx = 0

    # ------------------------------------------------------------------
    def _handle_poll(self, msg):
        """Fig. 5: update (G, color), splice into the chain if newly red."""
        yield self.work(1)
        yield self.send(
            msg.src, answer_poll(self, msg.payload), kind=POLL_RESPONSE_KIND,
            size_bits=RESPONSE_BITS,
        )

    def _poll(self, dep):
        """Fig. 4's poll exchange: send the poll, block on the answer."""
        yield self._poll_request(dep)
        msg = yield self.receive(POLL_RESPONSE_KIND)
        return msg.payload.became_red

    def _poll_request(self, dep):
        """The poll of ``dep``'s source, carrying this chain pointer."""
        return self.send(
            self._monitors[dep.source], Poll(dep.clock, self.next_red),
            kind=POLL_KIND, size_bits=POLL_BITS,
        )

    def _conclude(self, code: str):
        """Act on a visit's outcome; returns True once this monitor is
        done.  Forwards the empty token along the red chain, or records
        the verdict and halts every other monitor."""
        if code == "halt":
            return True
        if code == "forward":
            self.holding = False
            yield self.send(
                self._monitors[self.next_red], None, kind=TOKEN_KIND,
                size_bits=TOKEN_BITS,
            )
            return False
        if code == "abort":
            self.aborted = True
        else:
            self.detected = True
            self.detected_at = self.now
        others = [m for m in self._monitors if m != self.name]
        yield self.broadcast(others, None, kind=HALT_KIND, size_bits=1)
        return True


class DirectDepGlue(StackGlue):
    """Stack glue for the crash/loss-tolerant §4 monitor.

    On top of the shared transport (sequenced candidates, hop-numbered
    token frames — see ``docs/faults.md``), the poll exchange is made
    exactly-once: every poll carries a unique request tag, the polled
    monitor applies the Fig. 5 state change at most once per tag and
    caches the response (a retransmitted poll replays the cached
    response instead of turning the monitor red a second time — the
    ``became_red`` answer is only true once per splice, so blind
    re-execution would corrupt the red chain), and the polling holder
    ignores responses whose tag is not the one outstanding.

    The visit in progress is persisted (``_visit_phase`` / ``_deplist``
    / ``_dep_idx`` / ``_current_tag``): a crash-restart re-drives the
    in-flight poll with the *same* tag, and ``next_red`` is never
    mutated while a tag is outstanding, so the retransmitted poll is
    byte-identical to the original.

    The failure detector heartbeats and answers elections but never
    *initiates* a takeover (``_fd_can_take_over = False``): the §4 token
    is an empty baton, so all recoverable protocol state — including the
    red-chain ``next_red`` pointers — lives in the holder.  A regenerated
    baton installed at an arbitrary red monitor would walk that monitor's
    stale chain fragment and could declare detection while unvisited red
    monitors exist.  Instead, a crashed holder's persisted frame *is* the
    token: restart resumes the visit exactly, and a permanently dead
    holder honestly degrades the run rather than mis-detecting.
    """

    _fd_can_take_over = False

    def _init_visit_state(self) -> None:
        self._current_tag: tuple | None = None
        self._poll_serial = 0
        self._poll_replies: dict[tuple, PollResponse] = {}

    # ------------------------------------------------------------------
    def _on_token_accepted(self, frame: TokenFrame) -> None:
        self.token_visits += 1
        if self.color == GREEN:
            # A regenerated token re-visiting a green monitor: the visit
            # that turned us green already ran (or is persisted mid-poll)
            # — keep its state so the re-visit only finishes outstanding
            # polls and forwards, consuming no fresh candidates.
            return
        self._visit_phase = "gather"
        # Dependences gathered by an interrupted visit were never
        # polled; dropping them could leave a dominated green monitor
        # unpainted and declare a wrong cut.  Carry them over.
        self._deplist = self._deplist[self._dep_idx:]
        self._dep_idx = 0

    def _fd_slot(self) -> int:
        return self._pid

    def _fd_is_red(self) -> bool:
        # The empty token may only sit at a red monitor (Fig. 4); a
        # green monitor's persisted visit state must not be re-entered.
        return self.color == RED

    def _dispatch(self, msg):
        if msg.kind == POLL_KIND:
            yield from self._handle_poll_tagged(msg)
            return "handled"
        if msg.kind == POLL_RESPONSE_KIND:
            return "handled"  # stale duplicate outside a poll exchange
        code = yield from super()._dispatch(msg)
        return code

    # ------------------------------------------------------------------
    def _handle_poll_tagged(self, msg):
        """Fig. 5 with at-most-once semantics per request tag."""
        if msg.corrupted:
            return  # the holder will retransmit
        tagged: Tagged = msg.payload
        cached = self._poll_replies.get(tagged.tag)
        if cached is None:
            # Atomic: the state change and the response cache entry
            # commit together, so a crash can never re-apply the splice.
            cached = answer_poll(self, tagged.payload)
            self._poll_replies[tagged.tag] = cached
            yield self.work(1)
        yield self.send(
            msg.src,
            Tagged(tagged.tag, cached),
            kind=POLL_RESPONSE_KIND,
            size_bits=RESPONSE_BITS + WORD_BITS,
        )

    # ------------------------------------------------------------------
    def _resolve_frame(self, frame: TokenFrame, code: str) -> None:
        if code == "abort":
            self.aborted = True
        elif code == "detected":
            self.detected = True
            self.detected_at = self.now
        else:  # forward along the red chain
            target = self.next_red
            assert target is not None
            self._begin_transfer(
                monitor_name(target),
                TokenFrame(frame.hop + 1, None, frame.gid, frame.epoch),
                TOKEN_BITS + WORD_BITS,
            )

    def _handle_frame(self, frame: TokenFrame):
        """One (possibly crash-resumed) Fig. 4 token visit."""
        return (
            yield from fig4_visit(self, self._next_candidate, self._poll_tagged)
        )

    def _poll_tagged(self, dep):
        """One exactly-once poll exchange, retransmitted until answered.

        The tag is persisted, so a crash-resumed exchange re-sends the
        same request; ``_current_tag`` clears in the block in which
        :func:`poll_deps` retires the dependence.  Returns the answer's
        ``became_red``, ``"gave_up"`` once the retry budget is spent, or
        ``"halt"``.
        """
        if self._current_tag is None:
            self._current_tag = (self.name, self._poll_serial)
            self._poll_serial += 1
        tag = self._current_tag
        request = Tagged(tag, Poll(dep.clock, self.next_red))
        for attempt in range(self._retry.max_attempts + 1):
            self._retry.on_send(tag, self.now)
            yield self.send(
                monitor_name(dep.source), request, kind=POLL_KIND,
                size_bits=POLL_BITS + WORD_BITS,
            )
            while True:
                msg = yield self.receive_timeout(
                    timeout=self._retry.timeout(attempt),
                    description=f"{self.name} awaiting poll response",
                )
                if msg is None:
                    break  # retransmit
                if msg.kind != POLL_RESPONSE_KIND:
                    if (yield from self._dispatch(msg)) == "halt":
                        return "halt"
                    continue
                tagged: Tagged = msg.payload
                if msg.corrupted or tagged.tag != tag:
                    continue  # garbage, or a duplicate of an earlier exchange
                self._retry.on_ack(tag, self.now)
                self._current_tag = None
                return tagged.payload.became_red
        self.gave_up = True
        return "gave_up"


register_glue(DirectDepMonitor, DirectDepGlue)

#: The hardened §4 monitor: plain core + protocol stack, by composition.
HardenedDirectDepMonitor = harden(DirectDepMonitor)


def build_monitors(num_processes: int, make=DirectDepMonitor) -> list:
    """Monitors with the initial red chain 0 -> 1 -> ... -> N-1 -> null.

    ``make(pid, num_processes, initial_next_red=...)`` builds each one.
    """
    return [
        make(
            pid,
            num_processes,
            initial_next_red=(pid + 1 if pid + 1 < num_processes else None),
        )
        for pid in range(num_processes)
    ]


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
    """Run the §4 algorithm on a recorded computation.

    Every one of the ``N`` processes gets a feeder and a monitor; the
    detected full cut is projected onto the WCP's pids for the report.
    ``faults`` / ``hardened`` / ``retry`` / ``failure_detector`` behave
    as in :func:`repro.detect.token_vc.detect`.
    """
    run = OnlineRun(
        computation, wcp, seed=seed, channel_model=channel_model,
        observers=observers, faults=faults, hardened=hardened, retry=retry,
        failure_detector=failure_detector,
    )
    return _run_chain(run, DirectDepMonitor, "direct_dep", computation, wcp, spacing)


def _run_chain(
    run: OnlineRun,
    core: type,
    detector: str,
    computation: Computation,
    wcp: WeakConjunctivePredicate,
    spacing: float,
    counters: tuple[str, ...] = (),
) -> DetectionReport:
    """Run the red chain over ``N`` monitors of class ``core`` (§4 or
    §4.5): every process fed, the empty token injected at monitor 0.

    ``counters`` names per-monitor counters summed into the extras.  A
    degraded run's partial cut is one scalar clock per process, over
    all ``N`` (0, no candidate yet, reads as ``None``).
    """
    big_n = computation.num_processes
    monitors = build_monitors(big_n, partial(run.monitor, core))
    run.feed(range(big_n), dd_feed_items(computation, wcp.predicate_map()), spacing)
    run.inject(None, TOKEN_BITS)
    run.start()

    extras = {"polls": run.kernel.metrics.messages_of_kind(POLL_KIND)}
    for name in counters:
        extras[name] = sum(getattr(m, name) for m in monitors)
    winner = next((m for m in monitors if m.detected), None)
    if winner is None:
        return run.report(
            detector, extras, partial_cut=[m.G if m.G > 0 else None for m in monitors]
        )
    full = Cut(tuple(range(big_n)), tuple(m.G for m in monitors))
    return run.report(
        detector, extras, cut=full.project(wcp.pids), full_cut=full,
        detection_time=winner.detected_at,
    )

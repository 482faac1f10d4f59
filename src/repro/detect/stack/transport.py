"""Stack layer 1 — transport: loss-, duplication- and crash-tolerant.

The paper's protocols assume reliable channels and ever-live monitors;
this module supplies the machinery that lets the *hardened* compositions
of the token detectors (see :mod:`repro.detect.stack.compose`) survive
the fault model of :mod:`repro.simulation.faults` while still reporting
**exactly the first consistent cut** of the fault-free run:

* **Application -> monitor** traffic is sequence-numbered
  (:class:`Sequenced`), retransmitted by the :class:`ReliableFeeder` on
  ack timeout with exponential backoff, deduplicated and re-ordered by
  the monitor-side :class:`CandidateInbox`, and acknowledged
  cumulatively (one ack per stream in the fault-free case, not one per
  message — this is what keeps the hardened 0%-fault overhead low).
* **Token transfer** is hop-by-hop reliable: every token message is
  wrapped in a :class:`TokenFrame` carrying a monotonically increasing
  hop number; the receiver persists the highest hop seen, acks every
  frame immediately (duplicates are re-acked and discarded), and the
  sender retransmits its persisted copy until acked — a
  ``Receive(timeout=...)`` heartbeat with exponential backoff.  Token
  *regeneration* after a crash falls out of the same design: both
  endpoints of a transfer keep the frame in persisted local state, so
  whichever side survives (or restarts) re-injects it.
* **Termination** is a reliable halt: the declaring monitor retransmits
  ``halt`` until every peer (and every feeder) acks, with a bounded
  retry budget so a permanently-dead peer degrades the run instead of
  livelocking it.

Because actor attributes survive a kernel crash/restart (they model
persisted local state) and generator code between yields is atomic, the
hardened monitors are written as state machines over persisted
attributes: :meth:`~repro.simulation.actors.Actor.restart` re-enters
``run``, which resumes from wherever the persisted state says the
protocol was.

Retransmission follows one schedule, :class:`AdaptiveRetryPolicy`, and
is bounded by its ``max_attempts``; under any fault schedule with
eventual delivery the bound is never reached (each retry succeeds
independently with the channel's delivery probability), and without
eventual delivery it converts a livelock into a reported ``degraded``
outcome.

Allocation discipline: every wire record here (:class:`Sequenced`,
:class:`TokenFrame`, :class:`Tagged`) is a frozen, slotted dataclass,
and the :class:`ReliableFeeder` packs its whole stream into one
``(frame, kind, size_bits, time)`` tuple list at construction — first
transmission and every retransmission walk that packed list by index,
so the steady-state hot path allocates nothing per frame.  Candidate
payloads arrive already projected to plain int tuples (see
``VectorClock.project``), interned per width, which is what keeps
n >= 256 sweeps inside CI wall budgets.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.rng import derive_seed
from repro.common.types import WORD_BITS
from repro.common.validation import require_finite
from repro.detect.base import HALT_KIND, TOKEN_KIND
from repro.simulation.actors import Actor
from repro.simulation.replay import CANDIDATE_KIND, END_OF_TRACE_KIND, FeedItem

__all__ = [
    "CAND_ACK_KIND",
    "TOKEN_ACK_KIND",
    "HALT_ACK_KIND",
    "FEED_JOIN_KIND",
    "FeedJoin",
    "Sequenced",
    "TokenFrame",
    "Tagged",
    "AdaptiveRetryPolicy",
    "AdaptiveSchedule",
    "CandidateInbox",
    "ReliableFeeder",
    "ReliableInjector",
    "ReliableEndpoint",
    "TokenInjector",
    "retry_schedule",
    "token_ack_bits",
]

# Message kinds introduced by the reliability layer.
CAND_ACK_KIND = "cand_ack"    # cumulative app-stream ack, monitor -> feeder
TOKEN_ACK_KIND = "token_ack"  # per-hop token transfer ack
HALT_ACK_KIND = "halt_ack"    # termination ack, peer -> declaring monitor
FEED_JOIN_KIND = "feed_join"  # subscribe a joiner, monitor -> feeder

ACK_BITS = WORD_BITS
TOKEN_ACK_BITS = 3 * WORD_BITS  # (gid, epoch, hop)
HALT_ACK_BITS = 1


def token_ack_bits(frame: "TokenFrame") -> int:
    """Accounting size of the ack for ``frame``: one word per identity
    component.  Default frames keep the historical ``TOKEN_ACK_BITS``
    (3 words); service-multiplexed frames carry a ``pred_id`` word too.
    """
    return WORD_BITS * len(frame.key)


@dataclass(frozen=True, slots=True)
class FeedJoin:
    """Monitor -> feeder control: open a second stream to ``subscriber``.

    Sent by a monitor whose elastic-join handshake admitted a new
    member; the feeder starts the subscriber's cumulative-ack cursor at
    ``baseline`` (the monitor's own ack at handshake time), so the
    joiner receives exactly the suffix it synced its inbox to expect.
    """

    subscriber: str
    baseline: int

    def size_bits(self) -> int:
        return WORD_BITS + 8 * len(self.subscriber)


def _unit_draw(seed: int, label: str) -> float:
    """A deterministic draw in [0, 1) from ``(seed, label)``.

    Hash-derived (not a stateful RNG) so a jittered timeout is a pure
    function of the policy seed, the drawing actor and the draw index —
    stable across processes and immune to call-order perturbations.
    """
    return derive_seed(seed, label) / 2**64


@dataclass(frozen=True, slots=True)
class Sequenced:
    """A sequence-numbered app->monitor payload (1-based, per feeder).

    The end-of-trace marker travels as the ``final`` item of the stream
    so that it, too, is retransmitted until acknowledged.
    """

    seq: int
    payload: object
    final: bool = False


@dataclass(frozen=True, slots=True)
class TokenFrame:
    """A token message wrapped for reliable hop-by-hop transfer.

    ``hop`` increases by one on every forward of the same logical token;
    ``gid`` distinguishes independent tokens (the multi-token algorithm
    runs one hop sequence per group).  ``epoch`` is bumped by takeover
    elections (see :mod:`repro.detect.stack.membership`): receivers order
    frames lexicographically by ``(epoch, hop)``, so a token regenerated
    in a later epoch supersedes every copy of its predecessor and stale
    frames from a deposed epoch are ack-and-discarded on receipt.
    ``(gid, epoch, hop)`` is the frame's identity for dedup and acks.

    ``gossip`` is an opaque piggyback payload stamped at transmission
    time by the membership layer (empty outside gossip mode); it is not
    part of the frame's identity and is not forwarded with the token.

    ``pred_id`` tags frames belonging to a registered predicate of the
    multi-predicate service (:mod:`repro.detect.service`): the service
    multiplexes one token machine per predicate over the same
    ``Sequenced`` streams, and the demux routes on this tag.  The
    default ``pred_id == 0`` (single-predicate runs) keeps the identity
    a 3-tuple, so every pre-service frame, ack and dedup key is
    byte-identical to before the tag existed.
    """

    hop: int
    body: object
    gid: int = 0
    epoch: int = 0
    gossip: tuple = ()
    pred_id: int = 0

    @property
    def key(self) -> tuple[int, ...]:
        """The frame identity carried by acks (3- or 4-tuple)."""
        if self.pred_id:
            return (self.pred_id, self.gid, self.epoch, self.hop)
        return (self.gid, self.epoch, self.hop)

    @property
    def order(self) -> tuple[int, int]:
        """The frame's position in its gid's total order."""
        return (self.epoch, self.hop)


@dataclass(frozen=True, slots=True)
class Tagged:
    """A payload tagged with a request id, for exactly-once request/reply.

    Used by the hardened direct-dependence polls: a retransmitted poll
    carries the same tag, and the polled monitor replays its cached
    response instead of re-applying the state change.
    """

    tag: tuple
    payload: object


@dataclass(frozen=True, slots=True)
class AdaptiveRetryPolicy:
    """RTT-adaptive retransmission schedule (Jacobson/Karn style).

    Each actor derives a mutable :class:`AdaptiveSchedule` via
    :meth:`schedule`; the schedule estimates SRTT/RTTVAR from ack
    round-trips over *simulated* time and computes the retransmission
    timeout as ``SRTT + k·RTTVAR`` with exponential backoff on repeated
    timeouts, clamped to ``[min_timeout, cap]``.  Karn's rule is
    enforced by the schedule's send/ack bookkeeping: a frame that was
    ever retransmitted never contributes an RTT sample, so retransmit
    ambiguity cannot corrupt the estimator.

    Until the first sample arrives the timeout equals
    ``initial_timeout``.  ``jitter`` (a fraction, default ±10%)
    decorrelates synchronized retry storms; draws are deterministic per
    ``seed`` and actor name.  ``max_attempts`` bounds every retransmit
    loop so a permanently-unreachable peer yields a *degraded* run
    instead of a livelock.
    """

    initial_timeout: float = 6.0
    min_timeout: float = 0.5
    cap: float = 48.0
    alpha: float = 0.125
    beta: float = 0.25
    k: float = 4.0
    backoff_factor: float = 2.0
    jitter: float = 0.1
    seed: int = 0
    max_attempts: int = 25

    def __post_init__(self) -> None:
        for attr in (
            "initial_timeout", "min_timeout", "cap", "alpha", "beta", "k",
            "backoff_factor", "jitter",
        ):
            value = getattr(self, attr)
            if not math.isfinite(value):
                raise ConfigurationError(f"{attr} must be finite, got {value}")
        if self.min_timeout <= 0:
            raise ConfigurationError(
                f"min_timeout must be > 0, got {self.min_timeout}"
            )
        if not self.min_timeout <= self.initial_timeout <= self.cap:
            raise ConfigurationError(
                "initial_timeout must lie in [min_timeout, cap]"
            )
        if not 0.0 < self.alpha <= 1.0 or not 0.0 < self.beta <= 1.0:
            raise ConfigurationError("alpha and beta must be in (0, 1]")
        if self.k < 0:
            raise ConfigurationError(f"k must be >= 0, got {self.k}")
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1), got {self.jitter}"
            )
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")

    def schedule(self, name: str) -> "AdaptiveSchedule":
        """A fresh per-actor estimator; ``name`` keys the jitter stream."""
        return AdaptiveSchedule(self, name)


class AdaptiveSchedule:
    """One actor's mutable RTT estimator over an :class:`AdaptiveRetryPolicy`.

    Lives in a persisted actor attribute, so the estimate survives a
    crash/restart along with the rest of the transport state.  The
    send/ack ledger implements Karn's rule: :meth:`on_send` records the
    first transmission time of a frame key and *taints* the key on any
    retransmission; :meth:`on_ack` feeds ``now - first_send`` to
    :meth:`sample` only for untainted keys.
    """

    __slots__ = (
        "policy", "_name", "srtt", "rttvar", "_draws",
        "_sent_at", "_tainted", "samples",
    )

    def __init__(self, policy: AdaptiveRetryPolicy, name: str) -> None:
        self.policy = policy
        self._name = name
        self.srtt: float | None = None
        self.rttvar: float = 0.0
        self._draws = 0
        self._sent_at: dict = {}
        self._tainted: set = set()
        self.samples = 0

    @property
    def max_attempts(self) -> int:
        return self.policy.max_attempts

    # ------------------------------------------------------------------
    # Karn's-rule ledger
    # ------------------------------------------------------------------
    def on_send(self, key: object, now: float) -> None:
        """Record a (re)transmission of ``key`` at simulated time ``now``."""
        if key in self._sent_at:
            self._tainted.add(key)
        else:
            self._sent_at[key] = now

    def on_ack(self, key: object, now: float) -> None:
        """Record the ack for ``key``; sample the RTT iff never re-sent."""
        sent = self._sent_at.pop(key, None)
        tainted = key in self._tainted
        self._tainted.discard(key)
        if sent is not None and not tainted:
            self.sample(now - sent)

    def forget(self, key: object) -> None:
        """Drop ``key`` from the ledger without sampling (frame abandoned)."""
        self._sent_at.pop(key, None)
        self._tainted.discard(key)

    # ------------------------------------------------------------------
    # Jacobson estimator
    # ------------------------------------------------------------------
    def sample(self, rtt: float) -> None:
        """Fold one round-trip measurement into SRTT/RTTVAR."""
        if rtt < 0:  # pragma: no cover - defensive
            return
        p = self.policy
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = (1.0 - p.beta) * self.rttvar + p.beta * abs(
                self.srtt - rtt
            )
            self.srtt = (1.0 - p.alpha) * self.srtt + p.alpha * rtt
        self.samples += 1

    @property
    def rto(self) -> float:
        """The current base retransmission timeout (before backoff)."""
        p = self.policy
        if self.srtt is None:
            return p.initial_timeout
        return min(p.cap, max(p.min_timeout, self.srtt + p.k * self.rttvar))

    def timeout(self, attempt: int) -> float:
        """The (jittered) timeout for retransmission round ``attempt``."""
        p = self.policy
        try:
            raw = self.rto * p.backoff_factor**attempt
        except OverflowError:
            raw = p.cap
        value = min(p.cap, raw)
        if p.jitter:
            self._draws += 1
            draw = _unit_draw(p.seed, f"{self._name}:{self._draws}")
            value *= 1.0 + p.jitter * (2.0 * draw - 1.0)
        return max(p.min_timeout, min(p.cap, value))

    def linger_window(self) -> float:
        """An upper bound on any peer's retransmission gap."""
        return self.policy.cap + self.policy.initial_timeout


def retry_schedule(
    retry: AdaptiveRetryPolicy | None, name: str
) -> AdaptiveSchedule:
    """The per-actor schedule for ``retry`` (default: ``AdaptiveRetryPolicy()``)."""
    return (retry or AdaptiveRetryPolicy()).schedule(name)


class CandidateInbox:
    """Dedup / re-order buffer for one monitor's sequenced app stream.

    Lives in a persisted attribute of the hardened monitor, so buffered
    candidates survive a crash even though the kernel mailbox is lost.
    """

    def __init__(self) -> None:
        self._received_upto = 0          # highest contiguous seq received
        self._pending: dict[int, tuple[Sequenced, int]] = {}
        self._queue: deque[tuple[object, int]] = deque()
        self.final_seq: int | None = None

    def accept(self, item: Sequenced, size_bits: int) -> bool:
        """Register an arrival; returns False for duplicates."""
        if item.seq <= self._received_upto or item.seq in self._pending:
            return False
        self._pending[item.seq] = (item, size_bits)
        while True:
            entry = self._pending.pop(self._received_upto + 1, None)
            if entry is None:
                break
            self._received_upto += 1
            got, bits = entry
            if got.final:
                self.final_seq = got.seq
            else:
                self._queue.append((got.payload, bits))
        return True

    def pop(self) -> tuple[object, int] | None:
        """The next in-order candidate ``(payload, size_bits)``, if any."""
        return self._queue.popleft() if self._queue else None

    @property
    def ack(self) -> int:
        """The cumulative ack value: highest contiguous seq received."""
        return self._received_upto

    @property
    def complete(self) -> bool:
        """Whether the whole stream (including end-of-trace) arrived."""
        return self.final_seq is not None and self._received_upto >= self.final_seq

    @property
    def exhausted(self) -> bool:
        """Whether the stream is complete *and* fully consumed."""
        return self.complete and not self._queue

    def fast_forward(self, seq: int) -> int:
        """Adopt a mid-stream baseline: seqs ``<= seq`` count as received.

        Used by an elastic joiner bootstrapping from a peer's anti-
        entropy state sync: the peer already consumed (and acked) the
        prefix, so the joiner's stream starts at ``seq + 1``.  Frames
        that raced ahead of the sync are kept if they extend the
        baseline and dropped if it swallowed them; returns the buffered
        bits released by dropped frames so the caller can settle its
        space gauge.
        """
        if seq <= self._received_upto:
            return 0
        self._received_upto = seq
        released = 0
        for stale in [s for s in self._pending if s <= seq]:
            item, bits = self._pending.pop(stale)
            if item.final:
                self.final_seq = item.seq
            else:
                released += bits
        while True:
            entry = self._pending.pop(self._received_upto + 1, None)
            if entry is None:
                break
            self._received_upto += 1
            got, bits = entry
            if got.final:
                self.final_seq = got.seq
            else:
                self._queue.append((got.payload, bits))
        return released


class ReliableFeeder(Actor):
    """Crash/loss-tolerant replacement for ``SnapshotFeeder``.

    Pipelines the whole sequence-numbered stream at the recorded
    emission times, then waits for the monitor's cumulative ack,
    retransmitting the unacked suffix on timeout with exponential
    backoff.  Exits only when reliably halted by the winning monitor
    (or when the retry budget is exhausted — ``gave_up``).
    """

    def __init__(
        self,
        name: str,
        monitor: str,
        items: list[FeedItem],
        spacing: float = 1.0,
        retry: AdaptiveRetryPolicy | None = None,
    ) -> None:
        super().__init__(name)
        require_finite(spacing, "spacing", strict=True)
        timed = [i.time for i in items if i.time is not None]
        if timed != sorted(timed):
            raise ConfigurationError("feed item times must be nondecreasing")
        self._monitor = monitor
        self._retry = retry_schedule(retry, name)
        # (frame, kind, size_bits, emission_time)
        self._frames: list[tuple[Sequenced, str, int, float | None]] = [
            (
                Sequenced(i + 1, item.payload),
                CANDIDATE_KIND,
                item.size_bits + WORD_BITS,
                item.time,
            )
            for i, item in enumerate(items)
        ]
        self._frames.append(
            (
                Sequenced(len(items) + 1, None, final=True),
                END_OF_TRACE_KIND,
                1 + WORD_BITS,
                None,
            )
        )
        self._spacing = spacing
        self._acked = 0          # persisted: highest cumulative ack seen
        #: Elastic-join subscribers: ``{name: highest cumulative ack}``,
        #: each started at the baseline its ``feed_join`` carried.
        self._subscribers: dict[str, int] = {}
        self.gave_up = False
        self.subscriber_gave_up = False
        self.halted = False

    def run(self):
        if self.halted:
            # Restarted after being halted: the halt_ack may have been
            # lost along with the crashed mailbox, so answer halt
            # retransmissions instead of exiting into a dead letterbox.
            yield from self._relinger()
            return
        final_seq = len(self._frames)
        # Phase 1: first transmission, paced by the recorded trace times.
        # After a crash-restart already-acked frames are skipped; the
        # monitor's inbox dedups any the feeder re-sends.
        for frame, kind, bits, at in self._frames:
            if at is not None:
                if at > self.now:
                    yield self.sleep(at - self.now)
            elif not frame.final:
                yield self.sleep(self._spacing)
            if frame.seq <= self._acked:
                continue
            self._retry.on_send(frame.seq, self.now)
            yield self.send(self._monitor, frame, kind=kind, size_bits=bits)
        # Phase 2: await the cumulative acks, retransmitting suffixes.
        if (yield from self._await_acks()) == "halted":
            return
        # Phase 3: stream delivered (or given up) — wait to be halted so
        # late retransmission requests never hit a finished actor.  A
        # joiner subscribing after delivery drops back into phase 2 so
        # its suffix is served with the same retransmission guarantees.
        while True:
            msg = yield self.receive(
                HALT_KIND, FEED_JOIN_KIND,
                description=f"{self.name} awaiting halt",
            )
            if msg.corrupted:
                continue
            if msg.kind == FEED_JOIN_KIND:
                self._admit_subscriber(msg.payload)
                yield from self._send_suffix(
                    msg.payload.subscriber,
                    self._subscribers[msg.payload.subscriber],
                )
                if (yield from self._await_acks()) == "halted":
                    return
                continue
            yield from self._acknowledge_halt(msg.src)
            return

    def _admit_subscriber(self, feed: FeedJoin) -> None:
        """Register an elastic-join subscriber (idempotent: a
        retransmitted ``feed_join`` never rewinds the ack cursor)."""
        if feed.subscriber not in self._subscribers:
            self._subscribers[feed.subscriber] = feed.baseline

    def _delivered(self) -> bool:
        """Whether the primary monitor and every subscriber acked it all."""
        final_seq = len(self._frames)
        return self._acked >= final_seq and all(
            acked >= final_seq for acked in self._subscribers.values()
        )

    def _send_suffix(self, dest: str, acked: int, *, karn: bool = False):
        """(Re)send every frame past ``acked`` to ``dest``.

        Index loop, not a slice: retransmission fires on every timeout
        and the unacked suffix can be the whole stream, so slicing would
        copy O(m) tuples per attempt.  Only primary-monitor sends feed
        the Karn ledger — subscriber acks are per-subscriber cumulative
        and must not taint the RTT samples.
        """
        frames = self._frames
        for i in range(acked, len(frames)):
            frame, kind, bits, _ = frames[i]
            if karn:
                self._retry.on_send(frame.seq, self.now)
            yield self.send(dest, frame, kind=kind, size_bits=bits)

    def _await_acks(self):
        """Retransmit unacked suffixes until everything is delivered.

        Returns ``"halted"`` when a halt arrived (already acknowledged,
        the caller just exits) and ``"done"`` otherwise — delivered, or
        the retry budget burned out (``gave_up``).
        """
        final_seq = len(self._frames)
        attempt = 0
        while (
            not self.gave_up
            and not self.subscriber_gave_up
            and not self._delivered()
        ):
            msg = yield self.receive_timeout(
                CAND_ACK_KIND,
                HALT_KIND,
                FEED_JOIN_KIND,
                timeout=self._retry.timeout(attempt),
                description=f"{self.name} awaiting ack > {self._acked}",
            )
            if msg is None:
                attempt += 1
                if attempt > self._retry.max_attempts:
                    if self._acked < final_seq:
                        self.gave_up = True
                    else:
                        # Only a subscriber is unreachable; the primary
                        # stream was delivered, so the run's verdict is
                        # unaffected — record it separately.
                        self.subscriber_gave_up = True
                    break
                if self._acked < final_seq:
                    yield from self._send_suffix(
                        self._monitor, self._acked, karn=True
                    )
                for sub in sorted(self._subscribers):
                    if self._subscribers[sub] < final_seq:
                        yield from self._send_suffix(
                            sub, self._subscribers[sub]
                        )
                continue
            if msg.corrupted:
                continue
            if msg.kind == HALT_KIND:
                yield from self._acknowledge_halt(msg.src)
                return "halted"
            if msg.kind == FEED_JOIN_KIND:
                self._admit_subscriber(msg.payload)
                yield from self._send_suffix(
                    msg.payload.subscriber,
                    self._subscribers[msg.payload.subscriber],
                )
                attempt = 0
                continue
            if msg.src in self._subscribers:
                if msg.payload > self._subscribers[msg.src]:
                    self._subscribers[msg.src] = msg.payload
                    attempt = 0
                continue
            if msg.payload > self._acked:
                # The cumulative ack covers every seq up to it; sample
                # round-trips for the newly covered, never-re-sent seqs.
                for seq in range(self._acked + 1, msg.payload + 1):
                    self._retry.on_ack(seq, self.now)
                self._acked = msg.payload
                attempt = 0
        return "done"

    def _acknowledge_halt(self, halter: str):
        """Ack the halt, then linger briefly to re-ack retransmissions.

        The linger window exceeds the halter's maximum retransmission
        gap, so a lost ``halt_ack`` is always repaired before this actor
        exits (a finished actor could no longer answer).
        """
        self.halted = True
        yield self.send(halter, None, kind=HALT_ACK_KIND,
                        size_bits=HALT_ACK_BITS)
        yield from self._relinger()

    def _relinger(self):
        """Re-ack halt retransmissions until the channel goes quiet."""
        linger = self._retry.linger_window()
        while True:
            msg = yield self.receive_timeout(
                HALT_KIND,
                timeout=linger,
                description=f"{self.name} lingering after halt",
            )
            if msg is None:
                return
            if msg.corrupted:
                continue
            yield self.send(msg.src, None, kind=HALT_ACK_KIND,
                            size_bits=HALT_ACK_BITS)


class TokenInjector(Actor):
    """Bootstraps a *plain* (fault-free) protocol with its first token.

    Fires one unadorned ``token`` message at t=0 and exits; every plain
    token detector shares this actor.  The hardened compositions use
    :class:`ReliableInjector` instead, which retransmits until acked.
    """

    def __init__(self, dest: str, payload: object, size_bits: int) -> None:
        super().__init__("token-injector")
        self._dest = dest
        self._payload = payload
        self._size_bits = size_bits

    def run(self):
        yield self.send(
            self._dest, self._payload, kind=TOKEN_KIND,
            size_bits=self._size_bits,
        )


class ReliableInjector(Actor):
    """Bootstraps a protocol by reliably delivering its first token frame.

    Retransmits until the destination's per-hop ack arrives; a
    destination that is down at injection time simply receives the frame
    after its restart (the paper's protocols start from the first
    monitor, so this is the crash-tolerant analogue of the plain
    :class:`TokenInjector`).
    """

    def __init__(
        self,
        dest: str,
        frame: TokenFrame,
        size_bits: int,
        retry: AdaptiveRetryPolicy | None = None,
        name: str = "token-injector",
    ) -> None:
        super().__init__(name)
        self._dest = dest
        self._frame = frame
        self._size_bits = size_bits
        self._retry = retry_schedule(retry, name)
        self._acked = False
        self.gave_up = False

    def run(self):
        attempt = 0
        while not self._acked:
            self._retry.on_send(self._frame.key, self.now)
            yield self.send(
                self._dest, self._frame, kind=TOKEN_KIND,
                size_bits=self._size_bits,
            )
            msg = yield self.receive_timeout(
                TOKEN_ACK_KIND,
                timeout=self._retry.timeout(attempt),
                description=f"{self.name} awaiting injection ack",
            )
            if msg is not None and not msg.corrupted:
                self._retry.on_ack(self._frame.key, self.now)
                self._acked = True
                return
            attempt += 1
            if attempt > self._retry.max_attempts:
                self.gave_up = True
                return


class ReliableEndpoint:
    """Mixin giving a monitor actor the hardened transport behaviours.

    Subclasses must be :class:`~repro.simulation.actors.Actor` types and
    call :meth:`_init_reliability` from ``__init__``; they implement
    ``_dispatch(msg)`` (a generator returning ``"handled"`` or
    ``"halt"``) on top of :meth:`_dispatch_common`.

    All transport state lives in persisted attributes:

    ``_inbox``
        the :class:`CandidateInbox` for this monitor's app stream;
    ``_seen_hops``
        highest ``(epoch, hop)`` accepted, per token ``gid``;
    ``_held``
        accepted-but-unprocessed token frames (almost always 0 or 1);
    ``_pending_out``
        un-acked outgoing frames, keyed by ``(gid, epoch, hop)``;
    ``_last_frames``
        the most recently accepted frame per ``gid`` — together with
        ``_pending_out`` this is the persisted state a takeover election
        regenerates a lost token from;
    ``_epoch``
        the highest takeover epoch this endpoint has adopted.
    """

    def _init_reliability(
        self, retry: AdaptiveRetryPolicy | None = None
    ) -> None:
        self._retry = retry_schedule(retry, self.name)
        self._inbox = CandidateInbox()
        self._seen_hops: dict[object, tuple[int, int]] = {}
        self._held: deque[TokenFrame] = deque()
        self._pending_out: dict[
            tuple[int, ...], tuple[str, str, TokenFrame, int]
        ] = {}
        self._last_frames: dict[object, TokenFrame] = {}
        self._app_src: str | None = None
        self._epoch = 0
        self._token_activity = 0.0
        self._halting_targets: set[str] | None = None
        self.halted = False
        self.gave_up = False
        self.halt_incomplete = False
        #: The candidate wait's label, built once (it keys an idle receive).
        self._awaiting_candidate = f"{self.name} awaiting candidate"

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    @staticmethod
    def _dedup_gid(frame: TokenFrame):
        """Per-stream dedup/regeneration key.

        Historically just ``gid``; service-multiplexed frames get a
        ``(pred_id, gid)`` composite so each registered predicate's hop
        sequence is ordered independently of every other predicate's.
        """
        return (frame.pred_id, frame.gid) if frame.pred_id else frame.gid

    def _snapshot_frame(self, frame: TokenFrame) -> TokenFrame:
        """Deep-enough copy of an accepted frame.

        The sender keeps the original for retransmission; the receiver
        mutates its own copy so retransmitted bytes stay pristine.
        """
        return frame

    def _on_token_accepted(self, frame: TokenFrame) -> None:
        """Called once per *new* accepted frame, before processing."""

    def _stamp_frame(
        self, frame: TokenFrame, bits: int
    ) -> tuple[TokenFrame, int]:
        """Hook: decorate an outgoing token frame at transmission time.

        The membership layer overrides this to piggyback gossip on
        token traffic.  Must preserve ``frame.key`` (acks and dedup
        match on it) and return the possibly-adjusted accounting size.
        """
        return frame, bits

    def _ingest_frame(self, frame: TokenFrame) -> None:
        """Hook: observe an arriving token frame before dedup.

        Called for every arrival including duplicates, so overrides
        must be idempotent.  Plain method — no yields."""

    def _fd_receive(self, description: str):
        """Receive one message; the failure-detector mixin overrides this
        to heartbeat while idle (may return ``None`` after an idle tick).
        """
        msg = yield self.receive(description=description)
        return msg

    # ------------------------------------------------------------------
    # Common dispatch
    # ------------------------------------------------------------------
    def _dispatch_common(self, msg):
        """Handle transport-level kinds; returns a handling code.

        ``"handled"`` — consumed here; ``"halt"`` — a halt was received
        and acked, the caller must terminate; ``"unhandled"`` — a
        protocol-specific kind for the caller's ``_dispatch``.
        """
        if msg.kind in (CANDIDATE_KIND, END_OF_TRACE_KIND):
            yield from self._handle_app(msg)
            return "handled"
        if msg.kind == TOKEN_KIND:
            yield from self._handle_token_arrival(msg)
            return "handled"
        if msg.kind == TOKEN_ACK_KIND:
            if not msg.corrupted:
                if msg.payload in self._pending_out:
                    self._retry.on_ack(msg.payload, self.now)
                    self._token_activity = self.now
                self._pending_out.pop(msg.payload, None)
            return "handled"
        if msg.kind == HALT_KIND:
            if msg.corrupted:
                return "handled"  # the halter will retransmit
            self.halted = True
            yield self.send(msg.src, None, kind=HALT_ACK_KIND,
                            size_bits=HALT_ACK_BITS)
            return "halt"
        if msg.kind == HALT_ACK_KIND:
            return "handled"  # stale ack from an earlier halt wave
        return "unhandled"

    def _handle_app(self, msg):
        """Ingest a sequenced app message; ack duplicates and completion."""
        if msg.corrupted:
            return  # undetectable garbage: the feeder will retransmit
        self._app_src = msg.src  # remembered for elastic-join state sync
        item: Sequenced = msg.payload
        fresh = self._inbox.accept(item, msg.size_bits)
        if fresh and not item.final:
            self.metrics.adjust_space(msg.size_bits)
        if not fresh or self._inbox.complete:
            yield self.send(msg.src, self._inbox.ack, kind=CAND_ACK_KIND,
                            size_bits=ACK_BITS)

    def _handle_token_arrival(self, msg):
        """Dedup and immediately ack a token frame; hold new ones.

        Frames are ordered per gid by ``(epoch, hop)``: anything at or
        below the high-water mark is a duplicate, and a frame from an
        epoch older than this endpoint's is a stale token from a deposed
        epoch — both are acked (so the sender stops retransmitting) and
        discarded.
        """
        if msg.corrupted:
            return  # the previous holder will retransmit
        frame: TokenFrame = msg.payload
        self._ingest_frame(frame)
        gid = self._dedup_gid(frame)
        if frame.order <= self._seen_hops.get(gid, (0, 0)):
            # Duplicate (or retransmission of an already-accepted hop):
            # re-ack so the sender stops, then discard.
            yield self.send(msg.src, frame.key, kind=TOKEN_ACK_KIND,
                            size_bits=token_ack_bits(frame))
            return
        if frame.epoch < self._epoch:
            # Stale token from before a takeover: ack-and-discard, the
            # regenerated token supersedes it.
            yield self.send(msg.src, frame.key, kind=TOKEN_ACK_KIND,
                            size_bits=token_ack_bits(frame))
            return
        self._seen_hops[gid] = frame.order
        self._last_frames[gid] = frame
        self._token_activity = self.now
        if frame.epoch > self._epoch:
            self._adopt_epoch(frame.epoch)
        self._held.append(self._snapshot_frame(frame))
        self._on_token_accepted(frame)
        yield self.send(msg.src, frame.key, kind=TOKEN_ACK_KIND,
                        size_bits=token_ack_bits(frame))

    # ------------------------------------------------------------------
    # Candidate consumption
    # ------------------------------------------------------------------
    def _next_candidate(self):
        """Yield until the next in-order candidate (or end of trace).

        Returns the candidate payload, or ``None`` once the stream is
        exhausted, or the string ``"halt"`` if the protocol was halted
        while waiting.
        """
        while True:
            entry = self._inbox.pop()
            if entry is not None:
                self.metrics.adjust_space(-entry[1])
                return entry[0]
            if self._inbox.exhausted:
                return None
            msg = yield from self._fd_receive(self._awaiting_candidate)
            if msg is None:
                if self.halted:
                    return "halt"  # halt arrived during a detector tick
                continue  # idle heartbeat tick
            code = yield from self._dispatch(msg)
            if code == "halt":
                return "halt"

    # ------------------------------------------------------------------
    # Takeover-epoch state
    # ------------------------------------------------------------------
    def _adopt_epoch(self, epoch: int) -> None:
        """Enter a later takeover epoch; abandon stale outgoing tokens.

        Pending *token* transfers from a deposed epoch would only be
        ack-and-discarded by their receivers, so retransmitting them is
        pure noise — drop them (their state is still captured in
        ``_last_frames`` / the election's collected frames).
        """
        if epoch <= self._epoch:
            return
        self._epoch = epoch
        for key in [
            k for k, (_, kind, frame, _) in self._pending_out.items()
            if kind == TOKEN_KIND and frame.epoch < epoch
        ]:
            del self._pending_out[key]
            self._retry.forget(key)

    def _best_frame(self, gid: int) -> TokenFrame | None:
        """The most advanced persisted frame for ``gid``.

        Considers both the last accepted frame and any un-acked outgoing
        frame (the latter is one hop ahead when a transfer was cut short
        by a crash); this is the state a takeover election offers as the
        regeneration basis.
        """
        best = self._last_frames.get(gid)
        for _dest, kind, frame, _bits in self._pending_out.values():
            if kind != TOKEN_KIND or frame.gid != gid:
                continue
            if best is None or frame.order > best.order:
                best = frame
        return best

    def _drop_stale_held(self) -> bool:
        """Discard held frames from deposed epochs; True if any dropped."""
        dropped = False
        while self._held and self._held[0].epoch < self._epoch:
            self._held.popleft()
            dropped = True
        return dropped

    # ------------------------------------------------------------------
    # Outgoing transfers
    # ------------------------------------------------------------------
    def _begin_transfer(
        self, dest: str, frame: TokenFrame, size_bits: int, kind: str = TOKEN_KIND
    ) -> None:
        """Queue ``frame`` for reliable delivery to ``dest``."""
        self._pending_out[frame.key] = (dest, kind, frame, size_bits)
        if kind == TOKEN_KIND:
            self._last_frames[self._dedup_gid(frame)] = frame

    def _drive_transfers(self):
        """Retransmit pending frames until all acked.

        Returns ``"ok"``, ``"halt"`` or ``"gave_up"``.  The first send
        of each frame happens here too, so a crash-restart naturally
        retransmits from persisted state.
        """
        attempt = 0
        while self._pending_out:
            for key in sorted(self._pending_out):
                dest, kind, frame, bits = self._pending_out[key]
                if kind == TOKEN_KIND:
                    frame, bits = self._stamp_frame(frame, bits)
                self._retry.on_send(key, self.now)
                yield self.send(dest, frame, kind=kind, size_bits=bits)
            ack = self.receive_timeout(
                timeout=self._retry.timeout(attempt),
                description=f"{self.name} awaiting token ack",
            )
            while self._pending_out:
                msg = yield ack
                if msg is None:
                    break
                code = yield from self._dispatch(msg)
                if code == "halt":
                    return "halt"
            else:
                return "ok"
            attempt += 1
            if attempt > self._retry.max_attempts:
                self.gave_up = True
                self._pending_out.clear()
                return "gave_up"
        return "ok"

    # ------------------------------------------------------------------
    # Reliable termination
    # ------------------------------------------------------------------
    def _reliable_halt(self, targets):
        """Broadcast halt and retransmit until every target acks.

        A concurrently-halting peer's own ``halt`` counts as its ack
        (both sides are terminating; neither needs the other alive).
        Bounded by the retry budget: unreachable targets are abandoned
        with ``halt_incomplete`` — *not* ``gave_up``, because the
        verdict was committed before halting began and an unfinished
        shutdown handshake cannot invalidate it.
        """
        if self._halting_targets is None:
            self._halting_targets = {t for t in targets if t != self.name}
        pending = self._halting_targets
        attempt = 0
        while pending:
            yield [
                self.send(t, None, kind=HALT_KIND, size_bits=1)
                for t in sorted(pending)
            ]
            if not (yield from self._await_halt_acks(pending, attempt)):
                return
            attempt += 1

    def _await_halt_acks(self, pending: set[str], attempt: int):
        """One halt round's wait: strike acking targets off ``pending``
        until the round's timeout passes.

        Returns False, with ``halt_incomplete`` set, when round
        ``attempt`` was the last the retry budget allows and some target
        never acked.
        """
        timeout = self._retry.timeout(attempt)
        while pending:
            msg = yield self.receive_timeout(
                timeout=timeout,
                description=f"{self.name} halting {len(pending)} peers",
            )
            if msg is None:
                break
            if msg.corrupted:
                continue
            if msg.kind == HALT_ACK_KIND:
                pending.discard(msg.src)
                continue
            if msg.kind == HALT_KIND:
                yield self.send(msg.src, None, kind=HALT_ACK_KIND,
                                size_bits=HALT_ACK_BITS)
                pending.discard(msg.src)
                continue
            # Anything else is a stale retransmission needing a re-ack.
            yield from self._dispatch(msg)
        if pending and attempt + 1 > self._retry.max_attempts:
            self.halt_incomplete = True
            return False
        return True

    def _linger(self):
        """Answer straggler retransmissions briefly, then exit.

        Run after this endpoint's part in the protocol is over (halted,
        or done halting others): peers whose acks were lost are still
        retransmitting, and would otherwise retry into a finished actor
        until they exhausted their budgets.  The window exceeds any
        peer's maximum retransmission gap.
        """
        linger = self._retry.linger_window()
        while True:
            msg = yield self.receive_timeout(
                timeout=linger,
                description=f"{self.name} lingering after halt",
            )
            if msg is None:
                return
            yield from self._dispatch(msg)

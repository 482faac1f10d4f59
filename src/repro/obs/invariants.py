"""Runtime verification: streaming protocol invariant monitors.

The hardened detector stack (transport / membership / compose, SWIM
gossip, takeover elections) is itself a distributed protocol.  This
module turns the kernel observer hook into a *runtime-verification
layer*: :class:`InvariantMonitor` subscribes to the live message stream
and checks six invariant families online, with bounded memory:

``token_conservation``
    At most one live token per color (``gid``): every ``(gid, epoch,
    hop)`` frame has a unique origin, fresh hops advance by exactly one,
    and regenerated tokens fence stale epochs.  Plain (unframed) tokens
    must travel a single hand-to-hand chain.

``vc_monotonicity``
    Vector clocks on each candidate stream are component-wise
    non-decreasing — a feeder's successive snapshots respect causality.

``candidate_order``
    Exactly-once, in-order candidate delivery per (feeder, monitor):
    fresh sequence numbers are gapless, retransmissions carry the
    original payload, nothing follows the final (end-of-trace) item.

``election_safety``
    Election epochs never regress per initiator, and every frame-epoch
    advance is fenced by an election that proposed that epoch — a
    regenerated epoch nobody ever proposed is forged.

``swim_lifecycle``
    SWIM membership gossip is legal: suspect→confirm only after the
    refutation window, confirmations are preceded by a suspicion, and
    per-sender update precedence ``(incarnation, status rank)`` never
    decreases.

``membership_join``
    Elastic joins follow the handshake: a joiner stays out of the frame
    and candidate paths until its ``join`` is acked, its advertised
    incarnation starts at 0, and a confirm for a just-joined member
    inside the refutation window of its welcome is premature.  Observed
    ``state_sync`` / ``feed_join`` messages teach the candidate-order
    checker each joiner stream's mid-sequence baseline, so a subscribed
    stream legitimately opening at ``baseline + 1`` is not a gap.

Violations become structured :class:`InvariantViolation` records (never
exceptions — the monitor is a passive observer) that callers fold into
``DetectionReport.extras`` / sweep paper units.

The same checker cores run *offline*: :func:`replay_trace` feeds a
recorded span trace (``repro detect --trace-out`` or a flight-recorder
dump) through a fresh monitor, which is what ``repro verify-trace``
does.  :func:`message_facts` is the single extraction point both paths
share — the tracer stamps its output onto spans at send time, so a span
carries exactly the facts the monitors need.

:class:`FlightRecorder` is the crash-forensics companion: an always-on
ring buffer of the last K message events per actor, serialized to a
valid trace JSONL file only on crash, violation or degraded outcome.

Soundness note: while a network partition is live (and for a grace
window after it heals) concurrent elections on both sides can
legitimately originate the same epoch, so token-conservation and
epoch-advance violations are *suppressed* (counted, not reported)
during that window.  Everything else stays armed.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.detect.base import (
    HALT_KIND,
    POLL_KIND,
    POLL_RESPONSE_KIND,
    TOKEN_KIND,
)
from repro.detect.stack import (
    ELECT_KIND,
    ELECT_OK_KIND,
    FEED_JOIN_KIND,
    HEARTBEAT_KIND,
    JOIN_ACK_KIND,
    JOIN_KIND,
    PING_ACK_KIND,
    PING_KIND,
    PING_REQ_KIND,
    REGEN_KIND,
    STATE_SYNC_KIND,
)
from repro.obs.export import dump_jsonl
from repro.obs.spans import Span, Trace
from repro.simulation.observers import (
    ActorEvent,
    MessageEvent,
    MessagePhase,
    PartitionNotice,
    PartitionPhase,
)
from repro.simulation.replay import CANDIDATE_KIND, END_OF_TRACE_KIND

__all__ = [
    "INVARIANT_FAMILIES",
    "KIND_SPAN_NAMES",
    "FlightRecorder",
    "InvariantMonitor",
    "InvariantViolation",
    "message_facts",
    "replay_trace",
]

#: The invariant families this module enforces (ISSUE 7 tentpole, plus
#: the elastic-membership lifecycle from the live-join work).
INVARIANT_FAMILIES = (
    "token_conservation",
    "vc_monotonicity",
    "candidate_order",
    "election_safety",
    "swim_lifecycle",
    "membership_join",
)

#: Message kinds -> first-class span names.  The tracer renders with
#: these; the flight recorder and the replay front-end use the same
#: table so every producer of spans agrees on naming.
KIND_SPAN_NAMES = {
    TOKEN_KIND: "token_hop",
    CANDIDATE_KIND: "candidate",
    END_OF_TRACE_KIND: "end_of_trace",
    POLL_KIND: "poll",
    POLL_RESPONSE_KIND: "poll_response",
    HALT_KIND: "halt",
    HEARTBEAT_KIND: "heartbeat",
    PING_KIND: "ping",
    PING_ACK_KIND: "ping_ack",
    PING_REQ_KIND: "ping_req",
    ELECT_KIND: "elect",
    ELECT_OK_KIND: "elect_ok",
    REGEN_KIND: "regen_request",
    JOIN_KIND: "join",
    JOIN_ACK_KIND: "join_welcome",
    STATE_SYNC_KIND: "state_sync",
    FEED_JOIN_KIND: "feed_join",
}

_SPAN_NAME_KINDS = {name: kind for kind, name in KIND_SPAN_NAMES.items()}

#: SWIM status ranks, mirroring ``repro.detect.stack.gossip._RANK``
#: (named by string so this module stays decoupled from gossip
#: internals — only the facade constants above are imported).
_SWIM_RANK = {"alive": 0, "suspect": 1, "confirm": 2}

_GOSSIP_KINDS = frozenset({PING_KIND, PING_ACK_KIND, PING_REQ_KIND})

_CANDIDATE_KINDS = frozenset({CANDIDATE_KIND, END_OF_TRACE_KIND})

_JOIN_KINDS = frozenset(
    {JOIN_KIND, JOIN_ACK_KIND, STATE_SYNC_KIND, FEED_JOIN_KIND}
)

#: Kinds the monitor inspects at all — everything else early-outs.
_INTERESTING_KINDS = (
    frozenset({TOKEN_KIND, ELECT_KIND})
    | _GOSSIP_KINDS
    | _CANDIDATE_KINDS
    | _JOIN_KINDS
)


@dataclass(frozen=True, slots=True)
class InvariantViolation:
    """One detected protocol-invariant violation.

    ``invariant`` names the family (:data:`INVARIANT_FAMILIES`);
    ``key`` identifies the violating protocol object (frame identity,
    stream endpoint pair, membership slot...) so repeated reports of
    the same object can be correlated.
    """

    invariant: str
    time: float
    actor: str
    detail: str
    key: tuple[Any, ...] = ()

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form (embedded in report extras and CLI output)."""
        return {
            "invariant": self.invariant,
            "time": self.time,
            "actor": self.actor,
            "detail": self.detail,
            "key": list(self.key),
        }

    def describe(self) -> str:
        return f"t={self.time:g}  {self.invariant:<18} {self.actor}: {self.detail}"


def _vc_of(inner: object) -> tuple[float, ...] | None:
    """Extract a causal stamp from a candidate payload, if it has one.

    Handles the vector-clock detectors' int tuples and the
    direct-dependence scalar clock (as a 1-vector).  Anything else has
    no checkable stamp.
    """
    clock = getattr(inner, "clock", None)
    if isinstance(clock, (int, float)):
        return (clock,)
    if isinstance(inner, tuple) and inner:
        if all(isinstance(x, (int, float)) for x in inner):
            return tuple(inner)
    return None


def message_facts(kind: str, payload: object) -> dict[str, Any]:
    """The invariant-relevant facts of one message payload.

    Duck-types the protocol stack's wire objects (``TokenFrame``,
    ``Sequenced``, ``Elect``, SWIM probes) without importing their
    internals.  The tracer stamps this dict onto message spans, which
    is what lets :func:`replay_trace` re-run the *same* checks offline
    from a recorded trace.
    """
    facts: dict[str, Any] = {}
    if kind == TOKEN_KIND:
        body = payload
        if hasattr(body, "hop") and hasattr(body, "body"):  # TokenFrame
            facts["frame"] = True
            facts["hop"] = body.hop
            facts["gid"] = getattr(body, "gid", 0)
            facts["epoch"] = getattr(body, "epoch", 0)
            gossip = getattr(body, "gossip", ()) or ()
            if gossip:
                _fold_entries(gossip, facts)
            body = body.body
        if hasattr(body, "group") and hasattr(body, "token"):  # GroupToken
            facts.setdefault("gid", body.group)
    elif kind in _CANDIDATE_KINDS:
        inner = payload
        if hasattr(payload, "seq") and hasattr(payload, "payload"):  # Sequenced
            facts["cseq"] = payload.seq
            facts["final"] = bool(getattr(payload, "final", False))
            inner = payload.payload
        vc = _vc_of(inner)
        if vc is not None:
            facts["vc"] = list(vc)
    elif kind in (ELECT_KIND, ELECT_OK_KIND):
        epoch = getattr(payload, "epoch", None)
        slot = getattr(payload, "slot", None)
        if epoch is not None:
            facts["epoch"] = epoch
        if slot is not None:
            facts["slot"] = slot
    elif kind in _GOSSIP_KINDS:
        _fold_entries(getattr(payload, "updates", ()) or (), facts)
    elif kind == JOIN_KIND:
        facts["slot"] = getattr(payload, "slot", None)
        facts["incarnation"] = getattr(payload, "incarnation", 0)
    elif kind == JOIN_ACK_KIND:
        facts["epoch"] = getattr(payload, "epoch", 0)
        facts["members"] = len(getattr(payload, "members", ()) or ())
    elif kind == STATE_SYNC_KIND:
        facts["baselines"] = [
            [str(stream), int(ack)]
            for stream, ack in getattr(payload, "baselines", ()) or ()
        ]
    elif kind == FEED_JOIN_KIND:
        facts["subscriber"] = getattr(payload, "subscriber", None)
        facts["baseline"] = getattr(payload, "baseline", 0)
    return facts


def _fold_entries(entries: Iterable[object], facts: dict[str, Any]) -> None:
    """Split piggybacked gossip entries into updates and announcements."""
    for entry in entries:
        status = getattr(entry, "status", None)
        if status is not None:  # GossipUpdate
            facts.setdefault("updates", []).append(
                [entry.slot, status, entry.incarnation]  # type: ignore[attr-defined]
            )
            continue
        ann = getattr(entry, "kind", None)
        if ann is not None:  # Announcement
            facts.setdefault("announcements", []).append(
                [ann, entry.epoch, entry.slot]  # type: ignore[attr-defined]
            )


class _Bounded(OrderedDict):
    """An insertion-ordered dict evicting its oldest entries at ``cap``."""

    def __init__(self, cap: int) -> None:
        super().__init__()
        self.cap = cap

    def put(self, key: Any, value: Any) -> None:
        self[key] = value
        while len(self) > self.cap:
            self.popitem(last=False)


@dataclass
class _Stream:
    """Per-(feeder, monitor) candidate-stream state."""

    max_seen: int = 0
    final_seq: int | None = None
    last_vc: tuple[float, ...] | None = None
    fingerprints: _Bounded = field(default_factory=lambda: _Bounded(256))


class InvariantMonitor:
    """A kernel observer enforcing the protocol invariant families.

    Attach via the ``observers`` hook (or let ``run_detector(...,
    check_invariants=True)`` do it); read :attr:`violations` after the
    run.  The monitor is strictly passive and never raises on a
    violation — detection outcomes are unchanged by its presence.

    All checks key off SENT-phase events (plus partition notices), so
    live observation and offline trace replay see the identical event
    stream: a span's ``start`` *is* its send time.  Kernel-injected
    duplicate copies surface only at DELIVERED and are therefore never
    mistaken for a protocol-level double-send.

    ``refutation_window`` / ``probe_interval`` parameterize the SWIM
    suspect→confirm timing check (pass the failure-detector config's
    ``suspicion_after`` / ``heartbeat_interval``); with
    ``refutation_window=None`` the timing check is skipped and only the
    ordering/precedence checks run.  ``partition_grace`` extends the
    post-heal suppression window for the partition-ambiguous checks
    (see the module docstring).
    """

    def __init__(
        self,
        refutation_window: float | None = None,
        probe_interval: float = 4.0,
        partition_grace: float = 30.0,
        max_tracked: int = 512,
        max_violations: int = 1000,
        windowed: bool = False,
    ) -> None:
        self.refutation_window = refutation_window
        self.probe_interval = probe_interval
        self.partition_grace = partition_grace
        self.max_tracked = max_tracked
        self.max_violations = max_violations
        #: ``windowed=True`` means the event stream is a *suffix window*
        #: per actor (a flight-recorder ring dump): events before the
        #: window — or ring-evicted within it — are simply absent, so
        #: every continuity check (epoch fencing, hop advance-by-one,
        #: plain-token hand-to-hand chains, candidate-stream baselines,
        #: suspect→confirm timing) is relaxed.  The window-sound checks
        #: stay armed: duplicate origins, mutated retransmissions, VC
        #: regressions, precedence and epoch regressions.
        self.windowed = windowed
        self.violations: list[InvariantViolation] = []
        #: Violations observed past ``max_violations`` (count only).
        self.overflowed = 0
        #: Partition-ambiguous findings swallowed by the suppression
        #: window — kept as a count so reports can say "n suppressed".
        self.suppressed = 0
        # --- token conservation -------------------------------------
        self._hw: dict[int, tuple[int, int]] = {}
        self._origins: dict[int, _Bounded] = {}
        self._plain_holder: dict[int, str] = {}
        # --- candidate streams / vc ---------------------------------
        self._streams: dict[tuple[str, str], _Stream] = {}
        self._plain_vc: dict[tuple[str, str], tuple[float, ...]] = {}
        # --- elections ----------------------------------------------
        self._elect_epochs: dict[str, int] = {}
        self._announced_epochs: set[int] = set()
        # --- SWIM ----------------------------------------------------
        self._swim_prec: _Bounded = _Bounded(max_tracked * 4)
        self._suspect_first: _Bounded = _Bounded(max_tracked * 4)
        self._confirm_first: _Bounded = _Bounded(max_tracked * 4)
        # --- elastic joins --------------------------------------------
        #: joiner actor -> (slot, welcomed) — created at the first JOIN.
        self._join_state: dict[str, tuple[Any, bool]] = {}
        #: joiner slot -> welcome time (arms the premature-confirm check).
        self._join_welcomed: dict[Any, float] = {}
        #: (feeder, subscriber) -> candidate baseline taught by observed
        #: state_sync / feed_join anti-entropy traffic.
        self._stream_baselines: dict[tuple[str, str], int] = {}
        # --- partition suppression ----------------------------------
        self._live_partitions = 0
        self._suppress_until = float("-inf")

    # ------------------------------------------------------------------
    # Observer protocol
    # ------------------------------------------------------------------
    def __call__(self, event: MessageEvent) -> None:
        if event.phase is not MessagePhase.SENT:
            return
        msg = event.message
        if msg.kind not in _INTERESTING_KINDS:
            return
        self.ingest(event.time, msg.kind, msg.src, msg.dest, msg.payload)

    def on_partition_event(self, event: PartitionNotice) -> None:
        if event.phase is PartitionPhase.STARTED:
            self._live_partitions += 1
        elif event.phase is PartitionPhase.HEALED:
            self._live_partitions = max(0, self._live_partitions - 1)
            self._suppress_until = max(
                self._suppress_until, event.time + self.partition_grace
            )

    # ------------------------------------------------------------------
    # Normalized ingestion (shared by live and replay paths)
    # ------------------------------------------------------------------
    def ingest(
        self, time: float, kind: str, src: str, dest: str, payload: object
    ) -> None:
        """Check one sent message given its live payload object."""
        self.ingest_facts(time, kind, src, dest, message_facts(kind, payload))

    def ingest_facts(
        self,
        time: float,
        kind: str,
        src: str,
        dest: str,
        facts: dict[str, Any],
    ) -> None:
        """Check one sent message given its extracted fact dict."""
        if kind == TOKEN_KIND:
            self._check_unwelcome(time, src, dest, "frame")
            self._check_token(time, src, dest, facts)
            if "updates" in facts or "announcements" in facts:
                self._check_swim(time, src, facts)
        elif kind in _CANDIDATE_KINDS:
            self._check_unwelcome(time, src, dest, "candidate")
            self._check_candidate(time, src, dest, facts)
        elif kind == ELECT_KIND:
            self._check_elect(time, src, facts.get("epoch"))
        elif kind in _GOSSIP_KINDS:
            self._check_swim(time, src, facts)
        elif kind in _JOIN_KINDS:
            self._check_join(time, kind, src, dest, facts)

    # ------------------------------------------------------------------
    def _report(
        self,
        invariant: str,
        time: float,
        actor: str,
        detail: str,
        key: tuple[Any, ...] = (),
        suppressible: bool = False,
    ) -> None:
        if suppressible and (
            self._live_partitions > 0 or time < self._suppress_until
        ):
            self.suppressed += 1
            return
        if len(self.violations) >= self.max_violations:
            self.overflowed += 1
            return
        self.violations.append(
            InvariantViolation(invariant, time, actor, detail, key)
        )

    # ------------------------------------------------------------------
    # (a) token conservation
    # ------------------------------------------------------------------
    def _check_token(
        self, time: float, src: str, dest: str, facts: dict[str, Any]
    ) -> None:
        gid = int(facts.get("gid", 0))
        if not facts.get("frame"):
            # Plain (unframed) token: a single object moving hand to
            # hand, so each send's source must be the previous send's
            # destination.
            holder = self._plain_holder.get(gid)
            if holder is not None and src != holder and not self.windowed:
                self._report(
                    "token_conservation",
                    time,
                    src,
                    f"token gid={gid} sent by {src} while held by "
                    f"{holder} — duplicated token",
                    key=(gid,),
                    suppressible=True,
                )
            self._plain_holder[gid] = dest
            return
        epoch = int(facts.get("epoch", 0))
        hop = int(facts.get("hop", 0))
        key = (epoch, hop)
        origins = self._origins.get(gid)
        if origins is None:
            origins = self._origins[gid] = _Bounded(self.max_tracked)
        seen = origins.get(key)
        if seen is not None:
            if seen != src:
                self._report(
                    "token_conservation",
                    time,
                    src,
                    f"frame gid={gid} epoch={epoch} hop={hop} sent by "
                    f"{src} but originally by {seen} — two live tokens",
                    key=(gid, epoch, hop),
                    suppressible=True,
                )
            return  # retransmission of a known frame
        hw = self._hw.get(gid)
        if hw is None:
            self._hw[gid] = key
        elif key > hw:
            hw_epoch, hw_hop = hw
            if epoch == hw_epoch and hop != hw_hop + 1 and not self.windowed:
                self._report(
                    "token_conservation",
                    time,
                    src,
                    f"gid={gid} epoch={epoch} hop jumped {hw_hop} -> "
                    f"{hop} (a forward advances by exactly one)",
                    key=(gid, epoch, hop),
                    suppressible=True,
                )
            # Epoch advances may legitimately skip numbers: every
            # election *attempt* consumes an epoch, and failed or
            # contested attempts (common around partitions) leave gaps.
            # Strict increase is the invariant, and regression is
            # impossible here by construction (key > hw); two winners
            # fencing the same epoch surface as duplicate origins.
            # What an advance *does* require is a fencing election: a
            # regenerated epoch nobody proposed is a forged epoch.
            if (
                not self.windowed
                and epoch > hw_epoch
                and epoch not in self._announced_epochs
            ):
                self._report(
                    "election_safety",
                    time,
                    src,
                    f"gid={gid} frame advanced to epoch {epoch} but no "
                    f"election ever proposed epoch {epoch} — forged or "
                    f"flipped frame epoch",
                    key=(gid, epoch),
                )
            self._hw[gid] = key
        # else: at-or-below the high water — stale-epoch or deposed
        # lineage traffic, which the transport ack-and-discards; that
        # *is* the epoch fencing working, not a violation.
        origins.put(key, src)

    # ------------------------------------------------------------------
    # (b) + (c) candidate streams
    # ------------------------------------------------------------------
    def _check_candidate(
        self, time: float, src: str, dest: str, facts: dict[str, Any]
    ) -> None:
        raw_vc = facts.get("vc")
        vc = tuple(raw_vc) if raw_vc is not None else None
        if "cseq" not in facts:
            # Plain stream: FIFO channel, no retransmission — check
            # causal monotonicity in send order only.
            if vc is not None:
                self._check_vc(time, src, dest, vc)
                self._plain_vc[(src, dest)] = vc
            return
        seq = int(facts["cseq"])
        final = bool(facts.get("final", False))
        stream = self._streams.get((src, dest))
        if stream is None:
            stream = self._streams[(src, dest)] = _Stream()
            # A subscribed joiner stream opens mid-sequence at the
            # anti-entropy baseline; observed state_sync / feed_join
            # traffic taught us that baseline, so it is not a gap.
            baseline = self._stream_baselines.get((src, dest))
            if baseline:
                stream.max_seen = baseline
        fingerprint = (vc, final)
        if seq <= stream.max_seen:
            # Retransmission: must be byte-for-byte the original.
            original = stream.fingerprints.get(seq)
            if original is not None and original != fingerprint:
                self._report(
                    "candidate_order",
                    time,
                    src,
                    f"{src}->{dest} seq {seq} retransmitted with a "
                    f"different payload (was {original}, now "
                    f"{fingerprint}) — reordered or mutated candidate",
                    key=(src, dest, seq),
                )
            return
        # Fresh sequence number.
        if stream.final_seq is not None and seq > stream.final_seq:
            self._report(
                "candidate_order",
                time,
                src,
                f"{src}->{dest} seq {seq} sent after the final "
                f"(end-of-trace) seq {stream.final_seq}",
                key=(src, dest, seq),
            )
        elif seq != stream.max_seen + 1 and not (
            self.windowed and stream.max_seen == 0
        ):
            # A windowed recording may open mid-stream: the first seq a
            # fresh stream shows is the baseline, not a gap.  Later gaps
            # are real — the ring keeps a contiguous suffix per sender.
            self._report(
                "candidate_order",
                time,
                src,
                f"{src}->{dest} fresh seq {seq} skips "
                f"{stream.max_seen + 1} — candidate gap",
                key=(src, dest, seq),
            )
        stream.max_seen = seq
        if final:
            stream.final_seq = seq
        stream.fingerprints.put(seq, fingerprint)
        if vc is not None:
            if stream.last_vc is not None:
                self._check_vc(time, src, dest, vc, last=stream.last_vc)
            stream.last_vc = vc

    def _check_vc(
        self,
        time: float,
        src: str,
        dest: str,
        vc: tuple[float, ...],
        last: tuple[float, ...] | None = None,
    ) -> None:
        if last is None:
            last = self._plain_vc.get((src, dest))
        if last is None or len(last) != len(vc):
            return
        if any(a < b for a, b in zip(vc, last)):
            self._report(
                "vc_monotonicity",
                time,
                src,
                f"{src}->{dest} vector clock regressed {list(last)} -> "
                f"{list(vc)} — causality violated on the stream",
                key=(src, dest),
            )

    # ------------------------------------------------------------------
    # (d) election-epoch safety
    # ------------------------------------------------------------------
    def _check_elect(
        self, time: float, src: str, epoch: object, via: str = "proposal"
    ) -> None:
        if not isinstance(epoch, (int, float)):
            return
        epoch = int(epoch)
        self._announced_epochs.add(epoch)
        last = self._elect_epochs.get(src)
        if last is not None and epoch < last:
            self._report(
                "election_safety",
                time,
                src,
                f"{src} issued election {via} for epoch {epoch} after "
                f"epoch {last} — epochs must never regress",
                key=(src, epoch),
            )
            return
        self._elect_epochs[src] = epoch

    # ------------------------------------------------------------------
    # (f) elastic-membership join lifecycle
    # ------------------------------------------------------------------
    def _check_unwelcome(
        self, time: float, src: str, dest: str, path: str
    ) -> None:
        """A joiner must stay out of the frame/candidate paths until its
        join is acked (only actors whose JOIN we observed are checked,
        so windowed recordings that missed the handshake stay quiet)."""
        for actor in (src, dest):
            state = self._join_state.get(actor)
            if state is not None and not state[1]:
                self._report(
                    "membership_join",
                    time,
                    src,
                    f"{actor} appeared on the {path} path "
                    f"({src}->{dest}) before its join was acked",
                    key=(actor, path),
                )

    def _check_join(
        self,
        time: float,
        kind: str,
        src: str,
        dest: str,
        facts: dict[str, Any],
    ) -> None:
        if kind == JOIN_KIND:
            slot = facts.get("slot")
            incarnation = int(facts.get("incarnation", 0) or 0)
            if incarnation != 0:
                self._report(
                    "membership_join",
                    time,
                    src,
                    f"{src} advertised incarnation {incarnation} in its "
                    f"join — a joiner's incarnation starts at 0",
                    key=(src, slot),
                )
            self._join_state.setdefault(src, (slot, False))
        elif kind == JOIN_ACK_KIND:
            state = self._join_state.get(dest)
            slot = state[0] if state is not None else None
            self._join_state[dest] = (slot, True)
            if slot is not None:
                self._join_welcomed.setdefault(slot, time)
        elif kind == STATE_SYNC_KIND:
            for stream, ack in facts.get("baselines", ()):
                key = (str(stream), dest)
                self._stream_baselines[key] = max(
                    self._stream_baselines.get(key, 0), int(ack)
                )
        elif kind == FEED_JOIN_KIND:
            subscriber = facts.get("subscriber")
            if subscriber is not None:
                key = (dest, str(subscriber))
                self._stream_baselines[key] = max(
                    self._stream_baselines.get(key, 0),
                    int(facts.get("baseline", 0) or 0),
                )

    # ------------------------------------------------------------------
    # (e) SWIM lifecycle legality
    # ------------------------------------------------------------------
    def _check_swim(
        self, time: float, sender: str, facts: dict[str, Any]
    ) -> None:
        for entry in facts.get("updates", ()):
            slot, status, incarnation = entry[0], entry[1], entry[2]
            precedence = (incarnation, _SWIM_RANK.get(status, 0))
            pkey = (sender, slot)
            last = self._swim_prec.get(pkey)
            if last is not None and precedence < last:
                self._report(
                    "swim_lifecycle",
                    time,
                    sender,
                    f"{sender} gossiped {status}@{incarnation} for slot "
                    f"{slot} after already emitting precedence {last} — "
                    f"incarnation precedence violated",
                    key=(sender, slot),
                )
            else:
                self._swim_prec.put(pkey, precedence)
            skey = (slot, incarnation)
            if status == "suspect":
                if skey not in self._suspect_first:
                    self._suspect_first.put(skey, time)
            elif status == "confirm":
                if skey in self._confirm_first:
                    continue
                self._confirm_first.put(skey, time)
                if self.windowed:
                    # The suspicion gossip may predate the window, so
                    # neither its absence nor its apparent lateness is
                    # evidence of anything.
                    continue
                since = self._suspect_first.get(skey)
                if since is None:
                    self._report(
                        "swim_lifecycle",
                        time,
                        sender,
                        f"slot {slot} confirmed dead at incarnation "
                        f"{incarnation} without any gossiped suspicion",
                        key=(slot, incarnation),
                    )
                elif self.refutation_window is not None:
                    # First suspicion is *emitted* up to one probe
                    # interval after the suspecting node started its
                    # local window, so allow that much slack.
                    floor = self.refutation_window - self.probe_interval
                    if time - since < floor - 1e-9:
                        self._report(
                            "swim_lifecycle",
                            time,
                            sender,
                            f"slot {slot} confirmed {time - since:g} "
                            f"after first suspicion; refutation window "
                            f"is {self.refutation_window:g}",
                            key=(slot, incarnation),
                        )
                # A just-joined member gets a full refutation window
                # from its welcome, whatever earlier suspicion gossip
                # claims — stale pre-join suspicion must not justify a
                # quick confirm of the newcomer.
                welcomed = self._join_welcomed.get(slot)
                if (
                    welcomed is not None
                    and self.refutation_window is not None
                ):
                    floor = self.refutation_window - self.probe_interval
                    if time - welcomed < floor - 1e-9:
                        self._report(
                            "membership_join",
                            time,
                            sender,
                            f"just-joined slot {slot} confirmed dead "
                            f"{time - welcomed:g} after its welcome; "
                            f"refutation window is "
                            f"{self.refutation_window:g}",
                            key=(slot, incarnation),
                        )
        for entry in facts.get("announcements", ()):
            kind, epoch = entry[0], entry[1]
            if kind == "elect":
                self._check_elect(time, sender, epoch, via="announcement")

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def counts(self) -> dict[str, int]:
        """Violation count per invariant family (zero entries included)."""
        out = {family: 0 for family in INVARIANT_FAMILIES}
        for violation in self.violations:
            out[violation.invariant] = out.get(violation.invariant, 0) + 1
        return out

    def summary(self) -> dict[str, Any]:
        """A JSON-ready digest for report extras and CLI output."""
        return {
            "violations": len(self.violations),
            "suppressed": self.suppressed,
            "overflowed": self.overflowed,
            "by_family": self.counts(),
        }


class FlightRecorder:
    """An always-on ring buffer of the last K message events per actor.

    Recording is a tuple append per event — cheap enough to leave on
    for every run.  Nothing is serialized until :meth:`dump`, which
    callers invoke only on crash, violation or degraded outcome.  The
    dump is a *valid trace JSONL file*: every buffered event becomes an
    instant span (named via :data:`KIND_SPAN_NAMES`, carrying
    :func:`message_facts` plus the observed phase), so ``repro report``
    and ``repro verify-trace`` read flight dumps directly.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rings: dict[str, deque] = {}
        self._events = 0

    def _ring(self, actor: str) -> deque:
        ring = self._rings.get(actor)
        if ring is None:
            ring = self._rings[actor] = deque(maxlen=self.capacity)
        return ring

    # ------------------------------------------------------------------
    def __call__(self, event: MessageEvent) -> None:
        msg = event.message
        actor = msg.src if event.phase is MessagePhase.SENT else msg.dest
        self._events += 1
        self._ring(actor).append(
            (
                event.time,
                event.phase.value,
                msg.kind,
                msg.src,
                msg.dest,
                msg.seq,
                msg.size_bits,
                msg.payload,
            )
        )

    def on_actor_event(self, event: ActorEvent) -> None:
        self._events += 1
        self._ring(event.actor).append(
            (event.time, event.phase.value, None, event.actor, "", -1, 0, None)
        )

    def __len__(self) -> int:
        """Events currently buffered (across all rings)."""
        return sum(len(ring) for ring in self._rings.values())

    @property
    def events_seen(self) -> int:
        """Total events observed (buffered + already evicted)."""
        return self._events

    # ------------------------------------------------------------------
    def to_trace(self, trace_id: str = "flight", **meta: Any) -> Trace:
        """Materialize the rings as a span trace (newest K per actor)."""
        entries = [
            entry for ring in self._rings.values() for entry in ring
        ]
        entries.sort(key=lambda e: (e[0], e[5]))
        trace = Trace(
            trace_id,
            meta={
                "flight_recorder": True,
                "capacity": self.capacity,
                "events_seen": self._events,
                **meta,
            },
        )
        for span_id, entry in enumerate(entries, start=1):
            time, phase, kind, src, dest, seq, size_bits, payload = entry
            if kind is None:
                name = phase  # actor lifecycle marker: crashed/restarted
                attrs: dict[str, Any] = {"phase": phase}
            else:
                name = KIND_SPAN_NAMES.get(kind, f"msg:{kind}")
                attrs = {
                    "phase": phase,
                    "kind": kind,
                    "src": src,
                    "dest": dest,
                    "seq": seq,
                    "size_bits": size_bits,
                    **message_facts(kind, payload),
                }
            trace.add(
                Span(
                    trace_id=trace_id,
                    span_id=span_id,
                    name=name,
                    actor=src,
                    start=time,
                    end=time,
                    attrs=attrs,
                )
            )
        return trace

    def dump(self, path: Any, **meta: Any) -> Any:
        """Write the ring contents to ``path`` as trace JSONL."""
        return dump_jsonl(self.to_trace(**meta), path)


def replay_trace(
    trace: Trace, monitor: InvariantMonitor | None = None, **options: Any
) -> list[InvariantViolation]:
    """Re-run the invariant monitors over a recorded span trace.

    Walks message spans in send order (a span's ``start`` is its send
    time) feeding the facts the tracer stamped onto each span through
    the same checker cores the live monitor uses; partition epoch spans
    replay as partition start/heal notices.  Kernel-duplicate spans
    (``duplicate=True``) and non-SENT flight-recorder entries are
    skipped, exactly as the live monitor never sees them.

    Keyword options construct the monitor (``refutation_window`` etc.)
    when one isn't passed in.  Returns the violation list.
    """
    if monitor is not None:
        mon = monitor
    else:
        if trace.meta.get("flight_recorder"):
            # A ring dump is a *window*: fencing elections, earlier
            # hops, stream prefixes or suspicion gossip may have been
            # evicted while later traffic survived.
            options.setdefault("windowed", True)
        mon = InvariantMonitor(**options)
    events: list[tuple[float, int, int, Span | None]] = []
    for order, span in enumerate(sorted(trace.spans, key=lambda s: s.span_id)):
        if span.name == "partition":
            events.append((span.start, 0, order, span))
            if span.end is not None and span.attrs.get("healed"):
                events.append((span.end, 1, order, None))
            continue
        if span.name.startswith("fault:"):
            # Drop/loss markers stamp the victim message's kind and
            # endpoints but are not sends; the live monitor never sees
            # them, and feeding them here would corrupt the hand-to-
            # hand token chains.
            continue
        kind = span.attrs.get("kind") or _SPAN_NAME_KINDS.get(span.name)
        if kind not in _INTERESTING_KINDS:
            continue
        if span.attrs.get("duplicate"):
            continue
        phase = span.attrs.get("phase")
        if phase is not None and phase != "sent":
            continue
        events.append((span.start, 2, order, span))
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    for time, tag, _, span in events:
        if tag == 0 and span is not None:
            mon.on_partition_event(
                PartitionNotice(time, PartitionPhase.STARTED, ())
            )
        elif tag == 1:
            mon.on_partition_event(
                PartitionNotice(time, PartitionPhase.HEALED, ())
            )
        elif span is not None:
            kind = span.attrs.get("kind") or _SPAN_NAME_KINDS[span.name]
            src = str(span.attrs.get("src", span.actor))
            dest = str(span.attrs.get("dest", ""))
            mon.ingest_facts(time, str(kind), src, dest, span.attrs)
    return mon.violations

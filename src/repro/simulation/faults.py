"""Fault injection: reproducible message- and process-failure schedules.

The paper's model (§2) assumes reliable channels and ever-live monitors.
A :class:`FaultPlan` relaxes both, per run, without touching protocol
code: it wraps the kernel's delivery path with per-channel message
**drop**, **duplication** and **corruption-marking**, and schedules
actor **crash / restart** lifecycle events with mailbox loss.

Design points:

* **Composable** — a plan is a sequence of :class:`FaultRule` filters
  (matched first-to-last on ``(src, dest, kind)``) plus a list of
  :class:`CrashEvent` schedules; plans are immutable values and can be
  merged with :meth:`FaultPlan.merge`.
* **Reproducible** — all probability draws use a dedicated RNG the
  kernel derives from its seed (label ``"faults"``), so a fault schedule
  is a pure function of ``(seed, plan, workload)`` and never perturbs
  the latency stream existing runs draw from.
* **Marking, not mangling** — "corruption" sets
  :attr:`~repro.simulation.effects.Message.corrupted`; this models a
  checksum that lets the *receiver* detect and discard garbage, which is
  exactly what the hardened protocols (``repro.detect.stack``) do.
  Unhardened protocols see the flag and nothing else.

Crash semantics: at ``at`` the actor's coroutine is destroyed and its
mailbox is emptied (messages in flight to a down actor are lost); at
``restart_at`` (if any) the kernel calls
:meth:`~repro.simulation.actors.Actor.restart`, which by default re-runs
the actor from scratch.  Ordinary Python attributes on the actor object
survive — they model the process's persisted local state, which the
hardened detectors use to regenerate protocol state after a restart.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.validation import require_finite

__all__ = [
    "FaultRule",
    "CrashEvent",
    "PartitionEvent",
    "ChurnEvent",
    "JoinEvent",
    "LeaveEvent",
    "FaultPlan",
    "MATCH_ANY",
]

#: Wildcard accepted by :meth:`FaultPlan.parse` and rule fields.
MATCH_ANY = "*"


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True, slots=True)
class FaultRule:
    """Per-channel fault probabilities for messages matching a filter.

    ``kind``, ``src`` and ``dest`` are exact matches; ``None`` (or
    ``"*"``) matches anything.  The first matching rule in a plan wins,
    so put specific rules before broad ones.
    """

    kind: str | None = None
    src: str | None = None
    dest: str | None = None
    drop: float = 0.0
    duplicate: float = 0.0
    corrupt: float = 0.0

    def __post_init__(self) -> None:
        _check_probability("drop", self.drop)
        _check_probability("duplicate", self.duplicate)
        _check_probability("corrupt", self.corrupt)
        for attr in ("kind", "src", "dest"):
            if getattr(self, attr) == MATCH_ANY:
                object.__setattr__(self, attr, None)

    def matches(self, src: str, dest: str, kind: str) -> bool:
        """Whether this rule applies to a message on ``(src, dest, kind)``."""
        return (
            (self.kind is None or self.kind == kind)
            and (self.src is None or self.src == src)
            and (self.dest is None or self.dest == dest)
        )


@dataclass(frozen=True, slots=True)
class CrashEvent:
    """One scheduled crash (and optional restart) of a named actor.

    ``restart_at=None`` means the actor stays down for the rest of the
    run (a *crash-stop* failure); otherwise it must be strictly after
    ``at``.
    """

    actor: str
    at: float
    restart_at: float | None = None

    def __post_init__(self) -> None:
        if not self.actor:
            raise ConfigurationError("crash event needs an actor name")
        require_finite(self.at, "crash time")
        if self.restart_at is not None:
            require_finite(self.restart_at, "restart_at", self.at, strict=True)


@dataclass(frozen=True, slots=True)
class ChurnEvent:
    """A scheduled stream of monitor leave/join cycles (membership churn).

    Starting at ``start``, the named actors crash round-robin — one
    every ``period`` seconds — and each restarts ``downtime`` seconds
    after it went down; ``rounds`` repeats the whole rotation.  A churn
    event is sugar over :class:`CrashEvent`: :meth:`crashes` expands it
    deterministically, so the kernel, metrics and describe/parse paths
    all see ordinary crash/restart lifecycle events.
    """

    actors: tuple[str, ...]
    start: float
    period: float
    downtime: float
    rounds: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "actors", tuple(self.actors))
        if not self.actors or any(not a for a in self.actors):
            raise ConfigurationError("churn needs non-empty actor names")
        require_finite(self.start, "churn start")
        require_finite(self.period, "churn period", strict=True)
        require_finite(self.downtime, "churn downtime", strict=True)
        if self.rounds < 1:
            raise ConfigurationError(
                f"churn rounds must be >= 1, got {self.rounds}"
            )

    def crashes(self) -> tuple[CrashEvent, ...]:
        """The round-robin crash/restart expansion of this churn."""
        events = []
        for r in range(self.rounds):
            for i, actor in enumerate(self.actors):
                at = self.start + (r * len(self.actors) + i) * self.period
                events.append(CrashEvent(actor, at, at + self.downtime))
        return tuple(events)

    def describe(self) -> str:
        """A compact human-readable rendering (used by the CLI)."""
        names = "+".join(self.actors)
        text = f"churn:{names}@{self.start:g}x{self.period:g}~{self.downtime:g}"
        if self.rounds != 1:
            text += f"*{self.rounds}"
        return text


@dataclass(frozen=True, slots=True)
class JoinEvent:
    """One genuinely *new* actor joining the run at a scheduled time.

    Unlike a :class:`CrashEvent` restart (a known member coming back),
    a join introduces an actor the run did not start with.  The harness
    (e.g. ``repro.detect``) constructs the joining actor and registers
    it via :meth:`~repro.simulation.kernel.Kernel.spawn_new`; the kernel
    reports the start as an ``ActorEvent`` with phase ``joined``.

    ``seed_contact`` names the existing member the joiner bootstraps
    from (its first handshake target); ``None`` lets the harness pick a
    default (conventionally the lowest-slot monitor).
    """

    actor: str
    at: float
    seed_contact: str | None = None

    def __post_init__(self) -> None:
        if not self.actor:
            raise ConfigurationError("join event needs an actor name")
        require_finite(self.at, "join time")
        if self.seed_contact == self.actor:
            raise ConfigurationError(
                f"join seed contact must differ from the joiner "
                f"({self.actor!r})"
            )

    def describe(self) -> str:
        """A compact human-readable rendering (used by the CLI)."""
        text = f"join:{self.actor}@{self.at:g}"
        if self.seed_contact is not None:
            text += f"<{self.seed_contact}"
        return text


@dataclass(frozen=True, slots=True)
class LeaveEvent:
    """One scheduled graceful, permanent departure of a named actor.

    At ``at`` the actor's coroutine is destroyed and its mailbox
    emptied, like a crash-stop — but the kernel reports it as an
    ``ActorEvent`` with phase ``left`` and it is not counted as a
    crash.  Survivors learn of the departure through their failure
    detector exactly as they would for a silent death.
    """

    actor: str
    at: float

    def __post_init__(self) -> None:
        if not self.actor:
            raise ConfigurationError("leave event needs an actor name")
        require_finite(self.at, "leave time")

    def describe(self) -> str:
        """A compact human-readable rendering (used by the CLI)."""
        return f"leave:{self.actor}@{self.at:g}"


@dataclass(frozen=True, slots=True)
class PartitionEvent:
    """A time-windowed network partition of the actor population.

    From ``at`` until ``heal_at`` (exclusive; ``None`` means the
    partition never heals), actors in different *components* cannot
    exchange messages — every cross-component send is dropped at the
    network and recorded as a ``partitioned`` channel fault.  ``groups``
    lists the explicit components; any actor named in no group belongs
    to one shared implicit *rest* component, so a single explicit group
    isolates it from everyone else.
    """

    at: float
    groups: tuple[frozenset[str], ...]
    heal_at: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "groups", tuple(frozenset(g) for g in self.groups)
        )
        require_finite(self.at, "partition time")
        if self.heal_at is not None:
            require_finite(self.heal_at, "heal_at", self.at, strict=True)
        if not self.groups:
            raise ConfigurationError("partition needs at least one group")
        if any(not g for g in self.groups):
            raise ConfigurationError("partition groups must be non-empty")
        seen: set[str] = set()
        for group in self.groups:
            overlap = seen & group
            if overlap:
                raise ConfigurationError(
                    f"partition groups overlap on {sorted(overlap)}"
                )
            seen |= group

    def component_of(self, actor: str) -> int:
        """The component index of ``actor`` (-1 = implicit rest group)."""
        for index, group in enumerate(self.groups):
            if actor in group:
                return index
        return -1

    def separates(self, src: str, dest: str) -> bool:
        """Whether this partition blocks messages from ``src`` to ``dest``."""
        return self.component_of(src) != self.component_of(dest)

    def describe(self) -> str:
        """A compact human-readable rendering (used by the CLI)."""
        when = f"@{self.at:g}"
        when += f"..{self.heal_at:g}" if self.heal_at is not None else ".."
        sides = "|".join("+".join(sorted(g)) for g in self.groups)
        return f"partition:{sides}{when}"


@dataclass(frozen=True)
class FaultPlan:
    """A complete, immutable fault schedule for one simulation run.

    Pass to :class:`~repro.simulation.kernel.Kernel` (or any online
    detector via ``faults=``).  ``rules`` drive per-message draws;
    ``crashes`` are fired at their scheduled simulated times.
    """

    rules: tuple[FaultRule, ...] = ()
    crashes: tuple[CrashEvent, ...] = ()
    partitions: tuple[PartitionEvent, ...] = ()
    churns: tuple[ChurnEvent, ...] = ()
    joins: tuple[JoinEvent, ...] = ()
    leaves: tuple[LeaveEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "partitions", tuple(self.partitions))
        object.__setattr__(self, "churns", tuple(self.churns))
        object.__setattr__(self, "joins", tuple(self.joins))
        object.__setattr__(self, "leaves", tuple(self.leaves))
        joined = [j.actor for j in self.joins]
        if len(set(joined)) != len(joined):
            raise ConfigurationError(
                f"duplicate join actors in plan: {joined}"
            )

    def all_crashes(self) -> tuple[CrashEvent, ...]:
        """Explicit crashes plus every churn's expansion (kernel view)."""
        expanded = list(self.crashes)
        for churn in self.churns:
            expanded.extend(churn.crashes())
        return tuple(expanded)

    # ------------------------------------------------------------------
    # Kernel interface
    # ------------------------------------------------------------------
    def draw(
        self, src: str, dest: str, kind: str, rng: random.Random
    ) -> list[bool]:
        """Decide the fate of one message: a list of delivery copies.

        The returned list holds one ``corrupted`` flag per copy to
        deliver — ``[]`` drops the message, ``[False]`` is a clean
        delivery, ``[False, True]`` is a duplication whose second copy
        arrives corruption-marked.
        """
        rule = None
        for candidate in self.rules:
            if candidate.matches(src, dest, kind):
                rule = candidate
                break
        if rule is None:
            return [False]
        if rule.drop > 0.0 and rng.random() < rule.drop:
            return []
        copies = 1
        if rule.duplicate > 0.0 and rng.random() < rule.duplicate:
            copies = 2
        return [
            rule.corrupt > 0.0 and rng.random() < rule.corrupt
            for _ in range(copies)
        ]

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def merge(self, other: "FaultPlan") -> "FaultPlan":
        """A plan applying ``self``'s rules first, then ``other``'s."""
        return FaultPlan(
            rules=self.rules + other.rules,
            crashes=self.crashes + other.crashes,
            partitions=self.partitions + other.partitions,
            churns=self.churns + other.churns,
            joins=self.joins + other.joins,
            leaves=self.leaves + other.leaves,
        )

    @property
    def affects_messages(self) -> bool:
        """Whether any rule can drop, duplicate or corrupt anything."""
        return any(
            r.drop > 0 or r.duplicate > 0 or r.corrupt > 0 for r in self.rules
        )

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a compact CLI spec.

        The spec is a comma-separated list of clauses::

            drop:<kind>:<p>          e.g. drop:token:0.2
            dup:<kind>:<p>           e.g. dup:*:0.05
            corrupt:<kind>:<p>       e.g. corrupt:candidate:0.1
            crash:<actor>:<at>[:<restart_at>]   e.g. crash:mon-1:4:9
            partition:<at>:<heal_at>:<g1>|<g2>|...
                                     e.g. partition:4:20:mon-0+app-0|mon-1
            churn:<a1+a2+...>:<start>:<period>:<downtime>[:<rounds>]
                                     e.g. churn:mon-1+mon-2:5:12:6:2
            join:<actor>:<at>[:<seed_contact>]   e.g. join:mon-3:8:mon-0
            leave:<actor>:<at>       e.g. leave:mon-3:30

        ``<kind>`` may be ``*`` for all message kinds.  Repeated
        drop/dup/corrupt clauses for the same kind merge into one rule.
        Partition group members are ``+``-separated actor names; an
        empty ``<heal_at>`` means the partition never heals, and actors
        in no listed group share one implicit rest component.
        """
        per_kind: dict[str | None, dict[str, float]] = {}
        order: list[str | None] = []
        crashes: list[CrashEvent] = []
        partitions: list[PartitionEvent] = []
        churns: list[ChurnEvent] = []
        joins: list[JoinEvent] = []
        leaves: list[LeaveEvent] = []
        for raw in spec.split(","):
            clause = raw.strip()
            if not clause:
                continue
            parts = clause.split(":")
            op = parts[0].strip().lower()
            if op == "partition":
                if len(parts) != 4:
                    raise ConfigurationError(
                        f"bad partition clause {clause!r}; expected "
                        f"partition:<at>:<heal_at>:<g1>|<g2>|..."
                    )
                try:
                    at = float(parts[1])
                    heal_raw = parts[2].strip()
                    heal = float(heal_raw) if heal_raw else None
                except ValueError:
                    raise ConfigurationError(
                        f"bad partition times in {clause!r}"
                    ) from None
                groups = tuple(
                    frozenset(
                        name.strip()
                        for name in side.split("+")
                        if name.strip()
                    )
                    for side in parts[3].split("|")
                )
                partitions.append(PartitionEvent(at, groups, heal))
                continue
            if op == "churn":
                if len(parts) not in (5, 6):
                    raise ConfigurationError(
                        f"bad churn clause {clause!r}; expected "
                        f"churn:<a1+a2+...>:<start>:<period>:<downtime>"
                        f"[:<rounds>]"
                    )
                actors = tuple(
                    name.strip()
                    for name in parts[1].split("+")
                    if name.strip()
                )
                try:
                    start = float(parts[2])
                    period = float(parts[3])
                    downtime = float(parts[4])
                    rounds = int(parts[5]) if len(parts) == 6 else 1
                except ValueError:
                    raise ConfigurationError(
                        f"bad churn numbers in {clause!r}"
                    ) from None
                churns.append(
                    ChurnEvent(actors, start, period, downtime, rounds)
                )
                continue
            if op == "join":
                if len(parts) not in (3, 4):
                    raise ConfigurationError(
                        f"bad join clause {clause!r}; expected "
                        f"join:<actor>:<at>[:<seed_contact>]"
                    )
                try:
                    at = float(parts[2])
                except ValueError:
                    raise ConfigurationError(
                        f"bad join time in {clause!r}"
                    ) from None
                contact = parts[3].strip() if len(parts) == 4 else None
                joins.append(JoinEvent(parts[1].strip(), at, contact or None))
                continue
            if op == "leave":
                if len(parts) != 3:
                    raise ConfigurationError(
                        f"bad leave clause {clause!r}; expected "
                        f"leave:<actor>:<at>"
                    )
                try:
                    at = float(parts[2])
                except ValueError:
                    raise ConfigurationError(
                        f"bad leave time in {clause!r}"
                    ) from None
                leaves.append(LeaveEvent(parts[1].strip(), at))
                continue
            if op == "crash":
                if len(parts) not in (3, 4):
                    raise ConfigurationError(
                        f"bad crash clause {clause!r}; expected "
                        f"crash:<actor>:<at>[:<restart_at>]"
                    )
                try:
                    at = float(parts[2])
                    restart = float(parts[3]) if len(parts) == 4 else None
                except ValueError:
                    raise ConfigurationError(
                        f"bad crash times in {clause!r}"
                    ) from None
                crashes.append(CrashEvent(parts[1], at, restart))
                continue
            if op not in ("drop", "dup", "corrupt"):
                raise ConfigurationError(
                    f"unknown fault clause {clause!r}; expected "
                    f"drop/dup/corrupt/crash/partition/churn/join/leave"
                )
            if len(parts) != 3:
                raise ConfigurationError(
                    f"bad fault clause {clause!r}; expected {op}:<kind>:<p>"
                )
            kind: str | None = parts[1].strip() or MATCH_ANY
            if kind == MATCH_ANY:
                kind = None
            try:
                p = float(parts[2])
            except ValueError:
                raise ConfigurationError(
                    f"bad probability in {clause!r}"
                ) from None
            _check_probability(op, p)
            if kind not in per_kind:
                per_kind[kind] = {"drop": 0.0, "duplicate": 0.0, "corrupt": 0.0}
                order.append(kind)
            key = {"drop": "drop", "dup": "duplicate", "corrupt": "corrupt"}[op]
            per_kind[kind][key] = p
        rules = tuple(FaultRule(kind=k, **per_kind[k]) for k in order)
        return cls(
            rules=rules,
            crashes=tuple(crashes),
            partitions=tuple(partitions),
            churns=tuple(churns),
            joins=tuple(joins),
            leaves=tuple(leaves),
        )

    def describe(self) -> str:
        """A short human-readable summary (used by the CLI)."""
        bits: list[str] = []
        for r in self.rules:
            scope = r.kind if r.kind is not None else MATCH_ANY
            if r.src or r.dest:
                scope += f"@{r.src or MATCH_ANY}->{r.dest or MATCH_ANY}"
            probs = []
            if r.drop:
                probs.append(f"drop={r.drop:g}")
            if r.duplicate:
                probs.append(f"dup={r.duplicate:g}")
            if r.corrupt:
                probs.append(f"corrupt={r.corrupt:g}")
            bits.append(f"{scope}[{','.join(probs) or 'noop'}]")
        for c in self.crashes:
            when = f"@{c.at:g}"
            if c.restart_at is not None:
                when += f"..{c.restart_at:g}"
            bits.append(f"crash:{c.actor}{when}")
        for p in self.partitions:
            bits.append(p.describe())
        for ch in self.churns:
            bits.append(ch.describe())
        for j in self.joins:
            bits.append(j.describe())
        for lv in self.leaves:
            bits.append(lv.describe())
        return " ".join(bits) if bits else "(no faults)"

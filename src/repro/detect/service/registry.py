"""Predicate registry: the service's mutable catalogue of WCPs.

A registry maps caller-chosen predicate ids to
:class:`~repro.predicates.conjunctive.WeakConjunctivePredicate` values.
The :class:`~repro.detect.service.dispatcher.SharedCausalityDispatcher`
snapshots the registry at launch; register/deregister between runs is
cheap (no causality state lives here).

Sharing contract
----------------
Two predicates may bind different *pid sets*, overlapping or disjoint.
But every predicate that names a given pid must bind the **same-named**
local predicate to it: the service runs one candidate stream per app
process (the Fig. 2 ``firstflag`` emission points are a function of the
process and its clause), and a shared stream can only be exact for
clauses with identical emission points.  Same name is the contract for
"same clause" (the workload generators' ``flag_predicate(var)`` obeys
it); :meth:`PredicateRegistry.predicate_map` enforces the rule at launch.
"""

from __future__ import annotations

from typing import Iterator

from repro.common.errors import ConfigurationError
from repro.common.types import Pid
from repro.predicates.conjunctive import WeakConjunctivePredicate
from repro.predicates.local import LocalPredicate

__all__ = ["PredicateRegistry"]


class PredicateRegistry:
    """Register / deregister conjunctive predicates by id.

    Ids are caller-chosen non-empty strings; registration order is the
    service's deterministic predicate order (token group tags follow
    it).  The registry may be mutated between service runs; mutating it
    while a dispatcher built from it is running has no effect on that
    run (the dispatcher snapshots the entries at launch).
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: dict[str, WeakConjunctivePredicate] = {}

    # ------------------------------------------------------------------
    def register(self, pred_id: str, wcp: WeakConjunctivePredicate) -> None:
        """Add ``wcp`` under ``pred_id``; duplicate ids are an error."""
        if not isinstance(pred_id, str) or not pred_id:
            raise ConfigurationError(
                f"predicate id must be a non-empty string, got {pred_id!r}"
            )
        if pred_id in self._entries:
            raise ConfigurationError(
                f"predicate id {pred_id!r} is already registered; "
                f"deregister it first or pick a fresh id"
            )
        if not isinstance(wcp, WeakConjunctivePredicate):
            raise ConfigurationError(
                f"can only register WeakConjunctivePredicate, got {type(wcp).__name__}"
            )
        self._entries[pred_id] = wcp

    def deregister(self, pred_id: str) -> WeakConjunctivePredicate:
        """Remove and return the predicate registered under ``pred_id``."""
        try:
            return self._entries.pop(pred_id)
        except KeyError:
            raise ConfigurationError(
                f"no predicate registered under id {pred_id!r}"
            ) from None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, pred_id: str) -> bool:
        return pred_id in self._entries

    def ids(self) -> tuple[str, ...]:
        """Registered ids, in registration order."""
        return tuple(self._entries)

    def get(self, pred_id: str) -> WeakConjunctivePredicate:
        """The predicate registered under ``pred_id``."""
        try:
            return self._entries[pred_id]
        except KeyError:
            raise ConfigurationError(
                f"no predicate registered under id {pred_id!r}"
            ) from None

    def items(self) -> Iterator[tuple[str, WeakConjunctivePredicate]]:
        """Iterate ``(pred_id, wcp)`` in registration order."""
        return iter(tuple(self._entries.items()))

    # ------------------------------------------------------------------
    def clause_for(self, pid: Pid) -> LocalPredicate:
        """The (unique) local predicate bound to ``pid``.

        Reads :meth:`predicate_map`, so it raises the same
        :class:`~repro.common.errors.ConfigurationError` for a registry
        that breaks the sharing contract.
        """
        try:
            return self.predicate_map()[pid]
        except KeyError:
            raise ConfigurationError(
                f"no registered predicate names P{pid}"
            ) from None

    def predicate_map(self) -> dict[Pid, LocalPredicate]:
        """One clause per union pid, ascending: the first-registered one.

        One pass over the registered bindings.  Raises
        :class:`~repro.common.errors.ConfigurationError` when predicates
        bind differently-named clauses (names, not callables, are the
        contract) to one pid, naming the lowest such pid, its first
        owner and the first later predicate that differs.
        """
        owners: dict[Pid, tuple[str, LocalPredicate]] = {}
        clashes: dict[Pid, tuple[str, LocalPredicate]] = {}
        for pred_id, wcp in self._entries.items():
            for pid, clause in wcp.items():
                owner = owners.setdefault(pid, (pred_id, clause))
                if clause.name != owner[1].name:
                    clashes.setdefault(pid, (pred_id, clause))
        if clashes:
            pid = min(clashes)
            (owner_id, clause), (pred_id, candidate) = owners[pid], clashes[pid]
            raise ConfigurationError(
                f"predicates {owner_id!r} and {pred_id!r} bind different "
                f"local predicates ({clause.name!r} vs "
                f"{candidate.name!r}) to P{pid}; a shared candidate "
                f"stream requires one clause per process — run them "
                f"in separate services"
            )
        return {pid: owners[pid][1] for pid in sorted(owners)}

    def check_against(self, num_processes: int) -> None:
        """Validate every registered predicate against an ``N``-process
        system, and the one-clause-per-pid sharing contract."""
        if not self._entries:
            raise ConfigurationError(
                "the registry is empty; register at least one predicate"
            )
        for pred_id, wcp in self._entries.items():
            try:
                wcp.check_against(num_processes)
            except ConfigurationError as exc:
                raise ConfigurationError(f"predicate {pred_id!r}: {exc}") from None
        self.predicate_map()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PredicateRegistry({len(self._entries)} predicates)"

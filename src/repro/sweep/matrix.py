"""Sweep matrices: declarative cross-products of detection runs.

A :class:`SweepMatrix` names every axis the harness can vary — detector,
process count ``N``, sends per process ``m``, communication pattern,
predicate density, predicate width ``n``, fault plan and seed — and
expands to a deterministic list of :class:`SweepCell` runs.  Cells that
differ only by seed share a *group*; the aggregator reports per-group
summary statistics and the baseline comparator checks per-cell paper
units exactly.

Matrices serialize to plain JSON (see :meth:`SweepMatrix.to_dict`) so a
committed baseline file carries the exact matrix it was measured from
and ``repro bench-check`` can replay it verbatim.
"""

from __future__ import annotations

import itertools
import json
import pathlib
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.common.errors import ConfigurationError
from repro.common.validation import require
from repro.detect.runner import DETECTORS, FAULT_CAPABLE, online_detectors
from repro.detect.service.dispatcher import MUX_DETECTORS
from repro.trace.generators import FLAG_VAR, WorkloadSpec

__all__ = ["SweepCell", "SweepMatrix", "load_matrix"]

#: Hard ceiling on matrix expansion, a guard against typo'd axes.
MAX_CELLS = 100_000

#: Cell-description keys an ``exclude`` entry may constrain (the axis
#: projections of :meth:`SweepCell.to_dict`).
EXCLUDE_KEYS = frozenset(
    {
        "detector",
        "processes",
        "sends",
        "pattern",
        "density",
        "pred_width",
        "seed",
        "faults",
        "membership",
        "gossip_fanout",
        "gossip_interval",
        "gossip_timeout",
        "n_predicates",
    }
)

#: Axes of counts and seeds (``pred_widths`` also takes null: all pids).
_INT_AXES = ("processes", "sends", "seeds", "pred_widths", "gossip_fanouts",
             "n_predicates")


def _fmt_density(density: float) -> str:
    return f"{density:g}"


@dataclass(frozen=True, slots=True)
class SweepCell:
    """One detection run: a workload point plus a detector and seed."""

    detector: str
    num_processes: int
    sends_per_process: int
    pattern: str = "uniform"
    predicate_density: float = 0.1
    pred_width: int | None = None
    plant_final_cut: bool = True
    internal_rate: float = 0.5
    seed: int = 0
    faults: str | None = None
    self_heal: bool = False
    membership: str = "heartbeat"
    gossip_fanout: int = 3
    gossip_interval: float | None = None
    gossip_timeout: float | None = None
    check_invariants: bool = False
    n_predicates: int = 1

    def __post_init__(self) -> None:
        require(
            self.detector in DETECTORS,
            f"unknown detector {self.detector!r}; available: {sorted(DETECTORS)}",
        )
        require(self.num_processes >= 2, "num_processes must be >= 2")
        require(self.sends_per_process >= 0, "sends_per_process must be >= 0")
        if self.pred_width is not None:
            require(
                1 <= self.pred_width <= self.num_processes,
                f"pred_width must be in [1, {self.num_processes}], "
                f"got {self.pred_width}",
            )
        if self.faults is not None:
            require(
                self.detector in FAULT_CAPABLE,
                f"detector {self.detector!r} is not fault-capable; "
                f"faults require one of {sorted(FAULT_CAPABLE)}",
            )
        if self.self_heal:
            require(
                self.detector in FAULT_CAPABLE,
                f"detector {self.detector!r} is not fault-capable; "
                f"self_heal requires one of {sorted(FAULT_CAPABLE)}",
            )
        require(
            self.membership in ("heartbeat", "gossip"),
            f"membership must be 'heartbeat' or 'gossip', "
            f"got {self.membership!r}",
        )
        require(self.gossip_fanout >= 1, "gossip_fanout must be >= 1")
        for knob, value in (
            ("gossip_interval", self.gossip_interval),
            ("gossip_timeout", self.gossip_timeout),
        ):
            if value is not None:
                require(value > 0, f"{knob} must be > 0, got {value}")
                require(
                    self.membership == "gossip",
                    f"{knob} only applies to membership='gossip'",
                )
        if self.check_invariants:
            require(
                self.detector in online_detectors(),
                f"detector {self.detector!r} is offline (no live message "
                f"stream); check_invariants requires one of "
                f"{sorted(online_detectors())}",
            )
        if self.membership != "heartbeat":
            require(
                self.self_heal,
                "membership='gossip' requires self_heal (the failure "
                "detector is the layer being selected)",
            )
        require(self.n_predicates >= 1, "n_predicates must be >= 1")
        if self.n_predicates > 1:
            require(
                self.detector in online_detectors(),
                f"detector {self.detector!r} is offline (analysis-only); "
                f"n_predicates > 1 requires one of "
                f"{sorted(online_detectors())}",
            )
            require(
                not self.check_invariants,
                "check_invariants is not wired through the service "
                "dispatcher yet; run it at n_predicates=1",
            )
            require(
                not self.self_heal,
                "the multiplexed service runs without a failure detector "
                "(epoch 0 end-to-end); self_heal requires n_predicates=1",
            )
            if self.faults is not None:
                # Amortized (non-multiplexed) service runs launch one
                # independent detection per predicate, whose monitor set
                # may not contain the actors a fault plan names.
                require(
                    self.detector in MUX_DETECTORS,
                    f"faults with n_predicates > 1 require a multiplexed "
                    f"detector ({sorted(MUX_DETECTORS)}); "
                    f"{self.detector!r} runs amortized per-predicate",
                )

    @property
    def group(self) -> str:
        """The cell's seed-independent identity (aggregation key)."""
        width = "all" if self.pred_width is None else str(self.pred_width)
        faults = self.faults if self.faults else "none"
        heal = "/heal" if self.self_heal else ""
        gossip = (
            f"/gossip{self.gossip_fanout}"
            if self.membership != "heartbeat"
            else ""
        )
        # Default (None) timing knobs contribute no suffix, so committed
        # baseline group names predate the axes and replay unchanged.
        if self.gossip_interval is not None:
            gossip += f"/gi{self.gossip_interval:g}"
        if self.gossip_timeout is not None:
            gossip += f"/gt{self.gossip_timeout:g}"
        inv = "/inv" if self.check_invariants else ""
        # The single-predicate default contributes no suffix, so every
        # baseline committed before the service axis replays unchanged.
        preds = f"/p{self.n_predicates}" if self.n_predicates > 1 else ""
        return (
            f"{self.detector}/n{self.num_processes}/m{self.sends_per_process}"
            f"/{self.pattern}/d{_fmt_density(self.predicate_density)}"
            f"/w{width}/f{faults}{heal}{gossip}{inv}{preds}"
        )

    @property
    def cell_id(self) -> str:
        """The cell's full identity, unique within a matrix."""
        return f"{self.group}/s{self.seed}"

    def predicate_pids(self) -> tuple[int, ...]:
        """The pids carrying a local predicate (and the WCP's pids)."""
        if self.pred_width is None:
            return tuple(range(self.num_processes))
        return tuple(range(self.pred_width))

    def workload_spec(self) -> WorkloadSpec:
        """The generator parameters for this cell's workload."""
        pids = None if self.pred_width is None else self.predicate_pids()
        return WorkloadSpec(
            num_processes=self.num_processes,
            sends_per_process=self.sends_per_process,
            pattern=self.pattern,
            internal_rate=self.internal_rate,
            predicate_pids=pids,
            predicate_density=self.predicate_density,
            plant_final_cut=self.plant_final_cut,
            seed=self.seed,
        )

    @property
    def flag_var(self) -> str:
        """The variable the generated workload uses for predicate truth."""
        return FLAG_VAR

    def service_predicates(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """The ``(pred_id, pids)`` entries a service cell registers.

        Predicate ``k`` rotates the base pid set by ``k`` (mod ``N``), so
        the registered predicates overlap but are not identical — the
        shape that exercises both the shared candidate stream and
        per-predicate token routing.  Deterministic in the cell alone,
        so replaying a baseline reconstructs the exact registry.
        """
        base = self.predicate_pids()
        return tuple(
            (
                f"q{k}",
                tuple(sorted({(pid + k) % self.num_processes for pid in base})),
            )
            for k in range(self.n_predicates)
        )

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready description (embedded in aggregate records)."""
        return {
            "detector": self.detector,
            "processes": self.num_processes,
            "sends": self.sends_per_process,
            "pattern": self.pattern,
            "density": self.predicate_density,
            "pred_width": self.pred_width,
            "plant_final_cut": self.plant_final_cut,
            "internal_rate": self.internal_rate,
            "seed": self.seed,
            "faults": self.faults,
            "self_heal": self.self_heal,
            "membership": self.membership,
            "gossip_fanout": self.gossip_fanout,
            "gossip_interval": self.gossip_interval,
            "gossip_timeout": self.gossip_timeout,
            "check_invariants": self.check_invariants,
            "n_predicates": self.n_predicates,
        }


def _require_axis(values: Sequence[Any], name: str) -> tuple[Any, ...]:
    axis = tuple(values)
    require(len(axis) > 0, f"matrix axis {name!r} must be non-empty")
    require(
        len(set(axis)) == len(axis),
        f"matrix axis {name!r} has duplicate entries: {axis}",
    )
    return axis


@dataclass(frozen=True)
class SweepMatrix:
    """A cross-product of sweep axes, expanding to ``cells()``.

    Fault specs pair only with fault-capable detectors: a detector
    without a hardened variant contributes one fault-free cell per
    workload point instead of one cell per fault spec.
    """

    name: str
    detectors: tuple[str, ...]
    processes: tuple[int, ...]
    sends: tuple[int, ...]
    patterns: tuple[str, ...] = ("uniform",)
    densities: tuple[float, ...] = (0.1,)
    pred_widths: tuple[int | None, ...] = (None,)
    seeds: tuple[int, ...] = (0,)
    faults: tuple[str | None, ...] = (None,)
    plant_final_cut: bool = True
    internal_rate: float = 0.5
    self_heal: bool = False
    membership: tuple[str, ...] = ("heartbeat",)
    gossip_fanouts: tuple[int, ...] = (3,)
    gossip_intervals: tuple[float | None, ...] = (None,)
    gossip_timeouts: tuple[float | None, ...] = (None,)
    check_invariants: bool = False
    n_predicates: tuple[int, ...] = (1,)
    exclude: tuple[Mapping[str, Any], ...] = ()

    def __post_init__(self) -> None:
        require(bool(self.name), "matrix name must be non-empty")
        entries = []
        for entry in self.exclude:
            require(
                isinstance(entry, Mapping) and len(entry) > 0,
                "exclude entries must be non-empty objects of "
                "axis-name -> value",
            )
            unknown_keys = sorted(set(entry) - EXCLUDE_KEYS)
            require(
                not unknown_keys,
                f"exclude entry has unknown keys {unknown_keys}; "
                f"expected a subset of {sorted(EXCLUDE_KEYS)}",
            )
            entries.append(dict(entry))
        object.__setattr__(self, "exclude", tuple(entries))
        for axis_name in (
            "detectors",
            "processes",
            "sends",
            "patterns",
            "densities",
            "pred_widths",
            "seeds",
            "faults",
            "membership",
            "gossip_fanouts",
            "gossip_intervals",
            "gossip_timeouts",
            "n_predicates",
        ):
            object.__setattr__(
                self,
                axis_name,
                _require_axis(getattr(self, axis_name), axis_name),
            )
        # A matrix file is outside input: a flag read by truthiness or a
        # float count would run the wrong cells instead of failing.
        for flag in ("plant_final_cut", "self_heal", "check_invariants"):
            value = getattr(self, flag)
            require(
                isinstance(value, bool),
                f"matrix key {flag!r} must be true or false, got {value!r}",
            )
        for axis_name in _INT_AXES:
            nullable = axis_name == "pred_widths"
            for value in getattr(self, axis_name):
                require(
                    (isinstance(value, int) and not isinstance(value, bool))
                    or (nullable and value is None),
                    f"matrix axis {axis_name!r} entries must be integers"
                    f"{' or null' if nullable else ''}, got {value!r}",
                )
        unknown = sorted(set(self.detectors) - set(DETECTORS))
        require(
            not unknown,
            f"unknown detectors {unknown}; available: {sorted(DETECTORS)}",
        )
        bad_membership = sorted(
            set(self.membership) - {"heartbeat", "gossip"}
        )
        require(
            not bad_membership,
            f"unknown membership modes {bad_membership}; "
            f"expected 'heartbeat' and/or 'gossip'",
        )
        require(
            all(f >= 1 for f in self.gossip_fanouts),
            "gossip_fanouts entries must be >= 1",
        )
        for axis_name in ("gossip_intervals", "gossip_timeouts"):
            require(
                all(v is None or v > 0 for v in getattr(self, axis_name)),
                f"{axis_name} entries must be positive (or null for the "
                f"config default)",
            )
            require(
                getattr(self, axis_name) == (None,)
                or "gossip" in self.membership,
                f"{axis_name} axis is set but the membership axis has no "
                f"'gossip' entry to apply it to",
            )
        require(
            "gossip" not in self.membership or self.self_heal,
            "membership axis includes 'gossip' but self_heal is false; "
            "gossip cells need the failure detector enabled",
        )
        require(
            all(p >= 1 for p in self.n_predicates),
            "n_predicates entries must be >= 1",
        )
        require(
            self._raw_num_cells <= MAX_CELLS,
            f"matrix expands to {self._raw_num_cells} cells before "
            f"exclusions; limit is {MAX_CELLS}",
        )

    def _membership_variants(
        self, detector: str
    ) -> tuple[tuple[str, int, float | None, float | None], ...]:
        """The ``(membership, fanout, interval, timeout)`` variants one
        detector expands over.

        The fanout/interval/timeout axes only multiply gossip cells;
        heartbeat mode has none of those knobs so it contributes a
        single variant.  Detectors without a hardened variant run
        fault-free reference code and stay on the (inert) heartbeat
        default.
        """
        if detector not in FAULT_CAPABLE:
            return (("heartbeat", 3, None, None),)
        variants: list[tuple[str, int, float | None, float | None]] = []
        for mode in self.membership:
            if mode == "gossip":
                variants.extend(
                    ("gossip", f, gi, gt)
                    for f in self.gossip_fanouts
                    for gi in self.gossip_intervals
                    for gt in self.gossip_timeouts
                )
            else:
                variants.append(("heartbeat", 3, None, None))
        return tuple(variants)

    def _predicate_variants(self, detector: str) -> tuple[int, ...]:
        """The predicate counts one detector expands over.

        Only multiplexed detectors share a service run across
        predicates, so the axis multiplies those alone; other detectors
        contribute their ordinary single-predicate cells.  (Amortized
        multi-predicate runs remain reachable through
        :func:`repro.detect.runner.run_service` and the scale benchmark
        — the sweep axis measures the shared-stream path.)
        """
        if detector not in MUX_DETECTORS:
            return (1,)
        return self.n_predicates

    def _excluded(self, cell: SweepCell) -> bool:
        """Whether an ``exclude`` entry matches every named cell field."""
        if not self.exclude:
            return False
        desc = cell.to_dict()
        return any(
            all(desc[key] == value for key, value in entry.items())
            for entry in self.exclude
        )

    @property
    def num_cells(self) -> int:
        """The number of cells ``cells()`` will expand to."""
        if self.exclude:
            return len(self.cells())
        return self._raw_num_cells

    @property
    def _raw_num_cells(self) -> int:
        """The cross-product size before ``exclude`` filtering."""
        count = 0
        for detector in self.detectors:
            fault_variants = len(self.faults) if detector in FAULT_CAPABLE else 1
            count += (
                len(self.processes)
                * len(self.sends)
                * len(self.patterns)
                * len(self.densities)
                * len(self.pred_widths)
                * len(self.seeds)
                * fault_variants
                * len(self._membership_variants(detector))
                * len(self._predicate_variants(detector))
            )
        return count

    def cells(self) -> list[SweepCell]:
        """Expand the cross-product in a deterministic order."""
        out: list[SweepCell] = []
        for detector in self.detectors:
            fault_specs: tuple[str | None, ...] = (
                self.faults if detector in FAULT_CAPABLE else (None,)
            )
            points = itertools.product(
                self.processes,
                self.sends,
                self.patterns,
                self.densities,
                self.pred_widths,
                fault_specs,
                self._membership_variants(detector),
                self._predicate_variants(detector),
                self.seeds,
            )
            for (
                n,
                sends,
                pattern,
                density,
                width,
                spec,
                mem,
                preds,
                seed,
            ) in points:
                if width is not None and width > n:
                    raise ConfigurationError(
                        f"pred_width {width} exceeds processes {n} "
                        f"in matrix {self.name!r}"
                    )
                membership, fanout, interval, timeout = mem
                cell = SweepCell(
                    detector=detector,
                    num_processes=n,
                    sends_per_process=sends,
                    pattern=pattern,
                    predicate_density=density,
                    pred_width=width,
                    plant_final_cut=self.plant_final_cut,
                    internal_rate=self.internal_rate,
                    seed=seed,
                    faults=spec,
                    self_heal=self.self_heal and detector in FAULT_CAPABLE,
                    membership=membership,
                    gossip_fanout=fanout,
                    gossip_interval=interval,
                    gossip_timeout=timeout,
                    check_invariants=(
                        self.check_invariants
                        and detector in online_detectors()
                    ),
                    n_predicates=preds,
                )
                if not self._excluded(cell):
                    out.append(cell)
        return out

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready description that :meth:`from_dict` round-trips."""
        return {
            "name": self.name,
            "detectors": list(self.detectors),
            "processes": list(self.processes),
            "sends": list(self.sends),
            "patterns": list(self.patterns),
            "densities": list(self.densities),
            "pred_widths": list(self.pred_widths),
            "seeds": list(self.seeds),
            "faults": list(self.faults),
            "plant_final_cut": self.plant_final_cut,
            "internal_rate": self.internal_rate,
            "self_heal": self.self_heal,
            "membership": list(self.membership),
            "gossip_fanouts": list(self.gossip_fanouts),
            "gossip_intervals": list(self.gossip_intervals),
            "gossip_timeouts": list(self.gossip_timeouts),
            "check_invariants": self.check_invariants,
            "n_predicates": list(self.n_predicates),
            "exclude": [dict(entry) for entry in self.exclude],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepMatrix":
        """Build a matrix from a JSON document (inverse of ``to_dict``)."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"matrix document must be a JSON object, got {type(data).__name__}"
            )
        known = {
            "name",
            "detectors",
            "processes",
            "sends",
            "patterns",
            "densities",
            "pred_widths",
            "seeds",
            "faults",
            "plant_final_cut",
            "internal_rate",
            "self_heal",
            "membership",
            "gossip_fanouts",
            "gossip_intervals",
            "gossip_timeouts",
            "check_invariants",
            "n_predicates",
            "exclude",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown matrix keys {unknown}; expected a subset of "
                f"{sorted(known)}"
            )
        for required in ("name", "detectors", "processes", "sends"):
            if required not in data:
                raise ConfigurationError(
                    f"matrix document is missing required key {required!r}"
                )
        kwargs: dict[str, Any] = {
            "name": data["name"],
            "detectors": tuple(data["detectors"]),
            "processes": tuple(data["processes"]),
            "sends": tuple(data["sends"]),
        }
        for key in (
            "patterns",
            "densities",
            "pred_widths",
            "seeds",
            "faults",
            "membership",
            "gossip_fanouts",
            "gossip_intervals",
            "gossip_timeouts",
            "n_predicates",
            "exclude",
        ):
            if key in data:
                kwargs[key] = tuple(data[key])
        for key in (
            "plant_final_cut",
            "internal_rate",
            "self_heal",
            "check_invariants",
        ):
            if key in data:
                kwargs[key] = data[key]
        return cls(**kwargs)


def load_matrix(path: str | pathlib.Path) -> SweepMatrix:
    """Load a matrix description from a JSON file."""
    path = pathlib.Path(path)
    if not path.exists():
        raise ConfigurationError(f"no such matrix file: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"matrix file {path} is not JSON: {exc}") from None
    return SweepMatrix.from_dict(data)

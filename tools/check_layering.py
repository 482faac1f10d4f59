#!/usr/bin/env python
"""Enforce the three-layer protocol-stack import discipline.

Detection cores (``src/repro/detect/*.py``) must stay near-verbatim
paper pseudocode: they may depend on the stack only through its facade
(:mod:`repro.detect.stack`), never on the layer internals, the
deprecated shims, or the fault-injection machinery.  Concretely, a
core module must not import:

* ``repro.simulation.faults``      — fault plans are a kernel concern;
  cores receive them opaquely (``if TYPE_CHECKING:`` imports are fine,
  they vanish at runtime);
* ``repro.detect.stack.transport`` / ``.membership`` / ``.compose`` —
  layer internals; the facade re-exports everything a core may touch.

The multi-predicate service package (``detect/service/``) is scanned
too: its registry is subject to the same rule, while ``dispatcher`` is
stack glue by design (it composes a :class:`StackGlue`) and is exempt
alongside ``__init__``/``runner``.  The old ``reliability`` /
``failuredetect`` back-compat shims are gone; importing them is now an
``ImportError``, not a layering question.

A second rule keeps the run harness single: only ``launch.py`` (the
drivers' :class:`~repro.detect.launch.OnlineRun`) and
``service/dispatcher.py`` (the multiplexed service's own launch) may
name the feeders, injectors and joiner spawner in
:data:`HARNESS_NAMES`.  Every other module under ``detect/`` and
``detect/service/`` is checked, ``runner`` and ``__init__`` included.

A third rule keeps the simulation layer at the bottom: modules under
``simulation/`` import no ``repro`` package but ``repro.common`` and
``repro.simulation`` outside ``if TYPE_CHECKING:``.  The kernel names
message kinds by string for this reason, and it cannot come to depend
on ``repro.obs`` or ``repro.detect``.

Exit status 1 with a per-violation report, 0 when clean.  Run directly
or via ``tests/test_layering.py`` (tier-1) and the CI lint job.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DETECT = REPO / "src" / "repro" / "detect"
SIMULATION = REPO / "src" / "repro" / "simulation"

#: Modules whose *job* is to violate the rule (registry / stack glue).
EXEMPT = {"runner", "dispatcher", "__init__"}

FORBIDDEN_PREFIXES = (
    "repro.simulation.faults",
    "repro.detect.stack.transport",
    "repro.detect.stack.membership",
    "repro.detect.stack.gossip",
    "repro.detect.stack.compose",
)


#: The run harness: who feeds the monitors, sends the first token and
#: admits joiners.
HARNESS_NAMES = frozenset(
    {"ReliableFeeder", "ReliableInjector", "TokenInjector", "spawn_joiners"}
)

#: The modules that launch runs (relative to ``detect/``).
LAUNCHERS = {"launch.py", "service/dispatcher.py"}

#: The only ``repro`` packages the simulation layer may import.
SIMULATION_IMPORTS = ("repro.common", "repro.simulation")


def _under(module: str, prefixes: tuple[str, ...]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def _is_forbidden(module: str) -> bool:
    return _under(module, FORBIDDEN_PREFIXES)


def _leaves_simulation(module: str) -> bool:
    """Whether a simulation module may not import ``module``."""
    return _under(module, ("repro",)) and not _under(module, SIMULATION_IMPORTS)


class _ImportVisitor(ast.NodeVisitor):
    """Collect forbidden imports, skipping ``if TYPE_CHECKING:`` bodies."""

    def __init__(self, forbidden=_is_forbidden) -> None:
        self.violations: list[tuple[int, str]] = []
        self._forbidden = forbidden

    def visit_If(self, node: ast.If) -> None:
        test = node.test
        is_type_checking = (
            isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
        ) or (
            isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
        )
        if is_type_checking:
            for stmt in node.orelse:
                self.visit(stmt)
            return
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if self._forbidden(alias.name):
                self.violations.append((node.lineno, alias.name))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0 and self._forbidden(node.module):
            self.violations.append((node.lineno, node.module))


def check_file(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    visitor = _ImportVisitor()
    visitor.visit(tree)
    rel = path.relative_to(REPO)
    return [
        f"{rel}:{line}: detection core imports {module!r}; "
        f"use the repro.detect.stack facade"
        for line, module in visitor.violations
    ]


def check_simulation_file(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    visitor = _ImportVisitor(_leaves_simulation)
    visitor.visit(tree)
    rel = path.relative_to(REPO)
    return [
        f"{rel}:{line}: simulation layer imports {module!r}; it may "
        f"import only {' and '.join(SIMULATION_IMPORTS)}"
        for line, module in visitor.violations
    ]


def simulation_modules() -> list[Path]:
    return sorted(SIMULATION.glob("*.py"))


def _detect_modules() -> list[Path]:
    return sorted([*DETECT.glob("*.py"), *DETECT.glob("service/*.py")])


def core_modules() -> list[Path]:
    return [p for p in _detect_modules() if p.stem not in EXEMPT]


def harness_names(tree: ast.AST) -> list[tuple[int, str]]:
    """Every line that names a :data:`HARNESS_NAMES` member: as a name,
    an attribute, or an imported name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found.extend((node.lineno, n) for n in names if n in HARNESS_NAMES)
    return sorted(found)


def check_harness(path: Path) -> list[str]:
    rel = path.relative_to(REPO)
    return [
        f"{rel}:{line}: names {name!r}; launch runs through "
        f"repro.detect.launch.OnlineRun"
        for line, name in harness_names(ast.parse(path.read_text()))
    ]


def harness_modules() -> list[Path]:
    return [
        p for p in _detect_modules()
        if p.relative_to(DETECT).as_posix() not in LAUNCHERS
    ]


def main() -> int:
    problems: list[str] = []
    for path in core_modules():
        problems.extend(check_file(path))
    for path in harness_modules():
        problems.extend(check_harness(path))
    for path in simulation_modules():
        problems.extend(check_simulation_file(path))
    if problems:
        print("layering violations:", file=sys.stderr)
        for line in problems:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(
        f"layering OK: {len(core_modules())} detection-core and "
        f"{len(simulation_modules())} simulation modules checked"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

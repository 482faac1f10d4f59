"""Tier-1 guard for the protocol-stack import discipline.

Runs the same AST check as the CI lint job
(``tools/check_layering.py``): detection cores may only reach the
transport / membership layers through the :mod:`repro.detect.stack`
facade.  Keeping it in tier-1 means a layering regression fails the
ordinary test run, not just the lint job.
"""

import ast
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CHECKER = REPO / "tools" / "check_layering.py"

sys.path.insert(0, str(CHECKER.parent))
import check_layering  # noqa: E402

sys.path.pop(0)


def test_detection_cores_respect_stack_facade():
    proc = subprocess.run(
        [sys.executable, str(CHECKER)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_checker_flags_a_planted_violation():
    """The checker itself must not be vacuous: a core importing a layer
    internal (outside TYPE_CHECKING) is reported; the same import under
    ``if TYPE_CHECKING:`` is allowed."""
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "from repro.detect.stack.transport import TokenFrame\n"
        "import repro.detect.stack.membership\n"
        "from repro.detect.stack import harden\n"
        "if TYPE_CHECKING:\n"
        "    from repro.simulation.faults import FaultPlan\n"
    )
    visitor = check_layering._ImportVisitor()
    visitor.visit(tree)
    assert [m for _, m in visitor.violations] == [
        "repro.detect.stack.transport",
        "repro.detect.stack.membership",
    ]


def test_checker_flags_a_planted_simulation_import():
    """A simulation module importing any ``repro`` package but
    ``repro.common`` and ``repro.simulation`` is reported; stdlib and
    ``TYPE_CHECKING`` imports are not."""
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "import heapq\n"
        "from repro.common.errors import SimulationError\n"
        "from repro.simulation.effects import Message\n"
        "from repro.obs.tracer import SpanTracer\n"
        "import repro.detect.base\n"
        "from repro import obs\n"
        "if TYPE_CHECKING:\n"
        "    from repro.detect.stack import TokenFrame\n"
    )
    visitor = check_layering._ImportVisitor(check_layering._leaves_simulation)
    visitor.visit(tree)
    assert visitor.violations == [
        (5, "repro.obs.tracer"),
        (6, "repro.detect.base"),
        (7, "repro"),
    ]
    stems = {p.stem for p in check_layering.simulation_modules()}
    assert {"kernel", "faults", "instrumentation"} <= stems


def test_checker_flags_a_planted_harness():
    """A driver that builds its own feeder, injector or joiners is
    reported however it names them; other stack names are not."""
    tree = ast.parse(
        "from repro.detect.stack import ReliableFeeder, harden\n"
        "import repro.detect.stack as stack\n"
        "stack.TokenInjector('mon-0', None, 1)\n"
        "def detect(kernel):\n"
        "    kernel.add_actor(ReliableFeeder('app-0', 'mon-0', [], 1.0))\n"
        "    harden(object)\n"
    )
    assert check_layering.harness_names(tree) == [
        (1, "ReliableFeeder"),
        (3, "TokenInjector"),
        (5, "ReliableFeeder"),
    ]
    checked = {
        p.relative_to(check_layering.DETECT).as_posix()
        for p in check_layering.harness_modules()
    }
    assert "token_vc.py" in checked and "runner.py" in checked
    assert not checked & {"launch.py", "service/dispatcher.py"}


def test_every_online_core_is_covered():
    """The module list actually contains the four token cores — the
    lint cannot silently go vacuous if files move."""
    stems = {p.stem for p in check_layering.core_modules()}
    assert {
        "token_vc",
        "token_vc_multi",
        "direct_dep",
        "direct_dep_parallel",
        "base",
    } <= stems
    assert "reliability" not in stems and "runner" not in stems

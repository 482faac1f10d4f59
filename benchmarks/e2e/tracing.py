"""The traced pass: wall time per layer, measured from outside ``src/``.

:class:`Tracer` temporarily wraps public layer entry points and restores
the originals on exit:

* ``Computation.analysis`` — the interval / vector-clock analysis
  (``trace.intervals`` + ``clocks``); a call that returns an analysis
  object not seen before in the run is a cache miss (a *build*);
* ``Kernel.run`` — the simulation kernel;
* ``Kernel.add_actor`` / ``Kernel.spawn_at`` — each registered actor's
  ``run`` / ``restart`` generator is wrapped in a timing proxy, so every
  slice an actor executes is charged to its role (``app-*`` feeders,
  ``mon-*`` monitors, anything else an injector).  Only the outermost
  proxy charges time, since ``restart()`` may delegate to ``run()``.

The benchmark itself opens the ``run``, ``trace.load`` and ``detect``
spans.  Spans are kept in memory (:attr:`Tracer.spans`) with name,
start, end, parent span and run id; actor slices are aggregated per run
and role (count and seconds) instead of one span each.  A span's self
time is its duration minus the time its child spans cover.

The wrappers only observe: they return what the wrapped call returned,
and the benchmark checks that traced runs count, cut and time exactly
like untraced ones.  If an entry point is gone (a later refactor), the
layers it timed are reported missing and their metrics are left out.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

#: layer -> entry points (module, class, attribute) the layer is timed by
TARGETS = {
    "trace.intervals": [("repro.trace.computation", "Computation", "analysis")],
    "simulation.kernel": [("repro.simulation.kernel", "Kernel", "run")],
    "actors": [
        ("repro.simulation.kernel", "Kernel", "add_actor"),
        ("repro.simulation.kernel", "Kernel", "spawn_at"),
    ],
}

#: actor-name prefix -> role; the first match wins
ROLES = (("app-", "actor.app"), ("mon-", "actor.monitor"), ("", "actor.injector"))


def role_of(actor_name: str) -> str:
    return next(role for prefix, role in ROLES if actor_name.startswith(prefix))


class Tracer:
    """Span recorder plus the wrappers that feed it; a context manager
    that installs the wrappers on entry and restores them on exit."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.missing: set[str] = set()
        self._restore: list[tuple[type, str, object, bool]] = []
        # open frames: [name, start, covered-by-children seconds, span id]
        self._stack: list[list] = []
        self._slice_depth = 0
        self._next_id = 0
        self._run_id: str | None = None
        self._totals: dict[str, list] = {}
        self._analyses: set[int] = set()
        #: attribution of the latest finished run (see :meth:`run`)
        self.last: dict[str, float] = {}

    # -- installation ---------------------------------------------------
    def __enter__(self) -> "Tracer":
        wrappers = {
            "analysis": self._wrap_analysis,
            "run": self._wrap_kernel_run,
            "add_actor": self._wrap_register,
            "spawn_at": self._wrap_register,
        }
        for layer, targets in TARGETS.items():
            for module, cls_name, attr in targets:
                try:
                    owner = getattr(importlib.import_module(module), cls_name)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.missing.add(layer)
                    print(
                        f"warning: {module}.{cls_name}.{attr} not found; "
                        f"{layer} metrics are absent",
                        file=sys.stderr,
                    )
                    continue
                own = attr in vars(owner)
                setattr(owner, attr, wrappers[attr](original))
                self._restore.append((owner, attr, original, own))
        return self

    def __exit__(self, *exc) -> bool:
        for owner, attr, original, own in reversed(self._restore):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._restore.clear()
        return False

    # -- spans ----------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        self._begin(name)
        try:
            yield
        finally:
            self._end()

    def _begin(self, name: str, record: bool = True) -> None:
        span_id = None
        if record:
            self._next_id += 1
            span_id = self._next_id
        self._stack.append([name, perf_counter(), 0.0, span_id])

    def _end(self) -> None:
        end = perf_counter()
        name, start, covered, span_id = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        total = self._totals.setdefault(name, [0, 0.0, 0.0])
        total[0] += 1
        total[1] += duration
        total[2] += duration - covered
        if span_id is not None:
            parent = next(
                (f[3] for f in reversed(self._stack) if f[3] is not None), None
            )
            self.spans.append({
                "name": name, "id": span_id, "parent": parent,
                "run": self._run_id, "start": start, "end": end,
                "self_s": duration - covered,
            })

    @contextmanager
    def run(self, run_id: str):
        """Span one whole run; its attribution is left in :attr:`last`."""
        self._run_id = run_id
        self._totals = totals = {}
        self._analyses = set()
        try:
            with self.span("run"):
                yield
        finally:
            self._run_id = None
            for _prefix, role in ROLES:
                count, _duration, own = totals.get(role, (0, 0.0, 0.0))
                self.spans.append(
                    {"name": role, "run": run_id, "count": count, "seconds": own}
                )

            def total(name, column):
                return totals.get(name, (0, 0.0, 0.0))[column]

            self.last = {
                "wall": total("run", 1),
                "attributed_s": sum(
                    own for name, (_n, _d, own) in totals.items() if name != "run"
                ),
                "trace.load_s": total("trace.load", 2),
                "trace.intervals.analysis_s": total("trace.intervals.analysis", 2),
                "trace.intervals.calls": total("trace.intervals.analysis", 0),
                "trace.intervals.builds": len(self._analyses),
                "detect.harness_self_s": total("detect", 2),
                "simulation.kernel.run_s": total("simulation.kernel.run", 1),
                "simulation.kernel.self_s": total("simulation.kernel.run", 2),
                "app.slice_s": total("actor.app", 2),
                "monitor.slice_s": total("actor.monitor", 2),
                "monitor.slices": total("actor.monitor", 0),
                "injector.slice_s": total("actor.injector", 2),
            }

    # -- wrappers -------------------------------------------------------
    def _wrap_analysis(self, original):
        tracer = self

        def analysis(computation, *args, **kwargs):
            with tracer.span("trace.intervals.analysis"):
                result = original(computation, *args, **kwargs)
            tracer._analyses.add(id(result))
            return result

        return analysis

    def _wrap_kernel_run(self, original):
        tracer = self

        def run(kernel, *args, **kwargs):
            with tracer.span("simulation.kernel.run"):
                return original(kernel, *args, **kwargs)

        return run

    def _wrap_register(self, original):
        tracer = self

        def register(kernel, *args, **kwargs):
            tracer._proxy(args[-1])  # add_actor(actor) / spawn_at(at, actor)
            return original(kernel, *args, **kwargs)

        return register

    def _proxy(self, actor) -> None:
        role = role_of(actor.name)
        run, restart = actor.run, actor.restart
        actor.run = lambda: self._timed(run(), role)
        actor.restart = lambda: self._timed(restart(), role)

    def _timed(self, gen, role: str):
        """Drive ``gen`` slice by slice, charging each slice to ``role``."""
        value = None
        try:
            while True:
                outermost = self._slice_depth == 0
                if outermost:
                    self._begin(role, record=False)
                self._slice_depth += 1
                try:
                    effect = gen.send(value)
                except StopIteration:
                    return
                finally:
                    self._slice_depth -= 1
                    if outermost:
                        self._end()
                value = yield effect
        finally:
            gen.close()

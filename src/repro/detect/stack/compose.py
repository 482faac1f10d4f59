"""Stack layer glue — compose a detection core with the protocol stack.

A *detection core* is a plain paper monitor (Fig. 3/4/5 pseudocode over
``send``/``receive``).  A *hardened* monitor is not a hand-written
subclass but a **composition** built by :func:`harden`::

    Hardened = harden(TokenVCMonitor)          # registered glue
    Hardened = harden(TokenVCMonitor, glue=MyGlue)

The composition stacks, top to bottom:

1. the per-algorithm **glue** (a :class:`StackGlue` subclass declaring
   the handful of hooks the algorithm must provide — how to deep-copy a
   token frame, how one visit runs, how its outcome commits);
2. :class:`StackedMonitor` — the shared hardened *run loop* (layer 2
   membership over layer 1 transport), identical for every token
   detector;
3. the unmodified detection core.

``StackedMonitor.run`` is the one state machine that used to be
copy-pasted into every ``Hardened*Monitor``: drive un-acked transfers,
process held token frames (dropping ones deposed by a takeover
election), reliably halt once the verdict is in, linger for straggler
retransmissions, and otherwise block on the failure-detector receive.
All of its state lives in persisted actor attributes, so a crash/restart
re-enters ``run`` and resumes from wherever the persisted state says the
protocol was.

The same loop hosts multiplexed glues: the multi-predicate service's
:class:`~repro.detect.service.dispatcher.ServiceGlue` demuxes each held
frame on its ``pred_id`` tag to a per-predicate machine, so N registered
predicates share one endpoint, one run loop, and one candidate stream —
``_handle_frame``/``_resolve_frame`` never assumed one token per host.
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError
from repro.detect.base import MONITOR_PREFIX, app_name
from repro.detect.stack.membership import (
    FailureDetectorConfig,
    FailureDetectorMixin,
)
from repro.detect.stack.transport import (
    AdaptiveRetryPolicy,
    ReliableEndpoint,
    TokenFrame,
)

__all__ = [
    "StackedMonitor",
    "StackGlue",
    "harden",
    "register_glue",
    "hardened_variant",
]


class StackedMonitor(FailureDetectorMixin, ReliableEndpoint):
    """The shared hardened run loop over the transport + membership layers.

    Hosts (the per-algorithm glue) implement:

    ``_handle_frame(frame)``
        generator running one (possibly crash-resumed) token visit over
        the held frame; returns ``"halt"`` / ``"gave_up"`` (loop back to
        the run-loop head) or an algorithm outcome code for
        ``_resolve_frame``;
    ``_resolve_frame(frame, code)``
        plain method (NO yields — it must be atomic with the frame's
        retirement) committing the visit's outcome: set ``detected`` /
        ``aborted``, or queue the forward via ``_begin_transfer``;
    ``_fd_slot()``
        the membership layer's election identity.

    Hosts keeping their monitors' names in ``_monitors`` get two
    defaults: ``_fd_peers()`` (every other monitor, keyed by slot) and
    ``_halt_targets()`` (every actor the declaring monitor must reliably
    halt: every other monitor and every monitor's feeder).

    Optional overrides: ``_stack_finished()`` (when to start the halt
    wave; defaults to ``detected or aborted``), ``_stack_idle()`` (a
    plain method run when there is nothing held or pending — the §3.5
    leader starts merge rounds here; return True when it advanced
    state), and ``_idle_description()`` for the blocking receive's
    diagnostic label.
    """

    def _stack_init(
        self,
        retry: AdaptiveRetryPolicy | None = None,
        failure_detector: FailureDetectorConfig | None = None,
    ) -> None:
        """Initialise both stack layers (call once from ``__init__``)."""
        self._init_reliability(retry)
        self._init_failure_detector(failure_detector)

    # ------------------------------------------------------------------
    # Host hooks
    # ------------------------------------------------------------------
    def _handle_frame(self, frame: TokenFrame):
        raise NotImplementedError

    def _resolve_frame(self, frame: TokenFrame, code: str) -> None:
        raise NotImplementedError

    def _halt_targets(self) -> list[str]:
        feeders = [
            app_name(int(m.removeprefix(MONITOR_PREFIX))) for m in self._monitors
        ]
        return [m for m in self._monitors if m != self.name] + feeders

    def _stack_finished(self) -> bool:
        """Whether this monitor owns a verdict and must halt the run."""
        return bool(
            getattr(self, "detected", False) or getattr(self, "aborted", False)
        )

    def _stack_idle(self) -> bool:
        """Advance algorithm state while nothing is held or pending.

        Plain method (no yields).  Returns True when it changed state
        (the loop re-examines everything); False falls through to the
        blocking failure-detector receive.
        """
        return False

    def _idle_description(self) -> str:
        return f"{self.name} awaiting token"

    # ------------------------------------------------------------------
    # Dispatch: transport first, then membership, then the algorithm.
    # ------------------------------------------------------------------
    def _dispatch(self, msg):
        code = yield from self._dispatch_common(msg)
        if code == "unhandled":
            code = yield from self._dispatch_fd(msg)
        return code

    # ------------------------------------------------------------------
    # The run loop every hardened token detector shares.
    # ------------------------------------------------------------------
    def run(self):
        idle = self._idle_description()
        while True:
            if self.halted:
                yield from self._linger()
                return
            if self._stack_finished():
                yield from self._reliable_halt(self._halt_targets())
                yield from self._linger()
                return
            if self.gave_up:
                return
            if self._pending_out:
                yield from self._drive_transfers()
                continue  # the loop head re-examines halted / gave_up
            if self._held:
                if self._drop_stale_held():
                    continue  # a takeover deposed the held frame's epoch
                frame = self._held[0]  # peek: popped only once resolved
                code = yield from self._handle_frame(frame)
                if code in ("halt", "gave_up"):
                    continue
                if frame.epoch < self._epoch:
                    # An election concluded while this visit was yielded;
                    # the regenerated token supersedes this frame.
                    self._drop_stale_held()
                    continue
                # One atomic block (no yields): the visit's outcome and
                # the frame's retirement commit together, so a crash
                # never strands a half-resolved token.
                self._resolve_frame(frame, code)
                self._held.popleft()
                continue
            if self._stack_idle():
                continue
            msg = yield from self._fd_receive(idle)
            if msg is None:
                if self.halted:
                    return  # halt arrived during a detector tick
                continue  # idle heartbeat tick; re-examine state
            yield from self._dispatch(msg)


class StackGlue:
    """Base for per-algorithm glue classes used by :func:`harden`.

    Accepts the detection core's positional/keyword arguments untouched,
    peels off the stack options, initialises the core and both stack
    layers, then calls :meth:`_init_visit_state` for the algorithm's
    persisted crash-resume attributes.
    """

    def __init__(
        self,
        *args,
        retry: AdaptiveRetryPolicy | None = None,
        failure_detector: FailureDetectorConfig | None = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self._stack_init(retry, failure_detector)
        self._init_visit_state()

    def _init_visit_state(self) -> None:
        """Persisted per-visit attributes (overridden by the glue)."""


_GLUE: dict[type, type] = {}
_COMPOSED: dict[tuple[type, type], type] = {}


def register_glue(core: type, glue: type) -> None:
    """Register ``glue`` as the default stack glue for ``core``."""
    _GLUE[core] = glue


def harden(core: type, *, glue: type | None = None, name: str | None = None) -> type:
    """The hardened composition of detection core ``core``.

    Composes ``(glue, StackedMonitor, core)`` — per-algorithm hooks over
    the shared run loop over the untouched paper pseudocode — and caches
    the class, so repeated calls return the identical type.  ``glue``
    defaults to the core's registered glue; ``name`` overrides the
    generated class name.
    """
    if glue is None:
        glue = _GLUE.get(core)
        if glue is None:
            raise ConfigurationError(
                f"no stack glue registered for {core.__name__}; "
                f"register_glue() it or pass glue= explicitly"
            )
    cached = _COMPOSED.get((core, glue))
    if cached is not None:
        return cached
    composed = type(
        name or f"Hardened{core.__name__}",
        (glue, StackedMonitor, core),
        {"__module__": glue.__module__, "__doc__": glue.__doc__},
    )
    _COMPOSED[(core, glue)] = composed
    return composed


def hardened_variant(core: type) -> type | None:
    """The registered hardened composition for ``core``, if any."""
    if core in _GLUE:
        return harden(core)
    return None

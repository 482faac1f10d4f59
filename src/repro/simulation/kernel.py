"""Deterministic discrete-event simulation kernel.

The kernel schedules actor coroutines over simulated time:

* **Sends** are non-blocking; delivery is scheduled per the channel
  model's latency, with FIFO clamping on FIFO channels.
* **Receives** block until a matching message is buffered.
* **Deadlock** — an empty event queue with blocked actors — is reported,
  not raised: the paper's online detection protocols legitimately block
  forever when the monitored predicate never becomes true, and the
  detection runner maps that outcome to "not detected".

Determinism: the event queue is ordered by ``(time, sequence)``; all
randomness (latency draws) comes from one seeded generator; equal-time
events fire in schedule order.  Fault injection (drop / duplication /
corruption-marking / crash-restart, see :mod:`.faults`) draws from a
*separate* generator derived from the same seed, so enabling faults
never perturbs the latency stream, and a fault schedule is reproducible
from ``(seed, plan)`` alone.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from typing import Generator

from repro.common.errors import SimulationError
from repro.common.rng import spawn_rng
from repro.simulation.actors import Actor
from repro.simulation.effects import Message, Receive, Send, Sleep, Work
from repro.simulation.faults import (
    CrashEvent,
    FaultPlan,
    LeaveEvent,
    PartitionEvent,
)
from repro.simulation.instrumentation import FaultSummary, MetricsBoard
from repro.simulation.network import ChannelModel, FixedLatency
from repro.simulation.observers import (
    ActorEvent,
    ActorPhase,
    MessageEvent,
    MessagePhase,
    PartitionNotice,
    PartitionPhase,
)

__all__ = ["Kernel", "SimulationResult"]


#: The effect classes ``Kernel._advance`` dispatches on by exact type.
_EFFECTS = frozenset({Send, Receive, Sleep, Work})


def _effect_class(name: str, effect: object) -> type:
    """The class a yielded value is handled as: the effect class it
    subclasses, or ``list`` for a list or tuple of sends."""
    for base in (Send, Receive, Sleep, Work):
        if isinstance(effect, base):
            return base
    if isinstance(effect, (list, tuple)):
        return list
    raise SimulationError(
        f"actor {name} yielded unsupported effect {type(effect).__name__}"
    )


class _Status(Enum):
    NEW = "new"
    READY = "ready"
    BLOCKED = "blocked"
    SLEEPING = "sleeping"
    FINISHED = "finished"
    CRASHED = "crashed"
    LEFT = "left"


@dataclass(slots=True)
class _ActorState:
    actor: Actor
    gen: Generator | None = None
    status: _Status = _Status.NEW
    mailbox: list[Message] = field(default_factory=list)
    pending_receive: Receive | None = None
    # Incremented on every block; lets stale receive-timeout events be
    # recognized and ignored after the actor has already been resumed.
    block_epoch: int = 0
    # Incremented on every crash; lets stale resume events (sleeps and
    # work scheduled before the crash) be recognized and ignored after
    # the actor has restarted.
    incarnation: int = 0
    # True for actors registered via spawn_new — genuinely new members
    # whose start is reported to observers as a "joined" lifecycle event.
    joiner: bool = False


@dataclass(frozen=True, slots=True)
class SimulationResult:
    """Outcome of a kernel run.

    ``deadlocked`` is True when the run ended with at least one actor
    still blocked on a receive; ``blocked`` maps those actors to the
    description of what they were waiting for.  ``faults`` summarizes
    injected failures (``None`` unless the kernel ran with a fault
    plan); ``crashed`` names actors that were down when the run ended.
    """

    time: float
    steps: int
    deadlocked: bool
    blocked: dict[str, str]
    messages_delivered: int
    faults: FaultSummary | None = None
    crashed: tuple[str, ...] = ()


class Kernel:
    """The simulation engine.

    Parameters
    ----------
    channel_model:
        Latency/ordering policy (default: fixed unit latency, FIFO).
    seed:
        Seed for latency draws.
    max_steps:
        Safety bound on processed events.
    faults:
        Optional :class:`~repro.simulation.faults.FaultPlan`.  With
        ``None`` (the default) every send is one clean copy, and the
        delivery path skips the partition check and fault draw.
    """

    def __init__(
        self,
        channel_model: ChannelModel | None = None,
        seed: int = 0,
        max_steps: int = 5_000_000,
        observers: list | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        # A NaN bound would disarm the livelock guard: take ints only.
        if type(max_steps) is not int or max_steps < 1:
            raise SimulationError(
                f"max_steps must be a positive integer, got {max_steps!r}"
            )
        self._observers = list(observers or [])
        self._channel = channel_model or FixedLatency(1.0)
        self._rng = spawn_rng(seed, "kernel")
        self._max_steps = max_steps
        self._states: dict[str, _ActorState] = {}
        self._queue: list[tuple[float, int, str, object]] = []
        self._time = 0.0
        self._seq = 0
        self._steps = 0
        self._messages_delivered = 0
        self._last_fifo_delivery: dict[tuple[str, str], float] = {}
        self.metrics = MetricsBoard()
        self._faults = faults
        self._fault_rng = spawn_rng(seed, "faults") if faults is not None else None
        self._live_partitions: list[PartitionEvent] = []
        if faults is not None:
            for crash in faults.all_crashes():
                self._schedule(crash.at, "crash", crash)
            for partition in faults.partitions:
                self._schedule(partition.at, "partition_start", partition)
                if partition.heal_at is not None:
                    self._schedule(
                        partition.heal_at, "partition_heal", partition
                    )
            for leave in faults.leaves:
                self._schedule(leave.at, "leave", leave)
            # Joins are realized by the harness constructing the joining
            # actor and registering it via spawn_new; the kernel itself
            # only needs the leave side of the elastic lifecycle.

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def add_observer(self, observer) -> None:
        """Register a message observer (see :mod:`..observers`).

        Observers are called synchronously at every message send,
        delivery and consumption; they must not mutate simulation state.
        """
        self._observers.append(observer)

    def _notify(self, phase, message: Message) -> None:
        if not self._observers:
            return
        event = MessageEvent(self._time, phase, message)
        for observer in self._observers:
            observer(event)

    def _notify_actor(self, phase_name: str, name: str) -> None:
        """Report a crash/restart to observers that opt in.

        Only observers defining ``on_actor_event`` receive these, so
        message-only observers (and their invariant predicates) are
        unaffected.
        """
        if not self._observers:
            return
        event = ActorEvent(self._time, ActorPhase(phase_name), name)
        for observer in self._observers:
            handler = getattr(observer, "on_actor_event", None)
            if handler is not None:
                handler(event)

    def _notify_partition(
        self, phase_name: str, partition: PartitionEvent
    ) -> None:
        """Report a partition start/heal to observers that opt in."""
        if not self._observers:
            return
        event = PartitionNotice(
            self._time, PartitionPhase(phase_name), partition.groups
        )
        for observer in self._observers:
            handler = getattr(observer, "on_partition_event", None)
            if handler is not None:
                handler(event)

    def add_actor(self, actor: Actor) -> None:
        """Register an actor; it starts when :meth:`run` is next called."""
        if actor.name in self._states:
            raise SimulationError(f"duplicate actor name {actor.name!r}")
        state = _ActorState(actor)
        self._states[actor.name] = state
        actor.attach(self.metrics.register(actor.name), lambda: self._time)
        self._schedule(self._time, "start", actor.name)

    def spawn_at(self, at: float, actor: Actor) -> None:
        """Register an actor that joins the simulation at time ``at``.

        Like :meth:`add_actor`, but the start event is scheduled in the
        future — the kernel-level *join* primitive membership-churn
        experiments build on.  Messages sent to the actor before its
        start time simply wait in its mailbox.
        """
        if at < self._time:
            raise SimulationError(
                f"spawn_at({at}) is in the past (now={self._time})"
            )
        if actor.name in self._states:
            raise SimulationError(f"duplicate actor name {actor.name!r}")
        state = _ActorState(actor)
        self._states[actor.name] = state
        actor.attach(self.metrics.register(actor.name), lambda: self._time)
        self._schedule(at, "start", actor.name)

    def spawn_new(self, at: float, actor: Actor) -> None:
        """Register a *genuinely new* member joining the run at ``at``.

        Like :meth:`spawn_at`, but the actor's start is reported to
        observers as an :class:`~repro.simulation.observers.ActorEvent`
        with phase ``joined`` — the kernel-level primitive behind
        :class:`~repro.simulation.faults.JoinEvent` scale-out faults.
        ``spawn_at`` models a *known* member whose start is merely
        delayed (churn restarts); ``spawn_new`` models elastic growth of
        the membership itself.  Messages sent to the joiner before its
        start time wait in its mailbox, exactly as for ``spawn_at``.
        """
        self.spawn_at(at, actor)
        self._states[actor.name].joiner = True

    def actor(self, name: str) -> Actor:
        """Look up a registered actor by name."""
        try:
            return self._states[name].actor
        except KeyError:
            raise SimulationError(f"unknown actor {name!r}") from None

    @property
    def time(self) -> float:
        """Current simulated time."""
        return self._time

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> SimulationResult:
        """Process events until quiescence (or simulated time ``until``).

        May be called repeatedly; each call continues from the previous
        state (useful after adding more actors).
        """
        queue = self._queue
        pop = heapq.heappop
        horizon = until if until is not None else float("inf")
        while queue:
            if queue[0][0] > horizon:
                break
            self._steps += 1
            if self._steps > self._max_steps:
                raise SimulationError(
                    f"exceeded max_steps={self._max_steps}; "
                    f"likely livelock in a protocol"
                )
            time, _seq, action, payload = pop(queue)
            self._time = time
            if action == "deliver":
                # Delivers dominate every protocol run; dispatch them
                # first and drain all remaining same-timestamp delivers
                # in one dispatch.  New events scheduled by a delivery
                # always carry a higher seq than anything queued, so
                # draining in heap order preserves the (time, seq) total
                # order exactly.
                self._deliver(payload)  # type: ignore[arg-type]
                while (
                    queue
                    and queue[0][0] == time
                    and queue[0][2] == "deliver"
                ):
                    self._steps += 1
                    if self._steps > self._max_steps:
                        raise SimulationError(
                            f"exceeded max_steps={self._max_steps}; "
                            f"likely livelock in a protocol"
                        )
                    self._deliver(pop(queue)[3])  # type: ignore[arg-type]
            elif action == "resume":
                name, value, incarnation = payload  # type: ignore[misc]
                state = self._states[name]
                if state.incarnation != incarnation:
                    continue  # scheduled before a crash; the wakeup died with it
                self._advance(state, value)
            elif action == "start":
                self._start(str(payload))
            elif action == "timeout":
                name, epoch = payload  # type: ignore[misc]
                state = self._states[name]
                if state.status is _Status.BLOCKED and state.block_epoch == epoch:
                    state.pending_receive = None
                    self._advance(state, None)
            elif action == "crash":
                self._crash(payload)  # type: ignore[arg-type]
            elif action == "restart":
                self._restart(str(payload))
            elif action == "leave":
                self._leave(payload)  # type: ignore[arg-type]
            elif action == "partition_start":
                self._live_partitions.append(payload)  # type: ignore[arg-type]
                self.metrics.record_partition()
                self._notify_partition("started", payload)  # type: ignore[arg-type]
            elif action == "partition_heal":
                self._live_partitions.remove(payload)  # type: ignore[arg-type]
                self._notify_partition("healed", payload)  # type: ignore[arg-type]
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown action {action!r}")
        blocked = {
            name: (state.pending_receive.description if state.pending_receive else "")
            for name, state in self._states.items()
            if state.status is _Status.BLOCKED
        }
        crashed = tuple(
            name
            for name, state in self._states.items()
            if state.status is _Status.CRASHED
        )
        return SimulationResult(
            time=self._time,
            steps=self._steps,
            deadlocked=bool(blocked) and not self._queue,
            blocked=blocked,
            messages_delivered=self._messages_delivered,
            faults=(
                self.metrics.fault_summary() if self._faults is not None else None
            ),
            crashed=crashed,
        )

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _start(self, name: str) -> None:
        state = self._states[name]
        if state.status in (_Status.CRASHED, _Status.LEFT):
            return  # crashed/left before its start event fired
        if state.status is not _Status.NEW:  # pragma: no cover - defensive
            raise SimulationError(f"actor {name} started twice")
        if state.joiner:
            self.metrics.record_join()
            self._notify_actor("joined", name)
        state.gen = state.actor.run()
        if not isinstance(state.gen, Generator):
            raise SimulationError(
                f"{name}.run() must be a generator (did you forget a yield?)"
            )
        self._advance(state, None)

    def _crash(self, crash: CrashEvent) -> None:
        state = self._states.get(crash.actor)
        if state is None:
            raise SimulationError(
                f"fault plan crashes unknown actor {crash.actor!r}"
            )
        if state.status in (_Status.FINISHED, _Status.CRASHED, _Status.LEFT):
            return  # nothing left to kill
        self._notify_actor("crashed", crash.actor)
        self._stop_actor(state, _Status.CRASHED)
        self.metrics.record_crash(crash.actor)
        if crash.restart_at is not None:
            self._schedule(crash.restart_at, "restart", crash.actor)

    def _leave(self, leave: LeaveEvent) -> None:
        """A graceful permanent departure — crash-stop mechanics, but
        reported as a ``left`` lifecycle event and not counted as a
        crash."""
        state = self._states.get(leave.actor)
        if state is None:
            raise SimulationError(
                f"fault plan removes unknown actor {leave.actor!r}"
            )
        if state.status in (_Status.FINISHED, _Status.CRASHED, _Status.LEFT):
            return  # already gone
        self.metrics.record_leave()
        self._notify_actor("left", leave.actor)
        self._stop_actor(state, _Status.LEFT)

    def _stop_actor(self, state: _ActorState, status: _Status) -> None:
        """Destroy an actor's coroutine and mailbox (crash/leave core)."""
        if state.gen is not None:
            state.gen.close()
            state.gen = None
        for msg in state.mailbox:  # mailbox loss
            state.actor.metrics.adjust_space(-msg.size_bits)  # type: ignore[union-attr]
            self.metrics.record_channel_fault(msg.src, msg.dest, "lost_to_crash")
            self._notify(MessagePhase.LOST, msg)
        state.mailbox.clear()
        state.pending_receive = None
        state.block_epoch += 1
        state.incarnation += 1
        state.status = status

    def _restart(self, name: str) -> None:
        state = self._states[name]
        if state.status is not _Status.CRASHED:  # pragma: no cover - defensive
            return
        state.gen = state.actor.restart()
        if not isinstance(state.gen, Generator):
            raise SimulationError(
                f"{name}.restart() must be a generator "
                f"(did you forget a yield?)"
            )
        self.metrics.record_restart(name)
        self._notify_actor("restarted", name)
        self._advance(state, None)

    def _deliver(self, message: Message) -> None:
        state = self._states.get(message.dest)
        if state is None:
            raise SimulationError(
                f"message {message.kind!r} addressed to unknown actor "
                f"{message.dest!r}"
            )
        if self._faults is not None and state.status in (
            _Status.CRASHED,
            _Status.LEFT,
        ):
            # The destination is down: the message is lost with its mailbox.
            self.metrics.record_channel_fault(
                message.src, message.dest, "lost_to_crash"
            )
            self._notify(MessagePhase.LOST, message)
            return
        self._messages_delivered += 1
        state.mailbox.append(message)
        state.actor.metrics.adjust_space(message.size_bits)  # type: ignore[union-attr]
        if self._observers:
            self._notify(MessagePhase.DELIVERED, message)
        if state.status is _Status.BLOCKED:
            assert state.pending_receive is not None
            msg = self._match_from_mailbox(state, state.pending_receive)
            if msg is not None:
                state.pending_receive = None
                state.status = _Status.READY
                self._advance(state, msg)

    # ------------------------------------------------------------------
    # Coroutine driving
    # ------------------------------------------------------------------
    def _advance(self, state: _ActorState, value: object) -> None:
        assert state.gen is not None
        name = state.actor.name
        state.status = _Status.READY
        while True:
            try:
                effect = state.gen.send(value)
            except StopIteration:
                state.status = _Status.FINISHED
                return
            except Exception as exc:
                state.status = _Status.FINISHED
                raise SimulationError(f"actor {name} raised: {exc!r}") from exc
            value = None
            cls = type(effect)
            if cls not in _EFFECTS:
                cls = _effect_class(name, effect)
            if cls is Send:
                self._handle_send(state, effect)
            elif cls is Receive:
                if state.mailbox:
                    msg = self._match_from_mailbox(state, effect)
                    if msg is not None:
                        value = msg
                        continue
                state.status = _Status.BLOCKED
                state.pending_receive = effect
                state.block_epoch += 1
                if effect.timeout is not None:
                    self._schedule(
                        self._time + effect.timeout,
                        "timeout",
                        (name, state.block_epoch),
                    )
                return
            elif cls is Sleep:
                state.status = _Status.SLEEPING
                self._schedule(
                    self._time + effect.duration,
                    "resume",
                    (name, None, state.incarnation),
                )
                return
            elif cls is Work:
                state.actor.metrics.charge_work(effect.units)  # type: ignore[union-attr]
            else:  # a list or tuple of sends
                for item in effect:
                    if not isinstance(item, Send):
                        raise SimulationError(
                            f"actor {name} yielded a sequence containing "
                            f"{type(item).__name__}; only Send lists are allowed"
                        )
                    self._handle_send(state, item)

    def _handle_send(self, state: _ActorState, effect: Send) -> None:
        """Schedule the delivery of each copy of one send.

        The sender is always charged for exactly one send (a fault is
        the channel's, not the protocol's).  Without a fault plan a send
        is one clean copy; with one, :meth:`_copies` decides how many
        copies survive and which are corruption-marked.  Each copy draws
        its own latency and respects the FIFO clamp in schedule order;
        observers see the first copy as the send.  Each copy takes two
        seqs: its envelope's, then its delivery event's.
        """
        src = state.actor.name
        dest = effect.dest
        if dest not in self._states:
            raise SimulationError(
                f"actor {src} sends to unknown actor {dest!r}"
            )
        kind = effect.kind
        size_bits = effect.size_bits
        state.actor.metrics.charge_send(kind, size_bits)  # type: ignore[union-attr]
        copies = (False,) if self._faults is None else self._copies(src, effect)
        channel = self._channel
        fifo = channel.is_fifo(src, dest, kind)
        notify = bool(self._observers)
        now = self._time
        for corrupted in copies:
            latency = channel.latency(src, dest, kind, self._rng)
            if latency < 0:  # pragma: no cover - defensive
                raise SimulationError("channel model produced negative latency")
            delivery = now + latency
            if fifo:
                key = (src, dest)
                delivery = max(delivery, self._last_fifo_delivery.get(key, 0.0))
                self._last_fifo_delivery[key] = delivery
            if corrupted:
                self.metrics.record_channel_fault(src, dest, "corrupted")
            self._seq = seq = self._seq + 1
            message = Message(
                seq, src, dest, kind, effect.payload, size_bits, now,
                delivery, corrupted,
            )
            if notify:
                self._notify(MessagePhase.SENT, message)
                notify = False
            self._seq = seq = seq + 1
            heapq.heappush(self._queue, (delivery, seq, "deliver", message))

    def _copies(self, src: str, effect: Send) -> list[bool]:
        """The fault plan's verdict on one send: a corrupted flag per copy.

        A live partition separating src and dest drops the send before
        any probability draw, so partitions never perturb the fault RNG
        stream of the surviving components.  Observers see a dropped or
        partitioned send with an infinite delivery time.
        """
        assert self._faults is not None and self._fault_rng is not None
        dest = effect.dest
        for partition in self._live_partitions:
            if partition.separates(src, dest):
                fault = "partitioned"
                break
        else:
            copies = self._faults.draw(src, dest, effect.kind, self._fault_rng)
            if len(copies) > 1:
                self.metrics.record_channel_fault(src, dest, "duplicated")
            if copies:
                return copies
            fault = "dropped"
        self.metrics.record_channel_fault(src, dest, fault)
        if self._observers:
            self._seq += 1
            self._notify(MessagePhase.DROPPED, Message(
                self._seq, src, dest, effect.kind, effect.payload,
                effect.size_bits, self._time, float("inf"),
            ))
        return []

    def _match_from_mailbox(
        self, state: _ActorState, receive: Receive
    ) -> Message | None:
        """Take the earliest-delivered message ``receive`` matches.

        The mailbox is in delivery order, so a receive that matches
        anything takes its head.  Callers only ask with mail buffered.
        """
        mailbox = state.mailbox
        kinds = receive.kinds
        if kinds is None:
            msg = mailbox.pop(0)
        else:
            for i, msg in enumerate(mailbox):
                if msg.kind in kinds:
                    del mailbox[i]
                    break
            else:
                return None
        metrics = state.actor.metrics
        assert metrics is not None
        metrics.charge_receive(msg.kind, msg.size_bits)
        metrics.adjust_space(-msg.size_bits)
        if self._observers:
            self._notify(MessagePhase.CONSUMED, msg)
        return msg

    # ------------------------------------------------------------------
    def _schedule(self, time: float, action: str, payload: object) -> None:
        self._seq = seq = self._seq + 1
        heapq.heappush(self._queue, (time, seq, action, payload))

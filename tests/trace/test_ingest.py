"""Trace ingest: what the decoder and the validators reject, and how.

The table below drives every check in :class:`Event`,
:class:`ProcessTrace`, the message matcher, the acyclicity check and
the send/receive time check through the JSON decoder, so the same
documents pin both the check and the exception type a caller sees:
checks inside one process's event list surface as
:class:`SerializationError` (naming the process and event), whole-trace
checks as :class:`InvalidComputationError`.  The differential fuzz at
the end holds the decoder's one-pass checks (``Event._decoded``) to the
hand-built path's: same verdict, same values, same error text.
"""

import copy
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import InvalidComputationError, SerializationError
from repro.detect import run_detector
from repro.predicates import WeakConjunctivePredicate
from repro.trace import Event, EventKind, ProcessTrace, random_computation
from repro.trace.computation import Computation
from repro.trace.serialization import (
    computation_from_dict,
    computation_to_dict,
    dumps,
    loads,
)


def doc(*processes):
    """A format-1 document; each process is a list of event dicts."""
    return {
        "version": 1,
        "processes": [{"initial_vars": {}, "events": list(p)} for p in processes],
    }


def send(msg_id, peer, **extra):
    return {"kind": "send", "msg_id": msg_id, "peer": peer, **extra}


def recv(msg_id, peer, **extra):
    return {"kind": "recv", "msg_id": msg_id, "peer": peer, **extra}


INTERNAL = {"kind": "internal"}

#: (case id, document, exception type, message fragment)
REJECTED = [
    ("unknown kind", doc([{"kind": "warp"}]), SerializationError, "warp"),
    ("internal with msg_id",
     doc([{"kind": "internal", "msg_id": 0}]), SerializationError,
     "must not carry"),
    ("internal with peer",
     doc([{"kind": "internal", "peer": 1}], []), SerializationError,
     "must not carry"),
    ("send without msg_id",
     doc([{"kind": "send", "peer": 1}], []), SerializationError, "require"),
    ("send without peer",
     doc([{"kind": "send", "msg_id": 0}], []), SerializationError, "require"),
    ("recv without msg_id",
     doc([], [{"kind": "recv", "peer": 0}]), SerializationError, "require"),
    ("recv without peer",
     doc([], [{"kind": "recv", "msg_id": 0}]), SerializationError, "require"),
    ("negative msg_id", doc([send(-1, 1)], [recv(-1, 0)]),
     SerializationError, "msg_id must be >= 0"),
    ("negative peer", doc([send(0, -1)], []),
     SerializationError, "peer must be >= 0"),
    ("duplicate send", doc([send(0, 1), send(0, 1)], [recv(0, 0)]),
     InvalidComputationError, "sent twice"),
    ("duplicate recv", doc([send(0, 1)], [recv(0, 0), recv(0, 0)]),
     InvalidComputationError, "received twice"),
    ("self-send", doc([send(0, 0), recv(0, 0)]),
     InvalidComputationError, "itself"),
    ("destination out of range", doc([send(0, 5)], []),
     InvalidComputationError, "does not exist"),
    ("recv without send", doc([], [recv(0, 0)]),
     InvalidComputationError, "never sent"),
    ("destination mismatch",
     doc([send(0, 1)], [], [recv(0, 0)]),
     InvalidComputationError, "sent to P1 but received by P2"),
    ("sender mismatch",
     doc([send(0, 1)], [recv(0, 2)], []),
     InvalidComputationError, "names sender"),
    ("unreceived message", doc([send(0, 1)], []),
     InvalidComputationError, "never received"),
    ("two-process cycle",
     doc([recv(1, 1), send(0, 1)], [recv(0, 0), send(1, 0)]),
     InvalidComputationError, "causal cycle"),
    ("decreasing times",
     doc([dict(INTERNAL, time=2.0), dict(INTERNAL, time=1.0)]),
     SerializationError, "nondecreasing"),
    ("recv timestamped before its send",
     doc([send(0, 1, time=5.0)], [recv(0, 0, time=1.0)]),
     InvalidComputationError, "before sent"),
]


class TestRejections:
    @pytest.mark.parametrize(
        "document, error, fragment",
        [case[1:] for case in REJECTED],
        ids=[case[0] for case in REJECTED],
    )
    def test_decoder_rejects(self, document, error, fragment):
        with pytest.raises(error, match=fragment) as exc:
            computation_from_dict(document)
        assert type(exc.value) is error

    @pytest.mark.parametrize(
        "document, error, fragment",
        [case[1:] for case in REJECTED],
        ids=[case[0] for case in REJECTED],
    )
    def test_loads_rejects_the_same(self, document, error, fragment):
        with pytest.raises(error, match=fragment):
            loads(json.dumps(document))

    def test_unreceived_message_allowed_on_request(self):
        events = [[Event.send(0, 1)], []]
        comp = Computation.from_event_lists(events, allow_unreceived=True)
        assert comp.messages == {}

    def test_three_process_cycle_with_one_process_finishing(self):
        # P0 runs to its end; P1 waits on m2 (sent after P2's receive of
        # m1) while P2 waits on m1 (sent after P1's receive of m2).
        document = doc(
            [INTERNAL, send(0, 1), INTERNAL],
            [recv(0, 0), recv(2, 2), send(1, 2)],
            [recv(1, 1), send(2, 1)],
        )
        with pytest.raises(InvalidComputationError, match="causal cycle"):
            computation_from_dict(document)

    def test_acyclic_three_process_chain_accepted(self):
        document = doc(
            [INTERNAL, send(0, 1), INTERNAL],
            [recv(0, 0), send(1, 2), recv(2, 2)],
            [recv(1, 1), send(2, 1)],
        )
        comp = computation_from_dict(document)
        runs = list(comp.causal_runs())
        assert sum(stop - start for _pid, start, stop in runs) == (
            comp.total_events()
        )


class TestMistypedFields:
    """Fields of the wrong type are rejected where the event is built,
    not later inside a detector (a string ``time`` used to load and
    then crash ``token_vc`` with a bare ``TypeError``)."""

    @pytest.mark.parametrize(
        "field, value, fragment",
        [
            ("time", "3", "time must be a finite number"),
            ("time", math.nan, "time must be a finite number"),
            ("time", math.inf, "time must be a finite number"),
            ("time", -math.inf, "time must be a finite number"),
            ("time", True, "time must be a finite number"),
            ("msg_id", 0.0, "msg_id must be an int"),
            ("msg_id", True, "msg_id must be an int"),
            ("peer", 1.0, "peer must be an int"),
            ("peer", True, "peer must be an int"),
        ],
    )
    def test_event_rejects(self, field, value, fragment):
        fields = {"msg_id": 0, "peer": 1, "time": 1.0, field: value}
        with pytest.raises(InvalidComputationError, match=fragment):
            Event(EventKind.SEND, **fields)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("time", "3"),
            ("time", math.nan),
            ("time", math.inf),
            ("time", -math.inf),
            ("msg_id", 1.0),
            ("msg_id", False),
            ("peer", 0.0),
            ("peer", True),
        ],
    )
    def test_decoder_names_process_and_event(self, field, value):
        document = doc(
            [send(0, 1, time=0.0)],
            [INTERNAL, recv(0, 0, time=1.0)],
        )
        document["processes"][1]["events"][1][field] = value
        with pytest.raises(
            SerializationError, match=r"process 1 event 1: .*must be"
        ):
            computation_from_dict(document)

    def test_missing_fields_are_located(self):
        document = doc([INTERNAL], [INTERNAL, {"msg_id": 0}])
        with pytest.raises(
            SerializationError, match=r"process 1 event 1: missing field 'kind'"
        ):
            computation_from_dict(document)
        del document["processes"][0]["events"]
        with pytest.raises(
            SerializationError, match=r"process 0: missing field 'events'"
        ):
            computation_from_dict(document)

    def test_string_time_no_longer_reaches_the_detector(self):
        comp = random_computation(3, 4, seed=1, plant_final_cut=True)
        document = computation_to_dict(comp)
        timed = next(
            (p, i)
            for p, proc in enumerate(document["processes"])
            for i, entry in enumerate(proc["events"])
            if "time" in entry
        )
        document["processes"][timed[0]]["events"][timed[1]]["time"] = "7"
        with pytest.raises(SerializationError, match=f"process {timed[0]} "):
            computation_from_dict(document)
        # The well-typed trace still detects.
        wcp = WeakConjunctivePredicate.of_flags(range(3))
        assert run_detector("token_vc", loads(dumps(comp)), wcp).detected

    def test_int_times_and_int_subclass_ids_accepted(self):
        class Pid(int):
            pass

        event = Event(EventKind.SEND, Pid(3), Pid(1), time=2)
        assert (event.msg_id, event.peer, event.time) == (3, 1, 2)


class TestDecoding:
    def test_from_dict_does_not_mutate_its_argument(self):
        comp = random_computation(4, 6, seed=3, predicate_density=0.5)
        data = computation_to_dict(comp)
        before = copy.deepcopy(data)
        computation_from_dict(data)
        assert data == before

    def test_loads_matches_from_dict(self):
        comp = random_computation(4, 6, seed=5, predicate_density=0.5)
        a = loads(dumps(comp))
        b = computation_from_dict(computation_to_dict(comp))
        assert [t.events for t in a.processes] == [t.events for t in b.processes]

    def test_events_without_updates_share_one_empty_mapping(self):
        comp = loads(dumps(random_computation(3, 4, seed=2)))
        empty = [e.updates for t in comp.processes for e in t.events
                 if not e.updates]
        assert empty and all(u is empty[0] for u in empty)
        with pytest.raises(TypeError):
            empty[0]["x"] = 1  # type: ignore[index]
        assert Event.internal().updates is empty[0]

    def test_process_trace_still_validates_times(self):
        with pytest.raises(InvalidComputationError, match="nondecreasing"):
            ProcessTrace((Event.internal(time=2.0), Event.internal(time=1.0)))


class TestSharedUpdates:
    def test_equal_updates_share_one_mapping_per_process(self):
        comp = loads(dumps(random_computation(3, 6, seed=4, predicate_density=0.5)))
        for trace in comp.processes:
            by_value: dict[str, set[int]] = {}
            for event in trace.events:
                if event.updates:
                    by_value.setdefault(repr(dict(event.updates)), set()).add(
                        id(event.updates)
                    )
            assert by_value and all(len(ids) == 1 for ids in by_value.values())

    def test_mappings_a_reader_can_tell_apart_stay_apart(self):
        values = [True, 1, 1.0, -0.0, 0.0, True, -0.0, math.nan, math.nan]
        document = doc([dict(INTERNAL, updates={"x": v}) for v in values])
        for comp in (computation_from_dict(document), loads(json.dumps(document))):
            updates = [e.updates for e in comp.processes[0].events]
            assert [repr(u["x"]) for u in updates] == [repr(v) for v in values]
            assert updates[5] is updates[0] and updates[6] is updates[3]
            distinct = {id(u) for u in updates[:5]} | {id(updates[7]), id(updates[8])}
            assert len(distinct) == 7
            with pytest.raises(TypeError):
                updates[0]["x"] = False  # type: ignore[index]

    def test_decoded_updates_do_not_alias_the_document(self):
        document = doc([dict(INTERNAL, updates={"x": 1})])
        comp = computation_from_dict(document)
        document["processes"][0]["events"][0]["updates"]["x"] = 2
        assert comp.event(0, 0).updates == {"x": 1}


class TestMessageRecords:
    def test_records_are_built_on_first_read(self):
        comp = loads(dumps(random_computation(4, 6, seed=8, plant_final_cut=True)))
        wcp = WeakConjunctivePredicate.of_flags(range(4))
        for detector in ("token_vc", "direct_dep"):
            assert run_detector(detector, comp, wcp, seed=1).detected
        assert comp._messages is None  # detection never reads them
        records = comp.messages
        assert records is comp.messages
        assert len(records) == sum(
            e.kind is EventKind.SEND for t in comp.processes for e in t.events
        )

    def test_records_are_in_receive_order(self):
        document = doc(
            [send(5, 1), recv(9, 1)],
            [recv(5, 0), send(9, 0)],
        )
        comp = computation_from_dict(document)
        assert [(r.msg_id, r.sender, r.send_index, r.receiver, r.recv_index)
                for r in comp.messages.values()] == [(9, 1, 1, 0, 1), (5, 0, 0, 1, 0)]


# -- differential fuzz: the decoder against Event(...) / Computation(...) --
ABSENT = object()  # the mutation deletes the field

#: Field -> the values one mutation may give it.
MUTATIONS = {
    "msg_id": [True, False, 1.0, 2.5, "3", None, -1, 0, 7, 10**6,
               math.nan, math.inf, -math.inf, ABSENT],
    "peer": [True, 1.0, "1", None, -1, 0, 1, 9, math.nan, math.inf, ABSENT],
    "time": [True, 2.0, 2.5, "3", None, -1, 0, 10**6, -0.0,
             math.nan, math.inf, -math.inf, 10**400, -10**400, ABSENT],
    "updates": [None, [["flag", True]], [1], "x", {}, {"flag": -0.0},
                {"flag": 0.0}, {"flag": 1}, {"flag": 1.0}, {"flag": True},
                {"flag": [1]}, {"flag": math.nan}, {3: True}, ABSENT],
    "kind": ["warp", "", "internal", "send", "recv"],
}


def label(value):
    """A mutation's test id; an int beyond the float range by length."""
    if value is ABSENT:
        return "absent"
    text = repr(value)
    return text if len(text) < 30 else f"{text[:4]}...({len(text)} chars)"


#: Flag values of the base documents: equal pairs a reader tells apart.
FLAG_VALUES = [True, False, 1, 0, 1.0, 0.0, -0.0]
KIND_BY_NAME = {kind.value: kind for kind in EventKind}


@st.composite
def documents(draw):
    """A valid document whose update values mix ``True``/``1``/``1.0``
    and ``0.0``/``-0.0`` within each process."""
    comp = random_computation(
        draw(st.integers(2, 4)),
        draw(st.integers(0, 4)),
        seed=draw(st.integers(0, 10_000)),
        predicate_density=draw(st.sampled_from([0.3, 1.0])),
        plant_final_cut=draw(st.booleans()),
    )
    document = computation_to_dict(comp)
    for proc in document["processes"]:
        for entry in proc["events"]:
            if "updates" in entry:
                entry["updates"] = {"flag": draw(st.sampled_from(FLAG_VALUES))}
    return document


def hand_built(document):
    """``document`` built through ``Event(...)``, ``ProcessTrace(...)``
    and ``Computation(...)``: the computation, or ``(error type, the
    text the decoder's error must contain)``."""
    traces = []
    for pid, proc in enumerate(document["processes"]):
        events = []
        for index, entry in enumerate(proc["events"]):
            try:
                kind = KIND_BY_NAME.get(entry["kind"])
                if kind is None:
                    raise ValueError(f"unknown event kind {entry['kind']!r}")
                events.append(Event(
                    kind, entry.get("msg_id"), entry.get("peer"),
                    entry.get("updates", {}), entry.get("time"),
                ))
            except (TypeError, ValueError) as exc:
                return SerializationError, f"process {pid} event {index}: {exc}"
        try:
            traces.append(ProcessTrace(tuple(events), proc["initial_vars"]))
        except ValueError as exc:
            return SerializationError, f"process {pid}: {exc}"
    try:
        return Computation(traces)
    except InvalidComputationError as exc:
        return InvalidComputationError, str(exc)


def fingerprint(comp):
    """Everything a reader can tell apart, ``True``/``1`` included (by
    repr, since two NaN objects are unequal)."""
    return (
        [
            (
                [(e.kind, repr(e.msg_id), repr(e.peer), repr(dict(e.updates)),
                  repr(e.time)) for e in trace.events],
                repr(dict(trace.initial_vars)),
            )
            for trace in comp.processes
        ],
        list(comp.messages.items()),
        list(comp.causal_runs()),
    )


class TestDifferentialFuzz:
    @pytest.mark.parametrize(
        "field, value",
        [(field, value) for field, values in MUTATIONS.items() for value in values],
        ids=[
            f"{field}={label(value)}"
            for field, values in MUTATIONS.items()
            for value in values
        ],
    )
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_decoder_agrees_with_hand_built(self, field, value, data):
        document = data.draw(documents())
        where = [
            (pid, index)
            for pid, proc in enumerate(document["processes"])
            for index in range(len(proc["events"]))
        ]
        if where:
            pid, index = data.draw(st.sampled_from(where))
            entry = document["processes"][pid]["events"][index]
            if value is ABSENT:
                entry.pop(field, None)
            else:
                entry[field] = copy.deepcopy(value)
        text = json.dumps(document)
        for decode, source, hand_source in (
            (computation_from_dict, document, document),
            # JSON turns int keys into strings: hand-build what loads reads.
            (loads, text, json.loads(text)),
        ):
            expected = hand_built(hand_source)
            if isinstance(expected, Computation):
                assert fingerprint(decode(source)) == fingerprint(expected)
            else:
                error, message = expected
                with pytest.raises(error) as exc:
                    decode(source)
                assert type(exc.value) is error
                assert message in str(exc.value)

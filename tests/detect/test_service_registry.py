"""The predicate registry's sharing contract: one clause name per pid.

A shared candidate stream is exact only for clauses with the same
emission points, so every registered predicate naming a pid must bind
a same-named local predicate to it.  These tests pin the error texts
and the clause map the multiplexed service launches from.
"""

import re

import pytest

from repro.common.errors import ConfigurationError
from repro.detect import run_service
from repro.detect.service import PredicateRegistry
from repro.predicates import WeakConjunctivePredicate, flag_predicate
from repro.trace import random_computation

#: The text for the registry below: the first-registered owner of P1
#: ("q0") is named first, then the first later predicate that differs.
CLASH_P1 = (
    "predicates 'q0' and 'q2' bind different local predicates ('b' vs "
    "'c') to P1; a shared candidate stream requires one clause per "
    "process — run them in separate services"
)


def _registry(*entries):
    registry = PredicateRegistry()
    for pred_id, clauses in entries:
        registry.register(pred_id, WeakConjunctivePredicate(clauses))
    return registry


def _clash_at_p1():
    """Three predicates; the 1st and 3rd bind different clauses to P1."""
    return _registry(
        ("q0", {0: flag_predicate("a"), 1: flag_predicate("b")}),
        ("q1", {1: flag_predicate("b"), 2: flag_predicate("a")}),
        ("q2", {1: flag_predicate("c"), 2: flag_predicate("a")}),
    )


class TestSharingContract:
    def test_check_against_names_first_owner_first(self):
        with pytest.raises(ConfigurationError, match=re.escape(CLASH_P1)):
            _clash_at_p1().check_against(3)

    def test_predicate_map_names_first_owner_first(self):
        with pytest.raises(ConfigurationError, match=re.escape(CLASH_P1)):
            _clash_at_p1().predicate_map()

    def test_run_service_refuses_the_registry(self):
        comp = random_computation(3, 2, seed=0)
        with pytest.raises(ConfigurationError, match=re.escape(CLASH_P1)):
            run_service("token_vc", comp, _clash_at_p1())

    def test_lowest_clashing_pid_is_reported(self):
        """A clash at P2 registered before the clash at P1 still yields
        the P1 text."""
        registry = _registry(
            ("q0", {0: flag_predicate("a"), 1: flag_predicate("b"),
                    2: flag_predicate("a")}),
            ("q1", {2: flag_predicate("z")}),
            ("q2", {1: flag_predicate("c")}),
        )
        with pytest.raises(ConfigurationError, match=re.escape(CLASH_P1)):
            registry.predicate_map()

    def test_clause_for_unnamed_pid(self):
        registry = _registry(("q0", {0: flag_predicate(), 1: flag_predicate()}))
        with pytest.raises(
            ConfigurationError, match=r"^no registered predicate names P5$"
        ):
            registry.clause_for(5)


class TestPredicateMap:
    def test_keys_ascend_and_values_are_first_registered(self):
        a_first, a_later = flag_predicate("a"), flag_predicate("a")
        b, c = flag_predicate("b"), flag_predicate("c")
        registry = _registry(
            ("q0", {2: a_first, 0: b}),
            ("q1", {2: a_later, 1: c}),
        )
        clauses = registry.predicate_map()
        assert list(clauses) == [0, 1, 2]
        assert clauses[0] is b and clauses[1] is c
        assert clauses[2] is a_first
        assert registry.clause_for(2) is a_first

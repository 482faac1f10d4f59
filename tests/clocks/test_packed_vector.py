"""Clocks frozen from a working list: value parity with validated clocks.

The interval sweep (``IntervalAnalysis._build_vectors``) ticks and
merges one plain ``list`` per process in place and freezes each
interval's clock with ``VectorClock._trusted(tuple(buf))``, skipping the
constructor's validation.  That is only sound if a frozen clock is
indistinguishable from a validated one: the same components, the same
comparison verdicts, hashes and projections — and the in-place list
operations must agree with :meth:`VectorClock.tick` / :meth:`merged`.
"""

import random

import pytest

from repro.clocks import VectorClock
from repro.common import ClockError


def _random_components(rng, width):
    return [rng.randrange(0, 50) for _ in range(width)]


def _frozen(buf):
    """The sweep's freeze: adopt a tuple copy of the working list."""
    return VectorClock._trusted(tuple(buf))


def _tick_in_place(buf, owner):
    buf[owner] += 1


def _merge_in_place(buf, tag):
    """The sweep's receive merge: a compare loop over the tag."""
    for k, v in enumerate(tag):
        if v > buf[k]:
            buf[k] = v


class TestConstructionParity:
    def test_from_components(self):
        p = _frozen([1, 2, 3])
        assert p.components == (1, 2, 3)
        assert p.width == 3
        assert len(p) == 3
        assert list(p) == [1, 2, 3]
        assert p[1] == 2
        assert p == VectorClock([1, 2, 3])

    def test_initial_matches_list_backend(self):
        buf = [0] * 4
        buf[2] = 1
        assert _frozen(buf) == VectorClock.initial(owner=2, width=4)

    def test_zero_matches_list_backend(self):
        assert _frozen([0] * 5) == VectorClock.zero(5)

    def test_empty_rejected(self):
        with pytest.raises(ClockError):
            VectorClock([])

    def test_negative_component_rejected(self):
        with pytest.raises(ClockError):
            VectorClock([1, -1])

    def test_zero_width_rejected(self):
        with pytest.raises(ClockError):
            VectorClock.zero(0)

    def test_initial_owner_out_of_range(self):
        with pytest.raises(ClockError):
            VectorClock.initial(owner=4, width=4)


class TestOperationParity:
    """In-place list tick/merge track VectorClock's copying operations."""

    def test_tick_matches(self):
        rng = random.Random(7)
        comps = _random_components(rng, 6)
        for owner in range(6):
            assert _frozen(comps).tick(owner) == VectorClock(comps).tick(owner)

    def test_merged_matches(self):
        rng = random.Random(8)
        for _ in range(50):
            a = _random_components(rng, 5)
            b = _random_components(rng, 5)
            assert _frozen(a).merged(_frozen(b)) == VectorClock(a).merged(
                VectorClock(b)
            )

    def test_tick_in_place_agrees_with_tick(self):
        working = [3, 1, 4]
        expected = VectorClock(working).tick(1)
        _tick_in_place(working, 1)
        assert _frozen(working) == expected

    def test_merge_in_place_agrees_with_merged(self):
        rng = random.Random(9)
        for _ in range(50):
            a = _random_components(rng, 4)
            b = _random_components(rng, 4)
            expected = VectorClock(a).merged(VectorClock(b))
            _merge_in_place(a, _frozen(b).components)
            assert _frozen(a) == expected

    def test_snapshot_is_independent_of_working_copy(self):
        working = [1, 2, 3]
        frozen = _frozen(working)
        _tick_in_place(working, 0)
        _merge_in_place(working, (9, 9, 9))
        assert frozen.components == (1, 2, 3)

    def test_tick_does_not_mutate_receiver(self):
        p = _frozen([1, 1])
        p.tick(0)
        assert p.components == (1, 1)

    def test_random_op_sequences_stay_in_lockstep(self):
        """Replay one op stream both ways; states never drift."""
        rng = random.Random(10)
        width = 5
        working = [1, 0, 0, 0, 0]
        listed = VectorClock.initial(0, width)
        for _ in range(200):
            if rng.random() < 0.5:
                owner = rng.randrange(width)
                _tick_in_place(working, owner)
                listed = listed.tick(owner)
            else:
                other = _random_components(rng, width)
                _merge_in_place(working, other)
                listed = listed.merged(VectorClock(other))
            assert _frozen(working) == listed


class TestComparisonParity:
    def _pairs(self, count=200):
        rng = random.Random(11)
        for _ in range(count):
            a = _random_components(rng, 4)
            # Bias towards comparable pairs: sometimes derive b from a.
            if rng.random() < 0.5:
                b = [c + rng.randrange(0, 3) for c in a]
            else:
                b = _random_components(rng, 4)
            yield a, b

    def test_all_orderings_match(self):
        for a, b in self._pairs():
            pa, pb = _frozen(a), _frozen(b)
            va, vb = VectorClock(a), VectorClock(b)
            assert (pa < pb) == (va < vb)
            assert (pa <= pb) == (va <= vb)
            assert (pa > pb) == (va > vb)
            assert (pa >= pb) == (va >= vb)
            assert (pa == pb) == (va == vb)
            assert (pa <= vb) == (va <= vb)
            assert pa.concurrent_with(pb) == va.concurrent_with(vb)
            assert pa.happened_before(pb) == va.happened_before(vb)

    def test_hash_follows_components(self):
        assert hash(_frozen([1, 2])) == hash(VectorClock([1, 2]))

    def test_width_mismatch_rejected(self):
        with pytest.raises(ClockError):
            _frozen([1]) <= _frozen([1, 2])

    def test_cross_class_comparison_rejected(self):
        with pytest.raises(ClockError):
            _frozen([1, 2]) <= (1, 2)  # type: ignore[operator]


class TestProjectionParity:
    def test_identity_projection(self):
        comps = (4, 5, 6)
        frozen = VectorClock._trusted(comps)
        # The full-width projection hands back the stored tuple itself.
        assert frozen.project((0, 1, 2)) is comps
        assert frozen.project([0, 1, 2]) == VectorClock(comps).project((0, 1, 2))

    def test_subset_projection(self):
        comps = [4, 5, 6, 7]
        for pids in ((0,), (1, 3), (3, 0), (2, 2)):
            assert _frozen(comps).project(pids) == VectorClock(comps).project(pids)

    def test_projection_returns_plain_tuple(self):
        out = _frozen([1, 2, 3]).project((0, 1, 2))
        assert type(out) is tuple
        assert all(type(c) is int for c in out)

    def test_size_words_matches(self):
        comps = [1, 2, 3, 4]
        assert _frozen(comps).size_words() == VectorClock(comps).size_words() == 4

"""Detection under the paper's actual §2 channel model.

The library's default channel is FIFO everywhere, which is *stronger*
than the paper assumes: §2 only requires FIFO on the application ->
monitor snapshot channels.  :class:`NonFifoLatency` grants exactly
that — every other channel reorders freely — so these properties catch
any protocol that silently leans on ordering the model does not
guarantee, including the hardened (ack/retransmit) variants whose
acks and retries may overtake each other.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.detect import centralized, run_detector
from repro.detect.gcp import GeneralizedConjunctivePredicate, detect_gcp
from repro.detect.gcp_online import detect_gcp_online
from repro.predicates import WeakConjunctivePredicate
from repro.predicates.channel import linear_empty_channel
from repro.simulation.network import NonFifoLatency
from repro.trace import random_computation


@st.composite
def nonfifo_cases(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    comp = random_computation(
        num_processes=n,
        sends_per_process=draw(st.integers(min_value=1, max_value=4)),
        seed=draw(st.integers(min_value=0, max_value=100_000)),
        predicate_density=draw(st.sampled_from([0.2, 0.5, 0.9])),
        plant_final_cut=draw(st.booleans()),
    )
    wcp = WeakConjunctivePredicate.of_flags(tuple(range(n)))
    return comp, wcp


@settings(max_examples=20, deadline=None)
@given(
    nonfifo_cases(),
    st.sampled_from(["token_vc", "token_vc_multi", "direct_dep",
                     "centralized"]),
    st.integers(min_value=0, max_value=3),
)
def test_detectors_tolerate_reordering(case, detector, seed):
    comp, wcp = case
    ref = run_detector("reference", comp, wcp)
    rep = run_detector(
        detector, comp, wcp, seed=seed, channel_model=NonFifoLatency()
    )
    assert (rep.detected, rep.cut) == (ref.detected, ref.cut)


@settings(max_examples=15, deadline=None)
@given(
    nonfifo_cases(),
    st.sampled_from(["token_vc", "token_vc_multi", "direct_dep"]),
    st.integers(min_value=0, max_value=3),
)
def test_hardened_detectors_tolerate_reordering(case, detector, seed):
    """The reliability layer must not assume its acks arrive in order."""
    comp, wcp = case
    ref = run_detector("reference", comp, wcp)
    rep = run_detector(
        detector, comp, wcp, seed=seed, hardened=True,
        channel_model=NonFifoLatency(),
    )
    assert not rep.extras.get("gave_up")
    assert (rep.detected, rep.cut) == (ref.detected, ref.cut)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_centralized_checker_snapshots_stay_fifo(seed):
    """The checker actor is not named like a monitor, yet its snapshot
    channels are FIFO all the same: with them reordering, the checker
    reported no cut at kernel seeds 0 and 1 where the reference's is
    P0:10, P1:12, P2:19, P3:7."""
    comp = random_computation(
        4, 6, seed=0, predicate_density=0.3, plant_final_cut=True
    )
    wcp = WeakConjunctivePredicate.of_flags(range(4))
    ref = run_detector("reference", comp, wcp)
    rep = centralized.detect(
        comp, wcp, seed=seed, channel_model=NonFifoLatency()
    )
    assert tuple(ref.cut.intervals) == (10, 12, 19, 7)
    assert (rep.detected, rep.cut) == (ref.detected, ref.cut)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gcp_online_checker_snapshots_stay_fifo(seed):
    """[6]'s checker shares the centralized checker's channels."""
    comp = random_computation(
        3, 4, seed=0, predicate_density=0.4, plant_final_cut=True
    )
    wcp = WeakConjunctivePredicate.of_flags([0, 1, 2])
    clauses = [linear_empty_channel(0, 1)]
    offline = detect_gcp(comp, GeneralizedConjunctivePredicate(wcp, clauses))
    online = detect_gcp_online(
        comp, wcp, clauses, seed=seed, channel_model=NonFifoLatency()
    )
    assert (online.detected, online.cut) == (offline.detected, offline.cut)

"""Werner fidelity model: fixed points, dominance, symmetry, decay laws."""

import math
import random

import pytest
from hypothesis import example, given, strategies as st

from pqnetsim import FIDELITY_FLOOR, ParameterError, chain_fidelity, decay, fidelity, swap

fidelities = st.floats(min_value=0.25, max_value=1.0, allow_nan=False)
waits = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
coherences = st.floats(min_value=1e-3, max_value=100.0, allow_nan=False)


def werner_swap_reference(f1: float, f2: float) -> float:
    """Independent restatement of the swap law used as a test oracle."""
    return f1 * f2 + (1 - f1) * (1 - f2) / 3


class TestDecay:
    def test_identity_at_zero_wait(self):
        assert decay(1.0, 0.0, 1.0) == 1.0
        assert decay(0.8321, 0.0, 0.5) == 0.8321

    def test_maximally_mixed_fixed_point(self):
        for wait in (0.0, 0.1, 3.0, 1e6):
            assert decay(0.25, wait, 1.0) == 0.25

    def test_one_coherence_time_closed_form(self):
        expected = 0.25 + 0.75 * math.exp(-1.0)
        got = decay(1.0, 2.5, 2.5)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.52591, abs=1e-5)

    @given(f0=fidelities, wait=waits, t_coh=coherences)
    def test_result_stays_between_floor_and_start(self, f0, wait, t_coh):
        result = decay(f0, wait, t_coh)
        assert FIDELITY_FLOOR <= result <= f0

    @given(f0=st.floats(min_value=0.3, max_value=1.0, allow_nan=False), t_coh=coherences)
    def test_strictly_decreasing_in_wait_above_floor(self, f0, t_coh):
        shorter = decay(f0, 0.5 * t_coh, t_coh)
        longer = decay(f0, 1.5 * t_coh, t_coh)
        assert longer < shorter

    @given(f0=fidelities, a=waits, b=waits, t_coh=coherences)
    def test_semigroup_law(self, f0, a, b, t_coh):
        two_step = decay(decay(f0, a, t_coh), b, t_coh)
        one_step = decay(f0, a + b, t_coh)
        assert two_step == pytest.approx(one_step, rel=1e-12, abs=1e-15)


class TestSwap:
    def test_perfect_pairs_swap_perfectly(self):
        assert swap(1.0, 1.0) == 1.0

    @given(f=fidelities)
    def test_perfect_pair_is_identity(self, f):
        assert swap(1.0, f) == f
        assert swap(f, 1.0) == f

    def test_mixed_state_fixed_point(self):
        assert swap(0.25, 0.25) == 0.25

    def test_matches_reference_formula(self):
        rng = random.Random(5)
        for _ in range(2000):
            f1 = rng.uniform(0.25, 1.0)
            f2 = rng.uniform(0.25, 1.0)
            assert swap(f1, f2) == pytest.approx(werner_swap_reference(f1, f2), rel=1e-14)

    @given(f1=fidelities, f2=fidelities)
    def test_symmetry_is_exact(self, f1, f2):
        assert swap(f1, f2) == swap(f2, f1)

    @given(f1=fidelities, f2=fidelities, f3=fidelities)
    def test_monotone_in_each_argument(self, f1, f2, f3):
        lo, hi = min(f2, f3), max(f2, f3)
        assert swap(f1, lo) <= swap(f1, hi)


class TestChainFidelity:
    def test_singleton_is_unchanged(self):
        assert chain_fidelity([0.77]) == 0.77

    def test_perfect_chain(self):
        assert chain_fidelity([1.0, 1.0, 1.0, 1.0]) == 1.0

    def test_three_link_fold_matches_bruteforce(self):
        links = [0.95, 0.95, 0.95]
        expected = werner_swap_reference(werner_swap_reference(0.95, 0.95), 0.95)
        assert chain_fidelity(links) == pytest.approx(expected, rel=1e-14)

    def test_empty_chain_rejected(self):
        with pytest.raises(ParameterError):
            chain_fidelity([])

    def test_weakest_link_dominance_randomized(self):
        rng = random.Random(99)
        for _ in range(5000):
            links = [rng.uniform(0.25, 1.0) for _ in range(rng.randint(1, 8))]
            assert chain_fidelity(links) <= min(links)

    def test_reversal_invariance_randomized(self):
        rng = random.Random(123)
        for _ in range(2000):
            links = [rng.uniform(0.25, 1.0) for _ in range(rng.randint(2, 8))]
            forward = chain_fidelity(links)
            backward = chain_fidelity(list(reversed(links)))
            assert forward == pytest.approx(backward, rel=1e-12)

    @given(st.lists(fidelities, min_size=1, max_size=8))
    def test_result_stays_in_range(self, links):
        result = chain_fidelity(links)
        assert FIDELITY_FLOOR <= result <= 1.0


def clamped_swap_by_calls(f1, f2):
    """The swap kernel as first written, clamping through min() and max() calls."""
    return max(FIDELITY_FLOOR, min(1.0, f1 * f2 + (1.0 - f1) * (1.0 - f2) / 3.0))


def clamped_decay_by_calls(f0, wait, t_coh):
    """The decay kernel as first written, clamping through a min() call."""
    if wait == 0.0:
        return float(f0)
    return min(float(f0), FIDELITY_FLOOR + (f0 - FIDELITY_FLOOR) * math.exp(-wait / t_coh))


# The kernels' domain, with its exact ends and the int 1 a scenario file may hold.
kernel_fidelities = st.one_of(st.sampled_from([0.25, 1.0, 1]), fidelities)
kernel_waits = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2e-308, 1e300, 1.7e308]),
    st.floats(min_value=0.0, max_value=1.7e308, allow_nan=False),
)
kernel_coherences = st.floats(min_value=5e-324, max_value=1.7e308, allow_nan=False)


class TestKernelsClampByComparison:
    """The unchecked kernels give the same bits as the min()/max() clamps they replaced."""

    @given(f1=kernel_fidelities, f2=kernel_fidelities)
    @example(f1=0.25, f2=0.25)  # exactly the floor
    def test_swap_matches_call_clamps(self, f1, f2):
        assert fidelity._swap(f1, f2).hex() == clamped_swap_by_calls(f1, f2).hex()

    @given(f1=st.floats(), f2=st.floats())
    @example(f1=math.nan, f2=0.5)  # both clamps give 1.0
    def test_swap_matches_call_clamps_for_every_float(self, f1, f2):
        # A NaN or infinite operand leaves the domain, but the clamp still picks what min()/max() pick.
        assert fidelity._swap(f1, f2).hex() == clamped_swap_by_calls(f1, f2).hex()

    @given(f0=kernel_fidelities, wait=kernel_waits, t_coh=kernel_coherences)
    def test_decay_matches_call_clamp(self, f0, wait, t_coh):
        assert fidelity._decay(f0, wait, t_coh).hex() == clamped_decay_by_calls(f0, wait, t_coh).hex()

    def test_decay_of_an_int_fidelity_is_a_float(self):
        result = fidelity._decay(1, 1e-300, 1.0)
        assert type(result) is float and result == 1.0

"""Adversary model: attack bound, fidelity impact, QBER mapping, detection."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from pqnetsim import (
    AdversaryConfig,
    AttackOutcome,
    ParameterError,
    attack_outcome,
    decay,
    detect,
    intercepted_fidelity,
    qber_of,
)

durations = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)
adversary_coherences = st.floats(min_value=1e-6, max_value=1e3, allow_nan=False)
# Any finite sample, with the subnormals and the edges of the float range drawn often.
finite_samples = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [5e-324, -5e-324, 1.7e308, -1.7e308])


def adv(t_eve: float, t_pqc: float, t_coh_eve: float) -> AdversaryConfig:
    return AdversaryConfig(t_eve=t_eve, t_pqc=t_pqc, t_coh_eve=t_coh_eve, intercept_link="a,b")


class TestAttackOutcome:
    def test_zero_delay_succeeds(self):
        assert attack_outcome(adv(0.0, 0.0, 0.5)) is AttackOutcome.UNDETECTABLE_SUCCESS

    def test_boundary_decoheres(self):
        assert attack_outcome(adv(1.0, 1.0, 2.0)) is AttackOutcome.DECOHERES

    def test_plain_arithmetic_cases(self):
        assert attack_outcome(adv(3.0, 4.0, 10.0)) is AttackOutcome.UNDETECTABLE_SUCCESS
        assert attack_outcome(adv(6.0, 5.0, 10.0)) is AttackOutcome.DECOHERES

    def test_exhaustive_grid_matches_predicate(self):
        values = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 7.5]
        positive = [v for v in values if v > 0]
        for t_eve in values:
            for t_pqc in values:
                for t_coh_eve in positive:
                    got = attack_outcome(adv(t_eve, t_pqc, t_coh_eve))
                    expected = (
                        AttackOutcome.UNDETECTABLE_SUCCESS
                        if t_eve + t_pqc < t_coh_eve
                        else AttackOutcome.DECOHERES
                    )
                    assert got is expected

    @given(t_eve=durations, t_pqc=durations, t_coh=adversary_coherences, extra=durations)
    def test_monotonicity(self, t_eve, t_pqc, t_coh, extra):
        base = attack_outcome(adv(t_eve, t_pqc, t_coh))
        slower = attack_outcome(adv(t_eve + extra, t_pqc, t_coh))
        if base is AttackOutcome.DECOHERES:
            assert slower is AttackOutcome.DECOHERES
        patient = attack_outcome(adv(t_eve, t_pqc, t_coh + extra))
        if base is AttackOutcome.UNDETECTABLE_SUCCESS:
            assert patient is AttackOutcome.UNDETECTABLE_SUCCESS


class TestInterceptedFidelity:
    def test_zero_delay_is_identity(self):
        assert intercepted_fidelity(0.93, adv(0.0, 0.0, 1.0)) == 0.93

    def test_mixed_fixed_point(self):
        assert intercepted_fidelity(0.25, adv(2.0, 3.0, 1.0)) == 0.25

    def test_full_coherence_window(self):
        expected = 0.25 + 0.75 * math.exp(-1.0)
        assert intercepted_fidelity(1.0, adv(0.25, 0.75, 1.0)) == pytest.approx(expected, rel=1e-12)

    def test_matches_memory_decay(self):
        config = adv(0.4, 0.35, 2.0)
        assert intercepted_fidelity(0.9, config) == decay(0.9, 0.75, 2.0)

    @given(
        f=st.floats(min_value=0.25, max_value=1.0, allow_nan=False),
        t_eve=durations,
        t_pqc=durations,
        t_coh=adversary_coherences,
    )
    def test_interception_never_reduces_qber(self, f, t_eve, t_pqc, t_coh):
        config = adv(t_eve, t_pqc, t_coh)
        assert qber_of(intercepted_fidelity(f, config)) >= qber_of(f)


def test_delays_that_overflow_in_sum_are_refused():
    # Each part is in range; their sum is not, which once read as a decohered attack.
    for call in (attack_outcome, lambda a: intercepted_fidelity(0.9, a)):
        with pytest.raises(ParameterError, match=r"^adversary t_eve \+ t_pqc must be finite, got inf$"):
            call(adv(1e308, 1e308, 1.0))


class TestQber:
    def test_perfect_state_has_no_errors(self):
        assert qber_of(1.0) == 0.0

    def test_maximally_mixed_is_coin_flip(self):
        assert qber_of(0.25) == 0.5

    def test_intermediate_value(self):
        assert qber_of(0.85) == pytest.approx(2 * (1 - 0.85) / 3, rel=1e-15)
        assert qber_of(0.85) == pytest.approx(0.1, abs=1e-12)

    def test_strictly_decreasing_and_onto(self):
        grid = [0.25 + i * 0.75 / 200 for i in range(201)]
        values = [qber_of(f) for f in grid]
        assert values[0] == 0.5 and values[-1] == 0.0
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 0.5 for v in values)


class TestDetect:
    def test_identical_samples_not_flagged(self):
        samples = [0.02, 0.03, 0.025, 0.021, 0.034]
        report = detect(samples, list(samples), threshold_sigma=3.0)
        assert report.z_score == 0.0
        assert not report.flagged

    def test_degenerate_zero_variance_baseline(self):
        report = detect([0.0, 0.0, 0.0], [0.2, 0.2], threshold_sigma=3.0)
        assert report.flagged and report.z_score == math.inf
        calm = detect([0.1, 0.1, 0.1], [0.1, 0.05], threshold_sigma=3.0)
        assert not calm.flagged and calm.z_score == 0.0

    def test_flag_follows_threshold_invariant(self):
        rng = random.Random(17)
        for _ in range(300):
            baseline = [rng.uniform(0.0, 0.2) for _ in range(20)]
            observed = [rng.uniform(0.0, 0.3) for _ in range(20)]
            threshold = rng.uniform(0.5, 5.0)
            report = detect(baseline, observed, threshold)
            assert report.flagged == (report.z_score > threshold)

    def test_z_exactly_at_threshold_is_not_flagged(self):
        # Baseline mean 1, sample std sqrt(2), standard error 1; the shift of 3 gives z = 3.0 exactly.
        report = detect([0.0, 2.0], [4.0, 4.0], 3.0)
        assert report.z_score == 3.0
        assert not report.flagged

    def test_obvious_shift_is_flagged(self):
        rng = random.Random(4)
        baseline = [0.05 + rng.gauss(0, 0.005) for _ in range(200)]
        observed = [0.20 + rng.gauss(0, 0.005) for _ in range(200)]
        assert detect(baseline, observed, 3.0).flagged

    def test_short_samples_rejected(self):
        with pytest.raises(ParameterError):
            detect([0.1], [0.1, 0.2], 3.0)
        with pytest.raises(ParameterError):
            detect([0.1, 0.2], [0.1], 3.0)

    def test_means_whose_sum_overflows_are_the_summarys_means(self):
        # fsum([1e308, 1e308]) overflows; the mean is scaled, as the run summary's is, and is finite.
        report = detect([1e308, 1e308], [1e308, 1e308], 3.0)
        assert (report.baseline_mean_qber, report.observed_mean_qber, report.z_score) == (1e308, 1e308, 0.0)
        report = detect([0.0, 0.0], [1e308, 1e308], 3.0)
        assert (report.observed_mean_qber, report.z_score, report.flagged) == (1e308, math.inf, True)
        report = detect([-1.7e308, -1.7e308], [1.7e308, 1.7e308], 3.0)
        assert (report.baseline_mean_qber, report.observed_mean_qber, report.z_score) == (-1.7e308, 1.7e308, math.inf)

    def test_a_baseline_spread_past_the_float_range_is_a_parameter_error(self):
        with pytest.raises(ParameterError) as refused:
            detect([1.7e308, -1.7e308], [0.0, 0.0], 3.0)
        assert str(refused.value) == "baseline_samples overflow a float in their standard deviation"
        assert detect([0.0, 0.0], [1.7e308, -1.7e308], 3.0).z_score == 0.0  # the observed spread is not used

    def test_a_standard_error_that_underflows_to_zero_is_degenerate(self):
        # stdev([0.0, 5e-324]) is 5e-324, and 5e-324 / sqrt(100) rounds to 0.
        report = detect([0.0, 5e-324], [1.0] * 100, 3.0)
        assert (report.z_score, report.flagged) == (math.inf, True)
        assert detect([0.0, 5e-324], [0.0] * 100, 3.0).z_score == 0.0

    @given(
        st.lists(finite_samples, min_size=2, max_size=8),
        st.lists(finite_samples, min_size=2, max_size=8),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_finite_samples_give_a_report_or_a_parameter_error(self, baseline, observed, threshold):
        try:
            report = detect(baseline, observed, threshold)
        except ParameterError:
            return
        assert report.flagged == (report.z_score > threshold)

    def test_null_false_positive_rate_is_small(self):
        # Two independent draws from the same distribution should rarely flag.
        rng = random.Random(20240229)
        flags = 0
        repetitions = 200
        for _ in range(repetitions):
            baseline = [rng.gauss(0.1, 0.01) for _ in range(400)]
            observed = [rng.gauss(0.1, 0.01) for _ in range(100)]
            if detect(baseline, observed, 3.0).flagged:
                flags += 1
        assert flags / repetitions <= 0.03

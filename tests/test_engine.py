"""Monte Carlo engine: deterministic traces, statistical oracles, determinism."""

import dataclasses
import hashlib
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pqnetsim import (
    AdversaryConfig,
    FailureReason,
    ParameterError,
    Protocol,
    ScenarioValidationError,
    TrialOutcome,
    chain_fidelity,
    check_scenario,
    decay,
    engine,
    load_scenario,
    model,
    run_monte_carlo,
    run_trial,
    run_trials,
    set_config_value,
    summarize,
    sweep,
    timing,
    trial_seed_for,
)
from pqnetsim.engine import derive_stream_seed

from oracles import (
    exact_coincidence_success,
    exact_window_success,
    random_deterministic_scenario,
    reference_execute,
    reference_parallel_chain,
    three_sigma,
)
from scenario_builders import chain_scenario, two_party_scenario


# ---------------------------------------------------------------------------
# Deterministic traces
# ---------------------------------------------------------------------------

class TestDeterministicTraces:
    def test_ideal_single_link_completes_in_one_slot(self):
        config = two_party_scenario(p_success=1.0, t_coh_end=1.0, slot_duration=0.001, base_fidelity=0.97)
        outcome = run_trial(config, trial_seed_for(config.seed, 0))
        assert outcome.success
        assert outcome.slots_used == 1
        assert outcome.f_end == 0.97
        assert outcome.t_dist == 0.001

    def test_one_repeater_chain_late_message_matches_static_check(self):
        config = chain_scenario([(0.001, 0.002)], dec_end=0.001, t_coh_end=0.003)
        outcome = run_trial(config, trial_seed_for(config.seed, 0))
        assert not outcome.success
        assert outcome.failure_reason is FailureReason.MESSAGE_LATE
        assert not check_scenario(config).feasible

    def test_one_repeater_chain_success_hand_traced(self):
        config = chain_scenario([(0.001, 0.002)], dec_end=0.001, t_coh_end=0.01)
        outcome = run_trial(config, trial_seed_for(config.seed, 0))
        assert outcome.success
        assert outcome.slots_used == 1
        # generation happens in slot one, then one message of 4 ms
        assert outcome.t_dist == 0.001 + ((0.001 + 0.002) + 0.001)
        assert check_scenario(config).feasible

    def test_sequential_rounds_accumulate(self):
        config = two_party_scenario(
            protocol=Protocol.SEQUENTIAL_ROUNDS,
            enc=0.001,
            comm=0.001,
            dec=0.001,
            rounds_l=3,
            t_coh_end=0.0095,
        )
        outcome = run_trial(config, trial_seed_for(config.seed, 0))
        assert outcome.success  # 9 ms of rounds inside a 9.5 ms window
        tight = two_party_scenario(
            protocol=Protocol.SEQUENTIAL_ROUNDS,
            enc=0.001,
            comm=0.001,
            dec=0.001,
            rounds_l=4,
            t_coh_end=0.0095,
        )
        outcome = run_trial(tight, trial_seed_for(tight.seed, 0))
        assert not outcome.success and outcome.failure_reason is FailureReason.MESSAGE_LATE

    def test_memory_expired_after_partial_swap(self):
        # r1 swaps immediately; r2's left-hand qubit then outlives its memory
        # because the right-hand link essentially never generates.
        config = chain_scenario(
            [(0.0, 0.0), (0.0, 0.0)],
            p_success=[1.0, 1.0, 1e-12],
            t_coh_repeater=[10.0, 0.0025],
            t_coh_end=10.0,
        )
        outcome = run_trial(config, trial_seed_for(1, 0))
        assert not outcome.success
        assert outcome.failure_reason is FailureReason.MEMORY_EXPIRED
        assert outcome.slots_used == 4  # ages 1, 2 survive; age 3 >= 2.5 slots
        assert outcome.t_dist is None

    def test_horizon_exceeded(self):
        config = two_party_scenario(p_success=1e-12)
        outcome = run_trial(config, trial_seed_for(3, 0), max_slots=50)
        assert not outcome.success
        assert outcome.failure_reason is FailureReason.HORIZON_EXCEEDED
        assert outcome.slots_used == 50
        assert outcome.t_dist is None and outcome.f_end is None


class TestAnalyzerAgreement:
    def test_deterministic_scenarios_agree_with_static_checks(self):
        rng = random.Random(20240305)
        agreements = 0
        for i in range(200):
            config = random_deterministic_scenario(rng)
            verdict = check_scenario(config).feasible
            outcome = run_trial(config, trial_seed_for(config.seed, i))
            assert outcome.success == verdict
            if not outcome.success:
                assert outcome.failure_reason is FailureReason.MESSAGE_LATE
            agreements += 1
        assert agreements == 200


# ---------------------------------------------------------------------------
# Statistical oracles
# ---------------------------------------------------------------------------

class TestStatisticalOracles:
    def test_generation_attempts_are_geometric(self):
        p = 0.5
        n = 20_000
        config = two_party_scenario(p_success=p, t_coh_end=1.0, n_trials=n, seed=8842)
        outcomes = run_trials(config)
        mean_slots = sum(o.slots_used for o in outcomes) / n
        se = math.sqrt((1 - p) / p**2 / n)
        assert abs(mean_slots - 1 / p) <= 3 * se

    @pytest.mark.parametrize("window", [1, 3])
    def test_success_within_slot_budget_matches_enumeration(self, window):
        p = 0.4
        n = 10_000
        config = two_party_scenario(p_success=p, t_coh_end=1.0, n_trials=n, seed=9911)
        outcomes = run_trials(config, max_slots=window)
        rate = sum(o.success for o in outcomes) / n
        exact = exact_window_success(p, window)
        assert abs(rate - exact) <= three_sigma(exact, n)
        for o in outcomes:
            if not o.success:
                assert o.failure_reason is FailureReason.HORIZON_EXCEEDED

    def test_two_link_coincidence_matches_enumeration(self):
        p = 0.5
        cutoff = 2
        horizon = 6
        tau = 0.001
        n = 20_000
        config = chain_scenario(
            [(0.0, 0.0)],
            p_success=p,
            t_coh_repeater=(cutoff - 0.5) * tau,
            t_coh_end=10.0,
            t_coh_far=10.0,
            slot_duration=tau,
            n_trials=n,
            seed=777,
        )
        outcomes = run_trials(config, max_slots=horizon)
        rate = sum(o.success for o in outcomes) / n
        exact = exact_coincidence_success(p, cutoff, horizon)
        assert 0.0 < exact < 1.0
        assert abs(rate - exact) <= three_sigma(exact, n)


# ---------------------------------------------------------------------------
# Invariants over stochastic runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mixed_outcomes():
    config = chain_scenario(
        [(0.0005, 0.001)],
        dec_end=0.0005,
        t_coh_end=0.004,
        t_coh_repeater=0.0045,
        t_coh_far=5.0,
        p_success=0.5,
        base_fidelity=[0.97, 0.95],
        n_trials=4_000,
        seed=13542,
    )
    return config, run_trials(config)


class TestRunInvariants:
    def test_every_trial_has_exactly_one_outcome_kind(self, mixed_outcomes):
        _config, outcomes = mixed_outcomes
        for o in outcomes:
            assert o.success == (o.failure_reason is None)
            if o.success:
                assert o.t_dist is not None and o.f_end is not None
            if o.failure_reason in (FailureReason.MEMORY_EXPIRED, FailureReason.HORIZON_EXCEEDED):
                assert o.t_dist is None
            if o.failure_reason is FailureReason.MESSAGE_LATE:
                assert o.t_dist is not None

    def test_outcome_mix_is_nontrivial(self, mixed_outcomes):
        _config, outcomes = mixed_outcomes
        rate = sum(o.success for o in outcomes) / len(outcomes)
        assert 0.05 < rate < 0.95

    def test_fidelity_never_exceeds_weakest_base(self, mixed_outcomes):
        config, outcomes = mixed_outcomes
        weakest = min(link.base_fidelity for link in config.quantum_links)
        for o in outcomes:
            if o.success:
                assert o.f_end <= weakest + 1e-12

    def test_success_rate_times_trials_is_integral(self, mixed_outcomes):
        config, outcomes = mixed_outcomes
        summary = summarize(config, outcomes)
        product = summary.success_rate * summary.n_trials
        assert product == round(product)

    def test_summary_statistics_cover_successes_only(self, mixed_outcomes):
        config, outcomes = mixed_outcomes
        summary = summarize(config, outcomes)
        succ = [o for o in outcomes if o.success]
        assert summary.f_end_min == min(o.f_end for o in succ)
        assert summary.mean_t_dist == pytest.approx(sum(o.t_dist for o in succ) / len(succ))

    def test_f_end_min_counts_the_first_success(self):
        failure = TrialOutcome(False, 3, failure_reason=FailureReason.MEMORY_EXPIRED)
        successes = [TrialOutcome(True, 1, t_dist=0.01, f_end=f) for f in (0.6, 0.7, 0.9)]
        summary = summarize(chain_scenario([(0.001, 0.001)]), [failure, *successes])
        assert summary.f_end_min == 0.6
        assert summary.success_rate == 0.75

    def test_mean_t_dist_of_finite_times_is_finite_where_their_sum_overflows(self):
        config = chain_scenario([(0.001, 0.001)])
        same = [TrialOutcome(True, 1, t_dist=1.5e308, f_end=0.9)] * 5
        assert summarize(config, same).mean_t_dist == 1.5e308
        mixed = [TrialOutcome(True, 1, t_dist=t, f_end=0.9) for t in (1e308, 1.7e308)]
        assert summarize(config, mixed).mean_t_dist == pytest.approx(1.35e308, rel=1e-15)

    @pytest.mark.parametrize(
        "config, link",
        [
            pytest.param(two_party_scenario(slot_duration=1e-310), "alice,bob", id="rate"),
            pytest.param(two_party_scenario(slot_duration=1e-300, t_coh_end=1e300, t_coh_far=1e300), "alice,bob",
                         id="product"),
            # Only the first link overflows; bob's short memory keeps the second finite.
            pytest.param(chain_scenario([(0.001, 0.001)], slot_duration=1e-300, t_coh_far=1e300,
                                        t_coh_repeater=1e300, t_coh_end=1e-10), "alice,r1", id="chain"),
        ],
    )
    def test_re_tcoh_product_past_the_float_range_is_refused(self, monkeypatch, config, link):
        """The rate itself, or only its product with the coherence time, may overflow; a run is refused
        before its first trial, and ``summarize`` refuses too."""
        seeds = []
        monkeypatch.setattr(engine, "trial_seed_for", lambda *args: seeds.append(args))
        message = rf"^re_tcoh_product of link {link} must be finite, got inf$"
        with pytest.raises(ParameterError, match=message):
            summarize(config, [TrialOutcome(True, 1, t_dist=0.01, f_end=0.9)])
        with pytest.raises(ParameterError, match=message):
            run_trials(config, 3)
        with pytest.raises(ParameterError, match=message):
            run_trial(config, 5)
        assert seeds == []

    def test_re_tcoh_diagnostic_uses_weakest_memory(self, mixed_outcomes):
        config, outcomes = mixed_outcomes
        summary = summarize(config, outcomes)
        # r1 memory (0.0045 s) is the binding one on both links at p=0.5/ms
        assert summary.re_tcoh_product["alice,r1"] == pytest.approx(0.5 / 0.001 * 0.0045)
        assert summary.re_tcoh_product["bob,r1"] == pytest.approx(0.5 / 0.001 * 0.0040)


def fmean_reference(values: list[float]) -> float:
    """The mean as ``statistics.fmean`` gives it, scaled by ``2**-k`` where the sum of finite values overflows."""
    try:
        return statistics.fmean(values)
    except OverflowError:
        k = len(values).bit_length()
        return math.ldexp(statistics.fmean([math.ldexp(v, -k) for v in values]), k)


# Subnormal, ordinary and huge magnitudes, of either sign.
MEAN_INPUTS = st.one_of(
    st.floats(min_value=-2.0**-1022, max_value=2.0**-1022),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=2.0**1000, max_value=1.7976931348623157e308),
)


class TestMeans:
    """The summary's means are ``math.fsum(values) / len(values)``, the body of ``statistics.fmean``: the same bits."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(MEAN_INPUTS, min_size=1, max_size=40))
    def test_mean_is_statistics_fmean_to_the_bit(self, values):
        assert engine._fmean(values).hex() == fmean_reference(values).hex()

    @pytest.mark.parametrize(
        "values",
        [
            [1.5e308] * 5,
            [1e308, 1.7e308],
            [1.7976931348623157e308] * 3 + [5e-324],
            [5e-324, 1e-310, 2.2250738585072014e-308],
            [1e308, 1e308, -1e308],
        ],
    )
    def test_overflow_fallback_is_the_scaled_fmean(self, values):
        assert engine._fmean(values).hex() == fmean_reference(values).hex()

    @pytest.mark.parametrize("path", sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json")),
                             ids=lambda path: path.stem)
    def test_golden_scenario_means_are_statistics_fmean(self, path):
        config = load_scenario(path)
        outcomes = run_trials(config)
        successes = [o for o in outcomes if o.success]
        summary = summarize(config, outcomes)
        assert summary.mean_t_dist.hex() == statistics.fmean(o.t_dist for o in successes).hex()
        assert summary.f_end_mean.hex() == statistics.fmean(o.f_end for o in successes).hex()


REPEATER_CHAIN = Path(__file__).resolve().parent.parent / "scenarios" / "repeater_chain.json"


def counting_validations(monkeypatch) -> list:
    """The scenarios ``model.validate_scenario`` is called on from now on."""
    seen = []
    validate = model.validate_scenario
    monkeypatch.setattr(model, "validate_scenario", lambda c: seen.append(c) or validate(c))
    return seen


class TestSummarizeValidates:
    """``summarize`` is a public entry point: an invalid scenario raises what ``run_trials`` raises."""

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(
                lambda c: {"quantum_links": (dataclasses.replace(c.quantum_links[0], endpoints=("alice", "ghost")),)},
                id="unknown-endpoint",
            ),
            pytest.param(lambda c: {"nodes": (None, c.nodes[1])}, id="none-node"),
            pytest.param(lambda c: {"slot_duration": "0.001"}, id="string-slot"),
            pytest.param(lambda c: {"slot_duration": 0.0}, id="zero-slot"),
        ],
    )
    def test_invalid_scenario_is_refused_as_by_run_trials(self, edit):
        config = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "teleport_single_hop.json")
        outcomes = run_trials(config, 3)
        bad = dataclasses.replace(config, **edit(config))
        with pytest.raises(ScenarioValidationError) as refused:
            summarize(bad, outcomes)
        with pytest.raises(ScenarioValidationError) as expected:
            run_trials(bad, 3)
        assert refused.value.violations == expected.value.violations

    def test_runs_that_validated_summarize_without_validating_again(self, monkeypatch):
        config = chain_scenario([(0.001, 0.001)] * 2)
        seen = counting_validations(monkeypatch)
        run_monte_carlo(config, 3)
        assert len(seen) == 1
        sweep(config, "slot_duration", [0.001, 0.002], 3)
        assert len(seen) == 1 + 2  # the base passed in run_monte_carlo; each row is a new object


class TestValidatedOnce:
    """A scenario object is validated once, and again whenever its ``classical_channels`` dict has changed."""

    EDITS = {
        "negative-delay": (
            lambda channels: channels.__setitem__("bob,r1", model.ClassicalChannelSpec(-1.0, 0.0)),
            ("$.classical_channels['bob,r1'].propagation_delay", "must be finite and >= 0"),
        ),
        "missing-channel": (
            lambda channels: channels.pop("bob,r2"),
            ("$.classical_channels", "missing classical channel for message pair 'bob,r2'"),
        ),
    }
    ENTRIES = {
        "run_trials": lambda config: run_trials(config, 3),
        "summarize": lambda config: summarize(config, [TrialOutcome(False, 1, failure_reason=FailureReason.MESSAGE_LATE)]),
        "check_scenario": check_scenario,
        "run_trial": lambda config: run_trial(config, 5),
    }

    @pytest.mark.parametrize("edit", EDITS)
    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("passed", ENTRIES)
    def test_a_scenario_changed_in_place_is_refused_as_a_fresh_copy_so_changed(self, passed, entry, edit):
        change, violation = self.EDITS[edit]
        config = load_scenario(REPEATER_CHAIN)
        self.ENTRIES[passed](config)
        change(config.classical_channels)
        fresh = load_scenario(REPEATER_CHAIN)
        change(fresh.classical_channels)
        expected = model.validate_scenario(fresh)
        assert [(v.path, v.message) for v in expected] == [violation]
        with pytest.raises(ScenarioValidationError) as refused:
            self.ENTRIES[entry](config)
        assert refused.value.violations == expected

    def test_an_invalid_scenario_is_refused_on_every_call(self, monkeypatch):
        config = dataclasses.replace(load_scenario(REPEATER_CHAIN), slot_duration=0.0)
        seen = counting_validations(monkeypatch)
        for _ in range(3):
            with pytest.raises(ScenarioValidationError):
                run_trial(config, 5)
        assert len(seen) == 3

    def test_trials_on_one_scenario_validate_it_once(self, monkeypatch):
        config = load_scenario(REPEATER_CHAIN)
        seen = counting_validations(monkeypatch)
        for i in range(10):
            run_trial(config, i)
        assert seen == [config]


class TestDeterminism:
    def test_identical_inputs_reproduce_identical_streams(self):
        config = chain_scenario(
            [(0.0005, 0.001)],
            p_success=0.5,
            t_coh_repeater=0.003,
            t_coh_end=0.004,
            n_trials=500,
            seed=4242,
        )
        first = run_trials(config)
        second = run_trials(config)
        assert first == second
        assert run_monte_carlo(config) == run_monte_carlo(config)

    def test_different_master_seeds_differ(self):
        config = two_party_scenario(p_success=0.5, n_trials=200)
        a = run_trials(config, master_seed=1)
        b = run_trials(config, master_seed=2)
        assert a != b

    def test_seed_split_is_stable_and_distinct(self):
        seen = {trial_seed_for(99, i) for i in range(1000)}
        assert len(seen) == 1000
        assert trial_seed_for(99, 0) == trial_seed_for(99, 0)
        assert derive_stream_seed(99, "baseline") != derive_stream_seed(99, "observed")

    def test_single_trial_aggregation_identity(self):
        config = two_party_scenario(p_success=0.7, n_trials=5, seed=31)
        summary = run_monte_carlo(config, n_trials=1, master_seed=77)
        outcome = run_trial(config, trial_seed_for(77, 0))
        assert summary.n_trials == 1
        assert summary.success_rate == (1.0 if outcome.success else 0.0)
        if outcome.success:
            assert summary.mean_t_dist == outcome.t_dist
            assert summary.f_end_mean == outcome.f_end == summary.f_end_min

    def test_invalid_scenario_is_rejected_up_front(self):
        config = two_party_scenario()
        broken = dataclasses.replace(config, slot_duration=-1.0)
        with pytest.raises(ScenarioValidationError):
            run_trials(broken)
        with pytest.raises(ScenarioValidationError):
            run_trial(broken, trial_seed_for(1, 0))

    def test_outcomes_invariant_under_link_order_and_orientation(self):
        config = chain_scenario(
            [(0.0005, 0.001), (0.0002, 0.002), (0.0001, 0.0005)],
            t_coh_repeater=[0.01, 0.02, 0.015],
            t_coh_end=0.05,
            p_success=[0.3, 0.5, 0.4, 0.6],
            base_fidelity=[0.97, 0.9, 0.95, 0.92],
            n_trials=300,
            seed=11,
            adversary=AdversaryConfig(t_eve=0.001, t_pqc=0.0005, t_coh_eve=0.01, intercept_link="r1,r2"),
        )
        expected = run_trials(config)
        assert 0 < sum(o.success for o in expected) < len(expected)
        rng = random.Random(5)
        flipped = [dataclasses.replace(l, endpoints=l.endpoints[::-1]) for l in config.quantum_links]
        for _ in range(3):
            nodes = list(config.nodes)
            rng.shuffle(nodes)
            rng.shuffle(flipped)
            permuted = dataclasses.replace(config, nodes=tuple(nodes), quantum_links=tuple(flipped))
            assert run_trials(permuted) == expected


class TestSeedSplit:
    """The split is its definition: the first eight bytes, little-endian, of SHA-256 over the 64-bit little-endian
    master seed followed by the 64-bit little-endian trial index, or by the UTF-8 bytes of a stream label."""

    # Computed once from hashlib.sha256.
    TRIALS = [
        (0, 0, 15392584411371816759),
        (0, 1, 8639909309411767453),
        (1, 0, 15111851994976402252),
        (99, 0, 9698357853891526453),
        (99, 999, 5068814797333640301),
        (2**63, 12345, 8529354134289969629),
        (2**64 - 1, 0, 5718656214445508192),
        (0, 2**64 - 1, 11157519002496498040),
        (2**64 - 1, 2**64 - 1, 671060944249800282),
    ]
    STREAMS = [
        (0, "", 8794265229978523055),
        (1, "baseline", 14766251323082616396),
        (1, "observed", 9679546617343061331),
        (99, "baseline", 11642244579855471307),
        (808, "attacked-0", 9017738599568189575),
        (2**64 - 1, "observed", 17788357952179619087),
        (7, "f\u00e9\u2192\U0001f511", 1883259481380937699),
    ]
    # Splits the table in a process where neither built-in SHA-256 module can be imported.
    WITHOUT_BUILTIN = (
        "import json, sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from pqnetsim import engine\n"
        "trials, streams = json.loads(sys.stdin.read())\n"
        "print(json.dumps(['hashlib' in sys.modules, [engine.trial_seed_for(m, i) for m, i, _ in trials],\n"
        "                  [engine.derive_stream_seed(m, label) for m, label, _ in streams]]))\n"
    )

    def test_known_answers(self):
        assert [trial_seed_for(m, i) for m, i, _ in self.TRIALS] == [seed for *_, seed in self.TRIALS]
        assert [derive_stream_seed(m, label) for m, label, _ in self.STREAMS] == [seed for *_, seed in self.STREAMS]

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.text())
    def test_split_is_the_sha256_formula(self, master, index, label):
        def split(data: bytes) -> int:
            return int.from_bytes(hashlib.sha256(master.to_bytes(8, "little") + data).digest()[:8], "little")

        assert trial_seed_for(master, index) == split(index.to_bytes(8, "little"))
        assert derive_stream_seed(master, label) == split(label.encode("utf-8"))

    def test_a_build_without_the_builtin_module_splits_the_same_through_hashlib(self, tmp_path):
        path = os.pathsep.join(filter(None, [str(Path(engine.__file__).parent.parent), os.environ.get("PYTHONPATH")]))
        process = subprocess.run([sys.executable, "-c", self.WITHOUT_BUILTIN], cwd=tmp_path,
                                 input=json.dumps([self.TRIALS, self.STREAMS]), capture_output=True, text=True,
                                 env={**os.environ, "PYTHONPATH": path}, timeout=120)
        assert process.returncode == 0, process.stderr
        assert json.loads(process.stdout) == [
            True, [seed for *_, seed in self.TRIALS], [seed for *_, seed in self.STREAMS]
        ]


class TestAdversaryIntegration:
    def test_interception_lowers_delivered_fidelity(self):
        base = chain_scenario([(0.0, 0.0)], base_fidelity=[0.95, 0.96], t_coh_end=1.0)
        clean = run_trial(base, trial_seed_for(5, 0))
        intercepted = dataclasses.replace(
            base,
            adversary=AdversaryConfig(t_eve=0.004, t_pqc=0.002, t_coh_eve=0.003, intercept_link="alice,r1"),
        )
        attacked = run_trial(intercepted, trial_seed_for(5, 0))
        assert clean.success and attacked.success
        assert attacked.f_end < clean.f_end
        expected = chain_fidelity([decay(0.95, 0.006, 0.003), 0.96])
        assert attacked.f_end == expected

    def test_zero_delay_interception_is_invisible(self):
        base = chain_scenario([(0.0, 0.0)], t_coh_end=1.0)
        ghost = dataclasses.replace(
            base,
            adversary=AdversaryConfig(t_eve=0.0, t_pqc=0.0, t_coh_eve=1.0, intercept_link="alice,r1"),
        )
        assert run_trial(base, trial_seed_for(6, 0)) == run_trial(ghost, trial_seed_for(6, 0))


class TestSweep:
    def test_single_point_sweep_equals_monte_carlo(self):
        config = chain_scenario([(0.0005, 0.001)], p_success=0.6, t_coh_end=0.004, seed=11, n_trials=300)
        rows = sweep(config, "nodes.2.memory.t_coh", [0.008], n_trials=300, master_seed=11)
        assert len(rows) == 1
        value, summary = rows[0]
        assert value == 0.008
        direct = run_monte_carlo(set_config_value(config, "nodes.2.memory.t_coh", 0.008), 300, 11)
        assert summary == direct

    def test_success_rate_monotone_in_receiver_coherence(self):
        config = chain_scenario(
            [(0.0005, 0.001)],
            dec_end=0.0005,
            p_success=0.5,
            t_coh_repeater=0.0045,
            t_coh_end=0.004,
            seed=2205,
        )
        n = 4_000
        rows = sweep(config, "nodes.2.memory.t_coh", [0.002, 0.003, 0.0045, 0.009], n_trials=n, master_seed=97)
        rates = [summary.success_rate for _value, summary in rows]
        for low, high in zip(rates, rates[1:]):
            pooled = math.sqrt(max(low * (1 - low), 1e-9) / n + max(high * (1 - high), 1e-9) / n)
            assert high >= low - 3 * pooled
        assert rates[-1] > rates[0]

    def test_success_rate_antitone_in_encryption_time(self):
        config = chain_scenario(
            [(0.0, 0.001)],
            dec_end=0.0005,
            p_success=0.5,
            t_coh_repeater=0.0045,
            t_coh_end=0.004,
            seed=2206,
        )
        n = 4_000
        rows = sweep(
            config, "nodes.1.crypto.t_encrypt", [0.0, 0.001, 0.002, 0.004], n_trials=n, master_seed=98
        )
        rates = [summary.success_rate for _value, summary in rows]
        for high, low in zip(rates, rates[1:]):
            pooled = math.sqrt(max(low * (1 - low), 1e-9) / n + max(high * (1 - high), 1e-9) / n)
            assert low <= high + 3 * pooled
        assert rates[-1] < rates[0]

    def test_invalid_path_names_the_path(self):
        config = two_party_scenario()
        with pytest.raises(ParameterError, match="no.such.path"):
            sweep(config, "no.such.path", [1.0])

    def test_sweep_value_causing_invalid_scenario_is_an_error(self):
        config = two_party_scenario()
        with pytest.raises(ScenarioValidationError):
            sweep(config, "slot_duration", [-0.5])


# ---------------------------------------------------------------------------
# Fast-forward against the slot-by-slot reference
# ---------------------------------------------------------------------------

# Slot lengths, the non-dyadic ones included, so ages round.
TAUS = (0.001, 0.1 / 3, 1e-3 / 7, 0.25)


def dyadic(max_j: int):
    """``2**-j`` for ``1 <= j <= max_j``, or one of its neighbours one ulp away."""
    return st.integers(1, max_j).flatmap(
        lambda j: st.sampled_from([2.0**-j, math.nextafter(2.0**-j, 0.0), math.nextafter(2.0**-j, 1.0)])
    )


@st.composite
def chain_trials(draw):
    """A 1-6 repeater chain with mixed link probabilities and cutoffs, a seed and a slot budget."""
    n_reps = draw(st.integers(1, 6))
    tau = draw(st.sampled_from(TAUS))
    probability = st.one_of(
        st.just(1.0),
        st.floats(0.0005, 0.002),
        st.floats(0.01, 0.99),
        # Tiny: the threshold byte is 0, so every candidate draw is a tie; trials run to the horizon.
        st.floats(1e-9, 1e-5),
        # Dyadic or one ulp away: K lands next to the bound.
        dyadic(20),
    )

    def cutoff():
        # A multiple of tau, half-way between two, or a multiple of another slot length.
        slots = draw(st.integers(1, 40))
        return draw(st.sampled_from([slots * tau, (slots + 0.5) * tau, slots * 0.1 / 3]))

    delay = st.floats(0.0, 0.001)
    config = chain_scenario(
        [(draw(delay), draw(delay)) for _ in range(n_reps)],
        dec_end=draw(delay),
        t_coh_end=cutoff() if draw(st.booleans()) else 1.0,
        t_coh_far=cutoff(),
        t_coh_repeater=[cutoff() for _ in range(n_reps)],
        p_success=[draw(probability) for _ in range(n_reps + 1)],
        slot_duration=tau,
    )
    max_slots = draw(st.sampled_from([1, 2, 5, 17, 200, 3000]))
    return config, draw(st.integers(0, 2**64 - 1)), max_slots


def advanced_state(rng: random.Random, draws: int):
    """State of ``rng`` after ``draws`` more calls to ``random()``."""
    for _ in range(draws):
        rng.random()
    return rng.getstate()


def first_firing_slot(gen: int, limit: float, tau: float) -> int:
    """Walk the slots after ``gen`` until the expiry sweep's own test fires."""
    slot = gen + 1
    while (slot - gen) * tau < limit:
        slot += 1
    return slot


class TestFastForward:
    @settings(max_examples=300, deadline=None)
    @given(chain_trials())
    def test_outcomes_and_draws_match_slot_by_slot_reference(self, trial):
        config, seed, max_slots = trial
        prepared = engine._prepare(config)
        assert engine._execute(prepared, seed, max_slots) == reference_execute(prepared, seed, max_slots)
        # The fast engine's generator runs ahead by the words it fetched and did
        # not use; the reference, advanced by that lookahead, must be in its state.
        fast, slow = engine._Draws(random.Random(seed)), random.Random(seed)
        engine._run_parallel_chain(prepared, fast, max_slots)
        reference_parallel_chain(prepared, slow, max_slots)
        assert advanced_state(slow, fast.end - fast.pos) == fast.rng.getstate()

    def test_seeded_mix_of_outcomes_matches_reference(self):
        rng = random.Random(20240611)
        reasons = set()
        for _ in range(300):
            n_reps = rng.randint(1, 4)
            tau = rng.choice(TAUS)
            config = chain_scenario(
                [(rng.uniform(0, 1e-3), rng.uniform(0, 1e-3)) for _ in range(n_reps)],
                t_coh_end=rng.choice([0.0005, 1.0]),
                t_coh_repeater=[rng.randint(1, 30) * rng.choice([tau, 0.1 / 3]) for _ in range(n_reps)],
                p_success=[rng.choice([1.0, 0.3, 0.05, 0.002]) for _ in range(n_reps + 1)],
                slot_duration=tau,
            )
            prepared = engine._prepare(config)
            seed, max_slots = rng.getrandbits(64), rng.choice([1, 5, 2000])
            outcome = engine._execute(prepared, seed, max_slots)
            assert outcome == reference_execute(prepared, seed, max_slots)
            reasons.add(outcome.failure_reason)
        assert reasons == {None, *FailureReason}

    def test_long_quiet_run_to_the_horizon_matches_reference(self):
        config = chain_scenario([(0.0, 0.001)] * 3, p_success=1e-7)
        prepared = engine._prepare(config)
        fast, slow = engine._Draws(random.Random(11)), random.Random(11)
        outcome = engine._run_parallel_chain(prepared, fast, 100_000)
        assert outcome == reference_parallel_chain(prepared, slow, 100_000)
        assert outcome.failure_reason is FailureReason.HORIZON_EXCEEDED
        assert advanced_state(slow, fast.end - fast.pos) == fast.rng.getstate()

    @settings(max_examples=300, deadline=None)
    @given(
        gen=st.integers(0, 10**9),
        tau=st.sampled_from(TAUS + (0.0123, 1e-6)),
        slots=st.integers(1, 2000),
        shape=st.sampled_from(["multiple", "other_slot_multiple", "below", "above", "uniform"]),
        u=st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_expiry_gap_is_the_first_slot_the_sweep_fires(self, gen, tau, slots, shape, u):
        limit = {
            "multiple": slots * tau,
            "other_slot_multiple": slots * (0.7 * tau),
            "below": math.nextafter(slots * tau, 0.0),
            "above": math.nextafter(slots * tau, math.inf),
            "uniform": u * slots * tau,
        }[shape]
        assert gen + engine._expiry_gap(limit, tau) == first_firing_slot(gen, limit, tau)

    @pytest.mark.parametrize(
        "limit, tau",
        [(57.116200000000006, 1e-4), (446.82860000000005, 1e-4), (6437.244000000001, 1e-3), (470.82000000000005, 0.007)],
    )
    def test_expiry_gap_steps_up_where_the_ratio_rounds_down_to_a_multiple(self, limit, tau):
        """``ceil(limit / tau)`` slots fall short of ``limit`` here; the gap is the next one."""
        d = engine._expiry_gap(limit, tau)
        assert math.ceil(limit / tau) * tau < limit
        assert d == math.ceil(limit / tau) + 1
        assert d * tau >= limit and (d - 1) * tau < limit

    def test_expiry_gap_caps_huge_ratios_early(self):
        assert engine._expiry_gap(1e300, 1e-300) == engine._MAX_GAP
        assert engine._expiry_gap(1.0, 2.0**-60) == engine._MAX_GAP

    def test_dense_chain_expiring_on_a_slot_boundary_matches_reference(self):
        # Links denser than 1/4 never start a window scan, so every slot runs the
        # sweep; cutoffs of whole slots put each expiry exactly on a boundary.
        config = chain_scenario(
            [(0.0, 0.0)] * 2, t_coh_repeater=[0.75, 0.5], p_success=[1.0, 0.5, 0.3], slot_duration=0.25
        )
        prepared = engine._prepare(config)
        outcomes = [engine._execute(prepared, seed, 50) for seed in range(200)]
        assert outcomes == [reference_execute(prepared, seed, 50) for seed in range(200)]
        assert {o.failure_reason for o in outcomes} == {None, FailureReason.MEMORY_EXPIRED}

    def test_capped_gaps_match_reference_at_every_horizon(self):
        # At 1e-300 s per slot a ~1 s memory outlasts 2**52 slots, so every gap is
        # capped; the max_slots range keeps the cap out of reach of any trial.
        rng = random.Random(52)
        for p_success in ([0.002] * 4, [0.3, 1.0, 0.05, 0.3], 1e-7):
            config = chain_scenario(
                [(0.0, 0.001)] * 3,
                t_coh_end=1.0,
                t_coh_far=0.9,
                t_coh_repeater=[1.1, 1.0, 0.95],
                p_success=p_success,
                slot_duration=1e-300,
            )
            prepared = engine._prepare(config)
            assert set(prepared.gaps + prepared.intact_gap) == {engine._MAX_GAP}
            for max_slots in (1, 5, 200, 3000, 100_000):
                seed = rng.getrandbits(64)
                assert engine._execute(prepared, seed, max_slots) == reference_execute(prepared, seed, max_slots)
        assert run_trial(chain_scenario([(0.0, 0.001)]), 1, max_slots=2**52).success

    def test_slot_budget_and_trial_seed_are_checked_at_the_boundary(self):
        config = chain_scenario([(0.001, 0.001)])
        for max_slots, shown in ((0, "0"), (2**52 + 1, "4503599627370497")):
            message = f"max_slots must be in [1, 4503599627370496], got {shown}"
            with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
                run_trials(config, max_slots=max_slots)
            with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
                run_trial(config, 1, max_slots=max_slots)
        with pytest.raises(ParameterError, match="trial_seed"):
            run_trial(config, -1)

    def test_horizon_leaves_room_for_a_chains_rounding(self):
        # Two slots and one message, whose plain horizon is just below overflow. A trial that
        # stores its last link in slot 1 and fires its repeater in slot 2 sums the same times
        # in another order, and that sum rounds to inf.
        tau, delay = 7.02610075770175e307, 3.924729833219657e307
        assert math.isfinite(2 * tau + delay)
        config = chain_scenario([(0.0, delay)], t_coh_end=1e308, t_coh_far=1e308, t_coh_repeater=1e308,
                                p_success=[0.5, 1.0], slot_duration=tau)
        prepared = engine._prepare(config, max_slots=1)  # checked for one slot; the margin keeps out two
        assert any(math.isinf(engine._execute(prepared, seed, 2).t_dist or 0.0) for seed in range(20))
        with pytest.raises(ParameterError, match="longest message wait must be finite"):
            run_trials(config, max_slots=2)
        assert run_trial(config, 1, max_slots=1).t_dist == tau + delay

    @pytest.mark.parametrize(
        "config",
        [
            pytest.param(two_party_scenario(comm=0.001, slot_duration=1e308), id="slots"),
            # 10**6 slots of 1e302 s are finite, and so is each wait; the sum with the longer wait is not.
            pytest.param(chain_scenario([(0.0, 0.001), (0.0, 1e308)], slot_duration=1e302), id="longest-wait"),
        ],
    )
    def test_horizon_past_the_float_range_is_refused(self, config):
        message = "max_slots * slot_duration + the longest message wait must be finite, got inf"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}"):
            run_trials(config)
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}"):
            run_trial(config, 1)
        outcome = run_trial(config, 1, max_slots=1)
        assert outcome.t_dist is not None and math.isfinite(outcome.t_dist)


def res53(x: int) -> float:
    """CPython's ``random()`` from the two 32-bit words of ``x``, low word first."""
    w0, w1 = x & 0xFFFFFFFF, x >> 32
    return ((w0 >> 5) * 67108864.0 + (w1 >> 6)) * (1.0 / 9007199254740992.0)


def loaded(words: bytes) -> engine._Draws:
    """A draw source whose lookahead is ``words``, eight bytes per draw."""
    draws = engine._Draws(random.Random(0))
    draws.buf, draws.end = words, len(words) // 8
    return draws


@st.composite
def draws_near_the_bound(draw, p):
    """A 64-bit draw whose ``K`` lies within two of ``p``'s bound, with arbitrary discarded bits."""
    bound = engine._draw_test(p)[1]
    k = min(max(bound + draw(st.integers(-2, 2)), 0), 2**53 - 1)
    w0 = (k >> 26) << 5 | draw(st.integers(0, 31))
    w1 = (k & (2**26 - 1)) << 6 | draw(st.integers(0, 63))
    return w0 | w1 << 32


probabilities = st.one_of(st.just(1.0), st.floats(5e-324, 1e-12), dyadic(60), st.floats(0.0, 1.0, exclude_min=True))


class TestBulkDraws:
    def test_fetched_words_are_the_random_stream(self):
        # The engine relies on this identity of CPython's Mersenne Twister; if a
        # release changes random(), this fails instead of outputs changing silently.
        m = 1000
        for seed in range(24):
            bulk, plain = random.Random(seed), random.Random(seed)
            draws = loaded(bulk.getrandbits(64 * m).to_bytes(8 * m, "little"))
            for _ in range(m):
                assert draws.random().hex() == plain.random().hex()
            assert draws.pos == draws.end == m
            assert bulk.getstate() == plain.getstate()

    @settings(max_examples=500, deadline=None)
    @given(data=st.data(), p=probabilities)
    def test_byte_test_agrees_with_u_below_p(self, data, p):
        x = data.draw(st.one_of(st.integers(0, 2**64 - 1), draws_near_the_bound(p)))
        u = res53(x)
        words = x.to_bytes(8, "little")
        assert loaded(words).random() == u
        assert loaded(words).first_success([engine._draw_test(p)], 1, 1) == (0 if u < p else None)

    def test_window_scan_reads_exactly_to_the_first_success(self):
        ps = (0.002, 0.3, 2.0**-9)
        for seed in range(20):
            bulk, plain = random.Random(seed), random.Random(seed)
            draws = engine._Draws(bulk)
            hit = draws.first_success([engine._draw_test(p) for p in ps], 5000, 64)
            us = [plain.random() for _ in range(5000)]
            wins = [d for d, u in enumerate(us) if u < ps[d % 3]]
            assert hit == wins[0]
            # The lookahead continues the stream where the scan stopped.
            assert [draws.random() for _ in range(100)] == us[hit + 1 : hit + 101]


# ---------------------------------------------------------------------------
# Set-up cost
# ---------------------------------------------------------------------------


class TestSetupScaling:
    def test_setup_lookups_are_linear_in_chain_length(self, monkeypatch):
        # Counts, not wall time: they repeat exactly from run to run.
        n = 1600
        config = chain_scenario([(0.0, 0.001)] * n)
        assert model.validate_scenario(config) == []
        calls = 0
        pair_key = model.pair_key

        def counted_pair_key(a, b):
            nonlocal calls
            calls += 1
            return pair_key(a, b)

        monkeypatch.setattr(model, "pair_key", counted_pair_key)
        for step in (model.validate_scenario, timing.scenario_timings):
            calls = 0
            step(config)
            assert calls <= 4 * n, f"{step.__name__}: {calls} lookups for {n} repeaters"
        # _prepare's own body looks up nothing by pair key: it reads the walked path's link records.
        timings = timing.scenario_timings(config)
        monkeypatch.setattr(timing, "scenario_timings", lambda _: timings)
        calls = 0
        engine._prepare(config)
        assert calls == 0

    @staticmethod
    def count_calls(monkeypatch, module, name) -> list:
        """The configs that ``module.name`` is called with from here to the end of the test, in call order."""
        seen, original = [], getattr(module, name)

        def counted(config):
            seen.append(config)
            return original(config)

        monkeypatch.setattr(module, name, counted)
        return seen

    def test_prepare_walks_the_path_once(self, monkeypatch):
        # _prepare reads the path from scenario_timings rather than resolving it again,
        # and the links do not form a path a second time when it runs again.
        resolves = self.count_calls(monkeypatch, model, "resolve_path")
        walks = self.count_calls(monkeypatch, model, "_walk")
        configs = (
            two_party_scenario(),
            two_party_scenario(protocol=Protocol.SEQUENTIAL_ROUNDS, rounds_l=3),
            chain_scenario([(0.001, 0.001)] * 2),
        )
        for config in configs:
            resolves.clear()
            walks.clear()
            engine._prepare(config)
            assert (len(resolves), len(walks)) == (1, 1), config.protocol
            engine._prepare(config)
            assert (len(resolves), len(walks)) == (2, 1), config.protocol

    def test_each_scenario_is_walked_once(self, monkeypatch):
        # Validation, the static check and _prepare read one walk of a scenario object; a replaced
        # config, as a sweep row is, is a new object and walks its own links and nodes.
        walks = self.count_calls(monkeypatch, model, "_walk")
        config = chain_scenario([(0.0, 0.001)] * 3, t_coh_far=0.5)
        assert model.validate_scenario(config) == []
        timing.scenario_timings(config)
        assert engine._prepare(config).lo_tcoh[0] == 0.5
        assert walks == [config]
        row = model.set_config_value(config, "nodes.0.memory.t_coh", 0.25)
        assert model.validate_scenario(row) == []
        assert engine._prepare(row).lo_tcoh[0] == 0.25
        assert walks == [config, row]
        assert not hasattr(model.ScenarioConfig, "node_index")

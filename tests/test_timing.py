"""Timing feasibility checks: exact values, reductions, monotonicity."""

import math
import random
import re
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from pqnetsim import (
    FeasibilityResult,
    HopTiming,
    ParameterError,
    Protocol,
    check_parallel,
    check_scenario,
    check_sequential,
    check_single_hop,
    min_required_coherence,
    scenario_timings,
)
from scenario_builders import chain_scenario, two_party_scenario

delays = st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False)
coherences = st.floats(min_value=1e-9, max_value=1e4, allow_nan=False, allow_infinity=False)


class TestSingleHop:
    def test_feasible_case(self):
        result = check_single_hop(HopTiming(1.0, 2.0, 1.0), 10.0)
        assert result == FeasibilityResult(feasible=True, slack=6.0, binding_index=None)

    def test_boundary_is_strictly_infeasible(self):
        result = check_single_hop(HopTiming(3.0, 4.0, 3.0), 10.0)
        assert not result.feasible
        assert result.slack == 0.0

    def test_zero_delays(self):
        result = check_single_hop(HopTiming(0.0, 0.0, 0.0), 5.0)
        assert result.feasible and result.slack == 5.0

    def test_negative_slack_reported(self):
        result = check_single_hop(HopTiming(4.0, 4.0, 4.0), 10.0)
        assert not result.feasible and result.slack == -2.0



class TestParallel:
    def test_single_message_reduces_to_single_hop(self):
        par = check_parallel([HopTiming(1.0, 2.0, 99.0)], 1.0, 10.0)
        single = check_single_hop(HopTiming(1.0, 2.0, 1.0), 10.0)
        assert par.feasible == single.feasible
        assert par.slack == single.slack
        assert par.binding_index == 0

    def test_slowest_message_binds(self):
        result = check_parallel([HopTiming(1.0, 1.0, 0.0), HopTiming(2.0, 5.0, 0.0)], 1.0, 10.0)
        assert result.feasible and result.slack == 2.0 and result.binding_index == 1

    def test_tie_breaks_to_lowest_index(self):
        messages = [HopTiming(1.0, 1.0, 0.0)] * 5
        result = check_parallel(messages, 1.0, 4.0)
        assert result.feasible and result.slack == 1.0 and result.binding_index == 0

    def test_message_decrypt_field_is_ignored(self):
        a = check_parallel([HopTiming(1.0, 1.0, 0.0)], 2.0, 10.0)
        b = check_parallel([HopTiming(1.0, 1.0, 123.0)], 2.0, 10.0)
        assert a == b

    def test_empty_message_list_rejected(self):
        with pytest.raises(ParameterError):
            check_parallel([], 1.0, 10.0)

    @given(enc=delays, comm=delays, dec=delays, t_coh=coherences)
    def test_reduction_is_bitwise(self, enc, comm, dec, t_coh):
        par = check_parallel([HopTiming(enc, comm, 0.0)], dec, t_coh)
        single = check_single_hop(HopTiming(enc, comm, dec), t_coh)
        assert par.slack == single.slack
        assert par.feasible == single.feasible


class TestSequential:
    def test_one_round_reduces_to_single_hop(self):
        seq = check_sequential([HopTiming(1.0, 2.0, 1.0)], 10.0)
        single = check_single_hop(HopTiming(1.0, 2.0, 1.0), 10.0)
        assert seq == single

    def test_rounds_accumulate(self):
        rounds = [HopTiming(1.0, 1.0, 1.0), HopTiming(1.0, 1.0, 1.0)]
        assert check_sequential(rounds, 7.0) == FeasibilityResult(True, 1.0)
        boundary = check_sequential(rounds, 6.0)
        assert not boundary.feasible and boundary.slack == 0.0

    def test_empty_rounds_rejected(self):
        with pytest.raises(ParameterError):
            check_sequential([], 5.0)

    @given(enc=delays, comm=delays, dec=delays, t_coh=coherences)
    def test_reduction_is_bitwise(self, enc, comm, dec, t_coh):
        seq = check_sequential([HopTiming(enc, comm, dec)], t_coh)
        single = check_single_hop(HopTiming(enc, comm, dec), t_coh)
        assert seq.slack == single.slack
        assert seq.feasible == single.feasible


class TestCrossCheckProperties:
    @given(
        rounds=st.lists(st.tuples(delays, delays, delays), min_size=1, max_size=6),
        t_coh=coherences,
        dec_end=delays,
    )
    def test_sequential_slack_never_exceeds_parallel_slack(self, rounds, t_coh, dec_end):
        hops = [HopTiming(*r) for r in rounds]
        # Feed the same per-round decryption cost to both checks.
        seq = check_sequential([HopTiming(h.t_encrypt, h.t_comm, dec_end) for h in hops], t_coh)
        par = check_parallel(hops, dec_end, t_coh)
        assert seq.slack <= par.slack

    @given(enc=delays, comm=delays, dec=delays, t_coh=coherences, bump=delays)
    def test_monotonicity_in_delay_and_coherence(self, enc, comm, dec, t_coh, bump):
        base = check_single_hop(HopTiming(enc, comm, dec), t_coh)
        slower = check_single_hop(HopTiming(enc + bump, comm, dec), t_coh)
        if not base.feasible:
            assert not slower.feasible
        roomier = check_single_hop(HopTiming(enc, comm, dec), t_coh + bump)
        if base.feasible:
            assert roomier.feasible


class TestMinRequiredCoherence:
    def test_single_hop_value(self):
        assert min_required_coherence(Protocol.SINGLE_HOP, HopTiming(1.0, 2.0, 1.0)) == 4.0

    def test_parallel_value(self):
        hops = [HopTiming(1.0, 1.0, 0.0), HopTiming(2.0, 5.0, 0.0)]
        assert min_required_coherence(Protocol.PARALLEL_CHAIN, hops, t_decrypt_end=1.0) == 8.0

    def test_sequential_value(self):
        hops = [HopTiming(1.0, 1.0, 1.0)] * 2
        assert min_required_coherence(Protocol.SEQUENTIAL_ROUNDS, hops) == 6.0

    def test_round_trip_on_random_inputs(self):
        rng = random.Random(2024)
        for _ in range(500):
            hops = [
                HopTiming(rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(0, 5))
                for _ in range(rng.randint(1, 5))
            ]
            dec_end = rng.uniform(0, 5)
            for protocol, timings, kwargs in (
                (Protocol.SINGLE_HOP, hops[0], {}),
                (Protocol.PARALLEL_CHAIN, hops, {"t_decrypt_end": dec_end}),
                (Protocol.SEQUENTIAL_ROUNDS, hops, {}),
            ):
                needed = min_required_coherence(protocol, timings, **kwargs)
                at = _dispatch(protocol, timings, dec_end, max(needed, 1e-12))
                above = _dispatch(protocol, timings, dec_end, needed + 1e-9)
                if needed > 0:
                    assert not at.feasible
                assert above.feasible

    def test_parallel_requires_decrypt_time(self):
        with pytest.raises(ParameterError):
            min_required_coherence(Protocol.PARALLEL_CHAIN, [HopTiming(1.0, 1.0, 1.0)])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            min_required_coherence(Protocol.SINGLE_HOP, [HopTiming(1.0, 1.0, 1.0)])
        with pytest.raises(ParameterError):
            min_required_coherence(Protocol.SEQUENTIAL_ROUNDS, [])


def _dispatch(protocol, timings, dec_end, t_coh):
    if protocol is Protocol.SINGLE_HOP:
        return check_single_hop(timings, t_coh)
    if protocol is Protocol.PARALLEL_CHAIN:
        return check_parallel(timings, dec_end, t_coh)
    return check_sequential(timings, t_coh)


def test_slack_sign_encodes_feasibility_invariant():
    rng = random.Random(11)
    for _ in range(1000):
        hop = HopTiming(rng.uniform(0, 3), rng.uniform(0, 3), rng.uniform(0, 3))
        t_coh = rng.uniform(0.1, 10)
        result = check_single_hop(hop, t_coh)
        assert result.feasible == (result.slack > 0.0)
        assert math.isfinite(result.slack)


class TestScenarioWaits:
    def test_chain_has_one_total_per_repeater_in_path_order(self):
        config = chain_scenario([(0.001, 0.002), (0.003, 0.0005)], dec_end=0.0004, t_coh_end=0.004)
        timings = scenario_timings(config)
        assert timings.path == ("alice", "r1", "r2", "bob")
        assert timings.totals == ((0.001 + 0.002) + 0.0004, (0.003 + 0.0005) + 0.0004)
        assert timings.t_coh_end == 0.004
        assert check_scenario(config) == FeasibilityResult(True, 0.004 - timings.totals[1], binding_index=1)

    def test_single_hop_has_one_total(self):
        config = two_party_scenario(enc=0.001, comm=0.002, dec=0.0005, t_coh_end=0.01)
        timings = scenario_timings(config)
        assert timings.path == ("alice", "bob")
        assert timings.totals == ((0.001 + 0.002) + 0.0005,)
        assert check_scenario(config) == FeasibilityResult(True, 0.01 - timings.totals[0])

    @pytest.mark.parametrize("rounds_l", [1, 3, 10, 1000, 10**6])
    def test_sequential_slack_is_the_left_fold_over_rounds(self, rounds_l):
        # A hop total of 0.1 is not exact in binary, so the fold drifts from 0.1 * L.
        config = two_party_scenario(
            protocol=Protocol.SEQUENTIAL_ROUNDS, enc=0.1, t_coh_end=1.0, rounds_l=rounds_l
        )
        fold = 0.0
        for _ in range(rounds_l):
            fold += 0.1
        result = check_scenario(config)
        assert result == FeasibilityResult(1.0 - fold > 0.0, 1.0 - fold)
        if rounds_l >= 10:
            assert result.slack != 1.0 - 0.1 * rounds_l  # a product shortcut fails here

    def test_sequential_check_does_not_hold_the_rounds_in_memory(self):
        config = two_party_scenario(protocol=Protocol.SEQUENTIAL_ROUNDS, enc=0.1, rounds_l=10**6)
        tracemalloc.start()
        try:
            check_scenario(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, f"peak {peak} bytes"

    def test_non_positive_receiver_coherence_is_refused(self):
        message = (
            "invalid scenario (1 violation(s)): $.nodes[1].memory.t_coh: node 'bob': t_coh must be finite and > 0"
        )
        for protocol in (Protocol.SINGLE_HOP, Protocol.SEQUENTIAL_ROUNDS):
            with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
                check_scenario(two_party_scenario(protocol=protocol, t_coh_end=0.0))

"""Independent test oracles: exhaustive enumerations and statistics helpers.

Everything here restates contract behavior from first principles (literal
pair counting, brute-force outcome enumeration) so the implementations under
test are checked against a second, unrelated code path.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import lru_cache

from pqnetsim import FailureReason, Protocol, TrialOutcome, engine, fidelity, model, timing
from scenario_builders import chain_scenario, two_party_scenario


def exact_window_success(p: float, window_slots: int) -> float:
    """Enumerate every generation string of bounded length.

    Success means at least one generation within the window; probabilities
    are summed literally over all 2^w outcomes.
    """
    total = 0.0
    for bits in itertools.product((0, 1), repeat=window_slots):
        prob = 1.0
        for bit in bits:
            prob *= p if bit else (1.0 - p)
        if any(bits):
            total += prob
    return total


def exact_coincidence_success(p: float, cutoff_slots: int, horizon: int) -> float:
    """Exact success probability of the two-link coincidence process.

    Restates the slot mechanics directly: at each boundary a pair that has
    survived ``cutoff_slots`` slots resets, regenerating links then attempt
    with probability p, and the swap fires once both pairs coexist.
    """

    @lru_cache(maxsize=None)
    def from_state(slot: int, age_a: int | None, age_b: int | None) -> float:
        if slot > horizon:
            return 0.0
        if age_a is not None and age_a >= cutoff_slots:
            age_a = None
        if age_b is not None and age_b >= cutoff_slots:
            age_b = None
        branches_a = ((1.0, age_a),) if age_a is not None else ((p, 0), (1.0 - p, None))
        branches_b = ((1.0, age_b),) if age_b is not None else ((p, 0), (1.0 - p, None))
        total = 0.0
        for weight_a, a in branches_a:
            for weight_b, b in branches_b:
                weight = weight_a * weight_b
                if weight == 0.0:
                    continue
                if a is not None and b is not None:
                    total += weight
                else:
                    total += weight * from_state(
                        slot + 1,
                        a + 1 if a is not None else None,
                        b + 1 if b is not None else None,
                    )
        return total

    return from_state(1, None, None)


def three_sigma(p_true: float, n: int) -> float:
    """Three binomial standard errors around a true proportion."""
    return 3.0 * math.sqrt(max(p_true * (1.0 - p_true), 1e-12) / n)


def random_deterministic_scenario(rng: random.Random) -> model.ScenarioConfig:
    """Random p = 1 scenario across all protocols, mixed feasibility.

    A quarter of the draws pin the receiver's coherence time exactly at the
    total message delay, exercising the strict boundary.
    """
    protocol = rng.choice(list(Protocol))
    delay = lambda: rng.uniform(0.0002, 0.002)
    t_coh_end = rng.uniform(0.0005, 0.012)
    if protocol is Protocol.PARALLEL_CHAIN:
        config = chain_scenario(
            [(delay(), delay()) for _ in range(rng.randint(1, 3))],
            dec_end=delay(),
            t_coh_end=t_coh_end,
            t_coh_far=rng.uniform(0.001, 1.0),
            t_coh_repeater=rng.uniform(0.001, 1.0),
            p_success=1.0,
        )
    else:
        config = two_party_scenario(
            protocol=protocol,
            enc=delay(),
            comm=delay(),
            dec=delay(),
            t_coh_end=t_coh_end,
            t_coh_far=rng.uniform(0.001, 1.0),
            rounds_l=rng.randint(1, 4),
            p_success=1.0,
        )
    if rng.random() < 0.25:
        boundary = max(timing.scenario_timings(config).totals)
        receiver = model.resolve_path(config)[-1]
        index = [n.id for n in config.nodes].index(receiver)
        config = model.set_config_value(config, f"nodes.{index}.memory.t_coh", boundary)
    return config


def reference_execute(prepared, trial_seed: int, max_slots: int) -> TrialOutcome:
    """``engine._execute`` with the chain trial run slot by slot."""
    rng = random.Random(trial_seed)
    if isinstance(prepared, engine._PreparedChain):
        return reference_parallel_chain(prepared, rng, max_slots)
    return engine._run_two_party(prepared, rng, max_slots)


def reference_parallel_chain(run, rng: random.Random, max_slots: int) -> TrialOutcome:
    """The slot-by-slot chain engine: expiry sweep, draws and Bell-state scan in every slot.

    Kept as the reference the fast-forwarding engine must match outcome for
    outcome, including ``slots_used`` and the draw stream.
    """
    tau = run.tau
    p = run.p
    lo_tcoh = run.lo_tcoh
    hi_tcoh = run.hi_tcoh
    # While both qubits are stored, the pair is lost at the first of its two cutoffs.
    intact_limit = tuple(min(lo, hi) for lo, hi in zip(lo_tcoh, hi_tcoh))
    delays = run.delays
    t_coh_end = run.t_coh_end
    n_links = len(p)
    n_reps = n_links - 1
    assert n_reps >= 1

    up = [False] * n_links
    gen_slot = [0] * n_links
    bsm_done = [False] * n_reps
    bsm_slot = [0] * n_reps
    pending = n_reps

    rand = rng.random
    slot = 0
    failure: FailureReason | None = None
    while slot < max_slots:
        slot += 1
        # Expiry sweep at the slot boundary, before new attempts.  Links with
        # both sides already measured carry no storage and are skipped.
        for j in range(n_links):
            if not up[j]:
                continue
            lo_used = j >= 1 and bsm_done[j - 1]
            hi_used = j < n_reps and bsm_done[j]
            if lo_used and hi_used:
                continue
            age = (slot - gen_slot[j]) * tau
            if not lo_used and not hi_used:
                if age >= intact_limit[j]:
                    up[j] = False
            elif lo_used:
                if age >= hi_tcoh[j]:
                    failure = FailureReason.MEMORY_EXPIRED
                    break
            else:
                # Remaining qubit sits at the lo-side node; for the first
                # link that is the non-designated end node, whose storage
                # never aborts the protocol.
                if j > 0 and age >= lo_tcoh[j]:
                    failure = FailureReason.MEMORY_EXPIRED
                    break
        if failure is not None:
            return TrialOutcome(False, slot, failure_reason=failure)

        for j in range(n_links):
            if not up[j] and rand() < p[j]:
                up[j] = True
                gen_slot[j] = slot

        # The sweep above guarantees every live pair is fresh at this slot,
        # so a repeater fires as soon as both adjacent pairs are present.
        for i in range(n_reps):
            if not bsm_done[i] and up[i] and up[i + 1]:
                bsm_done[i] = True
                bsm_slot[i] = slot
                pending -= 1
        if pending == 0:
            break
    else:
        return TrialOutcome(False, max_slots, failure_reason=FailureReason.HORIZON_EXCEEDED)

    # All corrections are in flight; the rest is arithmetic.
    store_slot = gen_slot[n_links - 1]
    lateness = [
        (bsm_slot[i] - store_slot) * tau + delays[i] for i in range(n_reps)
    ]
    worst = max(lateness)
    t_dist = store_slot * tau + worst
    if not (worst < t_coh_end):
        return TrialOutcome(False, slot, t_dist=t_dist, failure_reason=FailureReason.MESSAGE_LATE)

    # Decay each link for both storage waits, then fold it in as chain_fidelity does.
    decay, swap = fidelity._decay, fidelity._swap
    for j in range(n_links):
        if j == 0:
            wait_lo = max(0.0, t_dist - gen_slot[j] * tau)
        else:
            wait_lo = (bsm_slot[j - 1] - gen_slot[j]) * tau
        if j == n_links - 1:
            wait_hi = max(0.0, t_dist - gen_slot[j] * tau)
        else:
            wait_hi = (bsm_slot[j] - gen_slot[j]) * tau
        f = decay(decay(run.base_fids[j], wait_lo, lo_tcoh[j]), wait_hi, hi_tcoh[j])
        f_end = f if j == 0 else swap(f_end, f)
    return TrialOutcome(True, slot, t_dist=t_dist, f_end=f_end)

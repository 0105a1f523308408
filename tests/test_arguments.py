"""Every public numeric argument: an out-of-domain value raises ParameterError, nothing else.

One row per (entry point, argument).  Each row is called with every value of
``BAD`` that lies outside the argument's domain, and with the row's own
values just past a boundary.  The call must raise :class:`ParameterError`
whose message names the argument and stays short, never ``TypeError``,
``OverflowError`` or a bare ``ValueError``.
"""

import dataclasses
import math
from typing import Any, Callable, NamedTuple

import pytest

from pqnetsim import (
    AdversaryConfig,
    HopTiming,
    ParameterError,
    Protocol,
    SecurityFamily,
    attack_outcome,
    chain_fidelity,
    check_parallel,
    check_scenario,
    check_sequential,
    check_single_hop,
    decay,
    detect,
    effective_security,
    full_mesh_handshakes,
    hierarchical_handshakes,
    intercepted_fidelity,
    min_required_coherence,
    qber_of,
    rekey_cycle_time,
    run_trial,
    run_trials,
    scenario_timings,
    set_config_value,
    summarize,
    swap,
    sweep,
    trial_seed_for,
    validate_scenario,
)
from pqnetsim.engine import derive_stream_seed
from pqnetsim.model import resolve_path
from pqnetsim.timing import parallel_totals
from scenario_builders import chain_scenario

BAD = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "-1": -1,
    "1e400": 10**400,
    "1e5000": 10**5000,
    "str": "1",
    "None": None,
    "True": True,
}
HUGE = ("1e400", "1e5000")  # legal where a range has no upper bound

HOP = HopTiming(0.001, 0.001, 0.001)
CONFIG = chain_scenario([(0.001, 0.001)])
FIDELITY_EDGES = (0.2, 1.0001)
SEED_EDGES = (2**64, 1.0)


def adversary(t_eve=0.0, t_pqc=0.0, t_coh_eve=1.0):
    return AdversaryConfig(t_eve, t_pqc, t_coh_eve, "a,b")


class Arg(NamedTuple):
    label: str  # how the message names the argument
    call: Callable[[Any], Any]
    legal: tuple[str, ...] = ()  # keys of BAD inside the domain
    edges: tuple[Any, ...] = ()


ARGS = {
    "HopTiming.t_encrypt": Arg("HopTiming.t_encrypt", lambda v: HopTiming(v, 0.0, 0.0)),
    "HopTiming.t_comm": Arg("HopTiming.t_comm", lambda v: HopTiming(0.0, v, 0.0)),
    "HopTiming.t_decrypt": Arg("HopTiming.t_decrypt", lambda v: HopTiming(0.0, 0.0, v)),
    "check_single_hop.t_coh": Arg("t_coh", lambda v: check_single_hop(HOP, v), edges=(0.0,)),
    "check_parallel.t_decrypt_end": Arg("t_decrypt_end", lambda v: check_parallel([HOP], v, 1.0)),
    "check_parallel.t_coh_end": Arg("t_coh_end", lambda v: check_parallel([HOP], 0.0, v), edges=(0.0,)),
    "check_sequential.t_coh": Arg("t_coh", lambda v: check_sequential([HOP], v), edges=(0.0,)),
    "parallel_totals.t_decrypt_end": Arg("t_decrypt_end", lambda v: parallel_totals([HOP], v)),
    "min_required_coherence.t_decrypt_end": Arg(
        # None is the default, refused with its own message (see test_timing).
        "t_decrypt_end", lambda v: min_required_coherence(Protocol.PARALLEL_CHAIN, [HOP], v), legal=("None",)
    ),
    "decay.f0": Arg("f0", lambda v: decay(v, 1.0, 1.0), edges=FIDELITY_EDGES),
    "decay.wait": Arg("wait", lambda v: decay(0.9, v, 1.0)),
    "decay.t_coh": Arg("t_coh", lambda v: decay(0.9, 1.0, v), edges=(0.0,)),
    "swap.f1": Arg("f1", lambda v: swap(v, 0.9), edges=FIDELITY_EDGES),
    "swap.f2": Arg("f2", lambda v: swap(0.9, v), edges=FIDELITY_EDGES),
    "chain_fidelity.links[0]": Arg("links[0]", lambda v: chain_fidelity([v, 0.9]), edges=FIDELITY_EDGES),
    "chain_fidelity.links[1]": Arg("links[1]", lambda v: chain_fidelity([0.9, v]), edges=FIDELITY_EDGES),
    "qber_of.f": Arg("fidelity", qber_of, edges=FIDELITY_EDGES),
    "detect.baseline_samples": Arg(
        "baseline_samples[1]", lambda v: detect([0.1, v], [0.1, 0.2], 3.0), legal=("-1",)
    ),
    "detect.observed_samples": Arg(
        "observed_samples[0]", lambda v: detect([0.1, 0.2], [v, 0.2], 3.0), legal=("-1",)
    ),
    "detect.threshold_sigma": Arg("threshold_sigma", lambda v: detect([0.1, 0.2], [0.1, 0.2], v), edges=(0.0,)),
    "attack_outcome.t_eve": Arg("adversary t_eve", lambda v: attack_outcome(adversary(t_eve=v))),
    "attack_outcome.t_pqc": Arg("adversary t_pqc", lambda v: attack_outcome(adversary(t_pqc=v))),
    "attack_outcome.t_coh_eve": Arg(
        "adversary t_coh_eve", lambda v: attack_outcome(adversary(t_coh_eve=v)), edges=(0.0,)
    ),
    "intercepted_fidelity.adversary": Arg(
        "adversary t_eve", lambda v: intercepted_fidelity(0.9, adversary(t_eve=v))
    ),
    "intercepted_fidelity.f_in": Arg("f_in", lambda v: intercepted_fidelity(v, adversary()), edges=FIDELITY_EDGES),
    "full_mesh_handshakes.n": Arg("n", full_mesh_handshakes, edges=(1, 2.0, 10**9 + 1)),
    "hierarchical_handshakes.n": Arg("n", lambda v: hierarchical_handshakes(v, 2), edges=(1, 10**9 + 1)),
    "hierarchical_handshakes.cluster_size": Arg(
        "cluster_size", lambda v: hierarchical_handshakes(10, v), edges=(1, 2.0)
    ),
    "rekey_cycle_time.handshakes": Arg(
        "handshakes", lambda v: rekey_cycle_time(v, 0.002, 0.0, 1), edges=(10**18 + 1, 1.0)
    ),
    "rekey_cycle_time.per_handshake_time": Arg(
        "per_handshake_time", lambda v: rekey_cycle_time(5, v, 0.0, 1)
    ),
    "rekey_cycle_time.t_auth": Arg("t_auth", lambda v: rekey_cycle_time(5, 0.002, v, 1)),
    "rekey_cycle_time.parallelism": Arg(
        "parallelism", lambda v: rekey_cycle_time(5, 0.002, 0.0, v), legal=HUGE, edges=(0,)
    ),
    "trial_seed_for.master_seed": Arg("master_seed", lambda v: trial_seed_for(v, 0), edges=SEED_EDGES),
    "trial_seed_for.trial_index": Arg("trial_index", lambda v: trial_seed_for(0, v), edges=SEED_EDGES),
    "derive_stream_seed.master_seed": Arg(
        "master_seed", lambda v: derive_stream_seed(v, "baseline"), edges=SEED_EDGES
    ),
    "run_trial.trial_seed": Arg("trial_seed", lambda v: run_trial(CONFIG, v), edges=SEED_EDGES),
    "run_trial.max_slots": Arg(
        "max_slots", lambda v: run_trial(CONFIG, 1, max_slots=v), edges=(0, 1.5, 2**52 + 1)
    ),
    "run_trials.n_trials": Arg(
        "n_trials", lambda v: run_trials(CONFIG, v), legal=(*HUGE, "None"), edges=(0, 2.0)
    ),
    "run_trials.master_seed": Arg(
        "master_seed", lambda v: run_trials(CONFIG, 1, v), legal=("None",), edges=SEED_EDGES
    ),
    "run_trials.max_slots": Arg(
        "max_slots", lambda v: run_trials(CONFIG, 1, 1, max_slots=v), edges=(0, 1.5, 2**52 + 1)
    ),
    "effective_security.claimed_bits": Arg(
        "claimed_bits", lambda v: effective_security(v, SecurityFamily.PQC), legal=HUGE, edges=(128.0,)
    ),
    # Structural arguments: every value of BAD is of the wrong type.
    "check_single_hop.hop": Arg("hop", lambda v: check_single_hop(v, 1.0)),
    "check_parallel.messages": Arg("messages", lambda v: check_parallel(v, 0.0, 1.0), edges=([], HOP)),
    "check_parallel.messages[1]": Arg("messages[1]", lambda v: check_parallel([HOP, v], 0.0, 1.0)),
    "check_sequential.rounds": Arg("rounds", lambda v: check_sequential(v, 1.0), edges=([], HOP)),
    "check_sequential.rounds[0]": Arg("rounds[0]", lambda v: check_sequential([v], 1.0)),
    "min_required_coherence.timings": Arg(
        "timings", lambda v: min_required_coherence(Protocol.SINGLE_HOP, v), edges=([HOP],)
    ),
    "min_required_coherence.timings[0]": Arg(
        "timings[0]", lambda v: min_required_coherence(Protocol.SEQUENTIAL_ROUNDS, [v])
    ),
    "chain_fidelity.links": Arg("links", chain_fidelity),
    "detect.baseline_samples.sequence": Arg(
        "baseline_samples", lambda v: detect(v, [0.1, 0.2], 3.0), edges=([0.1],)
    ),
    "detect.observed_samples.sequence": Arg(
        "observed_samples", lambda v: detect([0.1, 0.2], v, 3.0), edges=([0.1],)
    ),
    "attack_outcome.adversary": Arg("adversary", attack_outcome),
    "intercepted_fidelity.adversary.type": Arg("adversary", lambda v: intercepted_fidelity(0.9, v)),
}


CASES = [
    pytest.param(arg, value, id=f"{name}={key}")
    for name, arg in ARGS.items()
    for key, value in BAD.items()
    if key not in arg.legal
] + [
    pytest.param(arg, value, id=f"{name}={value!r}")
    for name, arg in ARGS.items()
    for value in arg.edges
]


@pytest.mark.parametrize("arg, value", CASES)
def test_out_of_domain_argument_is_a_parameter_error(arg, value):
    with pytest.raises(ParameterError) as info:
        arg.call(value)
    message = str(info.value)
    assert message.startswith(f"{arg.label} must ")
    assert len(message) < 120


@pytest.mark.parametrize(
    "value, shown",
    [
        (10**5000, "an integer of 16610 bits"),
        (-(10**400), "a negative integer of 1329 bits"),
        (2**128 - 1, str(2**128 - 1)),
        (2**64, "18446744073709551616"),
    ],
    ids=["1e5000", "-1e400", "2**128-1", "2**64"],
)
def test_huge_integers_are_shown_by_their_size(value, shown):
    with pytest.raises(ParameterError) as info:
        trial_seed_for(value, 0)
    assert str(info.value) == f"master_seed must fit in an unsigned 64-bit integer, got {shown}"


def test_changed_messages_are_pinned():
    cases = [
        (lambda: decay(0.9, "1", 1.0), "wait must be a number, got '1'"),
        (lambda: run_trials(CONFIG, 2, 1, max_slots=1.5), "max_slots must be an integer, got 1.5"),
        (lambda: detect([0.1, 0.2], [0.1, 0.2], True), "threshold_sigma must be a number, got True"),
        (lambda: full_mesh_handshakes(1), "n must be in [2, 1000000000], got 1"),
        (lambda: effective_security(-1, SecurityFamily.PQC), "claimed_bits must be >= 0, got -1"),
        (lambda: detect([0.1, math.nan], [0.1, 0.2], 3.0), "baseline_samples[1] must be finite, got nan"),
    ]
    for call, message in cases:
        with pytest.raises(ParameterError) as info:
            call()
        assert str(info.value) == message


def test_structural_messages_are_pinned():
    cases = [
        (
            lambda: detect((q for q in [0.1, 0.2]), [0.1, 0.2], 3.0),
            "baseline_samples must be of type Sequence, got generator",
        ),
        (lambda: detect([0.1, 0.2], [0.1], 3.0), "observed_samples must hold at least 2 samples, got 1"),
        (lambda: chain_fidelity(None), "links must be of type Iterable, got NoneType"),
        (lambda: check_parallel([HOP, None], 0.0, 1.0), "messages[1] must be of type HopTiming, got NoneType"),
        (lambda: check_sequential([1.0], 1.0), "rounds[0] must be of type HopTiming, got float"),
        (lambda: check_sequential([], 1.0), "rounds must hold at least one HopTiming"),
        (
            lambda: min_required_coherence(Protocol.SEQUENTIAL_ROUNDS, [1.0]),
            "timings[0] must be of type HopTiming, got float",
        ),
        (lambda: attack_outcome(None), "adversary must be of type AdversaryConfig, got NoneType"),
        (lambda: intercepted_fidelity(2.0, adversary()), "f_in must be in [0.25, 1], got 2.0"),
        (lambda: rekey_cycle_time(10, 1e308, 1e308, 1), "rekey cycle time must be finite and >= 0, got inf"),
        (lambda: validate_scenario(None), "config must be of type ScenarioConfig, got NoneType"),
        (lambda: run_trials(None), "config must be of type ScenarioConfig, got NoneType"),
        (lambda: check_scenario(5), "config must be of type ScenarioConfig, got int"),
        (lambda: derive_stream_seed(1, None), "label must be of type str, got NoneType"),
        (lambda: derive_stream_seed(1, "ab\ud800"), "label must be encodable as UTF-8, got '\\ud800' at index 2"),
        (lambda: set_config_value(CONFIG, 5, 0.1), "parameter_path must be of type str, got int"),
        (lambda: sweep(CONFIG, "slot_duration", None), "values must be of type Sequence, got NoneType"),
        (lambda: summarize(CONFIG, 5), "outcomes must be of type Sequence, got int"),
        (lambda: summarize(None, []), "config must be of type ScenarioConfig, got NoneType"),
        (lambda: summarize(CONFIG, [None]), "outcomes[0] must be of type TrialOutcome, got NoneType"),
        (lambda: resolve_path(None), "config must be of type ScenarioConfig, got NoneType"),
        (lambda: scenario_timings(None), "config must be of type ScenarioConfig, got NoneType"),
        (lambda: summarize(CONFIG, []), "summarize requires at least one outcome"),
        (lambda: set_config_value(CONFIG, "", 1.0), "empty parameter path"),
        (
            lambda: set_config_value(CONFIG, "classical_channels.x,y.propagation_delay", 1.0),
            "invalid parameter path 'classical_channels.x,y.propagation_delay': no key 'x,y'",
        ),
        (
            lambda: set_config_value(CONFIG, "protocol.x", 1.0),
            "invalid parameter path 'protocol.x': cannot descend into Protocol",
        ),
        (
            lambda: resolve_path(dataclasses.replace(CONFIG, quantum_links=CONFIG.quantum_links * 2)),
            "invalid scenario (2 violation(s)): $.quantum_links[2].endpoints: duplicate quantum link 'alice,r1'; "
            "$.quantum_links[3].endpoints: duplicate quantum link 'bob,r1'",
        ),
    ]
    for call, message in cases:
        with pytest.raises(ParameterError) as info:
            call()
        assert str(info.value) == message

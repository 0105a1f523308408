"""Deterministic simulator and analyzer for PQC-protected quantum networks.

The package answers one family of questions: given per-node quantum-memory
coherence times, per-algorithm PQC latency profiles, classical channel
delays, entanglement generation rates and an optional man-in-the-middle
adversary, do end-to-end entanglement protocols still complete, with what
distribution time and delivered fidelity, and does key management scale?

Layers:

* :mod:`pqnetsim.model` -- shared domain types, crypto-profile registry,
  scenario loading and validation.
* :mod:`pqnetsim.timing` -- exact feasibility inequalities with signed slack.
* :mod:`pqnetsim.fidelity` -- Werner-state decay and swap composition.
* :mod:`pqnetsim.engine` -- seeded slotted Monte Carlo simulation.
* :mod:`pqnetsim.adversary` -- hybrid attack bound, QBER impact, detection.
* :mod:`pqnetsim.kms` -- key-management scaling analytics.
* :mod:`pqnetsim.cli` -- the ``pqnetsim`` command-line tool.
"""

from .adversary import AttackOutcome, DetectionReport, attack_outcome, detect, intercepted_fidelity, qber_of
from .engine import (
    DEFAULT_MAX_SLOTS,
    FailureReason,
    RunSummary,
    TrialOutcome,
    run_monte_carlo,
    run_trial,
    run_trials,
    summarize,
    sweep,
    trial_seed_for,
)
from .errors import ParameterError, ProfileNotFoundError, ScenarioValidationError, Violation
from .fidelity import FIDELITY_FLOOR, chain_fidelity, decay, swap
from .kms import full_mesh_handshakes, hierarchical_handshakes, rekey_cycle_time
from .model import (
    AdversaryConfig,
    ClassicalChannelSpec,
    CryptoKind,
    CryptoProfile,
    CryptoRegistry,
    MemorySpec,
    MemoryTier,
    NodeRole,
    NodeSpec,
    Protocol,
    QuantumLinkSpec,
    ScenarioConfig,
    SecurityFamily,
    default_registry,
    effective_security,
    load_registry,
    load_scenario,
    pair_key,
    set_config_value,
    validate_scenario,
)
from .timing import (
    FeasibilityResult,
    HopTiming,
    check_parallel,
    check_scenario,
    check_sequential,
    check_single_hop,
    min_required_coherence,
    scenario_timings,
)

__version__ = "0.1.0"

__all__ = [
    "AdversaryConfig",
    "AttackOutcome",
    "ClassicalChannelSpec",
    "CryptoKind",
    "CryptoProfile",
    "CryptoRegistry",
    "DEFAULT_MAX_SLOTS",
    "DetectionReport",
    "FIDELITY_FLOOR",
    "FailureReason",
    "FeasibilityResult",
    "HopTiming",
    "MemorySpec",
    "MemoryTier",
    "NodeRole",
    "NodeSpec",
    "ParameterError",
    "ProfileNotFoundError",
    "Protocol",
    "QuantumLinkSpec",
    "RunSummary",
    "ScenarioConfig",
    "ScenarioValidationError",
    "SecurityFamily",
    "TrialOutcome",
    "Violation",
    "attack_outcome",
    "chain_fidelity",
    "check_parallel",
    "check_scenario",
    "check_sequential",
    "check_single_hop",
    "decay",
    "default_registry",
    "detect",
    "effective_security",
    "full_mesh_handshakes",
    "hierarchical_handshakes",
    "intercepted_fidelity",
    "load_registry",
    "load_scenario",
    "min_required_coherence",
    "pair_key",
    "qber_of",
    "rekey_cycle_time",
    "run_monte_carlo",
    "run_trial",
    "run_trials",
    "scenario_timings",
    "set_config_value",
    "summarize",
    "swap",
    "sweep",
    "trial_seed_for",
    "validate_scenario",
]

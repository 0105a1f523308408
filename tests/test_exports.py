"""The package surface: each public name is listed once, in its module's ``__all__``, and the package re-exports it."""

import importlib

import pytest

import pqnetsim

# The modules the package re-exports, in the order their lists are joined.
EXPORTING = ("errors", "model", "timing", "fidelity", "engine", "adversary", "kms")

# Every name the package exported before the modules' lists became the only list, by its home module.
EXPORTED_BEFORE = {
    "errors": ["ParameterError", "ProfileNotFoundError", "ScenarioValidationError", "Violation"],
    "model": ["AdversaryConfig", "ClassicalChannelSpec", "CryptoKind", "CryptoProfile", "CryptoRegistry", "MemorySpec",
              "MemoryTier", "NodeRole", "NodeSpec", "Protocol", "QuantumLinkSpec", "ScenarioConfig", "SecurityFamily",
              "default_registry", "effective_security", "load_registry", "load_scenario", "pair_key",
              "set_config_value", "validate_scenario"],
    "timing": ["FeasibilityResult", "HopTiming", "check_parallel", "check_scenario", "check_sequential",
               "check_single_hop", "min_required_coherence", "scenario_timings"],
    "fidelity": ["FIDELITY_FLOOR", "chain_fidelity", "decay", "swap"],
    "engine": ["DEFAULT_MAX_SLOTS", "FailureReason", "RunSummary", "TrialOutcome", "run_monte_carlo", "run_trial",
               "run_trials", "summarize", "sweep", "trial_seed_for"],
    "adversary": ["AttackOutcome", "DetectionReport", "attack_outcome", "detect", "intercepted_fidelity", "qber_of"],
    "kms": ["full_mesh_handshakes", "hierarchical_handshakes", "rekey_cycle_time"],
}


def module(name):
    return importlib.import_module(f"pqnetsim.{name}")


def test_package_exports_the_modules_lists_joined():
    assert pqnetsim.__all__ == [name for m in EXPORTING for name in module(m).__all__]


def test_no_name_is_exported_twice():
    assert len(pqnetsim.__all__) == len(set(pqnetsim.__all__))


def test_every_name_exported_before_is_the_object_its_home_module_defines():
    assert sum(map(len, EXPORTED_BEFORE.values())) == 55
    for home, names in EXPORTED_BEFORE.items():
        for name in names:
            assert name in pqnetsim.__all__
            assert getattr(pqnetsim, name) is getattr(module(home), name), name
            assert getattr(getattr(pqnetsim, name), "__module__", f"pqnetsim.{home}") == f"pqnetsim.{home}", name


@pytest.mark.parametrize("name", EXPORTING + ("cli",))
def test_every_listed_name_exists_in_its_module(name):
    listed = module(name).__all__
    assert [n for n in listed if not hasattr(module(name), n)] == []
    assert len(listed) == len(set(listed))

"""Domain model: security helper, registry, scenario parsing and validation."""

import copy
import dataclasses
import functools
import json
import math
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pqnetsim import (
    CryptoKind,
    CryptoProfile,
    CryptoRegistry,
    NodeRole,
    ParameterError,
    ProfileNotFoundError,
    Protocol,
    ScenarioValidationError,
    SecurityFamily,
    Violation,
    default_registry,
    load_registry,
    load_scenario,
    pair_key,
    run_trials,
    set_config_value,
    validate_scenario,
)
from pqnetsim import model
from pqnetsim.model import parse_scenario, resolve_path
from pqnetsim.timing import check_scenario, scenario_timings

from oracles import reference_load_registry, reference_parse_scenario, reference_violations
from scenario_builders import chain_document, chain_scenario, two_party_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
NAN, INF = float("nan"), float("inf")
# Public functions that read a scenario; each validates it first.
READERS = (resolve_path, scenario_timings, check_scenario, run_trials)


def validated(config) -> list[Violation]:
    """``validate_scenario(config)``, once every function in ``READERS`` is seen to refuse it with those violations."""
    violations = validate_scenario(config)
    for read in READERS if violations else ():
        with pytest.raises(ScenarioValidationError) as refused:
            read(config)
        assert refused.value.violations == violations, read.__name__
    return violations


class TestEffectiveSecurity:
    def test_symmetric_is_halved(self):
        from pqnetsim import effective_security

        assert effective_security(128, SecurityFamily.SYMMETRIC) == 64

    def test_factoring_family_is_broken(self):
        from pqnetsim import effective_security

        assert effective_security(112, SecurityFamily.FACTORING_OR_DLOG_BASED) == 0

    def test_zero_bits(self):
        from pqnetsim import effective_security

        assert effective_security(0, SecurityFamily.SYMMETRIC) == 0

    @given(bits=st.integers(min_value=0, max_value=4096))
    def test_pqc_unchanged_and_even_halving_exact(self, bits):
        from pqnetsim import effective_security

        assert effective_security(bits, SecurityFamily.PQC) == bits
        assert effective_security(2 * bits, SecurityFamily.SYMMETRIC) == bits

    @given(a=st.integers(min_value=0, max_value=4096), b=st.integers(min_value=0, max_value=4096))
    def test_monotone_within_each_family(self, a, b):
        from pqnetsim import effective_security

        lo, hi = min(a, b), max(a, b)
        for family in SecurityFamily:
            assert effective_security(lo, family) <= effective_security(hi, family)


class TestRegistry:
    def test_lookup_present(self):
        registry = default_registry()
        profile = registry.lookup("kyber512-class")
        assert profile.name == "kyber512-class"
        assert profile.kind is CryptoKind.KEM
        assert profile.illustrative

    def test_lookup_absent_names_identifier(self):
        registry = default_registry()
        with pytest.raises(ProfileNotFoundError, match="no-such-profile"):
            registry.lookup("no-such-profile")

    def test_lookup_on_empty_registry(self):
        registry = CryptoRegistry([])
        with pytest.raises(ProfileNotFoundError):
            registry.lookup("anything")

    def test_duplicate_names_rejected(self):
        profile = CryptoProfile("dup", CryptoKind.KEM, 0.0, 0.0, 1, 1, 128)
        with pytest.raises(ParameterError, match="dup"):
            CryptoRegistry([profile, profile])

    def test_load_registry_roundtrip(self, tmp_path):
        payload = [
            {
                "name": "measured-kem",
                "kind": "kem",
                "t_encrypt": 0.0001,
                "t_decrypt": 0.0002,
                "public_key_bytes": 1184,
                "ciphertext_or_sig_bytes": 1088,
                "claimed_security_bits": 192,
            }
        ]
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps(payload))
        registry = load_registry(path)
        assert registry.lookup("measured-kem").t_decrypt == 0.0002
        assert not registry.lookup("measured-kem").illustrative

    def test_load_registry_rejects_unknown_keys(self, tmp_path):
        payload = [
            {
                "name": "x",
                "kind": "kem",
                "t_encrypt": 0.1,
                "t_decrypt": 0.1,
                "public_key_bytes": 1,
                "ciphertext_or_sig_bytes": 1,
                "claimed_security_bits": 128,
                "speed": "fast",
            }
        ]
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ParameterError, match=r"^\[0\]\.speed \(profile 'x'\): unknown key$"):
            load_registry(path)

    def test_load_registry_rejects_negative_latency(self, tmp_path):
        payload = [
            {
                "name": "x",
                "kind": "signature",
                "t_encrypt": -0.1,
                "t_decrypt": 0.1,
                "public_key_bytes": 1,
                "ciphertext_or_sig_bytes": 1,
                "claimed_security_bits": 128,
            }
        ]
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ParameterError):
            load_registry(path)

    def test_load_registry_reports_every_bad_profile_together(self, tmp_path):
        good = {
            "name": "a",
            "kind": "kem",
            "t_encrypt": 0.1,
            "t_decrypt": 0.1,
            "public_key_bytes": 1,
            "ciphertext_or_sig_bytes": 1,
            "claimed_security_bits": 128,
        }
        payload = [{**good, "t_encrypt": "0.1"}, {**good, "name": "b"}, {**good, "name": "c", "kind": "hash"}]
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ParameterError) as info:
            load_registry(path)
        assert str(info.value) == (
            "[0].t_encrypt (profile 'a'): expected a number, got str; "
            "[2].kind (profile 'c'): must be one of ['kem', 'signature'], got 'hash'"
        )


def edit_record(config, cls, change):
    """``config`` with ``change`` applied to its first record of class ``cls``, the path of that record's fields,
    and the prefix of their violation messages (``{}`` takes the field name)."""
    if cls is model.ScenarioConfig:
        return change(config), "$.", ""
    if cls is model.AdversaryConfig:
        return dataclasses.replace(config, adversary=change(config.adversary)), "$.adversary.", ""
    if cls is model.QuantumLinkSpec:
        link = config.quantum_links[0]
        links = (change(link), *config.quantum_links[1:])
        return dataclasses.replace(config, quantum_links=links), "$.quantum_links[0].", f"link {link.key!r}: {{}} "
    if cls is model.ClassicalChannelSpec:
        key, spec = next(iter(config.classical_channels.items()))
        channels = {**config.classical_channels, key: change(spec)}
        return dataclasses.replace(config, classical_channels=channels), f"$.classical_channels[{key!r}].", ""
    node = config.nodes[0]
    field = "memory" if cls is model.MemorySpec else "crypto"
    nodes = (dataclasses.replace(node, **{field: change(getattr(node, field))}), *config.nodes[1:])
    prefix = f"node {node.id!r}: {{}} " if cls is model.MemorySpec else f"profile {node.crypto.name!r}: "
    return dataclasses.replace(config, nodes=nodes), f"$.nodes[0].{field}.", prefix


RANGED_RECORDS = (model.ScenarioConfig, model.MemorySpec, model.CryptoProfile, model.QuantumLinkSpec,
                  model.ClassicalChannelSpec, model.AdversaryConfig)

WRONG_FIELD_VALUES = [
    pytest.param(cls, name, value, id=f"{cls.__name__}.{name}={value!r}")
    for cls in RANGED_RECORDS
    for name, spec in model._ranges(cls)
    for value in ["1", None, True, NAN] + ([2.5] if type(spec["range"][0]) is int else [])
]


def _edit_node(field, value):
    return lambda c: dataclasses.replace(c, nodes=(dataclasses.replace(c.nodes[0], **{field: value}), *c.nodes[1:]))


def _edit_endpoints(value):
    return lambda c: dataclasses.replace(c, quantum_links=(dataclasses.replace(c.quantum_links[0], endpoints=value),))


WRONG_CLASSES = [
    pytest.param("teleport_single_hop.json", _edit_node("memory", None),
                 [("$.nodes[0].memory", "must be of type MemorySpec, got NoneType")], id="memory-None"),
    pytest.param("teleport_single_hop.json", _edit_node("crypto", None),
                 [("$.nodes[0].crypto", "must be of type CryptoProfile, got NoneType")], id="crypto-None"),
    pytest.param("teleport_single_hop.json", _edit_node("role", "end_node"),
                 [("$.nodes[0].role", "must be of type NodeRole, got str")], id="role-str"),
    pytest.param("teleport_single_hop.json", lambda c: dataclasses.replace(c, classical_channels=None),
                 [("$.classical_channels", "must be of type dict, got NoneType")], id="channels-None"),
    pytest.param("intercepted_chain.json", lambda c: dataclasses.replace(c, adversary=dataclasses.asdict(c.adversary)),
                 [("$.adversary", "must be of type AdversaryConfig, got dict")], id="adversary-dict"),
    pytest.param("teleport_single_hop.json",
                 lambda c: dataclasses.replace(c, quantum_links=(c.quantum_links[0].endpoints,)),
                 [("$.quantum_links[0]", "must be of type QuantumLinkSpec, got tuple")], id="link-tuple"),
    pytest.param("repeater_chain.json", lambda c: dataclasses.replace(c, protocol="parallel_chain"),
                 [("$.protocol", "must be of type Protocol, got str")], id="protocol-str-chain"),
    pytest.param("teleport_single_hop.json", lambda c: dataclasses.replace(c, protocol="single_hop"),
                 [("$.protocol", "must be of type Protocol, got str")], id="protocol-str-single-link"),
    pytest.param("teleport_single_hop.json", lambda c: dataclasses.replace(c, nodes=(None, *c.nodes[1:])),
                 [("$.nodes[0]", "must be of type NodeSpec, got NoneType")], id="node-None"),
    pytest.param("teleport_single_hop.json", lambda c: dataclasses.replace(c, classical_channels={"alice,bob": 1.0}),
                 [("$.classical_channels['alice,bob']", "must be of type ClassicalChannelSpec, got float")],
                 id="channel-float"),
    # Sequences must be tuples, so that a scenario's walk can be kept; ids, keys and endpoints must be strings.
    pytest.param("teleport_single_hop.json", lambda c: dataclasses.replace(c, nodes=None),
                 [("$.nodes", "must be of type tuple, got NoneType")], id="nodes-None"),
    pytest.param("teleport_single_hop.json", lambda c: dataclasses.replace(c, quantum_links=None),
                 [("$.quantum_links", "must be of type tuple, got NoneType")], id="links-None"),
    pytest.param("teleport_single_hop.json", lambda c: dataclasses.replace(c, nodes=list(c.nodes)),
                 [("$.nodes", "must be of type tuple, got list")], id="nodes-list"),
    pytest.param("teleport_single_hop.json", _edit_endpoints(None),
                 [("$.quantum_links[0].endpoints", "must be of type tuple[str, str], got NoneType")],
                 id="endpoints-None"),
    pytest.param("teleport_single_hop.json", _edit_endpoints(("alice", "bob", "x")),
                 [("$.quantum_links[0].endpoints", "must be of type tuple[str, str], got tuple[str, str, str]")],
                 id="endpoints-three"),
    pytest.param("teleport_single_hop.json", _edit_endpoints(("alice", 5)),
                 [("$.quantum_links[0].endpoints", "must be of type tuple[str, str], got tuple[str, int]")],
                 id="endpoints-int"),
    pytest.param("teleport_single_hop.json",
                 lambda c: dataclasses.replace(c, classical_channels={5: c.classical_channels["alice,bob"]}),
                 [("$.classical_channels[5]", "must be of type str, got int")], id="channel-key-int"),
    pytest.param("intercepted_chain.json",
                 lambda c: dataclasses.replace(c, adversary=dataclasses.replace(c.adversary, intercept_link=None)),
                 [("$.adversary.intercept_link", "must be of type str, got NoneType")], id="intercept-link-None"),
    pytest.param("teleport_single_hop.json", _edit_node("id", None),
                 [("$.nodes[0].id", "must be of type str, got NoneType")], id="node-id-None"),
]


class TestValidateScenario:
    def test_well_formed_chain_has_no_violations(self):
        config = chain_scenario([(0.001, 0.002)], dec_end=0.001, t_coh_end=0.01)
        assert validate_scenario(config) == []

    def test_out_of_range_fidelity_names_link(self):
        config = chain_scenario([(0.001, 0.002)], base_fidelity=[0.95, 1.2])
        violations = validated(config)
        assert len(violations) == 1
        assert "base_fidelity" in violations[0].path
        assert "bob,r1" in violations[0].message

    def test_unknown_node_reference(self):
        config = two_party_scenario()
        bad_link = dataclasses.replace(config.quantum_links[0], endpoints=("alice", "ghost"))
        config = dataclasses.replace(config, quantum_links=(bad_link,))
        violations = validated(config)
        assert any("ghost" in v.message for v in violations)

    def test_violation_set_is_permutation_invariant(self):
        config = chain_scenario([(0.001, 0.002), (0.001, 0.002)], base_fidelity=[1.5, 0.95, 0.2])
        baseline = sorted(v.message for v in validated(config))
        rng = random.Random(3)
        for _ in range(5):
            nodes = list(config.nodes)
            links = list(config.quantum_links)
            rng.shuffle(nodes)
            rng.shuffle(links)
            permuted = dataclasses.replace(config, nodes=tuple(nodes), quantum_links=tuple(links))
            assert sorted(v.message for v in validated(permuted)) == baseline
            assert sorted(v.message for v in validate_scenario(permuted)) == sorted(
                v.message for v in validate_scenario(permuted)
            )

    def test_missing_message_channel_flagged(self):
        config = chain_scenario([(0.001, 0.002)])
        config = dataclasses.replace(config, classical_channels={})
        violations = validated(config)
        assert any("classical channel" in v.message for v in violations)

    def test_parallel_chain_needs_two_links(self):
        config = two_party_scenario(protocol=Protocol.PARALLEL_CHAIN)
        violations = validated(config)
        assert any("at least two links" in v.message for v in violations)

    def test_single_hop_needs_exactly_one_link(self):
        config = chain_scenario([(0.001, 0.002)])
        config = dataclasses.replace(config, protocol=Protocol.SINGLE_HOP)
        violations = validated(config)
        assert any("exactly one quantum link" in v.message for v in violations)

    def test_adversary_link_must_exist(self):
        from pqnetsim import AdversaryConfig

        config = two_party_scenario(
            adversary=AdversaryConfig(t_eve=0.0, t_pqc=0.0, t_coh_eve=1.0, intercept_link="alice,ghost")
        )
        violations = validated(config)
        assert any("intercept_link" in v.path for v in violations)

    def test_programmatic_pair_keys_must_be_in_pair_key_order(self):
        # The parser canonicalises both; a scenario built in code is refused, not misread.
        from pqnetsim import check_scenario, run_trials, sweep

        config = load_scenario(SCENARIO_DIR / "intercepted_chain.json")
        adversary = dataclasses.replace(config.adversary, intercept_link="relay,alice")
        reversed_link = dataclasses.replace(config, adversary=adversary)
        assert validated(reversed_link) == [
            Violation("$.adversary.intercept_link", "must be in pair_key order, 'alice,relay'")
        ]
        for call in (check_scenario, run_trials, lambda c: sweep(c, "slot_duration", [0.001], n_trials=1)):
            with pytest.raises(ScenarioValidationError, match="pair_key order"):
                call(reversed_link)

        single = load_scenario(SCENARIO_DIR / "teleport_single_hop.json")
        for key in ("alice", "bob,bob"):
            channels = {key: single.classical_channels["alice,bob"]}
            assert validated(dataclasses.replace(single, classical_channels=channels)) == [
                Violation(f"$.classical_channels[{key!r}]", "key must name two distinct node ids joined by a comma"),
                Violation("$.classical_channels", "missing classical channel for message pair 'alice,bob'"),
            ]

        chain = load_scenario(SCENARIO_DIR / "repeater_chain.json")
        channels = {("r1,bob" if key == "bob,r1" else key): spec for key, spec in chain.classical_channels.items()}
        assert validated(dataclasses.replace(chain, classical_channels=channels)) == [
            Violation("$.classical_channels['r1,bob']", "key must be in pair_key order, 'bob,r1'"),
            Violation("$.classical_channels", "missing classical channel for message pair 'bob,r1'"),
        ]

    def test_a_node_id_built_in_code_must_not_contain_a_comma(self):
        # The file parser refuses such an id at once; a scenario built in code meets the same rule in validation.
        config = load_scenario(SCENARIO_DIR / "teleport_single_hop.json")
        nodes = (dataclasses.replace(config.nodes[0], id="al,ice"), config.nodes[1])
        links = (dataclasses.replace(config.quantum_links[0], endpoints=("al,ice", "bob")),)
        channels = {"al,ice,bob": config.classical_channels["alice,bob"]}
        renamed = dataclasses.replace(config, nodes=nodes, quantum_links=links, classical_channels=channels)
        assert validated(renamed) == [
            Violation("$.nodes[0].id", "node id 'al,ice' must not contain a comma"),
            Violation("$.classical_channels['al,ice,bob']", "key must name two distinct node ids joined by a comma"),
        ]

    def test_adversary_delays_that_overflow_in_sum(self):
        config = load_scenario(SCENARIO_DIR / "intercepted_chain.json")
        adversary = dataclasses.replace(config.adversary, t_eve=1e308, t_pqc=1e308)
        assert validated(dataclasses.replace(config, adversary=adversary)) == [
            Violation("$.adversary", "t_eve + t_pqc must be finite")
        ]
        adversary = dataclasses.replace(adversary, t_pqc=math.inf)  # reported as the part out of range only
        assert validated(dataclasses.replace(config, adversary=adversary)) == [
            Violation("$.adversary.t_pqc", "must be finite and >= 0")
        ]

    def test_bad_scalars_flagged(self):
        config = two_party_scenario()
        config = dataclasses.replace(config, n_trials=0, slot_duration=0.0, rounds_l=0)
        paths = {v.path for v in validated(config)}
        assert {"$.n_trials", "$.slot_duration", "$.rounds_l"} <= paths

    def test_scalars_are_listed_in_field_order(self):
        config = dataclasses.replace(two_party_scenario(), seed=-1, n_trials=0, slot_duration=0.0, rounds_l=0)
        assert [v.path for v in validated(config)] == ["$.seed", "$.n_trials", "$.slot_duration", "$.rounds_l"]

    @pytest.mark.parametrize("cls, name, value", WRONG_FIELD_VALUES)
    def test_every_ranged_field_built_in_code_must_hold_its_kind_of_number(self, cls, name, value):
        spec = dict(model._ranges(cls))[name]
        low, _, message = spec["range"]
        integer = type(low) is int
        problem = message if value != value and not integer else f"must be {'an integer' if integer else 'a number'}"
        config = load_scenario(SCENARIO_DIR / "intercepted_chain.json")
        bad, path, prefix = edit_record(config, cls, lambda record: dataclasses.replace(record, **{name: value}))
        violation = Violation(path + name, prefix.format(name) + problem)
        assert validated(bad) == [violation]
        with pytest.raises(ParameterError) as info:
            model._check_arg(value, name, spec)
        assert str(info.value) == f"{name} {problem}, got {value!r}"

    def test_the_table_covers_every_ranged_dataclass(self):
        ranged = {c for c in vars(model).values() if dataclasses.is_dataclass(c) and model._ranges(c)}
        assert ranged == set(RANGED_RECORDS)

    @pytest.mark.parametrize("scenario, edit, expected", WRONG_CLASSES)
    def test_records_and_enums_of_another_class_are_one_violation(self, scenario, edit, expected):
        config = edit(load_scenario(SCENARIO_DIR / scenario))
        assert validated(config) == [Violation(path, message) for path, message in expected]

    def test_end_roles_are_listed_in_path_order(self):
        config = two_party_scenario()
        repeaters = [dataclasses.replace(n, role=NodeRole.REPEATER) for n in reversed(config.nodes)]
        assert [v.message for v in validated(dataclasses.replace(config, nodes=tuple(repeaters)))] == [
            "path endpoint 'alice' must have role 'end_node'",
            "path endpoint 'bob' must have role 'end_node'",
        ]


class TestScenarioFiles:
    @pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.json")))
    def test_shipped_scenarios_are_valid(self, name):
        config = load_scenario(SCENARIO_DIR / name)
        assert validate_scenario(config) == []

    @pytest.mark.parametrize(
        "where, expected_path",
        [
            pytest.param((), "$.extra_key", id="top_level"),
            pytest.param(("nodes", 1), "$.nodes[1].extra_key", id="node"),
            pytest.param(("nodes", 1, "memory"), "$.nodes[1].memory.extra_key", id="memory"),
            pytest.param(("quantum_links", 0), "$.quantum_links[0].extra_key", id="link"),
            pytest.param(
                ("classical_channels", "bob,relay"), "$.classical_channels['bob,relay'].extra_key", id="channel"
            ),
            pytest.param(("adversary",), "$.adversary.extra_key", id="adversary"),
        ],
    )
    def test_unknown_key_is_a_violation(self, tmp_path, where, expected_path):
        data = json.loads((SCENARIO_DIR / "intercepted_chain.json").read_text())
        record = data
        for step in where:
            record = record[step]
        record["extra_key"] = 1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(path)
        assert err.value.violations == [Violation(expected_path, "unknown key")]

    def test_unknown_crypto_profile_is_reported(self, tmp_path):
        data = json.loads((SCENARIO_DIR / "teleport_single_hop.json").read_text())
        data["nodes"][0]["crypto"] = "unregistered-algo"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(path)
        assert any("unregistered-algo" in v.message for v in err.value.violations)

    def test_multiple_problems_reported_together(self, tmp_path):
        data = json.loads((SCENARIO_DIR / "teleport_single_hop.json").read_text())
        data["mystery"] = 1
        data["protocol"] = "quantum_mesh"
        data["nodes"][1]["role"] = "router"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(path)
        assert len(err.value.violations) >= 3

    def test_a_malformed_intercept_link_is_reported_with_the_other_problems(self, tmp_path):
        data = json.loads((SCENARIO_DIR / "intercepted_chain.json").read_text())
        data["n_trials"] = "x"
        data["adversary"]["intercept_link"] = "nocomma"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(path)
        assert err.value.violations == [
            Violation("$.n_trials", "expected an integer, got str"),
            Violation("$.adversary.intercept_link", "must name a link as 'a,b'"),
        ]

    def test_intercept_link_is_read_in_pair_key_order(self, tmp_path):
        data = json.loads((SCENARIO_DIR / "intercepted_chain.json").read_text())
        assert data["adversary"]["intercept_link"] == "alice,relay"
        data["adversary"]["intercept_link"] = "relay,alice"
        path = tmp_path / "reversed.json"
        path.write_text(json.dumps(data))
        assert load_scenario(path) == load_scenario(SCENARIO_DIR / "intercepted_chain.json")

    def test_malformed_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioValidationError):
            load_scenario(path)


class TestPathsAndEditing:
    def test_pair_key_is_order_insensitive(self):
        assert pair_key("b", "a") == pair_key("a", "b") == "a,b"

    def test_receiver_orientation_is_stable_under_permutation(self):
        config = two_party_scenario()
        assert resolve_path(config) == ["alice", "bob"]
        flipped = dataclasses.replace(config, nodes=(config.nodes[1], config.nodes[0]))
        assert resolve_path(flipped) == ["alice", "bob"]

    def test_chain_path_order(self):
        config = chain_scenario([(0.001, 0.001), (0.001, 0.001)])
        assert resolve_path(config) == ["alice", "r1", "r2", "bob"]

    @pytest.mark.parametrize(
        "edit, expected",
        [
            pytest.param(_edit_endpoints(("alice", "ghost")),
                         [("$.quantum_links[0].endpoints", "link references unknown node id 'ghost'")], id="ghost"),
            pytest.param(lambda c: dataclasses.replace(c, quantum_links=c.quantum_links * 2),
                         [("$.quantum_links[1].endpoints", "duplicate quantum link 'alice,bob'")], id="doubled-link"),
        ],
    )
    def test_a_path_over_unknown_or_doubled_links_is_refused_with_every_violation(self, edit, expected):
        assert validated(edit(two_party_scenario())) == [Violation(path, message) for path, message in expected]

    @pytest.mark.parametrize("field", ["nodes", "quantum_links"])
    def test_a_list_is_refused_before_its_walk_is_kept(self, field):
        # A walk kept for a list would go stale when the list changed: r1's t_coh would still read 0.02.
        config = load_scenario(SCENARIO_DIR / "repeater_chain.json")
        listed = dataclasses.replace(config, **{field: list(getattr(config, field))})
        assert validated(listed) == [Violation(f"$.{field}", "must be of type tuple, got list")]
        assert "_chain" not in vars(listed)

    def test_set_config_value_scalar(self):
        config = two_party_scenario()
        updated = set_config_value(config, "slot_duration", 0.5)
        assert updated.slot_duration == 0.5
        assert config.slot_duration != 0.5  # original untouched

    def test_set_config_value_nested(self):
        config = chain_scenario([(0.001, 0.002)])
        updated = set_config_value(config, "nodes.1.crypto.t_encrypt", 0.42)
        assert updated.nodes[1].crypto.t_encrypt == 0.42
        updated = set_config_value(config, "quantum_links.0.p_success", 0.25)
        assert updated.quantum_links[0].p_success == 0.25
        key = pair_key("r1", "bob")
        updated = set_config_value(config, f"classical_channels.{key}.propagation_delay", 0.009)
        assert updated.classical_channels[key].propagation_delay == 0.009

    def test_set_config_value_bad_paths_name_the_path(self):
        config = two_party_scenario()
        for bad in ("nodes.0.nickname", "nodes.9.memory.t_coh", "protocol", "nodes.0.id"):
            with pytest.raises(ParameterError, match=bad.split(".")[-1]):
                set_config_value(config, bad, 1.0)
        # A negative index must not splice the tuple: on 4 nodes, -1 gave 8 nodes and -3 edited r1.
        chain = chain_scenario([(0.001, 0.001), (0.001, 0.001)])
        for index in ("-1", "-3", "-4", "+1"):
            with pytest.raises(ParameterError, match="bad index"):
                set_config_value(chain, f"nodes.{index}.memory.t_coh", 1.0)
        for value in (math.inf, math.nan, 1.5):
            with pytest.raises(ParameterError, match="rounds_l' addresses an integer field"):
                set_config_value(config, "rounds_l", value)
        with pytest.raises(ParameterError, match="slot_duration"):
            set_config_value(config, "slot_duration", "0.5")
        with pytest.raises(ParameterError, match="slot_duration"):
            set_config_value(config, "slot_duration", 10**400)


# The shipped files, scenarios built by tests/scenario_builders.py, and a chain whose adversary's t_pqc is 1e308,
# so that a t_eve near the float range overflows the sum.
BASES = {
    **{p.stem: lambda p=p: load_scenario(p) for p in sorted(SCENARIO_DIR.glob("*.json"))},
    "two_party_rounds": lambda: two_party_scenario(protocol=Protocol.SEQUENTIAL_ROUNDS, rounds_l=3),
    "chain_document": lambda: parse_scenario(chain_document(3), default_registry()),
    "chain_large_t_pqc": lambda: chain_scenario(
        [(0.001, 0.001)] * 2, adversary=model.AdversaryConfig(0.004, 1e308, 0.003, "alice,r1")
    ),
}


@functools.cache
def passed_base(name: str):
    """``BASES[name]``, built once, holding a pass."""
    return model._require_valid(BASES[name]())


def numeric_leaves(obj, prefix=""):
    """``(parameter path, declared range)`` of each numeric field under ``obj``, as ``set_config_value`` takes it."""
    if dataclasses.is_dataclass(obj):
        ranges = dict(model._ranges(type(obj)))
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if model._is_number(value):
                yield prefix + f.name, ranges[f.name]["range"]
            else:
                yield from numeric_leaves(value, f"{prefix}{f.name}.")
    elif isinstance(obj, (tuple, dict)):
        for key, item in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from numeric_leaves(item, f"{prefix}{key}.")


def values_in_and_around(low, high):
    """Values in the range ``[low, high]``, on and past its bounds, and those no range holds."""
    odd = [0, 0.0, -0.0, -1, -1.0, 1.5, INF, -INF, NAN, 10**400, -(10**400), 2**64, sys.float_info.max, 5e-324]
    if type(low) is int:
        inside = st.integers(low, None if high == INF else high)
        edges = [low, low - 1, high, *([high + 1] if high != INF else []), float(low), low + 0.5]
    else:
        inside = st.floats(low, high)
        edges = [low, high, math.nextafter(low, -INF), math.nextafter(high, INF)]
    return inside | st.sampled_from(edges + odd) | st.floats() | st.integers()


@st.composite
def one_leaf_edited(draw):
    name = draw(st.sampled_from(sorted(BASES)))
    path, (low, high, _) = draw(st.sampled_from(list(numeric_leaves(passed_base(name)))))
    return name, path, draw(values_in_and_around(low, high))


def same_records(a, b) -> bool:
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


class TestSweepRowInherits:
    """A ``set_config_value`` copy of a scenario that holds a pass carries the pass exactly when it is valid, with
    the parent's walk and the rebuilt record in place; any other copy is validated in full where it is read."""

    @settings(max_examples=400, deadline=None)
    @given(edit=one_leaf_edited())
    @example(edit=("chain_large_t_pqc", "adversary.t_eve", 1e308))
    @example(edit=("chain_large_t_pqc", "adversary.t_eve", sys.float_info.max))
    @example(edit=("repeater_chain", "nodes.1.memory.t_coh", -1.0))
    @example(edit=("repeater_chain", "nodes.1.memory.t_coh", 0.5))
    @example(edit=("repeater_chain", "nodes.2.crypto.t_encrypt", 1e-4))
    @example(edit=("repeater_chain", "quantum_links.1.p_success", 0.5))
    @example(edit=("repeater_chain", "quantum_links.1.base_fidelity", 0.2))
    @example(edit=("repeater_chain", "seed", 2**64))
    def test_a_copy_carries_a_pass_exactly_when_it_is_valid(self, edit):
        name, path, value = edit
        try:
            row = set_config_value(passed_base(name), path, value)
        except ParameterError:
            return  # a value its field cannot hold: inf, NaN, a fraction in an integer field, an int past a float
        expected = validate_scenario(dataclasses.replace(row))  # an equal copy, with nothing cached
        assert ("_valid_channels" in vars(row)) == (expected == [])
        if expected:
            with pytest.raises(ScenarioValidationError) as refused:
                model._require_valid(row)
            assert refused.value.violations == expected
            return
        assert vars(row)["_valid_channels"] == row.classical_channels
        assert vars(row)["_valid_channels"] is not row.classical_channels
        nodes, links, found = vars(row)["_chain"]
        walked_nodes, walked_links, walked_found = model._walk(row)
        assert same_records(nodes, walked_nodes) and same_records(links, walked_links) and found == walked_found

    def test_a_copy_of_a_scenario_that_never_passed_is_validated_in_full(self):
        parent = set_config_value(load_scenario(SCENARIO_DIR / "repeater_chain.json"), "nodes.1.memory.t_coh", -1.0)
        row = set_config_value(parent, "slot_duration", 0.002)
        assert "_valid_channels" not in vars(row)
        with pytest.raises(ScenarioValidationError) as refused:
            model._require_valid(row)
        assert [(v.path, v.message) for v in refused.value.violations] == [
            ("$.nodes[1].memory.t_coh", "node 'r1': t_coh must be finite and > 0")
        ]

    def test_a_copy_of_a_scenario_whose_channels_changed_in_place_is_validated_in_full(self):
        parent = model._require_valid(load_scenario(SCENARIO_DIR / "repeater_chain.json"))
        parent.classical_channels["bob,r1"] = model.ClassicalChannelSpec(-1.0, 0.0)
        row = set_config_value(parent, "slot_duration", 0.002)
        assert "_valid_channels" not in vars(row)
        with pytest.raises(ScenarioValidationError) as refused:
            model._require_valid(row)
        assert [(v.path, v.message) for v in refused.value.violations] == [
            ("$.classical_channels['bob,r1'].propagation_delay", "must be finite and >= 0")
        ]


DELETE = object()
BOB_RELAY = "$.classical_channels['bob,relay']"
CHANNEL = {"propagation_delay": 0.0003, "processing_delay": 0.0001}

# One-field mutations of scenarios/intercepted_chain.json: (where, new value or
# DELETE, expected violation paths, expected messages or None). Messages are
# pinned only where they are part of the contract; paths are pinned always.
MALFORMED = [
    # a wrong JSON type for each kind of field
    pytest.param(("slot_duration",), "0.001", ["$.slot_duration"], ["expected a number, got str"], id="number-str"),
    pytest.param(("nodes", 1, "memory", "t_coh"), True, ["$.nodes[1].memory.t_coh"],
                 ["expected a number, got bool"], id="number-bool"),
    pytest.param(("quantum_links", 0, "p_success"), "0.5", ["$.quantum_links[0].p_success"],
                 ["expected a number, got str"], id="link-number"),
    pytest.param(("classical_channels", "bob,relay", "propagation_delay"), None,
                 [f"{BOB_RELAY}.propagation_delay"], ["expected a number, got NoneType"], id="channel-number"),
    pytest.param(("adversary", "t_eve"), [], ["$.adversary.t_eve"], ["expected a number, got list"],
                 id="adversary-number"),
    pytest.param(("seed",), 1.5, ["$.seed"], ["expected an integer, got float"], id="int-float"),
    pytest.param(("n_trials",), True, ["$.n_trials"], ["expected an integer, got bool"], id="int-bool"),
    pytest.param(("rounds_l",), "1", ["$.rounds_l"], ["expected an integer, got str"], id="int-str"),
    pytest.param(("nodes", 0, "id"), 7, ["$.nodes[0].id"], None, id="string-int"),
    pytest.param(("nodes", 0, "id"), "", ["$.nodes[0].id"], None, id="string-empty"),
    pytest.param(("nodes", 0, "id"), "al,ice", ["$.nodes[0].id"], ["node id 'al,ice' must not contain a comma"],
                 id="string-comma"),
    pytest.param(("nodes", 0, "crypto"), 5, ["$.nodes[0].crypto"], None, id="crypto-int"),
    pytest.param(("adversary", "intercept_link"), 3, ["$.adversary.intercept_link"], None, id="intercept-int"),
    pytest.param(("protocol",), "mesh", ["$.protocol"],
                 ["must be one of ['single_hop', 'parallel_chain', 'sequential_rounds'], got 'mesh'"], id="enum"),
    pytest.param(("protocol",), None, ["$.protocol"],
                 ["must be one of ['single_hop', 'parallel_chain', 'sequential_rounds'], got None"], id="enum-null"),
    pytest.param(("nodes", 1, "role"), "router", ["$.nodes[1].role"], None, id="enum-role"),
    pytest.param(("nodes", 1, "memory", "tier"), 3, ["$.nodes[1].memory.tier"], None, id="enum-tier"),
    pytest.param(("nodes", 1), "relay", ["$.nodes[1]"], None, id="object-node"),
    pytest.param(("nodes", 1, "memory"), 0.03, ["$.nodes[1].memory"], None, id="object-memory"),
    pytest.param(("quantum_links", 0), [], ["$.quantum_links[0]"], None, id="object-link"),
    pytest.param(("classical_channels", "bob,relay"), 1, [BOB_RELAY], None, id="object-channel"),
    pytest.param(("adversary",), "eve", ["$.adversary"], None, id="object-adversary"),
    pytest.param(("classical_channels",), [], ["$.classical_channels"], None, id="object-channels"),
    pytest.param(("nodes",), {}, ["$.nodes"], None, id="list-nodes"),
    pytest.param(("quantum_links",), "x", ["$.quantum_links"], None, id="list-links"),
    pytest.param(("quantum_links", 0, "endpoints"), ["alice"], ["$.quantum_links[0].endpoints"],
                 ["must be a list of two node ids"], id="endpoints-short"),
    pytest.param(("quantum_links", 0, "endpoints"), "alice,relay", ["$.quantum_links[0].endpoints"],
                 ["must be a list of two node ids"], id="endpoints-str"),
    pytest.param(("quantum_links", 0, "endpoints"), ["alice", 3], ["$.quantum_links[0].endpoints"],
                 ["must be a list of two node ids"], id="endpoints-int"),
    # a missing field, and null or a list where an object belongs
    pytest.param(("slot_duration",), DELETE, ["$.slot_duration"], None, id="missing-number"),
    pytest.param(("seed",), DELETE, ["$.seed"], None, id="missing-int"),
    pytest.param(("protocol",), DELETE, ["$.protocol"], None, id="missing-enum"),
    pytest.param(("nodes",), DELETE, ["$.nodes"], None, id="missing-list"),
    pytest.param(("nodes", 0, "memory"), DELETE, ["$.nodes[0].memory"], None, id="missing-object"),
    pytest.param(("nodes", 2, "crypto"), DELETE, ["$.nodes[2].crypto"], None, id="missing-crypto"),
    pytest.param(("quantum_links", 1, "base_fidelity"), DELETE, ["$.quantum_links[1].base_fidelity"], None,
                 id="missing-link-number"),
    pytest.param(("adversary", "t_pqc"), DELETE, ["$.adversary.t_pqc"], None, id="missing-adversary-number"),
    pytest.param(("classical_channels",), DELETE, ["$.classical_channels"], None, id="missing-channels"),
    pytest.param(("classical_channels",), None, ["$.classical_channels"], None, id="null-channels"),
    pytest.param(("nodes", 0, "memory"), None, ["$.nodes[0].memory"], None, id="null-memory"),
    pytest.param(("nodes", 2), None, ["$.nodes[2]"], None, id="null-node"),
    pytest.param(("adversary",), [], ["$.adversary"], None, id="list-adversary"),
    # bad pair keys, a duplicate channel and an unknown profile
    pytest.param(("classical_channels",), {"bob": CHANNEL}, ["$.classical_channels['bob']"],
                 ["key must name two distinct node ids joined by a comma"], id="pair-key-one-id"),
    pytest.param(("classical_channels",), {"bob,bob": CHANNEL}, ["$.classical_channels['bob,bob']"],
                 ["key must name two distinct node ids joined by a comma"], id="pair-key-same-id"),
    pytest.param(("adversary", "intercept_link"), "alice-relay", ["$.adversary.intercept_link"],
                 ["must name a link as 'a,b'"], id="intercept-not-a-pair"),
    pytest.param(("classical_channels",), {"bob,relay": CHANNEL, "relay,bob": CHANNEL},
                 ["$.classical_channels['relay,bob']"], ["duplicate channel for this node pair"], id="duplicate-channel"),
    pytest.param(("nodes", 2, "crypto"), "nope", ["$.nodes[2].crypto"], ["unknown crypto profile 'nope'"],
                 id="unknown-profile"),
]


def edited_scenario(edits):
    """scenarios/intercepted_chain.json with each ``(where, value)`` edit applied.

    A value of DELETE removes the key; an index one past the end of a list appends.
    """
    data = json.loads((SCENARIO_DIR / "intercepted_chain.json").read_text())
    for where, value in edits:
        record = data
        for step in where[:-1]:
            record = record[step]
        if value is DELETE:
            del record[where[-1]]
        elif isinstance(record, list) and where[-1] == len(record):
            record.append(value)
        else:
            record[where[-1]] = value
    return data


class TestMalformedInput:
    @pytest.mark.parametrize("where, value, paths, messages", MALFORMED)
    def test_one_field_mutation_exits_two_at_its_path(self, tmp_path, capsys, where, value, paths, messages):
        from pqnetsim.cli import main

        path = tmp_path / "bad.json"
        path.write_text(json.dumps(edited_scenario([(where, value)])))
        assert main(["check", str(path)]) == 2
        violations = json.loads(capsys.readouterr().out)["violations"]
        assert [v["path"] for v in violations] == paths
        if messages is not None:
            assert [v["message"] for v in violations] == messages

    @pytest.mark.parametrize(
        "old, new, key",
        [
            pytest.param('"seed": 424242,', '"seed": 1, "seed": 424242,', "seed", id="top-level"),
            pytest.param('"id": "relay",', '"id": "relay", "id": "relay",', "id", id="node"),
            pytest.param('"t_coh": 0.03,', '"t_coh": 0.03, "t_coh": 0.03,', "t_coh", id="memory"),
            pytest.param('"relay"], "gen_rate": 1000.0,', '"relay"], "gen_rate": 1000.0, "p_success": 0.0001,',
                         "p_success", id="link"),
            pytest.param('"bob,relay": {', '"bob,relay": {}, "bob,relay": {', "bob,relay", id="channel-pair"),
            pytest.param('"t_eve": 0.004,', '"t_eve": 0.004, "t_eve": 0.5,', "t_eve", id="adversary"),
        ],
    )
    def test_duplicate_key_exits_two_and_names_it(self, tmp_path, capsys, old, new, key):
        from pqnetsim.cli import main

        text = (SCENARIO_DIR / "intercepted_chain.json").read_text()
        assert text.count(old) == 1
        path = tmp_path / "bad.json"
        path.write_text(text.replace(old, new))
        assert main(["check", str(path)]) == 2
        assert json.loads(capsys.readouterr().out)["violations"] == [
            {"path": "$", "message": f"not valid JSON: duplicate key {key!r}"}
        ]

    def test_duplicate_key_in_a_registry_exits_two_and_names_it(self, tmp_path, capsys):
        from pqnetsim.cli import main

        path = tmp_path / "profiles.json"
        path.write_text(json.dumps(DOCUMENTS["registry"][:1]).replace('"kind":', '"name": "other", "kind":'))
        assert main(["--profiles", str(path), "profiles"]) == 2
        assert capsys.readouterr().err == f"error: cannot read profile registry {path}: duplicate key 'name'\n"


# The shipped scenarios and the shipped registry, as the JSON documents a user writes.
DOCUMENTS = {p.name: json.loads(p.read_text()) for p in sorted(SCENARIO_DIR.glob("*.json"))}
DOCUMENTS["registry"] = [
    {**dataclasses.asdict(p), "kind": p.kind.value} for p in default_registry().profiles()
]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


def subtree_paths(node, prefix=()):
    """The path of every subtree of a JSON document, the document itself included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from subtree_paths(child, (*prefix, key))


def replaced(name, where, value):
    """``DOCUMENTS[name]`` with its part at ``where`` replaced by ``value``; the root is the whole document."""
    if not where:
        return value
    document = copy.deepcopy(DOCUMENTS[name])
    record = document
    for step in where[:-1]:
        record = record[step]
    record[where[-1]] = value
    return document


@st.composite
def one_part_replaced(draw):
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    where = draw(st.sampled_from(list(subtree_paths(DOCUMENTS[name]))))
    return name, where, draw(JSON_VALUES)


class TestParserFuzz:
    @settings(max_examples=300, deadline=None)
    @given(mutation=one_part_replaced())
    @example(mutation=("repeater_chain.json", ("slot_duration",), 10**400))
    @example(mutation=("intercepted_chain.json", ("adversary", "t_coh_eve"), 10**400))
    @example(mutation=("registry", (2, "t_encrypt"), 10**400))
    def test_replacing_any_part_parses_or_fails_as_bad_input(self, tmp_path_factory, mutation):
        name, where, value = mutation
        document = replaced(name, where, value)
        # A result or bad input (ScenarioValidationError is a ParameterError); any other exception fails.
        try:
            if name == "registry":
                path = tmp_path_factory.getbasetemp() / "fuzzed_profiles.json"
                path.write_text(json.dumps(document))
                load_registry(path)
            else:
                validate_scenario(parse_scenario(document, default_registry()))
        except ParameterError:
            pass


class TestValidScenarios:
    """The shipped scenarios and a generated chain, whose zero ``processing_delay`` sits on a lower bound."""

    @pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.json")))
    def test_shipped_scenarios(self, name):
        assert validate_scenario(load_scenario(SCENARIO_DIR / name)) == []

    def test_generated_1200_repeater_chain(self, tmp_path):
        path = tmp_path / "long_chain.json"
        path.write_text(json.dumps(chain_document(1200)))
        config = load_scenario(path)
        assert len(config.quantum_links) == 1201
        assert validate_scenario(config) == []


def model_and_reference(path):
    """The outcome of ``load_scenario`` then ``validate_scenario``, and of the reference readers.

    An outcome is the parse violations, or the config's ``repr`` (which tells
    ``1`` from ``1.0`` and ``True``) with the validation violations.
    """
    def outcome(parse, validate):
        try:
            config = parse()
        except ScenarioValidationError as err:
            return "parse", err.violations
        return "validate", repr(config), validate(config)

    actual = outcome(lambda: load_scenario(path), validate_scenario)
    reference = outcome(lambda: reference_parse_scenario(model._read_json(path), default_registry()),
                        reference_violations)
    return actual, reference


def registry_outcome(load, path):
    """The profiles ``load`` reads from ``path``, or the type and message of what it raises."""
    try:
        return repr(load(path).profiles())
    except Exception as exc:
        return type(exc), str(exc)


NUMBERS = [0, 1, -1, 2**64, 2**1024, -(10**400), 0.0, -0.0, 0.5, 1.0, 1.5, 1e308, NAN, INF, -INF]
VALUES = [*NUMBERS, True, False, None, "", "x", "alice", "bob,relay", "relay,bob", [], ["alice", "bob"], {}]


def edited(document, where, edit):
    """A copy of ``document`` with ``edit`` applied to its part at ``where``."""
    copied = copy.deepcopy(document)
    record = copied
    for step in where:
        record = record[step]
    edit(record)
    return copied


def one_field_edits(document):
    """Each one-field edit of a JSON document, as ``(label, edited copy)``.

    Every part takes each of VALUES, and every object loses each key and gains an unknown one.
    """
    for where in list(subtree_paths(document))[1:]:
        for value in VALUES:
            yield f"{where}={value!r}", edited(document, where[:-1], lambda r: r.__setitem__(where[-1], value))
    for where in subtree_paths(document):
        record = document
        for step in where:
            record = record[step]
        if isinstance(record, dict):
            for key in record:
                yield f"{where} without {key!r}", edited(document, where, lambda r: r.pop(key))
            yield f"{where} with an extra key", edited(document, where, lambda r: r.__setitem__("extra", 1.0))


def one_field_mutations(document):
    """Each one-field edit of a scenario document, as ``(label, edited copy)``.

    The edits of :func:`one_field_edits`; besides, pair keys and
    ``intercept_link`` are reversed, and a node id, a link and a channel are
    duplicated.
    """
    yield from one_field_edits(document)
    for key in document["classical_channels"]:
        reverse = ",".join(reversed(key.split(",")))
        yield f"channel {key!r} reversed", edited(document, ("classical_channels",),
                                                  lambda r: r.__setitem__(reverse, r.pop(key)))
        yield f"channel {key!r} twice", edited(document, ("classical_channels",),
                                               lambda r: r.__setitem__(reverse, r[key]))
    if document.get("adversary"):
        link = document["adversary"]["intercept_link"]
        yield "intercept_link reversed", edited(document, ("adversary",), lambda r: r.__setitem__(
            "intercept_link", ",".join(reversed(link.split(",")))))
    for i, node in enumerate(document["nodes"][1:], 1):
        yield f"node {i} takes node 0's id", edited(document, ("nodes", i),
                                                    lambda r: r.__setitem__("id", document["nodes"][0]["id"]))
    for i, link in enumerate(document["quantum_links"]):
        yield f"link {i} twice", edited(document, ("quantum_links",), lambda r: r.append(copy.deepcopy(link)))


class TestReferenceDifferential:
    """The readers and validation give the reference's config, or its violations in its order."""

    @pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.json")))
    def test_one_field_mutations_of_shipped_scenarios(self, tmp_path, name):
        path = tmp_path / name
        mismatches = []
        count = 0
        for label, document in one_field_mutations(DOCUMENTS[name]):
            path.write_text(json.dumps(document))
            actual, reference = model_and_reference(path)
            count += 1
            if actual != reference:
                mismatches.append((label, actual, reference))
        assert count > 500
        assert mismatches == []

    @settings(max_examples=300, deadline=None)
    @given(mutation=one_part_replaced())
    def test_replacing_any_part(self, tmp_path_factory, mutation):
        name, where, value = mutation
        assume(name != "registry" and where)  # a replaced root is refused before either reader runs
        path = tmp_path_factory.getbasetemp() / "fuzzed_scenario.json"
        path.write_text(json.dumps(replaced(name, where, value)))
        actual, reference = model_and_reference(path)
        assert actual == reference

    def test_one_field_edits_of_the_shipped_registry(self, tmp_path):
        path = tmp_path / "profiles.json"
        mismatches = []
        count = 0
        for label, document in one_field_edits(DOCUMENTS["registry"]):
            path.write_text(json.dumps(document))
            actual = registry_outcome(load_registry, path)
            reference = registry_outcome(reference_load_registry, path)
            count += 1
            if actual != reference:
                mismatches.append((label, actual, reference))
        assert count > 900
        assert mismatches == []


# ---------------------------------------------------------------------------
# Range and topology violations, pinned through `check`
# ---------------------------------------------------------------------------

ALICE_RELAY = "link 'alice,relay'"
RELAY_NODE = {"id": "relay", "role": "repeater", "memory": {"t_coh": 0.03, "tier": "short_lived"},
              "crypto": "dilithium-class"}
CAROL = {**RELAY_NODE, "id": "carol", "role": "end_node"}


def _range_rows(where, path, message, bad_values, types=()):
    """One table row per bad value of a range-checked field; ``types`` are values the parser rejects."""
    rows = [pytest.param([(where, v)], [(path, message)], id=f"{path}={v!r}") for v in bad_values]
    rows += [pytest.param([(where, v)], [(path, f"expected an integer, got {type(v).__name__}")],
                          id=f"{path}={v!r}") for v in types]
    return rows


def _links(*pairs):
    return [{"endpoints": list(pair), "gen_rate": 1000.0, "p_success": 0.5, "base_fidelity": 0.95} for pair in pairs]


CHAIN_NODES = json.loads((SCENARIO_DIR / "intercepted_chain.json").read_text())["nodes"]
CHAIN_LINKS = _links(("alice", "relay"), ("relay", "bob"))
ISLAND = [{**RELAY_NODE, "id": node_id} for node_id in ("x", "y", "z")]

# Edits of scenarios/intercepted_chain.json (where, new value), and the exact
# violations `check` reports for them, in order.
VALIDATION_TABLE = [
    *_range_rows(("nodes", 1, "memory", "t_coh"), "$.nodes[1].memory.t_coh",
                 "node 'relay': t_coh must be finite and > 0", [NAN, INF, -1, 0]),
    *_range_rows(("quantum_links", 0, "gen_rate"), "$.quantum_links[0].gen_rate",
                 f"{ALICE_RELAY}: gen_rate must be finite and > 0", [NAN, INF, -1, 0]),
    *_range_rows(("quantum_links", 0, "p_success"), "$.quantum_links[0].p_success",
                 f"{ALICE_RELAY}: p_success must be in (0, 1]", [NAN, INF, -1, 0, 1.5]),
    *_range_rows(("quantum_links", 0, "base_fidelity"), "$.quantum_links[0].base_fidelity",
                 f"{ALICE_RELAY}: base_fidelity must be in [0.25, 1]", [NAN, INF, -1, 0.2]),
    *_range_rows(("classical_channels", "bob,relay", "propagation_delay"), f"{BOB_RELAY}.propagation_delay",
                 "must be finite and >= 0", [NAN, INF, -1]),
    *_range_rows(("classical_channels", "bob,relay", "processing_delay"), f"{BOB_RELAY}.processing_delay",
                 "must be finite and >= 0", [NAN, INF, -1]),
    *_range_rows(("adversary", "t_eve"), "$.adversary.t_eve", "must be finite and >= 0", [NAN, INF, -1]),
    *_range_rows(("adversary", "t_pqc"), "$.adversary.t_pqc", "must be finite and >= 0", [NAN, INF, -1]),
    *_range_rows(("adversary", "t_coh_eve"), "$.adversary.t_coh_eve", "must be finite and > 0", [NAN, INF, -1, 0]),
    *_range_rows(("seed",), "$.seed", "must fit in an unsigned 64-bit integer", [-1, 2**64], [NAN, INF]),
    *_range_rows(("n_trials",), "$.n_trials", "must be >= 1", [-1, 0], [NAN, INF]),
    *_range_rows(("slot_duration",), "$.slot_duration", "must be finite and > 0", [NAN, INF, -1, 0]),
    *_range_rows(("rounds_l",), "$.rounds_l", "must be in [1, 1000000]", [-1, 0, 10**6 + 1, 10**20], [NAN, INF]),
    pytest.param([(("nodes", 3), CAROL)], [("$.nodes", "node 'carol' is not attached to any quantum link")],
                 id="node-without-link"),
    pytest.param([(("nodes", 3), CAROL), (("quantum_links",), [*CHAIN_LINKS, *_links(("relay", "carol"))])],
                 [("$.quantum_links", "node 'relay' has degree 3; links must form a path"),
                  ("$.quantum_links", "links must form a simple path with exactly two endpoints")],
                 id="degree-three"),
    pytest.param([(("nodes",), [*CHAIN_NODES, *ISLAND]),
                  (("quantum_links",), [*CHAIN_LINKS, *_links(("x", "y"), ("y", "z"), ("z", "x"))])],
                 [("$.quantum_links", "links must form one connected path (no cycles or islands)")],
                 id="cycle-and-island"),
    pytest.param([(("nodes",), [*CHAIN_NODES, *ISLAND[:2]]),
                  (("quantum_links",), [*CHAIN_LINKS, *_links(("relay", "x"), ("x", "y"), ("y", "relay"))])],
                 [("$.quantum_links", "node 'relay' has degree 4; links must form a path")],
                 id="loop-on-interior-node"),
    pytest.param([(("quantum_links",), [*CHAIN_LINKS, *_links(("bob", "alice"))])],
                 [("$.quantum_links", "links must form a simple path with exactly two endpoints")],
                 id="cycle"),
    pytest.param([(("nodes", 1, "role"), "end_node")],
                 [("$.nodes", "interior node 'relay' must not have role 'end_node'")], id="end-node-interior"),
    pytest.param([(("nodes", 0, "role"), "repeater")],
                 [("$.nodes", "path endpoint 'alice' must have role 'end_node'")], id="repeater-at-end"),
    pytest.param([(("classical_channels",), {})],
                 [("$.classical_channels", "missing classical channel for message pair 'bob,relay'")],
                 id="missing-message-channel"),
    pytest.param([(("nodes", 3), RELAY_NODE)], [("$.nodes[3].id", "duplicate node id 'relay'")],
                 id="duplicate-interior-id"),
    # Of duplicate ids the first wins: the later 'relay' is no end node on the path.
    pytest.param([(("nodes", 3), {**RELAY_NODE, "role": "end_node"})], [("$.nodes[3].id", "duplicate node id 'relay'")],
                 id="duplicate-interior-id-first-wins"),
    pytest.param([(("nodes", 3), {**RELAY_NODE, "id": "alice"})],
                 [("$.nodes[3].id", "duplicate node id 'alice'"),
                  ("$.quantum_links", "links must form a simple path with exactly two endpoints")],
                 id="duplicate-end-id"),
]




class TestValidationTable:
    @pytest.mark.parametrize("edits, expected", VALIDATION_TABLE)
    def test_check_reports_exact_violations(self, tmp_path, capsys, edits, expected):
        from pqnetsim.cli import main

        path = tmp_path / "bad.json"
        path.write_text(json.dumps(edited_scenario(edits)))
        assert main(["check", str(path)]) == 2
        violations = json.loads(capsys.readouterr().out)["violations"]
        assert [(v["path"], v["message"]) for v in violations] == expected

    def test_registry_ranges_through_profiles(self, tmp_path, capsys):
        from pqnetsim.cli import main

        good = {"name": "ok", "kind": "kem", "t_encrypt": 0.0, "t_decrypt": 0.0, "public_key_bytes": 0,
                "ciphertext_or_sig_bytes": 0, "claimed_security_bits": 0}
        bad_sizes = {**good, "name": "sizes", "public_key_bytes": -1, "ciphertext_or_sig_bytes": -5,
                     "claimed_security_bits": -128}
        bad_latencies = {**good, "name": "latencies", "t_encrypt": NAN, "t_decrypt": -1e-9}
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps([good, bad_sizes, {**good, "name": "inf", "t_decrypt": INF}, bad_latencies]))
        assert main(["--profiles", str(path), "profiles"]) == 2
        assert capsys.readouterr().err == (
            "error: [1].public_key_bytes (profile 'sizes'): must be >= 0; "
            "[1].ciphertext_or_sig_bytes (profile 'sizes'): must be >= 0; "
            "[1].claimed_security_bits (profile 'sizes'): must be >= 0; "
            "[2].t_decrypt (profile 'inf'): must be finite and >= 0; "
            "[3].t_encrypt (profile 'latencies'): must be finite and >= 0; "
            "[3].t_decrypt (profile 'latencies'): must be finite and >= 0\n"
        )

    def test_profile_ranges_in_a_built_scenario(self):
        config = two_party_scenario()
        bad = dataclasses.replace(config.nodes[1].crypto, t_decrypt=NAN, ciphertext_or_sig_bytes=-1)
        nodes = (config.nodes[0], dataclasses.replace(config.nodes[1], crypto=bad))
        assert validated(dataclasses.replace(config, nodes=nodes)) == [
            Violation("$.nodes[1].crypto.t_decrypt", "profile 'receiver-profile': must be finite and >= 0"),
            Violation("$.nodes[1].crypto.ciphertext_or_sig_bytes", "profile 'receiver-profile': must be >= 0"),
        ]

    def test_library_entry_points_keep_their_messages(self):
        from pqnetsim import AdversaryConfig, HopTiming
        from pqnetsim.adversary import attack_outcome, intercepted_fidelity

        cases = [
            (lambda: HopTiming(-1.0, 0.0, 0.0), "HopTiming.t_encrypt must be finite and >= 0, got -1.0"),
            (lambda: HopTiming(0.0, INF, 0.0), "HopTiming.t_comm must be finite and >= 0, got inf"),
            (lambda: HopTiming(0.0, 0.0, NAN), "HopTiming.t_decrypt must be finite and >= 0, got nan"),
            (lambda: HopTiming(0.0, "1", -1.0), "HopTiming.t_comm must be a number, got '1'"),
            (lambda: attack_outcome(AdversaryConfig(-1.0, 0.0, 1.0, "a,b")),
             "adversary t_eve must be finite and >= 0, got -1.0"),
            (lambda: attack_outcome(AdversaryConfig(0.0, NAN, 1.0, "a,b")),
             "adversary t_pqc must be finite and >= 0, got nan"),
            (lambda: intercepted_fidelity(0.9, AdversaryConfig(0.0, 0.0, 0.0, "a,b")),
             "adversary t_coh_eve must be finite and > 0, got 0.0"),
            (lambda: intercepted_fidelity(0.9, AdversaryConfig(INF, 0.0, -1.0, "a,b")),
             "adversary t_eve must be finite and >= 0, got inf"),
        ]
        for call, message in cases:
            with pytest.raises(ParameterError) as info:
                call()
            assert str(info.value) == message


def range_text(low, high):
    """A declared range as README writes it: ``> 0`` or ``>= low``, then ``finite``, ``<= high`` or nothing."""
    def number(x):
        return str(int(x)) if x == int(x) else repr(x)

    parts = ["> 0" if low == math.ulp(0.0) else f">= {number(low)}"]
    if high == sys.float_info.max:
        parts.append("finite")
    elif high != math.inf:
        parts.append(f"<= {number(high)}")
    return ", ".join(parts)


def test_readme_lists_every_declared_range():
    from pqnetsim import model
    from pqnetsim.engine import TrialOutcome
    from pqnetsim.timing import HopTiming

    classes = [c for c in vars(model).values() if dataclasses.is_dataclass(c)] + [HopTiming, TrialOutcome]
    declared = [
        f"* `{cls.__name__}.{name}`: {range_text(*spec['range'][:2])}"
        for cls in classes
        for name, spec in model._ranges(cls)
    ]
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    listed = re.findall(r"^\* `[A-Za-z]+\.\w+`: .*$", readme, flags=re.MULTILINE)
    assert sorted(listed) == sorted(declared)

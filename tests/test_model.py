"""Domain model: security helper, registry, scenario parsing and validation."""

import copy
import dataclasses
import json
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from pqnetsim import (
    CryptoKind,
    CryptoProfile,
    CryptoRegistry,
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
    set_config_value,
    validate_scenario,
)
from pqnetsim.model import parse_scenario, resolve_path
from pqnetsim.timing import scenario_timings

from scenario_builders import chain_scenario, two_party_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


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

    def test_negative_bits_rejected(self):
        from pqnetsim import effective_security

        with pytest.raises(ParameterError):
            effective_security(-1, SecurityFamily.PQC)


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
        with pytest.raises(ParameterError, match=r"^\[0\]: unknown profile key\(s\): \['speed'\]$"):
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


class TestValidateScenario:
    def test_well_formed_chain_has_no_violations(self):
        config = chain_scenario([(0.001, 0.002)], dec_end=0.001, t_coh_end=0.01)
        assert validate_scenario(config) == []

    def test_out_of_range_fidelity_names_link(self):
        config = chain_scenario([(0.001, 0.002)], base_fidelity=[0.95, 1.2])
        violations = validate_scenario(config)
        assert len(violations) == 1
        assert "base_fidelity" in violations[0].path
        assert "bob,r1" in violations[0].message

    def test_unknown_node_reference(self):
        config = two_party_scenario()
        bad_link = dataclasses.replace(config.quantum_links[0], endpoints=("alice", "ghost"))
        config = dataclasses.replace(config, quantum_links=(bad_link,))
        violations = validate_scenario(config)
        assert any("ghost" in v.message for v in violations)

    def test_violation_set_is_permutation_invariant(self):
        config = chain_scenario([(0.001, 0.002), (0.001, 0.002)], base_fidelity=[1.5, 0.95, 0.2])
        baseline = sorted(v.message for v in validate_scenario(config))
        rng = random.Random(3)
        for _ in range(5):
            nodes = list(config.nodes)
            links = list(config.quantum_links)
            rng.shuffle(nodes)
            rng.shuffle(links)
            permuted = dataclasses.replace(config, nodes=tuple(nodes), quantum_links=tuple(links))
            assert sorted(v.message for v in validate_scenario(permuted)) == baseline
            assert sorted(v.message for v in validate_scenario(permuted)) == sorted(
                v.message for v in validate_scenario(permuted)
            )

    def test_missing_message_channel_flagged(self):
        config = chain_scenario([(0.001, 0.002)])
        config = dataclasses.replace(config, classical_channels={})
        violations = validate_scenario(config)
        assert any("classical channel" in v.message for v in violations)

    def test_parallel_chain_needs_two_links(self):
        config = two_party_scenario(protocol=Protocol.PARALLEL_CHAIN)
        violations = validate_scenario(config)
        assert any("at least two links" in v.message for v in violations)

    def test_single_hop_needs_exactly_one_link(self):
        config = chain_scenario([(0.001, 0.002)])
        config = dataclasses.replace(config, protocol=Protocol.SINGLE_HOP)
        violations = validate_scenario(config)
        assert any("exactly one quantum link" in v.message for v in violations)

    def test_adversary_link_must_exist(self):
        from pqnetsim import AdversaryConfig

        config = two_party_scenario(
            adversary=AdversaryConfig(t_eve=0.0, t_pqc=0.0, t_coh_eve=1.0, intercept_link="alice,ghost")
        )
        violations = validate_scenario(config)
        assert any("intercept_link" in v.path for v in violations)

    def test_bad_scalars_flagged(self):
        config = two_party_scenario()
        config = dataclasses.replace(config, n_trials=0, slot_duration=0.0, rounds_l=0)
        paths = {v.path for v in validate_scenario(config)}
        assert {"$.n_trials", "$.slot_duration", "$.rounds_l"} <= paths


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

    def test_link_to_unknown_node_is_a_parameter_error(self):
        config = two_party_scenario()
        ghost_link = dataclasses.replace(config.quantum_links[0], endpoints=("alice", "ghost"))
        config = dataclasses.replace(config, quantum_links=(ghost_link,))
        for call in (resolve_path, scenario_timings):
            with pytest.raises(ParameterError, match="ghost"):
                call(config)

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


class TestMalformedInput:
    @pytest.mark.parametrize("where, value, paths, messages", MALFORMED)
    def test_one_field_mutation_exits_two_at_its_path(self, tmp_path, capsys, where, value, paths, messages):
        from pqnetsim.cli import main

        data = json.loads((SCENARIO_DIR / "intercepted_chain.json").read_text())
        record = data
        for step in where[:-1]:
            record = record[step]
        if value is DELETE:
            del record[where[-1]]
        else:
            record[where[-1]] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["check", str(path)]) == 2
        violations = json.loads(capsys.readouterr().out)["violations"]
        assert [v["path"] for v in violations] == paths
        if messages is not None:
            assert [v["message"] for v in violations] == messages


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
        if not where:
            document = value
        else:
            document = copy.deepcopy(DOCUMENTS[name])
            record = document
            for step in where[:-1]:
                record = record[step]
            record[where[-1]] = value
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

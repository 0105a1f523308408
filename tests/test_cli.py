"""Command-line interface: exit codes, artifacts, reproducibility."""

import contextlib
import csv
import dataclasses
import gc
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from pqnetsim import (
    DetectionReport,
    HopTiming,
    ParameterError,
    cli,
    engine,
    load_registry,
    load_scenario,
    model,
    timing,
    validate_scenario,
)
from pqnetsim.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"


def write_profiles(tmp_path: Path, enc: float, dec: float) -> Path:
    profiles = [
        {
            "name": "test-sender",
            "kind": "signature",
            "t_encrypt": enc,
            "t_decrypt": 0.0,
            "public_key_bytes": 32,
            "ciphertext_or_sig_bytes": 64,
            "claimed_security_bits": 128,
        },
        {
            "name": "test-receiver",
            "kind": "signature",
            "t_encrypt": 0.0,
            "t_decrypt": dec,
            "public_key_bytes": 32,
            "ciphertext_or_sig_bytes": 64,
            "claimed_security_bits": 128,
        },
    ]
    path = tmp_path / "profiles.json"
    path.write_text(json.dumps(profiles))
    return path


def scenario_dict(
    comm: float = 0.002,
    t_coh: float = 0.01,
    p_success: float = 1.0,
    protocol: str = "single_hop",
    seed: int = 5,
    n_trials: int = 4,
):
    return {
        "nodes": [
            {
                "id": "alice",
                "role": "end_node",
                "memory": {"t_coh": 1.0, "tier": "short_lived"},
                "crypto": "test-sender",
            },
            {
                "id": "bob",
                "role": "end_node",
                "memory": {"t_coh": t_coh, "tier": "short_lived"},
                "crypto": "test-receiver",
            },
        ],
        "quantum_links": [
            {"endpoints": ["alice", "bob"], "gen_rate": 1000.0, "p_success": p_success, "base_fidelity": 0.95}
        ],
        "classical_channels": {"alice,bob": {"propagation_delay": comm, "processing_delay": 0.0}},
        "protocol": protocol,
        "seed": seed,
        "n_trials": n_trials,
        "slot_duration": 0.001,
    }


def write_scenario(tmp_path: Path, data: dict, name: str = "scenario.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def zero_spread_scenario(tmp_path: Path) -> Path:
    """``intercepted_chain.json`` with every ``p_success`` 1.0: every baseline trial has the same QBER."""
    data = json.loads((SCENARIO_DIR / "intercepted_chain.json").read_text())
    for link in data["quantum_links"]:
        link["p_success"] = 1.0
    return write_scenario(tmp_path, data, "zero_spread.json")


def strict_json(text: str):
    """``text`` read as RFC 8259 JSON: the ``NaN``, ``Infinity`` and ``-Infinity`` that ``json`` accepts are refused."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


# `check` stdout for each shipped scenario, captured before the CLI writers
# were derived from the dataclasses; any change to these bytes is a change
# to the output contract.
CHECK_STDOUT = {
    "intercepted_chain.json": (
        '{\n  "binding_index": 0,\n  "feasible": true,\n  "protocol": "parallel_chain",\n  "slack": 0.09944\n}\n'
    ),
    "purification_rounds.json": (
        '{\n  "binding_index": null,\n  "feasible": true,\n  "protocol": "sequential_rounds",\n'
        '  "slack": 0.005600000000000001\n}\n'
    ),
    "repeater_chain.json": (
        '{\n  "binding_index": 0,\n  "feasible": true,\n  "protocol": "parallel_chain",\n'
        '  "slack": 0.09824000000000001\n}\n'
    ),
    "teleport_single_hop.json": (
        '{\n  "binding_index": null,\n  "feasible": true,\n  "protocol": "single_hop",\n'
        '  "slack": 0.049640000000000004\n}\n'
    ),
}

# `profiles` stdout for the shipped registry, in both formats.
PROFILES_JSON_STDOUT = """\
[
  {
    "ciphertext_or_sig_bytes": 768,
    "claimed_security_bits": 128,
    "illustrative": true,
    "kind": "kem",
    "name": "kyber512-class",
    "public_key_bytes": 800,
    "t_decrypt": 6e-05,
    "t_encrypt": 5e-05
  },
  {
    "ciphertext_or_sig_bytes": 21632,
    "claimed_security_bits": 256,
    "illustrative": true,
    "kind": "kem",
    "name": "frodo1344-class",
    "public_key_bytes": 21520,
    "t_decrypt": 0.0014,
    "t_encrypt": 0.0012
  },
  {
    "ciphertext_or_sig_bytes": 2420,
    "claimed_security_bits": 128,
    "illustrative": true,
    "kind": "signature",
    "name": "dilithium-class",
    "public_key_bytes": 1312,
    "t_decrypt": 4e-05,
    "t_encrypt": 0.00012
  },
  {
    "ciphertext_or_sig_bytes": 7856,
    "claimed_security_bits": 128,
    "illustrative": true,
    "kind": "signature",
    "name": "sphincs-class",
    "public_key_bytes": 32,
    "t_decrypt": 0.0002,
    "t_encrypt": 0.004
  }
]
"""

PROFILES_CSV_STDOUT = """\
name,kind,t_encrypt,t_decrypt,public_key_bytes,ciphertext_or_sig_bytes,claimed_security_bits,illustrative
kyber512-class,kem,5e-05,6e-05,800,768,128,true
frodo1344-class,kem,0.0012,0.0014,21520,21632,256,true
dilithium-class,signature,0.00012,4e-05,1312,2420,128,true
sphincs-class,signature,0.004,0.0002,32,7856,128,true
"""


class TestCheck:
    @pytest.mark.parametrize("name", sorted(CHECK_STDOUT))
    def test_shipped_scenario_stdout_is_pinned(self, name, capsys):
        code = main(["check", str(SCENARIO_DIR / name)])
        assert code == 0
        assert capsys.readouterr().out == CHECK_STDOUT[name]

    def test_feasible_scenario_exits_zero(self, capsys):
        code = main(["check", str(SCENARIO_DIR / "teleport_single_hop.json")])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["feasible"] is True and payload["slack"] > 0

    def test_exact_boundary_exits_one(self, tmp_path, capsys):
        enc, comm, dec = 0.001, 0.002, 0.001
        boundary = timing.hop_total(HopTiming(enc, comm, dec))
        profiles = write_profiles(tmp_path, enc, dec)
        scenario = write_scenario(tmp_path, scenario_dict(comm=comm, t_coh=boundary))
        code = main(["--profiles", str(profiles), "check", str(scenario)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["feasible"] is False and payload["slack"] == 0.0

    def test_unknown_key_exits_two_with_violations(self, tmp_path, capsys):
        data = scenario_dict()
        data["qauntum_links_typo"] = []
        profiles = write_profiles(tmp_path, 0.001, 0.001)
        scenario = write_scenario(tmp_path, data)
        code = main(["--profiles", str(profiles), "check", str(scenario)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 2
        assert any("qauntum_links_typo" in v["path"] for v in payload["violations"])

    @pytest.mark.parametrize(
        "name, argv, channel",
        [
            pytest.param("repeater_chain.json", ["simulate", "--trials", "50"], [], id="chain"),
            pytest.param("teleport_single_hop.json", ["check"], [
                {"path": "$.classical_channels['al,ice,bob']",
                 "message": "key must name two distinct node ids joined by a comma"}], id="single-hop"),
        ],
    )
    def test_a_node_id_with_a_comma_exits_two_at_the_id(self, tmp_path, capsys, name, argv, channel):
        # Node pairs are written "a,b": an id with a comma would make pair keys that no reader can split.
        text = (SCENARIO_DIR / name).read_text().replace('"alice"', '"al,ice"').replace('"alice,', '"al,ice,')
        scenario = tmp_path / name
        scenario.write_text(text)
        assert main(["--out", str(tmp_path / "out"), *argv, str(scenario)]) == 2
        assert json.loads(capsys.readouterr().out)["violations"] == [
            {"path": "$.nodes[0].id", "message": "node id 'al,ice' must not contain a comma"}, *channel]
        assert not (tmp_path / "out").exists()

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.json")]) == 2

    def test_deeply_nested_json_exits_two(self, tmp_path, capsys):
        scenario = tmp_path / "nested.json"
        scenario.write_text("[" * 100_000 + "]" * 100_000)
        code = main(["check", str(scenario)])
        captured = capsys.readouterr()
        assert code == 2
        assert "Traceback" not in captured.err
        assert json.loads(captured.out)["violations"] == [
            {"path": "$", "message": "JSON nested too deeply to decode"}
        ]

    @staticmethod
    def argv_with_long_integer(tmp_path: Path, target: str, digits: int) -> list[str]:
        """`check` on a scenario, or `profiles` on a registry, in which one number is a `digits`-digit integer."""
        profiles = write_profiles(tmp_path, 0.001, 0.001)
        scenario = write_scenario(tmp_path, scenario_dict())
        if target == "scenario":
            path, data = scenario, json.loads(scenario.read_text())
            data["slot_duration"] = "LONG"
            argv = ["check", str(scenario)]
        else:
            path, data = profiles, json.loads(profiles.read_text())
            data[1]["t_encrypt"] = "LONG"
            argv = ["profiles"]
        path.write_text(json.dumps(data).replace('"LONG"', "9" * digits))
        return ["--profiles", str(profiles), *argv]

    @pytest.mark.parametrize(
        "target, expected",
        [
            pytest.param("scenario", "$.slot_duration: integer too large for a float", id="scenario"),
            pytest.param(
                "registry", "error: [1].t_encrypt (profile 'test-receiver'): integer too large for a float", id="registry"
            ),
        ],
    )
    def test_integer_too_large_for_a_float_exits_two(self, tmp_path, capsys, target, expected):
        assert main(self.argv_with_long_integer(tmp_path, target, 401)) == 2
        captured = capsys.readouterr()
        if target == "scenario":
            violations = json.loads(captured.out)["violations"]
            assert [f"{v['path']}: {v['message']}" for v in violations] == [expected]
        else:
            assert captured.out == ""
            assert captured.err == expected + "\n"

    @pytest.mark.parametrize("target", ["scenario", "registry"])
    def test_integer_past_the_decoders_digit_limit_exits_two(self, tmp_path, capsys, target):
        # Python refuses to convert integer literals of more than 4300 digits.
        assert main(self.argv_with_long_integer(tmp_path, target, 5000)) == 2
        captured = capsys.readouterr()
        if target == "scenario":
            [violation] = json.loads(captured.out)["violations"]
            assert violation["path"] == "$" and violation["message"].startswith("not valid JSON: ")
        else:
            assert captured.out == ""
            assert captured.err.startswith(f"error: cannot read profile registry {tmp_path / 'profiles.json'}: ")


class TestSimulate:
    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        profiles = write_profiles(tmp_path, 0.001, 0.001)
        scenario = write_scenario(tmp_path, scenario_dict(p_success=0.5, n_trials=200))
        for out in ("run_a", "run_b"):
            code = main(
                [
                    "--profiles",
                    str(profiles),
                    "--out",
                    str(tmp_path / out),
                    "simulate",
                    str(scenario),
                ]
            )
            assert code == 0
        capsys.readouterr()
        a = tmp_path / "run_a"
        b = tmp_path / "run_b"
        assert (a / "trials.csv").read_bytes() == (b / "trials.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_single_trial_yields_one_row(self, tmp_path, capsys):
        profiles = write_profiles(tmp_path, 0.001, 0.001)
        scenario = write_scenario(tmp_path, scenario_dict())
        code = main(
            [
                "--profiles",
                str(profiles),
                "--out",
                str(tmp_path / "single"),
                "simulate",
                str(scenario),
                "--trials",
                "1",
            ]
        )
        capsys.readouterr()
        assert code == 0
        rows = (tmp_path / "single" / "trials.csv").read_text().splitlines()
        assert rows[0] == "trial_index,success,failure_reason,slots_used,t_dist_s,f_end"
        assert len(rows) == 2

    def test_deterministic_scenario_matches_check_verdict(self, tmp_path, capsys):
        profiles = write_profiles(tmp_path, 0.001, 0.001)
        for t_coh, expected_check in ((0.02, 0), (0.003, 1)):
            scenario = write_scenario(tmp_path, scenario_dict(t_coh=t_coh), name=f"s{t_coh}.json")
            check_code = main(["--profiles", str(profiles), "check", str(scenario)])
            assert check_code == expected_check
            out = tmp_path / f"out{t_coh}"
            sim_code = main(
                ["--profiles", str(profiles), "--out", str(out), "simulate", str(scenario)]
            )
            assert sim_code == 0
            summary = json.loads((out / "summary.json").read_text())
            assert summary["success_rate"] == (1.0 if expected_check == 0 else 0.0)
        capsys.readouterr()

    def test_seed_flag_overrides_scenario_seed(self, tmp_path, capsys):
        profiles = write_profiles(tmp_path, 0.001, 0.001)
        scenario = write_scenario(tmp_path, scenario_dict(p_success=0.5, n_trials=100))
        main(["--profiles", str(profiles), "--out", str(tmp_path / "x"), "simulate", str(scenario)])
        main(
            [
                "--profiles",
                str(profiles),
                "--out",
                str(tmp_path / "y"),
                "simulate",
                str(scenario),
                "--seed",
                "999",
            ]
        )
        capsys.readouterr()
        assert (tmp_path / "x" / "trials.csv").read_bytes() != (tmp_path / "y" / "trials.csv").read_bytes()

    def test_zero_slot_budget_exits_two(self, tmp_path, capsys):
        profiles = write_profiles(tmp_path, enc=0.001, dec=0.001)
        scenario = write_scenario(tmp_path, scenario_dict())
        argv = ["--profiles", str(profiles), "--out", str(tmp_path / "out"), "simulate", str(scenario)]
        assert main(argv + ["--max-slots", "0"]) == 2
        assert capsys.readouterr().err == "error: max_slots must be in [1, 4503599627370496], got 0\n"

    def test_internal_error_exits_three_with_one_line(self, tmp_path, capsys, monkeypatch):
        def broken_run_trials(*args, **kwargs):
            raise RuntimeError("engine state corrupted\nsecond line")

        monkeypatch.setattr(engine, "run_trials", broken_run_trials)
        profiles = write_profiles(tmp_path, enc=0.001, dec=0.001)
        scenario = write_scenario(tmp_path, scenario_dict())
        code = main(["--profiles", str(profiles), "--out", str(tmp_path / "out"), "simulate", str(scenario)])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: engine state corrupted second line\n"

    def test_unwritable_output_dir_exits_two(self, tmp_path, capsys):
        profiles = write_profiles(tmp_path, 0.001, 0.001)
        scenario = write_scenario(tmp_path, scenario_dict())
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = main(
            [
                "--profiles",
                str(profiles),
                "--out",
                str(blocker / "sub"),
                "simulate",
                str(scenario),
            ]
        )
        capsys.readouterr()
        assert code == 2


class TestAdversaryCommand:
    def test_intercepted_scenario_is_flagged(self, tmp_path, capsys):
        out = tmp_path / "adv"
        code = main(
            [
                "--out",
                str(out),
                "adversary",
                str(SCENARIO_DIR / "intercepted_chain.json"),
                "--baseline-trials",
                "400",
                "--observed-trials",
                "200",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["flagged"] is True
        assert payload["observed_mean_qber"] > payload["baseline_mean_qber"]
        samples = (out / "samples.csv").read_text().splitlines()
        assert samples[0] == "side,sample_index,qber"
        assert len(samples) > 100

    def test_zero_delay_adversary_is_not_flagged(self, tmp_path, capsys):
        data = json.loads((SCENARIO_DIR / "intercepted_chain.json").read_text())
        data["adversary"]["t_eve"] = 0.0
        data["adversary"]["t_pqc"] = 0.0
        scenario = write_scenario(tmp_path, data)
        code = main(
            [
                "--out",
                str(tmp_path / "adv0"),
                "adversary",
                str(scenario),
                "--baseline-trials",
                "400",
                "--observed-trials",
                "200",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["flagged"] is False

    def test_scenario_without_adversary_exits_two(self, capsys):
        code = main(["adversary", str(SCENARIO_DIR / "teleport_single_hop.json")])
        capsys.readouterr()
        assert code == 2

    def test_valid_scenario_without_adversary_names_the_missing_block_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "fresh"
        assert main(["--out", str(out), "adversary", str(SCENARIO_DIR / "repeater_chain.json")]) == 2
        assert capsys.readouterr() == ("", "error: scenario has no adversary block; nothing to detect\n")
        assert not out.exists()

    def test_invalid_scenario_without_adversary_prints_its_violations_and_writes_nothing(self, tmp_path, capsys):
        # Validation comes before the adversary block is looked for, as simulate reports the same file.
        data = json.loads((SCENARIO_DIR / "repeater_chain.json").read_text())
        data["nodes"][0]["memory"]["t_coh"] = -1
        scenario = write_scenario(tmp_path, data)
        out = tmp_path / "fresh"
        assert main(["--out", str(out), "adversary", str(scenario)]) == 2
        stdout, stderr = capsys.readouterr()
        assert json.loads(stdout) == {
            "violations": [{"path": "$.nodes[0].memory.t_coh", "message": "node 'alice': t_coh must be finite and > 0"}]
        }
        assert stderr == ""
        assert not out.exists()


class TestKmsCommand:
    def test_full_mesh_rows(self, tmp_path, capsys):
        out = tmp_path / "kms"
        code = main(["--out", str(out), "kms", "--nodes", "4", "10"])
        capsys.readouterr()
        assert code == 0
        rows = list(csv.DictReader((out / "kms.csv").read_text().splitlines()))
        assert rows[0]["n"] == "4" and rows[0]["handshakes"] == "6"
        assert rows[1]["n"] == "10" and rows[1]["handshakes"] == "45"

    def test_hierarchical_requires_cluster_size(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "kms", "--nodes", "10", "--mode", "hierarchical"])
        capsys.readouterr()
        assert code == 2

    def test_hierarchical_row(self, tmp_path, capsys):
        out = tmp_path / "kms"
        code = main(
            [
                "--out",
                str(out),
                "kms",
                "--nodes",
                "1000",
                "--mode",
                "hierarchical",
                "--cluster-size",
                "10",
            ]
        )
        capsys.readouterr()
        assert code == 0
        rows = list(csv.DictReader((out / "kms.csv").read_text().splitlines()))
        assert rows[0]["handshakes"] == "5850"

    def test_network_past_the_size_cap_exits_two(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "kms", "--nodes", str(10**200)])
        assert code == 2
        assert capsys.readouterr().err == "error: n must be in [2, 1000000000], got an integer of 665 bits\n"

    def test_cluster_size_in_full_mesh_mode_exits_two(self, tmp_path, capsys):
        out = tmp_path / "kms"
        argv = ["--out", str(out), "kms", "--nodes", "10", "100", "--mode", "full_mesh", "--cluster-size", "7"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: --cluster-size applies only to --mode hierarchical\n"
        assert not out.exists()

    def test_overflowing_cycle_time_exits_two_and_writes_nothing(self, tmp_path, capsys):
        argv = ["kms", "--nodes", "10", "--handshake-time", "1e308", "--auth-time", "1e308"]
        assert main(["--out", str(tmp_path), *argv]) == 2
        assert capsys.readouterr().err == "error: rekey cycle time must be finite and >= 0, got inf\n"
        assert not (tmp_path / "kms.csv").exists()


class TestSweepCommand:
    def test_single_point_sweep_matches_simulate(self, tmp_path, capsys):
        profiles = write_profiles(tmp_path, 0.001, 0.001)
        scenario = write_scenario(tmp_path, scenario_dict(p_success=0.5, n_trials=300))
        sim_out = tmp_path / "sim"
        main(["--profiles", str(profiles), "--out", str(sim_out), "simulate", str(scenario)])
        sweep_out = tmp_path / "sweep"
        code = main(
            [
                "--profiles",
                str(profiles),
                "--out",
                str(sweep_out),
                "sweep",
                str(scenario),
                "--param",
                "nodes.1.memory.t_coh",
                "--values",
                "0.01",
            ]
        )
        capsys.readouterr()
        assert code == 0
        summary = json.loads((sim_out / "summary.json").read_text())
        rows = list(csv.DictReader((sweep_out / "sweep.csv").read_text().splitlines()))
        assert len(rows) == 1
        assert float(rows[0]["success_rate"]) == summary["success_rate"]
        assert rows[0]["param"] == "nodes.1.memory.t_coh"

    def test_channel_pair_in_either_order_sweeps_the_same_channel(self, tmp_path, capsys):
        written = []
        for pair in ("bob,r1", "r1,bob"):
            param = f"classical_channels.{pair}.propagation_delay"
            out = tmp_path / pair
            argv = ["--out", str(out), "sweep", str(SCENARIO_DIR / "repeater_chain.json"),
                    "--param", param, "--values", "0.0004,0.09", "--trials", "50"]
            assert main(argv) == 0
            # The param column echoes --param as given; every other byte must match.
            written.append((out / "sweep.csv").read_text().replace(param, "PARAM"))
        capsys.readouterr()
        assert written[0] == written[1]
        assert "PARAM" in written[0]

    def test_bad_param_path_exits_two(self, tmp_path, capsys):
        profiles = write_profiles(tmp_path, 0.001, 0.001)
        scenario = write_scenario(tmp_path, scenario_dict())
        code = main(
            [
                "--profiles",
                str(profiles),
                "--out",
                str(tmp_path / "s"),
                "sweep",
                str(scenario),
                "--param",
                "nodes.7.memory.t_coh",
                "--values",
                "0.1,0.2",
            ]
        )
        capsys.readouterr()
        assert code == 2


class TestProfilesCommand:
    def test_lists_default_registry_as_json(self, capsys):
        code = main(["profiles"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == PROFILES_JSON_STDOUT
        payload = json.loads(out)
        names = {p["name"] for p in payload}
        assert {"kyber512-class", "frodo1344-class", "dilithium-class", "sphincs-class"} <= names
        assert all(p["illustrative"] for p in payload)

    def test_csv_output_has_header(self, capsys):
        code = main(["profiles", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0].startswith("name,kind,t_encrypt")
        assert out == PROFILES_CSV_STDOUT

    def test_json_output_is_a_registry_that_prints_the_same_bytes(self, tmp_path, capsys):
        registry = tmp_path / "profiles.json"
        registry.write_text(PROFILES_JSON_STDOUT)
        for fmt in ("json", "csv"):
            assert main(["--profiles", str(registry), "profiles", "--format", fmt]) == 0
            assert capsys.readouterr().out == (PROFILES_JSON_STDOUT if fmt == "json" else PROFILES_CSV_STDOUT)

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["--format", "csv", "check", str(SCENARIO_DIR / "teleport_single_hop.json")], id="global"),
            pytest.param(["check", str(SCENARIO_DIR / "teleport_single_hop.json"), "--format", "csv"], id="check"),
            pytest.param(["--format", "csv", "profiles"], id="before-profiles"),
        ],
    )
    def test_format_is_an_option_of_profiles_only(self, argv, capsys):
        # No other command has a choice of stdout format, so none accepts the flag.
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert capsys.readouterr().out == ""

    def test_custom_registry_file(self, tmp_path, capsys):
        profiles = write_profiles(tmp_path, 0.25, 0.5)
        code = main(["--profiles", str(profiles), "profiles"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert {p["name"] for p in payload} == {"test-sender", "test-receiver"}

    @pytest.mark.parametrize(
        "field, value, expected",
        [
            ("t_encrypt", "1e-3", "a number, got str"),
            ("t_decrypt", True, "a number, got bool"),
            ("public_key_bytes", 3.9, "an integer, got float"),
            ("illustrative", "false", "a boolean, got str"),
        ],
    )
    def test_registry_values_are_not_coerced(self, tmp_path, capsys, field, value, expected):
        profiles = write_profiles(tmp_path, 0.25, 0.5)
        payload = json.loads(profiles.read_text())
        payload[1][field] = value
        profiles.write_text(json.dumps(payload))
        message = f"[1].{field} (profile 'test-receiver'): expected {expected}"
        with pytest.raises(ParameterError) as info:
            load_registry(profiles)
        assert str(info.value) == message
        assert main(["--profiles", str(profiles), "profiles"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_deeply_nested_registry_exits_two(self, tmp_path, capsys):
        profiles = tmp_path / "nested.json"
        profiles.write_text("[" * 100_000 + "]" * 100_000)
        code = main(["--profiles", str(profiles), "profiles"])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith(f"error: cannot read profile registry {profiles}:")


class TestWritePath:
    """Every artifact goes through one write, and a write that fails is bad ``--out`` input."""

    SIMULATE = ["simulate", str(SCENARIO_DIR / "teleport_single_hop.json"), "--trials", "3"]

    def test_summary_file_holds_the_stdout_bytes(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--out", str(out), *self.SIMULATE]) == 0
        captured = capsys.readouterr()
        assert captured.err == f"wrote {out / 'trials.csv'} and {out / 'summary.json'}\n"
        assert (out / "summary.json").read_text() == captured.out

    def test_existing_write_probe_survives(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / ".write_probe").write_text("a file of the user's")
        assert main(["--out", str(out), "kms", "--nodes", "10"]) == 0
        assert capsys.readouterr().err == f"wrote {out / 'kms.csv'}\n"
        assert (out / ".write_probe").read_text() == "a file of the user's"

    @pytest.mark.parametrize("name", ["trials.csv", "summary.json"])
    def test_directory_in_an_artifacts_place_exits_two(self, tmp_path, capsys, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main(["--out", str(out), *self.SIMULATE]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out / name}: ")
        assert captured.err.count("\n") == 1 and "internal error" not in captured.err

    @pytest.mark.parametrize("name", ["trials.csv", "summary.json"])
    def test_failed_write_leaves_no_artifact_of_its_own(self, tmp_path, capsys, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main(["--out", str(out), *self.SIMULATE]) == 2
        capsys.readouterr()
        assert [p.name for p in out.iterdir()] == [name]
        assert not any((out / name).iterdir())


class TestStrictJson:
    """Every JSON document the CLI prints or writes is RFC 8259 JSON, rendered by one writer."""

    @pytest.mark.parametrize(
        "argv, code, artifact, fields",
        [
            *(pytest.param(["check", str(SCENARIO_DIR / name)], 0, None, {}, id=f"check-{name}")
              for name in sorted(CHECK_STDOUT)),
            pytest.param(["simulate", str(SCENARIO_DIR / "repeater_chain.json"), "--trials", "20"], 0,
                         "summary.json", {}, id="simulate"),
            pytest.param(["adversary", str(SCENARIO_DIR / "intercepted_chain.json"), "--baseline-trials", "20",
                          "--observed-trials", "20"], 1, "detection.json", {}, id="adversary"),
            # No baseline spread: the library's z-score is +inf, which JSON cannot hold; `flagged` carries the verdict.
            pytest.param(["adversary", zero_spread_scenario, "--baseline-trials", "5", "--observed-trials", "5"], 1,
                         "detection.json", {"flagged": True, "z_score": None}, id="adversary-zero-spread"),
            pytest.param(["profiles"], 0, None, {}, id="profiles"),
            pytest.param(["check", lambda d: write_scenario(d, {**scenario_dict(), "typo": 1})], 2, None, {},
                         id="violations"),
        ],
    )
    def test_every_document_parses_strictly(self, argv, code, artifact, fields, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [str(arg(tmp_path)) if callable(arg) else arg for arg in argv]
        assert main(["--out", str(out), *argv]) == code
        documents = [capsys.readouterr().out] + ([(out / artifact).read_text()] if artifact else [])
        for text in documents:
            document = strict_json(text)
            assert isinstance(document, list if argv[0] == "profiles" else dict)
            assert {key: document[key] for key in fields} == fields

    @pytest.mark.parametrize(
        "value, error", [(math.inf, ValueError), (-math.inf, ValueError), (math.nan, ValueError), (object(), TypeError)]
    )
    def test_the_writer_refuses_what_json_cannot_hold(self, value, error):
        with pytest.raises(error):
            cli._dump_json({"value": value})

    def test_a_non_finite_field_besides_z_score_is_an_internal_error(self, tmp_path, capsys, monkeypatch):
        # Only a z-score may be non-finite by contract, and the CLI writes it as null; any other is a fault.
        monkeypatch.setattr(cli, "detect", lambda *args: DetectionReport(math.nan, 0.1, 1.0, False, 3.0))
        out = tmp_path / "out"
        argv = ["--out", str(out), "adversary", str(SCENARIO_DIR / "intercepted_chain.json"),
                "--baseline-trials", "5", "--observed-trials", "5"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("internal error: ValueError: ")
        assert not out.exists()


class TestHorizonRule:
    """``max_slots * slot_duration`` plus the longest message wait must be a finite float."""

    @staticmethod
    def scenario(tmp_path: Path) -> str:
        data = json.loads((SCENARIO_DIR / "teleport_single_hop.json").read_text())
        data["slot_duration"] = 1e308
        data["nodes"][1]["memory"]["t_coh"] = 1.0  # bob
        return str(write_scenario(tmp_path, data))

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["simulate", "--trials", "5"], id="simulate"),
            pytest.param(["sweep", "--param", "nodes.1.memory.t_coh", "--values", "1.0", "--trials", "5"], id="sweep"),
        ],
    )
    def test_overflowing_horizon_exits_two(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(["--out", str(out), argv[0], self.scenario(tmp_path), *argv[1:]]) == 2
        message = "max_slots * slot_duration + the longest message wait must be finite, got inf"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_one_slot_horizon_runs_with_finite_times(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--out", str(out), "simulate", self.scenario(tmp_path), "--trials", "5", "--max-slots", "1"]) == 0
        capsys.readouterr()
        rows = csv.DictReader((out / "trials.csv").read_text().splitlines())
        times = [float(row["t_dist_s"]) for row in rows if row["t_dist_s"]]
        assert len(times) >= 2 and all(math.isfinite(t) for t in times)
        assert math.isfinite(json.loads((out / "summary.json").read_text())["mean_t_dist"])

    def test_message_wait_counts_toward_the_horizon(self, tmp_path, capsys):
        profiles = write_profiles(tmp_path, enc=1e308, dec=0.0)
        data = scenario_dict()
        data["slot_duration"] = 1e308
        argv = ["--profiles", str(profiles), "--out", str(tmp_path / "out"), "simulate", "--max-slots", "1"]
        assert main([*argv, str(write_scenario(tmp_path, data))]) == 2
        assert capsys.readouterr().err.startswith("error: max_slots * slot_duration + the longest message wait")


class TestValidateOnceWriteLast:
    """Each scenario is validated once per run of it, and a refused command writes nothing."""

    INTERCEPTED = str(SCENARIO_DIR / "intercepted_chain.json")
    SWEEP = ["sweep", INTERCEPTED, "--param", "slot_duration", "--values"]
    # The error line of refusals that no other test pins, by their arguments.
    ERRORS = {
        (*SWEEP, ","): "--values must contain at least one number",
        ("adversary", INTERCEPTED, "--baseline-trials", "1", "--observed-trials", "1"):
            "not enough successful trials to form QBER samples (baseline 1, observed 1); raise the trial counts",
    }

    @pytest.mark.parametrize(
        "argv, calls",
        [
            pytest.param(["check", INTERCEPTED], 1, id="check"),
            pytest.param(["simulate", INTERCEPTED, "--trials", "3"], 1, id="simulate"),
            pytest.param(
                ["adversary", INTERCEPTED, "--baseline-trials", "40", "--observed-trials", "40"], 2, id="adversary"
            ),
            # A sweep row inherits the base scenario's pass: its one new value is in range.
            pytest.param([*SWEEP, "0.001", "--trials", "3"], 1, id="sweep-1"),
            pytest.param([*SWEEP, "0.001,0.002,0.003", "--trials", "3"], 1, id="sweep-3"),
        ],
    )
    def test_validation_calls_per_command(self, tmp_path, capsys, monkeypatch, argv, calls):
        seen = []
        validate = model.validate_scenario

        def counting(config):
            seen.append(config)
            return validate(config)

        monkeypatch.setattr(model, "validate_scenario", counting)
        assert main(["--out", str(tmp_path / "out"), *argv]) in (0, 1)
        capsys.readouterr()
        assert len(seen) == calls

    @staticmethod
    def invalid_scenario(tmp_path: Path) -> str:
        data = json.loads((SCENARIO_DIR / "intercepted_chain.json").read_text())
        data["nodes"][1]["memory"]["t_coh"] = -1.0
        data["slot_duration"] = 0.0
        data["seed"] = -1  # adversary derives its stream seeds from it before any run
        return str(write_scenario(tmp_path, data, "invalid.json"))

    @staticmethod
    def overflowing(tmp_path: Path, token: str) -> list[str]:
        """Scenario arguments whose fields are all in range but whose sums overflow a float.

        ``wait:NAME`` is the shipped file NAME with every message wait past the
        float range, through a ``--profiles`` registry; ``adversary`` is
        ``intercepted_chain.json`` with ``t_eve + t_pqc`` past it; ``horizon:NAME``
        is NAME with a default slot horizon past it; ``rate:NAME`` is NAME with
        a pair rate ``p_success / slot_duration`` past it.
        """
        kind, _, name = token.partition(":")
        data = json.loads((SCENARIO_DIR / (name or "intercepted_chain.json")).read_text())
        if kind == "adversary":
            data["adversary"].update(t_eve=1e308, t_pqc=1e308)
            return [str(write_scenario(tmp_path, data))]
        if kind in ("horizon", "rate"):
            data["slot_duration"] = 1e308 if kind == "horizon" else 1e-310
            return [str(write_scenario(tmp_path, data))]
        for channel in data["classical_channels"].values():
            channel["propagation_delay"] = 1.7e308
        profiles = [{**p, "t_encrypt": 1.7e308, "t_decrypt": 1e308} for p in json.loads(PROFILES_JSON_STDOUT)]
        registry = tmp_path / "profiles.json"
        registry.write_text(json.dumps(profiles))
        return [str(write_scenario(tmp_path, data)), "--profiles", str(registry)]

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["simulate", INTERCEPTED, "--trials", "0"], id="simulate-trials"),
            pytest.param(["simulate", INTERCEPTED, "--max-slots", "0"], id="simulate-max-slots"),
            pytest.param(["simulate", INTERCEPTED, "--max-slots", "4503599627370497"], id="simulate-max-slots-cap"),
            pytest.param(["adversary", INTERCEPTED, "--baseline-trials", "0"], id="adversary-baseline-trials"),
            pytest.param([*SWEEP, "x"], id="sweep-values"),
            pytest.param(
                ["kms", "--nodes", "10", "--handshake-time", "1e308", "--auth-time", "1e308"], id="kms-overflow"
            ),
            pytest.param(["simulate", None], id="simulate-invalid-file"),
            pytest.param(["adversary", None], id="adversary-invalid-file"),
            pytest.param(["sweep", None, "--param", "slot_duration", "--values", "0.001"], id="sweep-invalid-file"),
            *[
                pytest.param([command, f"@{token}", *extra], id=f"{command}-{token.split('.')[0]}")
                for token in ("wait:teleport_single_hop.json", "wait:repeater_chain.json", "adversary")
                for command, extra in (
                    ("check", []),
                    ("simulate", ["--trials", "3"]),
                    ("sweep", ["--param", "slot_duration", "--values", "0.001", "--trials", "3"]),
                )
            ],
            pytest.param(["adversary", "@wait:intercepted_chain.json"], id="adversary-wait:intercepted_chain"),
            pytest.param(["adversary", "@adversary"], id="adversary-adversary"),
            pytest.param(["simulate", "@horizon:teleport_single_hop.json"], id="simulate-horizon"),
            pytest.param(
                ["sweep", "@horizon:repeater_chain.json", "--param", "seed", "--values", "1", "--trials", "3"],
                id="sweep-horizon",
            ),
            pytest.param(["adversary", "@horizon:intercepted_chain.json"], id="adversary-horizon"),
            pytest.param(["simulate", "@rate:teleport_single_hop.json", "--trials", "3"], id="simulate-rate"),
            pytest.param(
                ["sweep", "@rate:teleport_single_hop.json", "--param", "seed", "--values", "1", "--trials", "3"],
                id="sweep-rate",
            ),
            pytest.param(["adversary", "@rate:intercepted_chain.json"], id="adversary-rate"),
            pytest.param(["kms", "--nodes", "10", "100", "--cluster-size", "7"], id="kms-cluster-size-full-mesh"),
            *[pytest.param(list(argv), id=f"{argv[0]}-error-line") for argv in ERRORS],
        ],
    )
    def test_refused_command_leaves_no_out_dir(self, tmp_path, capsys, monkeypatch, argv):
        """A ``None`` scenario stands for an invalid file, whose full violation list must be printed;
        an ``@`` token for the arguments :meth:`overflowing` builds.  A rate past the float range is
        refused before the first trial."""
        scenario = self.invalid_scenario(tmp_path) if None in argv else None
        args = []
        for a in argv:
            args += [scenario] if a is None else self.overflowing(tmp_path, a[1:]) if a[0] == "@" else [a]
        seeds = []
        split = engine.trial_seed_for
        monkeypatch.setattr(engine, "trial_seed_for", lambda *split_args: seeds.append(split_args) or split(*split_args))
        out = tmp_path / "fresh"
        assert main(["--out", str(out), *args]) == 2
        assert not out.exists()
        if any(str(a).startswith("@rate:") for a in argv):
            assert seeds == []
        stdout, stderr = capsys.readouterr()
        assert "Infinity" not in stdout
        if tuple(argv) in self.ERRORS:
            assert stderr == f"error: {self.ERRORS[tuple(argv)]}\n"
        if scenario is not None:
            violations = json.loads(stdout)["violations"]
            expected = validate_scenario(load_scenario(scenario))
            assert len(expected) == 3
            assert violations == [{"path": v.path, "message": v.message} for v in expected]


class TestSweepRowRefusals:
    """A sweep row refused as invalid prints the violations that validating it in full gives, and writes nothing."""

    STDOUT = """{{
  "violations": [
    {{
      "message": "{message}",
      "path": "{path}"
    }}
  ]
}}
"""

    @pytest.mark.parametrize(
        "param, value, t_pqc, path, message",
        [
            pytest.param("nodes.0.memory.t_coh", "-1", None, "$.nodes[0].memory.t_coh",
                         "node 'alice': t_coh must be finite and > 0", id="t_coh"),
            pytest.param("adversary.t_eve", "1e308", 1e308, "$.adversary", "t_eve + t_pqc must be finite",
                         id="t_eve-sum"),
        ],
    )
    def test_bad_row_value_prints_its_violation_and_exits_two(self, tmp_path, capsys, param, value, t_pqc, path,
                                                              message):
        data = json.loads((SCENARIO_DIR / "intercepted_chain.json").read_text())
        if t_pqc is not None:
            data["adversary"]["t_pqc"] = t_pqc
        scenario = write_scenario(tmp_path, data)
        out = tmp_path / "out"
        argv = ["--out", str(out), "sweep", str(scenario), "--param", param, "--values", value, "--trials", "3"]
        assert main(argv) == 2
        assert capsys.readouterr() == (self.STDOUT.format(path=path, message=message), "")
        assert not out.exists()


class TestProcessExit:
    """``python -m pqnetsim.cli`` exits as an in-process ``main()`` returns, byte for byte on stdout and stderr.

    The process path adds only a flush of stdout and ``gc.freeze()`` before ``sys.exit``; ``main()`` itself
    leaves the collector alone.
    """

    CHAIN = str(SCENARIO_DIR / "repeater_chain.json")
    BROKEN = "def broken_run_trials(*args, **kwargs):\n    raise RuntimeError('engine state corrupted')\n"
    # Runs the module's ``__main__`` block as ``-m`` does, with the engine broken first: exit 3 has no other cause.
    FAULT = BROKEN + (
        "import runpy, pqnetsim.engine\n"
        "pqnetsim.engine.run_trials = broken_run_trials\n"
        "runpy.run_module('pqnetsim.cli', run_name='__main__', alter_sys=True)\n"
    )

    @pytest.mark.parametrize(
        "argv, code",
        [
            pytest.param(["check", CHAIN], 0, id="check"),
            pytest.param(["simulate", CHAIN, "--trials", "3"], 0, id="simulate"),
            pytest.param(["profiles", "--format", "csv"], 0, id="profiles-csv"),
            pytest.param(["adversary", str(SCENARIO_DIR / "intercepted_chain.json"), "--baseline-trials", "20",
                          "--observed-trials", "20"], 1, id="adversary-flagged"),
            pytest.param(["check", "missing.json"], 2, id="violations"),
            pytest.param(["simulate", CHAIN, "--max-slots", "0"], 2, id="error-line"),
            pytest.param(["simulate", CHAIN, "--trials", "3"], 3, id="internal-error"),
        ],
    )
    def test_process_exit_code_and_output_are_mains(self, argv, code, tmp_path, capsys, monkeypatch):
        argv = ["--out", "out", *argv]
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        entry = ["-c", self.FAULT] if code == 3 else ["-m", "pqnetsim.cli"]
        process = subprocess.run([sys.executable, *entry, *argv], cwd=tmp_path, env=env, capture_output=True,
                                 text=True, timeout=120)
        monkeypatch.chdir(tmp_path)
        if code == 3:
            namespace = {}
            exec(self.BROKEN, namespace)
            monkeypatch.setattr(engine, "run_trials", namespace["broken_run_trials"])
        assert main(argv) == code
        captured = capsys.readouterr()
        assert (process.returncode, process.stdout, process.stderr) == (code, captured.out, captured.err)

    def test_main_leaves_the_collector_as_it_was(self, tmp_path, capsys):
        before = gc.get_freeze_count(), gc.isenabled()
        assert main(["--out", str(tmp_path), "simulate", self.CHAIN, "--trials", "3"]) == 0
        capsys.readouterr()
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    def test_the_process_entry_freezes_after_main_then_exits_with_its_code(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 1)
        with pytest.raises(SystemExit) as info:
            cli._run_process()
        assert (info.value.code, calls) == (1, ["main", "freeze"])
        assert 'pqnetsim = "pqnetsim.cli:_run_process"' in (ROOT / "pyproject.toml").read_text()

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["profiles"], ["check", CHAIN]], ids=["profiles", "check"])
    def test_a_closed_stdout_exits_141_with_nothing_on_stderr(self, argv, unbuffered, tmp_path):
        """The reader of stdout is gone before the command writes, as in ``pqnetsim profiles | head -1``.

        Buffered, the write fails only when stdout is flushed; unbuffered, in the command's ``print``.
        """
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "PYTHONUNBUFFERED": unbuffered}
        read, write = os.pipe()
        os.close(read)
        try:
            process = subprocess.run([sys.executable, "-m", "pqnetsim.cli", *argv], cwd=tmp_path, stdout=write,
                                     stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write)
        assert (process.returncode, process.stderr) == (141, b"")

    def test_main_passes_a_broken_pipe_on(self, monkeypatch):
        def closed(args):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(cli, "cmd_profiles", closed)
        with pytest.raises(BrokenPipeError):
            main(["profiles"])


class TestRoundsCap:
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["check"], id="check"),
            pytest.param(["sweep", "--param", "rounds_l", "--values", "1e20", "--trials", "1"], id="sweep"),
        ],
    )
    def test_rounds_past_the_cap_exit_two_at_rounds_l(self, tmp_path, capsys, argv):
        data = json.loads((SCENARIO_DIR / "purification_rounds.json").read_text())
        if argv[0] == "check":
            data["rounds_l"] = 10**20
        scenario = write_scenario(tmp_path, data)
        code = main([argv[0], str(scenario), *argv[1:], "--out", str(tmp_path / "out")])
        violations = json.loads(capsys.readouterr().out)["violations"]
        assert code == 2
        assert [v["path"] for v in violations] == ["$.rounds_l"]


SHIPPED = sorted(p.name for p in SCENARIO_DIR.glob("*.json"))


def numeric_paths(value, prefix=()):
    """The ``sweep --param`` path of every numeric field under a parsed scenario."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        yield ".".join(prefix)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from numeric_paths(getattr(value, f.name), (*prefix, f.name))
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from numeric_paths(item, (*prefix, str(i)))
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from numeric_paths(item, (*prefix, key))


NUMERIC_PATHS = {name: sorted(numeric_paths(load_scenario(SCENARIO_DIR / name))) for name in SHIPPED}
SWEEP_VALUES = (
    st.floats().map(repr)
    | st.sampled_from(["1e308", "-1e308", "5e-324", "-5e-324", "1e20"])
    | st.integers(min_value=-(10**400), max_value=10**400).map(str)
)


@st.composite
def argv_vectors(draw):
    """A ``sweep`` or ``simulate`` command line on a shipped scenario, kept small in trials and slots."""
    name = draw(st.sampled_from(SHIPPED))
    scenario = str(SCENARIO_DIR / name)
    if draw(st.booleans()):
        values = ",".join(draw(st.lists(SWEEP_VALUES, min_size=1, max_size=3)))
        return ["sweep", scenario, "--param", draw(st.sampled_from(NUMERIC_PATHS[name])), f"--values={values}",
                "--trials", str(draw(st.integers(1, 3))), "--max-slots", str(draw(st.integers(1, 50)))]
    argv = ["simulate", scenario, "--trials", str(draw(st.integers(-1, 4))),
            "--max-slots", str(draw(st.integers(-1, 60)))]
    if draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(-1, 2**64)))]
    return argv


KMS_INTS = st.integers(min_value=-(10**400), max_value=10**400).map(str) | st.sampled_from(
    ["0", "1", "2", str(10**9), str(10**9 + 1)]
)
KMS_FLOATS = st.floats().map(repr) | st.sampled_from(["1e308", "5e-324", "1e20"])


@st.composite
def kms_vectors(draw):
    """A ``kms`` command line with arbitrary sizes, times and lane counts."""
    argv = ["kms", "--nodes", *draw(st.lists(KMS_INTS, min_size=1, max_size=3)),
            f"--handshake-time={draw(KMS_FLOATS)}", f"--auth-time={draw(KMS_FLOATS)}",
            f"--parallelism={draw(KMS_INTS)}"]
    if draw(st.booleans()):
        argv += ["--mode", "hierarchical", f"--cluster-size={draw(KMS_INTS)}"]
    return argv


class TestArgvFuzz:
    @settings(max_examples=120, deadline=None)
    @given(argv=argv_vectors())
    @example(argv=["sweep", str(SCENARIO_DIR / "purification_rounds.json"), "--param", "rounds_l",
                   "--values=1e20", "--trials", "1", "--max-slots", "1"])
    def test_any_command_line_exits_zero_one_or_two(self, tmp_path_factory, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([*argv, "--out", str(tmp_path_factory.getbasetemp() / "argv_fuzz")])
            except SystemExit as exc:  # argparse rejects a malformed command line with exit 2
                code = exc.code
        assert code in (0, 1, 2), err.getvalue()

    @settings(max_examples=150, deadline=None)
    @given(argv=kms_vectors())
    @example(argv=["kms", "--nodes", str(10**200)])
    @example(argv=["kms", "--nodes", "1000", "--mode", "hierarchical", f"--cluster-size={10**200}"])
    def test_any_kms_command_line_exits_zero_or_two(self, tmp_path_factory, argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(["--out", str(tmp_path_factory.getbasetemp() / "kms_fuzz"), *argv])
            except SystemExit as exc:  # argparse rejects a malformed command line with exit 2
                code = exc.code
        assert code in (0, 2), err.getvalue()

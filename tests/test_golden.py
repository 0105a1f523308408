"""Golden output digests: ``simulate`` on every shipped scenario writes pinned bytes.

Each digest is the SHA-256 of an artifact written by ``pqnetsim simulate``
at the scenario's own seed.  Speed-ups must leave every byte of
``trials.csv`` and ``summary.json`` unchanged, so any change to them fails
here.  Re-pin only for a deliberate change of engine output, and record why.
"""

import hashlib
from pathlib import Path

import pytest

from pqnetsim.cli import main

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    "intercepted_chain": {
        "trials.csv": "f5962c5eef420e5a5d10499d70dada2c531736e0c327ee2393f5c88f5817ed52",
        "summary.json": "a8cdb8c44f697172d4fc43d77eea319d59850093094e8bc9ff466501f63e8194",
    },
    "purification_rounds": {
        "trials.csv": "d949459e365ce2c4e87f0d94a38a036f34f36acde39b2a1a9e5593a63eb75d5e",
        "summary.json": "e8f9cbbea874758921deb33b195d96670e34b17bb02c3de3b8436827a3972c54",
    },
    "repeater_chain": {
        "trials.csv": "33c740afb9136ddc6cd1047275adf7c3e58a7824c3450b0dbe5937bc6e7c98e7",
        "summary.json": "2d185397d626802bd24a5ea028be89d11ad0239830208c78eb6549a69ec07dfc",
    },
    "teleport_single_hop": {
        "trials.csv": "d833ade1073ba91d2347a7f134b0391ef8043760d9a8e898d8d6e431fd68adcd",
        "summary.json": "99883d2f325f8dc7fcc41e211a763f0def1610fe4f63fd5da02784668edda3d5",
    },
}


def test_every_shipped_scenario_is_pinned():
    assert sorted(p.stem for p in SCENARIO_DIR.glob("*.json")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_simulate_artifacts_match_golden_digests(name, tmp_path, capsys):
    code = main(["--out", str(tmp_path), "simulate", str(SCENARIO_DIR / f"{name}.json")])
    capsys.readouterr()
    assert code == 0
    digests = {artifact: hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest() for artifact in GOLDEN[name]}
    assert digests == GOLDEN[name]

"""Benchmark workloads: seeded scenario generation, command passes, output checks.

Each workload is a fixed sequence of ``pqnetsim`` CLI invocations (a *pass*).
The benchmark's seed decides the generated scenario files and the ``--seed``
flags; the program receives nothing else.  The same seed always yields the
same files, so the same pass always writes the same artifact bytes.

Why these two (the layer each stresses, and the layer it bypasses, so that
an optimisation of one layer has a workload that should move and one that
should not):

* ``chain_sparse`` -- a 3-repeater chain with rare generation
  (``p_success`` 0.002, 1 ms slots, 0.5 s repeater memories) and an adversary
  on its first link; ``simulate`` then ``adversary``.  Trials run for hundreds
  of slots, so the slot loop and its expiry sweep dominate; outcomes mix
  ``memory_expired`` with successes, and ``adversary.detect`` runs.  Seed
  split, RNG setup and the CSV write are a few percent.
* ``long_chain`` -- a 1200-repeater chain with ``p_success`` 1, so every trial
  is deterministic and lasts one slot; ``check`` then a 3-value ``sweep``.
  Set-up and wide composition dominate: validation, ``scenario_timings`` and
  ``_prepare`` are quadratic in the chain length and rerun for every sweep
  row, and each trial makes thousands of ``decay``/``swap`` calls.  Seed
  split and RNG setup are negligible.

A third workload, the shipped single-hop scenario with many trials (fixed
per-trial costs: RNG setup, seed split, CSV rows), was dropped so that the
runs of these two can be longer: with three, a run had to end within about
40 s, and its medians spread too widely.  Its layers are still measured on
``chain_sparse``, where they take a few percent of the time.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import statistics
from dataclasses import dataclass
from pathlib import Path

# The seed whose artifact digests are pinned in golden.json.
DEFAULT_SEED = 1

CHAIN_REPEATERS = 3
CHAIN_SIM_TRIALS = 800
CHAIN_BASELINE_TRIALS = 400
CHAIN_OBSERVED_TRIALS = 200

LONG_REPEATERS = 1_200
LONG_SWEEP_TRIALS = 20
LONG_SWEEP_VALUES = 3

# Profiles of the shipped registry; generated scenarios draw from these.
FAST_PROFILES = ("kyber512-class", "dilithium-class")
ALL_PROFILES = ("kyber512-class", "frodo1344-class", "dilithium-class", "sphincs-class")


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a pass: its arguments, expected exit code and artifacts."""

    label: str
    argv: tuple[str, ...]
    expected_exit: int
    artifacts: tuple[str, ...]
    trials: int
    setup_argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]

    @property
    def trials(self) -> int:
        return sum(inv.trials for inv in self.invocations)


def _node(node_id: str, role: str, t_coh: float, crypto: str) -> dict:
    tier = "long_lived" if t_coh >= 0.1 else "short_lived"
    return {"id": node_id, "role": role, "memory": {"t_coh": t_coh, "tier": tier}, "crypto": crypto}


def _link(a: str, b: str, p: float, fidelity: float) -> dict:
    return {"endpoints": [a, b], "gen_rate": 1000.0, "p_success": p, "base_fidelity": fidelity}


def _channel(rng: random.Random) -> dict:
    return {
        "propagation_delay": round(rng.uniform(1e-4, 8e-4), 6),
        "processing_delay": round(rng.uniform(2e-5, 1.5e-4), 6),
    }


def _chain(rng: random.Random, n_reps: int, p: float, t_coh_rep: float, t_coh_end: float) -> dict:
    """A repeater chain ``a_end - r0001 - ... - z_end``; ``z_end`` receives."""
    width = len(str(n_reps))
    reps = [f"r{i:0{width}d}" for i in range(1, n_reps + 1)]
    ids = ["a_end", *reps, "z_end"]
    nodes = [_node("a_end", "end_node", 2.0, rng.choice(ALL_PROFILES))]
    nodes += [_node(r, "repeater", t_coh_rep, rng.choice(ALL_PROFILES)) for r in reps]
    nodes.append(_node("z_end", "end_node", t_coh_end, rng.choice(FAST_PROFILES)))
    links = [_link(a, b, p, round(rng.uniform(0.95, 0.99), 4)) for a, b in zip(ids, ids[1:])]
    channels = {f"{r},z_end": _channel(rng) for r in reps}
    return {
        "nodes": nodes,
        "quantum_links": links,
        "classical_channels": channels,
        "protocol": "parallel_chain",
        "rounds_l": 1,
        "adversary": None,
        "seed": rng.getrandbits(63),
        "n_trials": 1000,
        "slot_duration": 0.001,
    }


def chain_sparse_scenario(seed: int) -> dict:
    rng = random.Random(f"chain_sparse/{seed}")
    scenario = _chain(rng, CHAIN_REPEATERS, 0.002, 0.5, 1.0)
    # The adversary holds every pair of the first link for longer than its
    # own memory lasts, so the QBER shift is far above the 3-sigma threshold.
    scenario["adversary"] = {
        "t_eve": round(rng.uniform(0.004, 0.006), 6),
        "t_pqc": round(rng.uniform(0.002, 0.004), 6),
        "t_coh_eve": round(rng.uniform(0.002, 0.003), 6),
        "intercept_link": "a_end,r1",
    }
    return scenario


def long_chain_scenario(seed: int) -> dict:
    rng = random.Random(f"long_chain/{seed}")
    # Every message delay is below 12 ms, so the 0.1 s receiver window
    # keeps every trial feasible whatever the draws.
    return _chain(rng, LONG_REPEATERS, 1.0, 0.05, 0.1)


def long_chain_sweep_values(seed: int) -> str:
    rng = random.Random(f"long_chain/values/{seed}")
    return ",".join(repr(round(rng.uniform(0.05, 2.0), 4)) for _ in range(LONG_SWEEP_VALUES))


def build(name: str, seed: int, work: Path) -> Workload:
    """Write the workload's input files under ``work`` and describe its pass.

    Artifacts are written to ``work/out``; paths in argv are relative to the
    checkout root, where every invocation runs.
    """
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    out = str(work / "out")
    if name == "chain_sparse":
        path = inputs / "chain_sparse.json"
        _write_json(path, chain_sparse_scenario(seed))
        sim = ("--out", out, "simulate", str(path))
        adv = ("--out", out, "adversary", str(path))
        return Workload(name, (
            Invocation(label="simulate", argv=sim + ("--trials", str(CHAIN_SIM_TRIALS)), expected_exit=0,
                       artifacts=("trials.csv", "summary.json"), trials=CHAIN_SIM_TRIALS,
                       setup_argv=sim + ("--trials", "1")),
            # Exit 1 is the expected verdict: the intercepted stream is flagged.
            # detect needs successes on both sides, so the set-up pass keeps
            # 80 trials each; that still flags at z > 6 on each of seeds 0..299.
            Invocation(label="adversary",
                       argv=adv + ("--baseline-trials", str(CHAIN_BASELINE_TRIALS),
                                   "--observed-trials", str(CHAIN_OBSERVED_TRIALS)),
                       expected_exit=1, artifacts=("samples.csv", "detection.json"),
                       trials=CHAIN_BASELINE_TRIALS + CHAIN_OBSERVED_TRIALS,
                       setup_argv=adv + ("--baseline-trials", "80", "--observed-trials", "80")),
        ))
    if name == "long_chain":
        path = inputs / "long_chain.json"
        _write_json(path, long_chain_scenario(seed))
        sweep = ("--out", out, "sweep", str(path), "--param", "nodes.0.memory.t_coh",
                 "--values", long_chain_sweep_values(seed))
        check = ("--out", out, "check", str(path))
        return Workload(name, (
            Invocation(label="check", argv=check, expected_exit=0, artifacts=(), trials=0, setup_argv=check),
            Invocation(label="sweep", argv=sweep + ("--trials", str(LONG_SWEEP_TRIALS)), expected_exit=0,
                       artifacts=("sweep.csv",), trials=LONG_SWEEP_VALUES * LONG_SWEEP_TRIALS,
                       setup_argv=sweep + ("--trials", "1")),
        ))
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("chain_sparse", "long_chain")


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def digests(out: Path, names: tuple[str, ...]) -> dict[str, str]:
    return {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names}


def _read_csv(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def _check_trials(out: Path, expected_trials: int) -> list[str]:
    rows = _read_csv(out / "trials.csv")
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    problems = []
    if len(rows) != expected_trials or summary["n_trials"] != expected_trials:
        problems.append(f"trial count {len(rows)}/{summary['n_trials']} != {expected_trials}")
    if [int(r["trial_index"]) for r in rows] != list(range(len(rows))):
        problems.append("trials.csv trial_index is not 0..n-1")
    successes = sum(r["success"] == "true" for r in rows)
    if rows and summary["success_rate"] != successes / len(rows):
        problems.append(f"success_rate {summary['success_rate']} != {successes}/{len(rows)}")
    for r in rows:
        ok = r["success"] == "true"
        if ok == bool(r["failure_reason"]) or ok != bool(r["f_end"]):
            problems.append(f"inconsistent trials.csv row {r}")
            break
    return problems


def check_invocation(inv: Invocation, out: Path, stdout: str) -> list[str]:
    """Seed-independent invariants of one invocation's artifacts and stdout."""
    if inv.label == "simulate":
        return _check_trials(out, inv.trials)
    if inv.label == "adversary":
        report = json.loads((out / "detection.json").read_text(encoding="utf-8"))
        rows = _read_csv(out / "samples.csv")
        problems = [] if report["flagged"] else ["adversary was not flagged"]
        for side in ("baseline", "observed"):
            qber = [float(r["qber"]) for r in rows if r["side"] == side]
            if len(qber) < 2 or statistics.fmean(qber) != report[f"{side}_mean_qber"]:
                problems.append(f"detection.json {side}_mean_qber disagrees with samples.csv")
        return problems
    if inv.label == "check":
        verdict = json.loads(stdout)
        return [] if verdict["feasible"] and verdict["slack"] > 0 else [f"check not feasible: {verdict}"]
    if inv.label == "sweep":
        rows = _read_csv(out / "sweep.csv")
        problems = []
        if len(rows) != LONG_SWEEP_VALUES:
            problems.append(f"sweep.csv has {len(rows)} rows")
        for r in rows:
            # p_success = 1 and a feasible check: the engine must agree.
            if int(r["n_trials"]) != LONG_SWEEP_TRIALS or float(r["success_rate"]) != 1.0:
                problems.append(f"sweep row disagrees with the feasible check: {r}")
        return problems
    raise ValueError(inv.label)

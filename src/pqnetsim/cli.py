"""Command-line front end: scenario ingestion, dispatch, CSV/JSON emission.

Subcommands: ``check``, ``simulate``, ``adversary``, ``kms``, ``sweep`` and
``profiles``.  Exit codes follow a fixed taxonomy: 0 on success, 1 for a
legitimate negative verdict (timing infeasible, intrusion flagged) so
pipelines can branch without parsing JSON, 2 for malformed input, and 3 for
an internal error, a fault of the program that is never a verdict.  A
process whose stdout reader has gone exits 141 (128 + SIGPIPE, as a shell
reports it) with nothing on stderr: that is no fault of the program.

Each command parses its input, computes, then writes.  The library function
that runs a scenario validates it, and one write path creates ``--out`` just
before the first write, so a refused command leaves nothing behind; a write
that fails (``--out`` or an artifact path unusable) is bad input, exit 2, and
leaves none of the command's artifacts: they are staged, then renamed.

Every command is a pure function of its input files and flags: all
randomness flows from the scenario seed or the ``--seed`` override, outputs
are assembled in deterministic order, and re-running an invocation
reproduces identical bytes.  CSV files always start with a header row and
format numbers with shortest round-trip precision.

A process pays only for its command: a command that runs ``engine`` or
``kms`` imports it itself, and ``csv`` and ``tempfile`` load only where an
artifact is written.  The process exits through :func:`_run_process`.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import sys
from enum import Enum
from pathlib import Path

from . import model, timing
from .adversary import detect, qber_of
from .errors import ParameterError, ScenarioValidationError

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_NEGATIVE_VERDICT = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE

TRIALS_CSV_COLUMNS = ["trial_index", "success", "failure_reason", "slots_used", "t_dist_s", "f_end"]


def _fmt_cell(value) -> str:
    """Shortest round-trip formatting for CSV cells; an enum is its ``value``, absent values are empty."""
    if isinstance(value, Enum):
        value = value.value
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_field(value):
    """How JSON shows what ``json`` cannot: an enum as its ``value``, a dataclass record as ``dataclasses.asdict``."""
    if isinstance(value, Enum):
        return value.value
    return dataclasses.asdict(value)  # a TypeError for anything else


def _dump_json(data) -> str:
    """The one JSON writer: RFC 8259 text with sorted keys; a non-finite float is a ValueError, not ``Infinity``."""
    return json.dumps(data, sort_keys=True, indent=2, allow_nan=False, default=_json_field)


def _write_rows(handle, header: list[str], rows: list) -> None:
    import csv

    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt_cell(cell) for cell in row])


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", encoding="utf-8", newline="") as handle:
        _write_rows(handle, header, rows)


def _write(args, *artifacts: tuple) -> None:
    """Create ``--out`` and write each artifact: ``(name, header, rows)`` as CSV, or ``(name, text)``.

    The artifacts are staged in a temporary directory inside ``--out`` and renamed into place, in
    order, only after the last is written.  The write is its own check of ``--out``: an ``OSError``
    is bad input, reported with its path, and removes every artifact this write had put in place.
    """
    import tempfile

    path = out = Path(args.out)
    staged, placed = [], []
    try:
        out.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix=".pqnetsim-", dir=out) as staging:
            for name, *content in artifacts:
                path = out / name
                temp = Path(staging, name)
                if len(content) == 2:
                    _write_csv(temp, *content)
                else:
                    temp.write_text(content[0], encoding="utf-8")
                staged.append((temp, path))
            for temp, path in staged:
                temp.replace(path)
                placed.append(path)
    except OSError as exc:
        for done in placed:
            done.unlink(missing_ok=True)
        raise ParameterError(f"cannot write {path}: {exc}") from exc
    print("wrote " + " and ".join(str(out / name) for name, *_ in artifacts), file=sys.stderr)


def _load_registry(args) -> model.CryptoRegistry:
    if args.profiles:
        return model.load_registry(args.profiles)
    return model.default_registry()


def _load_scenario(args) -> model.ScenarioConfig:
    return model.load_scenario(args.scenario, _load_registry(args))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    config = _load_scenario(args)
    result = timing.check_scenario(config)
    print(_dump_json({**dataclasses.asdict(result), "protocol": config.protocol}))
    return EXIT_OK if result.feasible else EXIT_NEGATIVE_VERDICT


def cmd_simulate(args) -> int:
    from . import engine

    config = _load_scenario(args)
    outcomes = engine.run_trials(config, args.trials, args.seed, max_slots=args.max_slots)
    summary = _dump_json(engine.summarize(config, outcomes))
    rows = [[i, o.success, o.failure_reason, o.slots_used, o.t_dist, o.f_end] for i, o in enumerate(outcomes)]
    _write(args, ("trials.csv", TRIALS_CSV_COLUMNS, rows), ("summary.json", summary + "\n"))
    print(summary)
    return EXIT_OK


def cmd_adversary(args) -> int:
    from . import engine

    config = _load_scenario(args)
    model._require_valid(config)  # before its seed is used, so that a bad file reports every violation
    if config.adversary is None:
        raise ParameterError("scenario has no adversary block; nothing to detect")
    master = config.seed if args.seed is None else args.seed
    baseline_config = dataclasses.replace(config, adversary=None)
    observed_seed = engine.derive_stream_seed(master, "observed")
    observed = engine.run_trials(config, args.observed_trials, observed_seed, max_slots=args.max_slots)
    baseline_seed = engine.derive_stream_seed(master, "baseline")
    baseline = engine.run_trials(baseline_config, args.baseline_trials, baseline_seed, max_slots=args.max_slots)
    baseline_qber = [qber_of(o.f_end) for o in baseline if o.success]
    observed_qber = [qber_of(o.f_end) for o in observed if o.success]
    if len(baseline_qber) < 2 or len(observed_qber) < 2:
        raise ParameterError(
            "not enough successful trials to form QBER samples "
            f"(baseline {len(baseline_qber)}, observed {len(observed_qber)}); raise the trial counts"
        )

    report = detect(baseline_qber, observed_qber, args.threshold_sigma)
    # JSON has no Infinity: an infinite z-score is written as null, and ``flagged`` carries the verdict.
    detection = _dump_json(report if math.isfinite(report.z_score) else dataclasses.replace(report, z_score=None))
    rows = [["baseline", i, q] for i, q in enumerate(baseline_qber)]
    rows += [["observed", i, q] for i, q in enumerate(observed_qber)]
    _write(args, ("samples.csv", ["side", "sample_index", "qber"], rows), ("detection.json", detection + "\n"))
    print(detection)
    return EXIT_NEGATIVE_VERDICT if report.flagged else EXIT_OK


def cmd_kms(args) -> int:
    from . import kms

    hierarchical = args.mode == "hierarchical"
    if hierarchical and args.cluster_size is None:
        raise ParameterError("--cluster-size is required in hierarchical mode")
    if not hierarchical and args.cluster_size is not None:
        raise ParameterError("--cluster-size applies only to --mode hierarchical")
    rows = []
    for n in args.nodes:
        handshakes = kms.hierarchical_handshakes(n, args.cluster_size) if hierarchical else kms.full_mesh_handshakes(n)
        t_key = kms.rekey_cycle_time(handshakes, args.handshake_time, args.auth_time, args.parallelism)
        rows.append([n, args.mode, args.cluster_size, handshakes, t_key])
    _write(args, ("kms.csv", ["n", "mode", "cluster_size", "handshakes", "t_key_s"], rows))
    return EXIT_OK


def cmd_sweep(args) -> int:
    from . import engine

    config = _load_scenario(args)
    try:
        values = [float(v) for v in args.values.split(",") if v != ""]
    except ValueError as exc:
        raise ParameterError(f"--values must be a comma-separated list of numbers: {exc}") from exc
    if not values:
        raise ParameterError("--values must contain at least one number")
    summaries = engine.sweep(config, args.param, values, args.trials, args.seed, max_slots=args.max_slots)
    header = ["param", "value", "n_trials", "success_rate", "mean_t_dist_s", "f_end_mean", "f_end_min"]
    rows = [[args.param, value, s.n_trials, s.success_rate, s.mean_t_dist, s.f_end_mean, s.f_end_min]
            for value, s in summaries]
    _write(args, ("sweep.csv", header, rows))
    return EXIT_OK


def cmd_profiles(args) -> int:
    profiles = _load_registry(args).profiles()
    if args.format == "csv":
        header = [f.name for f in dataclasses.fields(model.CryptoProfile)]
        _write_rows(sys.stdout, header, [dataclasses.astuple(p) for p in profiles])
    else:
        print(_dump_json(profiles))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def _seed_type(text: str) -> int:
    try:
        return model._check_arg(int(text), "seed", model._SEED)
    except ParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_global_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    """Global flags, accepted both before and after the subcommand.

    The subcommand-position copies default to SUPPRESS so they only override
    the top-level values when actually given.
    """

    def dflt(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument(
        "--seed", type=_seed_type, default=dflt(None), help="override the scenario's master seed"
    )
    parser.add_argument(
        "--out", default=dflt("."), help="directory for written artifacts (default: current dir)"
    )
    parser.add_argument(
        "--profiles", default=dflt(None), help="crypto-profile registry JSON (default: shipped profiles)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqnetsim",
        description=(
            "Deterministic simulator and feasibility analyzer for quantum networks "
            "whose classical control traffic is protected by post-quantum cryptography."
        ),
    )
    _add_global_options(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_options(common, suppress=True)

    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check", parents=[common], help="evaluate the timing feasibility inequality for a scenario"
    )
    p_check.add_argument("scenario")
    p_check.set_defaults(func=cmd_check)

    p_sim = sub.add_parser("simulate", parents=[common], help="run the Monte Carlo engine and write trials.csv / summary.json")
    p_sim.add_argument("scenario")
    p_sim.add_argument("--trials", type=int, default=None, help="override the scenario's n_trials")
    p_sim.add_argument("--max-slots", type=int, default=model._DEFAULT_MAX_SLOTS, help="per-trial slot budget")
    p_sim.set_defaults(func=cmd_simulate)

    p_adv = sub.add_parser("adversary", parents=[common], help="run intercepted vs clean traffic and test for anomalies")
    p_adv.add_argument("scenario")
    p_adv.add_argument("--baseline-trials", type=int, default=2000, help="trials for the attack-free baseline")
    p_adv.add_argument("--observed-trials", type=int, default=500, help="trials for the intercepted run")
    p_adv.add_argument("--threshold-sigma", type=float, default=3.0, help="flagging threshold in sigmas")
    p_adv.add_argument("--max-slots", type=int, default=model._DEFAULT_MAX_SLOTS, help="per-trial slot budget")
    p_adv.set_defaults(func=cmd_adversary)

    p_kms = sub.add_parser("kms", parents=[common], help="handshake counts and re-key cycle times")
    p_kms.add_argument("--nodes", type=int, nargs="+", required=True, help="network sizes to tabulate")
    p_kms.add_argument("--mode", choices=("full_mesh", "hierarchical"), default="full_mesh")
    p_kms.add_argument("--cluster-size", type=int, default=None)
    p_kms.add_argument("--handshake-time", type=float, default=2e-3, help="seconds per handshake (KEM included)")
    p_kms.add_argument("--auth-time", type=float, default=0.0, help="authentication overhead per handshake")
    p_kms.add_argument("--parallelism", type=int, default=1, help="concurrent handshake lanes")
    p_kms.set_defaults(func=cmd_kms)

    p_sweep = sub.add_parser("sweep", parents=[common], help="Monte Carlo over a list of values for one numeric config field")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--param", required=True, help="dot path, e.g. nodes.0.memory.t_coh")
    p_sweep.add_argument("--values", required=True, help="comma-separated numbers")
    p_sweep.add_argument("--trials", type=int, default=None, help="override the scenario's n_trials")
    p_sweep.add_argument("--max-slots", type=int, default=model._DEFAULT_MAX_SLOTS, help="per-trial slot budget")
    p_sweep.set_defaults(func=cmd_sweep)

    p_prof = sub.add_parser("profiles", parents=[common], help="list the crypto-profile registry")
    p_prof.add_argument("--format", choices=("csv", "json"), default="json", help="stdout format")
    p_prof.set_defaults(func=cmd_profiles)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioValidationError as exc:
        print(_dump_json({"violations": exc.violations}))
        return EXIT_INPUT_ERROR
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except BrokenPipeError:  # the reader is gone; the process entry handles it
        raise
    except Exception as exc:  # any other failure is a bug; it must not pass for a verdict
        print(" ".join(f"internal error: {type(exc).__name__}: {exc}".split()), file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def _run_process() -> None:
    """Run :func:`main` as the process (``python -m pqnetsim.cli``, the ``pqnetsim`` script) and exit with its code.

    ``gc.freeze()`` spares what the command built from the interpreter's collections at exit.  ``os._exit``
    would also skip ``atexit``, the flush of stdout and stderr, and a ``runpy`` caller's ``finally``.
    :func:`main` leaves the collector alone: tests call it in process.  A closed stdout is handled as the
    Python ``signal`` documentation advises ("Note on SIGPIPE"): the rest of the output goes to ``os.devnull``.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    _run_process()

"""pqnetsim benchmark: closed-loop passes of CLI invocations, checked and timed.

Usage, from the root of a checkout::

    python3 bench/run.py --workload chain_sparse --seed 1 --seconds 55 --trace 0
    python3 bench/run.py            # every workload, default seed, untraced

A *pass* runs a workload's ``pqnetsim`` invocations one child process at a
time, each starting after the previous one has exited (a single client, no
concurrency).  Untraced invocations run through ``bench/child.py``, which
records the child's own peak RSS.  The run repeats passes for ``--seconds``,
with ``setup_s`` passes, in which every trial count is 1, interleaved.

Times are reported at a reference host speed.  On a shared host the speed
of a CPU follows its neighbours' load: a fixed piece of pure-Python work
can take twice as long in one minute as in the next, and a raw wall time
then measures the host rather than the program.  So before every pass,
and after the last, the benchmark times a fixed reference computation
(``reference_s``), and scales each pass time by ``REFERENCE_S`` over the
mean of the reference times on either side of it: a pass time is given in
seconds on a host where the reference takes exactly ``REFERENCE_S``.  A
change to the program moves the scaled time as it moves the raw one; a
change in host speed moves both the pass and its reference.  Raw pass
times and reference times are kept in the noise record.  The per-layer
times of ``--trace 1`` are raw.

``wall_s`` and ``trials_per_s`` are medians over *blocks*: runs of
consecutive passes that together last at least ``BLOCK_S`` seconds, each
giving the scaled mean pass time (the blocks' summed pass times over their
summed reference times).  The host's speed also flips every few seconds,
so single pass times are bimodal; a block spans several flips.
``setup_s`` and ``peak_rss_mb`` are medians over single passes.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced passes with traced ones, in which each
invocation runs through ``bench/tracer.py``, and prints the per-layer
metrics.  A traced pass must write the same artifact bytes as an untraced
one.

Every invocation is checked: its exit code, a traceback on stderr, and its
artifacts (seed-independent invariants, byte-identical reruns, and for the
default seed the SHA-256 digests pinned in ``bench/golden.json``).  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give every metric with its
quartiles over the run's blocks or passes, the error rate and a noise
record.  The same record is written to ``.bench_work/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracer  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = Path(".bench_work")
GOLDEN = BENCH_DIR / "golden.json"

# A child that runs this long is stuck; it is killed and counted as failed.
CHILD_TIMEOUT_S = 120.0
MIN_PASSES = 3
# Shortest block of full passes whose scaled mean pass time is one wall_s
# value: it spans a few of the host's speed flips, and a run of --seconds 55
# still holds six or more blocks to take the median of.
BLOCK_S = 5.0
# The reference computation's size, and the time it defines as the
# reference host speed (about what it takes on a 2-vCPU KVM guest on a
# shared Xeon host, which ran it in 0.05 to 0.12 s as its neighbours' load
# changed).
REFERENCE_ITERATIONS = 200_000
REFERENCE_S = 0.1
MIN_TRACED_PASSES = 2
SETUP_MIN_PASSES = 3
SETUP_SHARE = 0.2
# Problems listed in the report; the rest are only counted.
MAX_PROBLEMS_SHOWN = 10


@dataclass
class ChildResult:
    exit_code: int
    wall_s: float
    stdout: str
    stderr: str


@dataclass
class PassResult:
    wall_s: float
    peak_rss_mb: float
    records: list[dict]


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def reference_s() -> float:
    """Seconds the host takes right now for a fixed piece of pure-Python work.

    The work mixes what the simulator's hot paths do: float arithmetic,
    ``math.exp`` calls, and dict reads and writes.  It never changes, so its
    time tracks the host's speed and nothing else.
    """
    start = time.perf_counter()
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(REFERENCE_ITERATIONS):
        k = i & 1023
        table[k] = table.get(k, 0.0) * 0.5 + math.exp(-(i & 255) * 1e-3)
        acc += abs(table[k] - 0.5) ** 0.5
    return time.perf_counter() - start


def blocks(passes: list[tuple[float, float]]) -> list[list[tuple[float, float]]]:
    """Consecutive (pass time, reference time) pairs grouped into blocks of at
    least BLOCK_S seconds of pass time; a shorter tail joins the last block,
    so every pass counts."""
    out: list[list[tuple[float, float]]] = []
    block: list[tuple[float, float]] = []
    for pair in passes:
        block.append(pair)
        if sum(wall for wall, _ in block) >= BLOCK_S:
            out.append(block)
            block = []
    if block:
        if out:
            out[-1] += block
        else:
            out.append(block)
    return out


def scaled_mean(block: list[tuple[float, float]]) -> float:
    """A block's mean pass time at the reference host speed."""
    return REFERENCE_S * sum(wall for wall, _ in block) / sum(ref for _, ref in block)


def src_lines() -> int:
    """Non-blank lines under src/pqnetsim, an informational size count."""
    return sum(
        1
        for path in sorted((ROOT / "src" / "pqnetsim").rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )


class Bench:
    """One benchmark run of one workload: spawns, checks and accounts passes."""

    def __init__(self, name: str, seed: int, golden: dict[str, str] | None):
        self.name = name
        self.work = WORK_DIR / name
        shutil.rmtree(ROOT / self.work, ignore_errors=True)
        (ROOT / self.work).mkdir(parents=True)
        self.out = ROOT / self.work / "out"
        self.workload = workloads.build(name, seed, self.work)
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, str] = {}
        self.golden = golden

    def spawn(self, argv: list[str]) -> ChildResult:
        stdout_path = ROOT / self.work / "stdout.txt"
        stderr_path = ROOT / self.work / "stderr.txt"
        with stdout_path.open("wb") as out, stderr_path.open("wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, _kill, (proc.pid,))
            timer.start()
            try:
                _, status = os.waitpid(proc.pid, 0)
            except BaseException:
                # Interrupted (SIGTERM, Ctrl-C): leave no child behind.
                _kill(proc.pid)
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        return ChildResult(
            exit_code=proc.returncode,
            wall_s=wall,
            stdout=stdout_path.read_text(encoding="utf-8", errors="replace"),
            stderr=stderr_path.read_text(encoding="utf-8", errors="replace"),
        )

    def account(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{self.name}/{label}: {p}" for p in problems)

    @staticmethod
    def _basic_problems(inv: workloads.Invocation, result: ChildResult) -> list[str]:
        problems = []
        if result.exit_code != inv.expected_exit:
            problems.append(
                f"exit code {result.exit_code}, expected {inv.expected_exit}: {result.stderr.strip()[-300:]}"
            )
        if "Traceback" in result.stderr:
            problems.append("traceback on stderr")
        return problems

    def run_untraced(self, cli_args: tuple[str, ...]) -> tuple[ChildResult, float | None]:
        """One invocation through bench/child.py; returns it and its peak RSS in MB."""
        peak_path = ROOT / self.work / "peak_kb.txt"
        peak_path.unlink(missing_ok=True)
        result = self.spawn([sys.executable, str(BENCH_DIR / "child.py"), str(peak_path), "--", *cli_args])
        try:
            return result, int(peak_path.read_text(encoding="ascii")) / 1024.0
        except (OSError, ValueError):
            return result, None

    def run_pass(self, traced: bool = False) -> PassResult:
        shutil.rmtree(self.out, ignore_errors=True)
        walls = []
        peaks = []
        records = []
        for i, inv in enumerate(self.workload.invocations):
            if traced:
                spans_path = ROOT / self.work / f"spans_{i}.json"
                spans_path.unlink(missing_ok=True)
                result = self.spawn([sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path),
                                     repr(time.monotonic()), "--", *inv.argv])
            else:
                result, peak = self.run_untraced(inv.argv)
            problems = self._basic_problems(inv, result)
            if not traced:
                if peak is None:
                    problems.append("no peak RSS recorded")
                else:
                    peaks.append(peak)
            if not problems:
                try:
                    problems = workloads.check_invocation(inv, self.out, result.stdout)
                    digests = workloads.digests(self.out, inv.artifacts)
                    if traced:
                        records.append(json.loads(spans_path.read_text(encoding="utf-8")))
                except (OSError, ValueError, KeyError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
                else:
                    problems += self._digest_problems(digests)
            self.account(inv.label + (" (traced)" if traced else ""), problems)
            walls.append(result.wall_s)
        return PassResult(
            wall_s=sum(walls),
            peak_rss_mb=max(peaks, default=0.0),
            records=records,
        )

    def _digest_problems(self, digests: dict[str, str]) -> list[str]:
        """Artifacts must repeat byte for byte across passes, traced or not,
        and match the pinned digests on the default seed."""
        problems = []
        for name, digest in digests.items():
            expected = self.reference.setdefault(name, digest)
            if digest != expected:
                problems.append(f"{name} differs from the first pass of this run")
            if self.golden is not None and digest != self.golden.get(name):
                problems.append(f"{name} digest {digest[:12]} differs from bench/golden.json")
        return problems

    def setup_pass(self) -> float:
        """Wall time of the pass with every trial count set to 1."""
        shutil.rmtree(self.out, ignore_errors=True)
        wall = 0.0
        for inv in self.workload.invocations:
            result, _ = self.run_untraced(inv.setup_argv)
            self.account(inv.label + " (setup)", self._basic_problems(inv, result))
            wall += result.wall_s
        return wall


def measure(bench: Bench, seconds: float, traced: bool) -> tuple[dict[str, list[float]], dict]:
    """Run the passes of one run; returns per-pass metric samples and extras.

    Untraced runs interleave set-up passes with full passes, giving them
    SETUP_SHARE of the time, so both sample the same host conditions, and
    time the reference computation before each pass and after the last.  A
    pass is scaled by the mean of the reference times on either side of it.
    The run stops before a further step would overrun ``seconds``.
    """
    bench.setup_pass()  # warm-up: interpreter, package import and file cache
    samples: dict[str, list[float]] = {}

    def add(name: str, value: float) -> None:
        samples.setdefault(name, []).append(value)

    extras: dict = {"absent": set()}
    passes: list[tuple[bool, float]] = []  # (is a set-up pass, its time), in run order
    refs: list[float] = []
    traced_walls = []
    steps: dict[bool, list[float]] = {True: [], False: []}  # step durations, by "is a set-up pass"
    start = time.perf_counter()
    while True:
        step_start = time.perf_counter()
        elapsed = step_start - start
        full_enough = len(steps[False]) >= (MIN_TRACED_PASSES if traced else MIN_PASSES)
        setup_enough = traced or len(steps[True]) >= SETUP_MIN_PASSES
        setup_next = not traced and (
            sum(steps[True]) < SETUP_SHARE * elapsed or (full_enough and not setup_enough)
        )
        enough = full_enough and setup_enough
        expected = statistics.median(steps[setup_next]) if steps[setup_next] else 0.0
        if enough and elapsed + expected > seconds:
            break
        if not traced:
            refs.append(reference_s())
        if setup_next:
            passes.append((True, bench.setup_pass()))
        else:
            p = bench.run_pass()
            passes.append((False, p.wall_s))
            add("peak_rss_mb", p.peak_rss_mb)
            if traced:
                t = bench.run_pass(traced=True)
                traced_walls.append(t.wall_s)
                if len(t.records) == len(bench.workload.invocations):
                    values, absent = tracer.layer_metrics(t.records)
                    extras["absent"] |= absent
                    for name, value in values.items():
                        add(name, value)
                    add("cli.startup_s", sum(r["startup_s"] for r in t.records))
                    add("cli.bytes_written", sum(f.stat().st_size for f in bench.out.iterdir()))
        steps[setup_next].append(time.perf_counter() - step_start)
    full_walls = [wall for is_setup, wall in passes if not is_setup]
    if traced and "cli.startup_s" in samples:
        # Each traced pass runs right after an untraced one; their difference
        # is that pair's tracing overhead.
        samples["trace.overhead_s"] = [t - u for t, u in zip(traced_walls, full_walls)]
    if not traced:
        refs.append(reference_s())
        bracketed = [(is_setup, wall, (refs[i] + refs[i + 1]) / 2) for i, (is_setup, wall) in enumerate(passes)]
        grouped = blocks([(wall, ref) for is_setup, wall, ref in bracketed if not is_setup])
        samples["wall_s"] = [scaled_mean(b) for b in grouped]
        samples["trials_per_s"] = [bench.workload.trials / scaled_mean(b) for b in grouped]
        samples["setup_s"] = [REFERENCE_S * wall / ref for is_setup, wall, ref in bracketed if is_setup]
        extras["blocks"] = len(grouped)
        extras["timeline"] = bracketed
        extras["raw"] = {
            "pass_wall_s": _quartiles(full_walls),
            "setup_wall_s": _quartiles([wall for is_setup, wall in passes if is_setup]),
            "reference_s": _quartiles(refs),
        }
    extras["passes"] = len(full_walls)
    extras["seconds"] = time.perf_counter() - start
    return samples, extras


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = manifest["per_layer" if trace else "end_to_end"]
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    bench = Bench(name, seed, golden[name] if seed == golden["seed"] else None)
    samples, extras = measure(bench, seconds, trace)

    metrics = {}
    quartiles = {}
    for spec in specs:
        values = samples.get(spec["name"])
        if values is None:
            # No traced pass produced records: every traced invocation failed.
            continue
        quartiles[spec["name"]] = _quartiles(values)
        metrics[spec["name"]] = {"value": statistics.median(values), "unit": spec["unit"]}
    unknown = set(samples) - {s["name"] for s in specs} - {"wall_s", "trials_per_s", "peak_rss_mb"}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    correct = bench.failed == 0 and len(metrics) == len(specs)

    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "passes": extras["passes"],
        "blocks": extras.get("blocks"),
        "measured_s": extras["seconds"],
        "error_rate": bench.failed / bench.attempted,
        "absent": sorted(extras["absent"]),
        "quartiles": quartiles,
        "code.src_lines": src_lines(),
        "noise": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg()),
            # Unscaled quartiles: pass and set-up wall times, reference times.
            "raw": extras.get("raw"),
            # Every pass in run order: is a set-up pass, wall time, reference time.
            "timeline": extras.get("timeline"),
        },
        "problems": bench.problems,
    }
    (ROOT / bench.work / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {name}  seed {seed}  {'traced' if trace else 'untraced'}  "
          f"{extras['passes']} passes in {extras['seconds']:.1f} s"
          + (f", {extras['blocks']} blocks" if "blocks" in extras else ""))
    for spec in specs:
        n = spec["name"]
        if n not in metrics:
            print(f"  {n:30s} missing")
            continue
        q1, _, q3 = quartiles[n]
        mark = "  (absent: its hook is gone)" if n in extras["absent"] else ""
        print(f"  {n:30s} {metrics[n]['value']:<14.6g} {spec['unit']:9s} "
              f"q1 {q1:<12.6g} q3 {q3:<12.6g} n {len(samples[n])}{mark}")
    print(f"  {'error_rate':30s} {record['error_rate']:<14.6g} {'ratio':9s} "
          f"{bench.failed} of {bench.attempted} invocations failed")
    print(f"  {'code.src_lines':30s} {record['code.src_lines']:<14d} {'lines':9s} informational")
    noise = record["noise"]
    print(f"  noise: python {noise['python']}, nproc {noise['nproc']}, "
          f"loadavg {' '.join(f'{x:.2f}' for x in noise['loadavg'])}")
    if noise["raw"]:
        print("  unscaled medians: " + ", ".join(f"{k} {q[1]:.6g}" for k, q in noise["raw"].items()))
    for problem in bench.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"  FAILED {problem}")
    return {"correct": correct, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}


def pin(seed: int) -> None:
    """Write bench/golden.json from one untraced pass of every workload."""
    golden: dict = {"seed": seed}
    for name in workloads.NAMES:
        bench = Bench(name, seed, None)
        bench.run_pass()
        if bench.failed:
            raise SystemExit(f"cannot pin {name}: {bench.problems}")
        golden[name] = bench.reference
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="re-pin bench/golden.json at --seed; only for a deliberate output change")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2**63)")

    missing = [p for p in ("src/pqnetsim/cli.py", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a pqnetsim checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    # The build: byte-compile the package so no pass pays for compilation.
    build = subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=ROOT,
                           capture_output=True, text=True)
    if build.returncode != 0:
        print(f"error: compileall failed:\n{build.stdout}{build.stderr}", file=sys.stderr)
        return 2

    if args.pin:
        pin(args.seed)
        return 0
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

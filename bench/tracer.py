"""Traced ``pqnetsim`` invocation, and the per-layer metrics read from its spans.

Run as a child process in place of ``python -m pqnetsim.cli``::

    python bench/tracer.py SPANS_JSON SPAWN_MONOTONIC -- CLI_ARGS...

It wraps the module attributes the pipeline calls through, runs
``pqnetsim.cli.main`` on ``CLI_ARGS`` in-process, and writes every span
(name, start, end, parent) to ``SPANS_JSON`` once the command has returned.
The wrappers only time and count; the command writes the same bytes it
writes untraced.

An attribute that no longer exists (a later change renamed it) is left
unwrapped instead of failing the run, and the metrics it feeds are reported
as absent.  ``_write_csv`` is the only private name hooked; the prepare time
is read from span positions, so it needs no hook on ``engine._prepare``.
"""

from __future__ import annotations

import functools
import json
import random
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute) pairs wrapped in every traced run, named as the spans.
HOOKS = (
    ("model", "load_scenario"),
    ("model", "validate_scenario"),
    ("timing", "scenario_timings"),
    ("timing", "check_scenario"),
    ("engine", "run_trials"),
    ("engine", "trial_seed_for"),
    ("engine", "summarize"),
    ("fidelity", "decay"),
    ("fidelity", "swap"),
    ("fidelity", "chain_fidelity"),
    ("cli", "detect"),
    ("cli", "_write_csv"),
)

FIDELITY_SPANS = ("fidelity.decay", "fidelity.swap", "fidelity.chain_fidelity")


class Tracer:
    """In-memory span recorder: one span per wrapped call, parent by call stack.

    Spans live in flat arrays rather than a list of lists: hundreds of
    thousands of small lists would be scanned by every cyclic garbage
    collection and slow down the very code being measured.
    """

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.trial_seeds: list[int] = []
        self.outcomes = {"trials": 0, "successes": 0, "slots": 0, "fail": {}}
        self.detect_samples = 0
        self._stack: list[int] = []

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        fn = getattr(module, attr, None)
        if not callable(fn):
            return
        name_id = len(self.names)
        self.names.append(name)
        span_name, span_start, span_end = self.span_name, self.span_start, self.span_end
        span_parent, stack, clock = self.span_parent, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(index)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[index] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        setattr(module, attr, traced)

    def install(self, modules: dict) -> None:
        after = {
            "engine.trial_seed_for": lambda args, seed: self.trial_seeds.append(seed),
            "engine.run_trials": lambda args, outcomes: self._count_outcomes(outcomes),
            "cli.detect": lambda args, report: self._count_samples(args),
        }
        for module_name, attr in HOOKS:
            name = f"{module_name}.{attr}"
            self.wrap(modules[module_name], attr, name, after.get(name))

    def _count_outcomes(self, outcomes) -> None:
        counts = self.outcomes
        fail = counts["fail"]
        for o in outcomes:
            counts["trials"] += 1
            counts["slots"] += o.slots_used
            if o.success:
                counts["successes"] += 1
            else:
                reason = o.failure_reason.value
                fail[reason] = fail.get(reason, 0) + 1

    def _count_samples(self, args) -> None:
        self.detect_samples += len(args[0]) + len(args[1])

    def record(self, spawn: float, startup_done: float) -> dict:
        return {
            "startup_s": startup_done - spawn,
            "names": self.names,
            "spans": [
                self.span_name.tolist(),
                self.span_start.tolist(),
                self.span_end.tolist(),
                self.span_parent.tolist(),
            ],
            "trial_seeds": self.trial_seeds,
            "outcomes": self.outcomes,
            "detect_samples": self.detect_samples,
        }


def main(argv: list[str]) -> int:
    spans_path, spawn, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON SPAWN_MONOTONIC -- CLI_ARGS...")
    from pqnetsim import cli, engine, fidelity, model, timing

    startup_done = time.monotonic()
    tracer = Tracer()
    tracer.install({"cli": cli, "engine": engine, "fidelity": fidelity, "model": model, "timing": timing})
    exit_code = cli.main(cli_args)
    record = tracer.record(float(spawn), startup_done)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, separators=(",", ":"))
    return exit_code


# ---------------------------------------------------------------------------
# Per-layer metrics from the span records of one traced pass
# ---------------------------------------------------------------------------

def _span_sums(record: dict) -> dict:
    """Totals and counts by span name for one invocation, plus times read
    from span positions.

    ``run_trials`` has two phases: preparation, from its start (or the end
    of its validation) to its first seed split, and the trial loop, from
    there to its end.  The trial loop's self time excludes the seed splits
    and fidelity calls made inside it.
    """
    names = record["names"]
    spans = list(zip(*record["spans"]))
    total: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    fidelity_s = 0.0
    # Per run_trials span: where preparation starts (its own start, or the
    # end of its validation) and where it ends (its first seed split).
    prepare_from: dict[int, float] = {}
    prepare_to: dict[int, float] = {}
    trial_children: dict[int, float] = defaultdict(float)
    trial_self_s = 0.0
    for i, (name_id, start, end, parent) in enumerate(spans):
        name = names[name_id]
        total[name] += end - start
        count[name] += 1
        parent_name = names[spans[parent][0]] if parent >= 0 else None
        if name in FIDELITY_SPANS and parent_name not in FIDELITY_SPANS:
            fidelity_s += end - start
        if name == "engine.run_trials":
            prepare_from[i] = start
        elif parent_name == "engine.run_trials":
            if name == "model.validate_scenario" and parent not in prepare_to:
                prepare_from[parent] = end
            elif name == "engine.trial_seed_for" and parent not in prepare_to:
                prepare_to[parent] = start
            if parent in prepare_to:
                trial_children[parent] += end - start
    for i, loop_start in prepare_to.items():
        trial_self_s += (spans[i][2] - loop_start) - trial_children[i]
    return {
        "total": total,
        "count": count,
        "fidelity_s": fidelity_s,
        "trial_self_s": trial_self_s,
        "prepare_s": sum(prepare_to[i] - prepare_from[i] for i in prepare_to),
        "prepare_calls": len(prepare_to),
    }


def rng_setup_s(seeds: list[int]) -> float:
    """Time to build ``random.Random`` over the trial seeds a run drew.

    Measured here, beside the traced pass, so that it is not part of the
    traced invocation's wall time.
    """
    start = time.perf_counter()
    for seed in seeds:
        random.Random(seed)
    return time.perf_counter() - start


# Each per-layer metric with the hooks it needs; a metric whose hooks are
# not all wrapped is reported as absent.
LAYER_HOOKS = {
    "model.load_s": ("model.load_scenario",),
    "model.validate_s": ("model.validate_scenario",),
    "model.validate_calls": ("model.validate_scenario",),
    "timing.scenario_timings_s": ("timing.scenario_timings",),
    "timing.check_s": ("timing.check_scenario",),
    "engine.prepare_s": ("engine.run_trials", "engine.trial_seed_for"),
    "engine.prepare_calls": ("engine.run_trials", "engine.trial_seed_for"),
    "engine.seed_split_s": ("engine.trial_seed_for",),
    "engine.seed_split_calls": ("engine.trial_seed_for",),
    "engine.rng_setup_s": ("engine.trial_seed_for",),
    "engine.trial_self_s": ("engine.run_trials", "engine.trial_seed_for"),
    "engine.slots": ("engine.run_trials",),
    "engine.host_us_per_slot": ("engine.run_trials", "engine.trial_seed_for"),
    "engine.success_ratio": ("engine.run_trials",),
    "engine.fail.memory_expired": ("engine.run_trials",),
    "engine.fail.message_late": ("engine.run_trials",),
    "engine.fail.horizon_exceeded": ("engine.run_trials",),
    "engine.summarize_s": ("engine.summarize",),
    "fidelity.decay_calls": ("fidelity.decay",),
    "fidelity.swap_calls": ("fidelity.swap",),
    "fidelity.s": FIDELITY_SPANS,
    "adversary.detect_s": ("cli.detect",),
    "adversary.samples": ("cli.detect",),
    "cli.write_s": ("cli._write_csv",),
}


def layer_metrics(records: list[dict]) -> tuple[dict[str, float], set[str]]:
    """Per-layer metrics summed over one traced pass, and the absent ones.

    ``cli.startup_s``, ``cli.bytes_written`` and ``trace.overhead_s`` are
    measured by the caller.
    """
    values: dict[str, float] = defaultdict(float)
    fail: dict[str, int] = defaultdict(int)
    trials = successes = slots = 0
    for r in records:
        sums = _span_sums(r)
        total, count = sums["total"], sums["count"]
        per_record = {
            "model.load_s": total["model.load_scenario"],
            "model.validate_s": total["model.validate_scenario"],
            "model.validate_calls": count["model.validate_scenario"],
            "timing.scenario_timings_s": total["timing.scenario_timings"],
            "timing.check_s": total["timing.check_scenario"],
            "engine.prepare_s": sums["prepare_s"],
            "engine.prepare_calls": sums["prepare_calls"],
            "engine.seed_split_s": total["engine.trial_seed_for"],
            "engine.seed_split_calls": count["engine.trial_seed_for"],
            "engine.rng_setup_s": rng_setup_s(r["trial_seeds"]),
            "engine.trial_self_s": sums["trial_self_s"],
            "engine.summarize_s": total["engine.summarize"],
            "fidelity.decay_calls": count["fidelity.decay"],
            "fidelity.swap_calls": count["fidelity.swap"],
            "fidelity.s": sums["fidelity_s"],
            "adversary.detect_s": total["cli.detect"],
            "adversary.samples": r["detect_samples"],
            "cli.write_s": total["cli._write_csv"],
        }
        for key, value in per_record.items():
            values[key] += value
        outcomes = r["outcomes"]
        trials += outcomes["trials"]
        successes += outcomes["successes"]
        slots += outcomes["slots"]
        for reason, n in outcomes["fail"].items():
            fail[reason] += n
    values["engine.slots"] = slots
    values["engine.host_us_per_slot"] = values["engine.trial_self_s"] / slots * 1e6 if slots else 0.0
    values["engine.success_ratio"] = successes / trials if trials else 0.0
    for reason in ("memory_expired", "message_late", "horizon_exceeded"):
        values[f"engine.fail.{reason}"] = fail[reason]
    wrapped = {n for r in records for n in r["names"]}
    absent = {metric for metric, hooks in LAYER_HOOKS.items() if not wrapped.issuperset(hooks)}
    return dict(values), absent


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

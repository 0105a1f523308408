"""Mutation catalog: small faults in ``src/`` that named test files must catch.

Run it from any directory, with the test dependencies (pytest, hypothesis)
installed::

    python tests/mutants.py

Each entry of ``CATALOG`` is ``(file under src/, exact old text, new text,
test files that must kill it)``; a pytest node id may stand for a file where
the rest of the file would only hang on the mutant.  The script copies the repository (without
its dot-directories and bytecode caches) to a temporary directory, first
runs the union of the named test files there unmutated, then applies one
mutant at a time and runs only that mutant's test files (``pytest -x``)
with a time limit.  A failing run kills the mutant; so does a run past the
time limit, which is reported as a timeout.  The checkout is never written.

The exit status is 1 when a mutant survives, when an old text no longer
occurs exactly once in its file (a stale entry: the catalog needs care), or
when the named tests fail without any mutant; otherwise 0.

``EQUIVALENT`` lists mutants that no test can kill, each with its reason.
They are reported, their old text is checked like any other, and they are
not run.  Each change to ``src/`` adds the mutants of its own behaviour.

Uses the standard library only, and tier-1 does not collect it (the file
name does not start with ``test_``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# Seconds per mutant's test run: six times the slowest kill (30 s on a 2-vCPU machine),
# so a hang is cut short and a slow runner is not.
TIMEOUT = 180.0


class Mutant(NamedTuple):
    file: str  # relative to src/
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # files (or pytest node ids) relative to the repository root


ENGINE = "pqnetsim/engine.py"
CLI = "pqnetsim/cli.py"
FIDELITY = "pqnetsim/fidelity.py"
MODEL = "pqnetsim/model.py"
ENGINE_TESTS = ("tests/test_engine.py",)
CLI_TESTS = ("tests/test_cli.py",)
FIDELITY_TESTS = ("tests/test_fidelity.py",)
MALFORMED = "tests/test_model.py::TestMalformedInput"
VALID = "tests/test_model.py::TestValidScenarios"
DIFFERENTIAL = "tests/test_model.py::TestReferenceDifferential"
VALIDATE = "tests/test_model.py::TestValidateScenario"
VALIDATION_TABLE = "tests/test_model.py::TestValidationTable"
UNKNOWN_KEY = "tests/test_model.py::TestScenarioFiles::test_unknown_key_is_a_violation"
SETUP = "tests/test_engine.py::TestSetupScaling"
INIT = "pqnetsim/__init__.py"
LAZY_ORDER = "tests/test_layers.py::test_a_name_loads_the_modules_up_to_its_own_in_layer_order"
LAZY_LISTS = "tests/test_layers.py::test_the_package_exports_only_what_the_modules_list"
MEANS = "tests/test_engine.py::TestMeans"
SUMMARIZE = "tests/test_engine.py::TestSummarizeValidates"
OUTCOMES = "tests/test_engine.py::TestSummarizeChecksOutcomes"
PATHS = "tests/test_model.py::TestPathsAndEditing"
VALIDATED_ONCE = "tests/test_engine.py::TestValidatedOnce"
PROCESS_EXIT = "tests/test_cli.py::TestProcessExit"
REFUSED = "tests/test_cli.py::TestValidateOnceWriteLast::test_refused_command_leaves_no_out_dir"
EXPIRY_STEP = "tests/test_engine.py::TestFastForward::test_expiry_gap_steps_up_where_the_ratio_rounds_down_to_a_multiple"
SEED_SPLIT = "tests/test_engine.py::TestSeedSplit"
SEQUENTIAL = "tests/test_timing.py::TestScenarioWaits::test_sequential_slack_is_the_left_fold_over_rounds"
TIMING = "pqnetsim/timing.py"
STRICT_JSON = "tests/test_cli.py::TestStrictJson"
ADVERSARY = "pqnetsim/adversary.py"
ENTRY_POINTS = "tests/test_model.py::TestValidationTable::test_library_entry_points_keep_their_messages"
SCENARIO_FILES = "tests/test_model.py::TestScenarioFiles"
INHERITS = "tests/test_model.py::TestSweepRowInherits"
ROW_REFUSALS = "tests/test_cli.py::TestSweepRowRefusals"
# The built-in SHA-256 module this interpreter imports first: _sha2 from Python 3.12 on, _sha256 before.
SHA_RUNG = "_sha2" if sys.version_info >= (3, 12) else "_sha256"

CATALOG = [
    # The two mutants that once survived the whole of tier-1.
    Mutant(ADVERSARY, "flagged=z_score > threshold_sigma,", "flagged=z_score >= threshold_sigma,",
           ("tests/test_adversary.py",)),
    Mutant(ENGINE, "f_end_min=min(o.f_end for o in successes) if",
           "f_end_min=min(o.f_end for o in successes[1:] or successes) if", ENGINE_TESTS),
    # The chain engine's expiry rule: `d * tau >= limit`, read as integer slot gaps.
    Mutant(ENGINE, "while d < _MAX_GAP and d * tau < limit:", "while d < _MAX_GAP and d * tau <= limit:", ENGINE_TESTS),
    Mutant(ENGINE, "    while d < _MAX_GAP and d * tau < limit:\n        d += 1\n", "", (EXPIRY_STEP,)),
    # The differential tests hang on this one (a window of 0 slots); the boundary test fails it at once.
    Mutant(ENGINE, "            if end <= slot:\n", "            if end < slot:\n",
           ("tests/test_engine.py::TestFastForward::test_dense_chain_expiring_on_a_slot_boundary_matches_reference",)),
    Mutant(ENGINE, "intact_gap=tuple(map(min, gaps[:-1], gaps[1:]))", "intact_gap=tuple(map(max, gaps[:-1], gaps[1:]))",
           ENGINE_TESTS),
    # Once a swap has used one side of a pair, the other side's own gap is the one that ends the trial.
    Mutant(ENGINE,
           "(gaps[j + 1] if lo_used else intact_gap[j])\n            elif lo_used or j == 0:\n"
           "                continue\n            else:\n                end = gen_slot[j] + gaps[j]\n",
           "(gaps[j] if lo_used else intact_gap[j])\n            elif lo_used or j == 0:\n"
           "                continue\n            else:\n                end = gen_slot[j] + gaps[j + 1]\n",
           ENGINE_TESTS),
    # Storage at the non-designated end node never aborts a trial.
    Mutant(ENGINE, "elif lo_used or j == 0:", "elif lo_used:", ENGINE_TESTS),
    # A scan's window ends at the earliest pending expiry, not at the last link's.
    Mutant(ENGINE, "            elif end < due:\n", "            else:\n", ("tests/test_engine.py::TestFastForward",)),
    # The receiver's window is the designated end node's own coherence time.
    Mutant(ENGINE, "if not (worst < hi_tcoh[-1]):", "if not (worst < hi_tcoh[0]):",
           ("tests/test_engine.py::TestDeterministicTraces::test_one_repeater_chain_late_message_matches_static_check",)),
    # A two-party trial draws in every slot up to and including max_slots.
    Mutant(ENGINE, "for gen_slot in range(1, max_slots + 1):", "for gen_slot in range(1, max_slots):",
           ("tests/test_engine.py::TestStatisticalOracles::test_success_within_slot_budget_matches_enumeration",)),
    # A draw whose top byte ties the threshold needs its full K.
    Mutant(ENGINE, "if top < t or top == t and _draw_k(buf, d) < bound:", "if top <= t:", ENGINE_TESTS),
    Mutant("pqnetsim/kms.py", "return member_handshakes + head_mesh", "return n * (n - 1) // 2",
           ("tests/test_kms.py",)),
    # The horizon rule, and a mean of finite times that stays finite.
    Mutant(ENGINE, "if not math.isfinite(horizon):", "if math.isnan(horizon):", ENGINE_TESTS + CLI_TESTS),
    Mutant(ENGINE, "config.slot_duration + max(timings.totals))", "config.slot_duration)", ENGINE_TESTS + CLI_TESTS),
    Mutant(ENGINE, "max(timings.totals)) * (1 + 2**-49)", "max(timings.totals))", ENGINE_TESTS),
    Mutant(ENGINE, "+ max(timings.totals)", "+ timings.totals[0]", ENGINE_TESTS),
    Mutant(MODEL, "    except OverflowError:\n        k = n", "    except ZeroDivisionError:\n        k = n",
           ENGINE_TESTS),
    # The one write path: a failed write is bad input, and nothing else in --out is touched.
    Mutant(CLI, "except OSError as exc:", "except PermissionError as exc:", CLI_TESTS),
    Mutant(CLI, "path = out / name", "path = out / name; (out / \".write_probe\").unlink(missing_ok=True)", CLI_TESTS),
    Mutant(CLI, "if not hierarchical and args.cluster_size is not None:", "if False:", CLI_TESTS),
    # Artifacts are renamed into place only together: a failed rename removes those already placed.
    Mutant(CLI, "placed.append(path)", "pass", CLI_TESTS),
    # A re_tcoh_product past the float range is refused, not written as Infinity.
    Mutant(ENGINE, "if not math.isfinite(product):", "if math.isnan(product):", ENGINE_TESTS + CLI_TESTS),
    # The kernels clamp by comparison to the same bits as min()/max() calls.
    Mutant(FIDELITY, "FIDELITY_FLOOR <= value", "FIDELITY_FLOOR < value", FIDELITY_TESTS),
    Mutant(FIDELITY, "else float(f0)", "else f0", FIDELITY_TESTS),
    # The success tail's fold: every link, each with its own two storage waits.
    Mutant(ENGINE, "reduce(fidelity._swap, map(decay, map(decay, run.base_fids, waits_lo, lo_tcoh), waits_hi, hi_tcoh))",
           "reduce(fidelity._swap, [*map(decay, map(decay, run.base_fids, waits_lo, lo_tcoh), waits_hi, hi_tcoh)][1:])",
           ENGINE_TESTS),
    Mutant(ENGINE, "zip(bsm_slot, gen_slot[1:])", "zip(bsm_slot, gen_slot)", ENGINE_TESTS),
    # One reader per JSON type: an early accept takes only what the full test would take unchanged, and an item's
    # problems carry its suffix.
    Mutant(MODEL, "    if type(value) is float:", "    if _is_number(value):", (DIFFERENTIAL,)),
    Mutant(MODEL, 'problems += _under(f"[{i}]", exc)', "problems += exc.problems", (MALFORMED,)),
    Mutant(MODEL, "        if canon in out:", "        if False:", (MALFORMED,)),
    # The one range rule: an integer range takes integers only, any other range numbers only, the bounds are
    # inclusive, and validation's early accept takes only floats in float ranges.
    Mutant(MODEL, "_is_int(value) if type(low) is int else _is_number(value)", "_is_number(value)", (VALIDATE,)),
    Mutant(MODEL, "if type(low) is int else _is_number(value)", "if type(low) is int else True", (VALIDATE,)),
    Mutant(MODEL, "None if low <= value <= high else message", "None if low < value <= high else message", (VALID,)),
    Mutant(MODEL, "None if low <= value <= high else message", "None if low <= value < high else message",
           FIDELITY_TESTS),
    Mutant(MODEL, 'None if type(spec["range"][0]) is int else float', "float", (VALIDATE,)),
    # A value of another class is one violation, and nothing reads it: records, enums, dicts, the tuples of nodes
    # and links, node ids, channel keys, intercept_link and endpoints.
    Mutant(MODEL, '("role", NodeRole), ("memory", MemorySpec),', '("memory", MemorySpec),', (VALIDATE,)),
    Mutant(MODEL, '(("id", str), ("role", NodeRole),', '(("role", NodeRole),', (VALIDATE,)),
    Mutant(MODEL, '("$.nodes", [(0, nodes)], tuple), ', "", (VALIDATE,)),
    Mutant(MODEL, '("$.quantum_links", [(0, links)], tuple),', "", (VALIDATE,)),
    Mutant(MODEL, '("$.classical_channels[{!r}]", zip(channels, channels), str),', "", (VALIDATE,)),
    Mutant(MODEL, "[] if adv is None else [(0, adv.intercept_link)]", "[]", (VALIDATE,)),
    Mutant(MODEL, "if not (type(e) is tuple and len(e) == 2 and type(e[0]) is type(e[1]) is str)]", "if False]",
           (VALIDATE,)),
    Mutant(MODEL, "and len(e) == 2 and", "and len(e) >= 2 and", (VALIDATE,)),
    # The package looks each name up in the modules' own lists, in layer order, importing no module past its own.
    Mutant(INIT, '_LAYERS = ("errors", "model", "timing", "fidelity", "engine",',
           '_LAYERS = ("errors", "model", "fidelity", "engine", "timing",', (LAZY_ORDER,)),
    Mutant(INIT, "            if name in module.__all__:", "            if hasattr(module, name):", (LAZY_LISTS,)),
    # The summary's means are fsum over the count, as statistics.fmean computes them, scaled or not.
    Mutant(MODEL, "        return math.fsum(values) / n", "        return math.fsum(values) / max(n - 1, 1)",
           (MEANS,)),
    Mutant(MODEL, "for v in values]) / n, k)", "for v in values]) / (n + 1), k)", (MEANS,)),
    # Every public reader of a scenario validates it: summarize, resolve_path and scenario_timings too, so none
    # keeps a walk of a list or walks links to an unknown node.
    Mutant(ENGINE, "    model._require_valid(config)\n    if not model._check_type(outcomes,",
           "    if not model._check_type(outcomes,", (SUMMARIZE,)),
    Mutant(MODEL, "nodes, _, _ = _require_valid(config)._chain", "nodes, _, _ = config._chain", (PATHS,)),
    Mutant(TIMING, "nodes, _, _ = model._require_valid(config)._chain", "nodes, _, _ = config._chain", (PATHS,)),
    # summarize checks each outcome it reads: failure_reason is None exactly for a success, whose t_dist and
    # f_end are in the ranges declared on their fields.
    Mutant(ENGINE, "if outcome.success != (outcome.failure_reason is None):", "if False:", (OUTCOMES,)),
    Mutant(ENGINE, "t_dist: float | None = field(default=None, metadata=model._NON_NEGATIVE)",
           "t_dist: float | None = None", (OUTCOMES,)),
    Mutant(ENGINE, "f_end: float | None = field(default=None, metadata=model._FIDELITY)",
           "f_end: float | None = None", (OUTCOMES,)),
    # One routine checks a record's declared ranges, each of them; HopTiming and the adversary's arguments use it,
    # and the adversary's delay sum is checked after its parts, by the rule validation states in _sum_problem.
    Mutant(MODEL, "    for name, spec in _ranges(type(record)):", "    for name, spec in _ranges(type(record))[:-1]:",
           (OUTCOMES,)),
    Mutant(TIMING, '        model._check_fields(self, "HopTiming.")', "        pass", (ENTRY_POINTS,)),
    Mutant(ADVERSARY, "    if problem := _sum_problem(adv):", "    if problem := None:",
           ("tests/test_adversary.py::test_delays_that_overflow_in_sum_are_refused",)),
    # detect is degenerate where the standard error is 0, also when a tiny spread underflows in the division.
    Mutant(ADVERSARY, "    if (standard_error := baseline_sd / math.sqrt(len(observed_samples))) == 0.0:",
           "    standard_error = baseline_sd / math.sqrt(len(observed_samples))\n    if baseline_sd == 0.0:",
           ("tests/test_adversary.py::TestDetect",)),
    # The record reader reads intercept_link as a pair in pair_key order, and refuses a node id with a comma, as
    # validation refuses one built in code.
    Mutant(MODEL, "        raise _problem(\"must name a link as 'a,b'\")\n    return pair_key(*pair)",
           "        raise _problem(\"must name a link as 'a,b'\")\n    return value", (SCENARIO_FILES,)),
    Mutant(MODEL, "        raise _problem(_COMMA_IN_ID.format(node_id))", "        pass", (MALFORMED,)),
    Mutant(MODEL, '        if "," in node.id:\n'
           '            vios.append(Violation(f"$.nodes[{i}].id", _COMMA_IN_ID.format(node.id)))\n', "", (VALIDATE,)),
    # A scenario object is validated once: it keeps a copy of its channels only once it has passed, and is
    # validated again when its channels no longer equal that copy.
    Mutant(MODEL, " is not None and passed == config.classical_channels", " is not None", (VALIDATED_ONCE, INHERITS)),
    Mutant(MODEL, "        if violations := validate_scenario(config):\n",
           '        config.__dict__["_valid_channels"] = dict(config.classical_channels)\n'
           "        if violations := validate_scenario(config):\n", (VALIDATED_ONCE,)),
    Mutant(MODEL, "= dict(config.classical_channels)", "= config.classical_channels", (VALIDATED_ONCE,)),
    # A set_config_value copy inherits its parent's pass only from a parent that holds one, only when the record
    # holding the new value passes its range check and the t_eve + t_pqc rule, and with its own copy of the
    # channels; it inherits the parent's walk with the rebuilt node or link record in place.
    Mutant(MODEL, "if _holds_pass(config) and not _range_check", "if not _range_check", (INHERITS,)),
    Mutant(MODEL, "and not _range_check(type(record))(record) and", "and", (INHERITS,)),
    Mutant(MODEL, "(record) and _sum_problem(record) is None:", "(record):", (INHERITS, ROW_REFUSALS)),
    Mutant(MODEL, "_valid_channels=dict(edited.classical_channels)", "_valid_channels=edited.classical_channels",
           (INHERITS,)),
    Mutant(MODEL, "            chain[k] = tuple(rebuilt[-2] if item is old else item for item in chain[k])\n", "",
           (INHERITS,)),
    Mutant(MODEL, "tuple(rebuilt[-2] if item", "tuple(rebuilt[0] if item", (INHERITS,)),
    # adversary validates before it derives its stream seeds, so a bad file seed is one violation among all.
    Mutant(CLI, "    model._require_valid(config)  # before", "    pass  # before", (REFUSED,)),
    # A run whose re_tcoh_product overflows is refused before its first trial, by a bound over every link.
    Mutant(ENGINE, "        _re_tcoh_products(config)\n", "        pass\n", ENGINE_TESTS),
    Mutant(ENGINE, "* max(node.memory.t_coh for node in nodes)", "* min(node.memory.t_coh for node in nodes)",
           ENGINE_TESTS),
    # A closed stdout exits 141 with nothing on stderr: main passes the error on, and the entry flushes in its try.
    Mutant(CLI, "    except BrokenPipeError:  # the reader is gone; the process entry handles it\n        raise\n", "",
           (PROCESS_EXIT,)),
    Mutant(CLI, "        sys.stdout.flush()\n", "", (PROCESS_EXIT,)),
    # Strict JSON: a key given twice is refused, not last-wins.
    Mutant(MODEL, ", object_pairs_hook=_json_object)", ")", (MALFORMED,)),
    # The walk leaves each node by the neighbour it did not come from.
    Mutant(MODEL, "if neighbours[0][0] == previous else", "if neighbours[0][0] != previous else", (VALID,)),
    # One walk per scenario object, of duplicate ids the first wins, and _prepare reads its records in path order.
    Mutant(MODEL, "    @functools.cached_property\n    def _chain", "    @property\n    def _chain", (SETUP,)),
    Mutant(MODEL, "records = {n.id: n for n in reversed(config.nodes)}", "records = {n.id: n for n in config.nodes}",
           (VALIDATION_TABLE,)),
    Mutant(ENGINE, "nodes, links, _ = config._chain", "nodes, links, _ = config._chain; links = links[1:] + links[:1]",
           ENGINE_TESTS),
    # The seed split is its definition, on every rung of the SHA-256 import: the built-in module this interpreter
    # takes, and hashlib where neither built-in module exists; little-endian inputs, the digest's first eight bytes.
    Mutant(ENGINE, f"from {SHA_RUNG} import sha256 as", f"from {SHA_RUNG} import sha224 as", (SEED_SPLIT,)),
    Mutant(ENGINE, "from hashlib import sha256 as", "from hashlib import sha224 as", (SEED_SPLIT,)),
    Mutant(ENGINE, 'trial_index.to_bytes(8, "little")', 'trial_index.to_bytes(8, "big")', (SEED_SPLIT,)),
    Mutant(ENGINE, 'master_seed.to_bytes(8, "little") + label', 'master_seed.to_bytes(8, "big") + label',
           (SEED_SPLIT,)),
    Mutant(ENGINE, 'label.encode("utf-8")', 'label.encode("utf-16")', (SEED_SPLIT,)),
    Mutant(ENGINE, '.digest()[:8], "little")\n\n\ndef derive', '.digest()[8:16], "little")\n\n\ndef derive',
           (SEED_SPLIT,)),
    # A label with no UTF-8 bytes is a ParameterError, not a UnicodeEncodeError.
    Mutant(ENGINE, "    except UnicodeEncodeError as exc:\n", "    except LookupError as exc:\n",
           ("tests/test_arguments.py::test_structural_messages_are_pinned",)),
    # Sequential rounds are summed round by round, not multiplied out.
    Mutant(TIMING, "sequential_total(itertools.repeat(totals[0], config.rounds_l))", "totals[0] * config.rounds_l",
           (SEQUENTIAL,)),
    # The parser and validation: a bool is neither a number nor an integer, an unknown key or enum value is refused,
    # each record is read against its own fields, a node id is taken once, and the early accept takes only floats.
    Mutant(MODEL, "    return isinstance(value, (int, float)) and not isinstance(value, bool)",
           "    return isinstance(value, (int, float))", (MALFORMED,)),
    Mutant(MODEL, "    return isinstance(value, int) and not isinstance(value, bool)", "    return isinstance(value, int)",
           (MALFORMED,)),
    Mutant(MODEL, "problems = [] if raw.keys() <= names else", "problems = [] if True else", (UNKNOWN_KEY,)),
    Mutant(MODEL, "        return members[value]\n", "        return members.get(value)\n", (MALFORMED,)),
    Mutant(MODEL, "    names = _field_names(cls)\n    steps", "    names = _field_names(ScenarioConfig)\n    steps",
           (MALFORMED,)),
    Mutant(MODEL, "        if node.id in node_ids:", "        if False:", (VALIDATION_TABLE,)),
    Mutant(MODEL, "accepted = type(value) is fast and", "accepted = fast is float and", (VALIDATE,)),
    Mutant(MODEL, "and low <= value <= high  # a float", "and low <= value  # a float", (VALIDATION_TABLE,)),
    # Only the first path node sends on a single hop or sequential rounds; every interior node on a chain.
    Mutant(MODEL, "return path[1:-1] if protocol is Protocol.PARALLEL_CHAIN else path[:1]", "return path[:1]",
           ("tests/test_timing.py",)),
    # Every JSON document is RFC 8259: the one writer refuses a non-finite float, and adversary writes an
    # infinite z-score as null.
    Mutant(CLI, "indent=2, allow_nan=False, default=", "indent=2, default=", (STRICT_JSON,)),
    Mutant(CLI, "report if math.isfinite(report.z_score) else", "report if True else", (STRICT_JSON,)),
]

EQUIVALENT = [
    (Mutant(ENGINE, "_SCAN_MIN_SLOTS = 4", "_SCAN_MIN_SLOTS = 2", ENGINE_TESTS),
     "the scan threshold only chooses which quiet windows are read in bulk; the draws and outcomes are the same"),
    (Mutant(ENGINE, "start = down[first] + 1", "start = down[first]", ENGINE_TESTS),
     "the scan's hit link is already up when the draw loop starts, so the loop passes it without a draw"),
    (Mutant(FIDELITY, "value <= 1.0", "value < 1.0", FIDELITY_TESTS),
     "a swap value of exactly 1.0 then takes the else branch, which returns 1.0: the same float"),
    (Mutant(FIDELITY, "decayed < f0", "decayed <= f0", FIDELITY_TESTS),
     "where decayed equals f0 it is the float float(f0) would give, so either branch returns the same bits"),
    (Mutant(MODEL, "and low <= value <= high  # a float", "and low < value <= high  # a float", (VALIDATE,)),
     "the early accept only skips the full rule: a float on the low bound that it no longer takes, the rule takes"),
    (Mutant(TIMING, "t = scenario_timings(model._require_valid(config))", "t = scenario_timings(config)",
            ("tests/test_timing.py",)),
     "scenario_timings validates the scenario itself; check_scenario validates first only to keep that time out "
     "of the traced scenario_timings span"),
]


def _label(m: Mutant, text: str) -> str:
    line = text[: text.index(m.old)].count("\n") + 1
    first = [(text.strip().splitlines() or [""])[0] for text in (m.old, m.new)]  # a deletion's new text is empty
    return f"{m.file}:{line}: {first[0]!r} -> {first[1]!r}"


def _pytest(copy: Path, tests: tuple[str, ...], timeout: float) -> int | None:
    """Exit code of ``pytest -x`` on ``tests`` in the copy, or None past the time limit."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return None


def run(root: Path, catalog: list[Mutant], equivalent: list[tuple[Mutant, str]], timeout: float,
        report: Callable[[str], None] = print) -> int:
    """Run the catalog against a copy of ``root``; the exit status described in the module docstring."""
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(root, copy, ignore=lambda _, names: [n for n in names if n[0] == "." or n == "__pycache__"])
        everything = [m for m, _ in equivalent] + catalog
        sources = {m.file: (copy / "src" / m.file).read_text(encoding="utf-8") for m in everything}
        stale = [m for m in everything if sources[m.file].count(m.old) != 1]
        for m in stale:
            report(f"STALE     {m.file}: the old text occurs {sources[m.file].count(m.old)} times: {m.old!r}")
        for m, reason in equivalent:
            if m not in stale:
                report(f"skipped   {_label(m, sources[m.file])} (equivalent: {reason})")
        live = [m for m in catalog if m not in stale]
        status = 1 if stale else 0

        union = tuple(sorted({t for m in live for t in m.tests}))
        # At least a minute, whatever the per-mutant limit: this run must not fail for a slow start.
        if union and _pytest(copy, union, max(timeout * len(union), 60.0)) != 0:
            report(f"FAILED    the named tests fail or time out without a mutant: {' '.join(union)}")
            return 1
        for m in live:
            text = sources[m.file]
            path = copy / "src" / m.file
            path.write_text(text.replace(m.old, m.new), encoding="utf-8")
            start = time.perf_counter()
            code = _pytest(copy, m.tests, timeout)
            path.write_text(text, encoding="utf-8")
            if code is None:
                verdict = "killed (timeout)"
            elif code:
                verdict = "killed"
            else:
                verdict = "SURVIVED"
                status = 1
            report(f"{verdict:9s} {_label(m, text)} in {time.perf_counter() - start:.1f} s")
    return status


def main() -> int:
    start = time.perf_counter()
    status = run(ROOT, CATALOG, EQUIVALENT, TIMEOUT)
    print(f"{len(CATALOG)} mutants, {len(EQUIVALENT)} equivalent, {time.perf_counter() - start:.0f} s: "
          + ("ok" if status == 0 else "FAILED"))
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Independent test oracles: exhaustive enumerations, statistics helpers and reference readers.

Everything here restates contract behavior from first principles (literal
pair counting, brute-force outcome enumeration) or keeps an earlier,
differently built implementation (the slot-by-slot chain engine, the
scenario readers), so the implementations under test are checked against a
second, unrelated code path.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import random
import types
import typing
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable

from pqnetsim import FailureReason, Protocol, TrialOutcome, engine, fidelity, model, timing
from pqnetsim.errors import ParameterError, ProfileNotFoundError, ScenarioValidationError, Violation
from pqnetsim.model import (
    AdversaryConfig,
    CryptoProfile,
    CryptoRegistry,
    ScenarioConfig,
    _field_names,
    _is_int,
    _is_number,
    _mismatch,
    _ranges,
    _read_json,
    _validate_topology,
    pair_key,
    split_pair_key,
)
from scenario_builders import chain_scenario, two_party_scenario


def exact_window_success(p: float, window_slots: int) -> float:
    """Enumerate every generation string of bounded length.

    Success means at least one generation within the window; probabilities
    are summed literally over all 2^w outcomes.
    """
    total = 0.0
    for bits in itertools.product((0, 1), repeat=window_slots):
        prob = 1.0
        for bit in bits:
            prob *= p if bit else (1.0 - p)
        if any(bits):
            total += prob
    return total


def exact_coincidence_success(p: float, cutoff_slots: int, horizon: int) -> float:
    """Exact success probability of the two-link coincidence process.

    Restates the slot mechanics directly: at each boundary a pair that has
    survived ``cutoff_slots`` slots resets, regenerating links then attempt
    with probability p, and the swap fires once both pairs coexist.
    """

    @lru_cache(maxsize=None)
    def from_state(slot: int, age_a: int | None, age_b: int | None) -> float:
        if slot > horizon:
            return 0.0
        if age_a is not None and age_a >= cutoff_slots:
            age_a = None
        if age_b is not None and age_b >= cutoff_slots:
            age_b = None
        branches_a = ((1.0, age_a),) if age_a is not None else ((p, 0), (1.0 - p, None))
        branches_b = ((1.0, age_b),) if age_b is not None else ((p, 0), (1.0 - p, None))
        total = 0.0
        for weight_a, a in branches_a:
            for weight_b, b in branches_b:
                weight = weight_a * weight_b
                if weight == 0.0:
                    continue
                if a is not None and b is not None:
                    total += weight
                else:
                    total += weight * from_state(
                        slot + 1,
                        a + 1 if a is not None else None,
                        b + 1 if b is not None else None,
                    )
        return total

    return from_state(1, None, None)


def three_sigma(p_true: float, n: int) -> float:
    """Three binomial standard errors around a true proportion."""
    return 3.0 * math.sqrt(max(p_true * (1.0 - p_true), 1e-12) / n)


def random_deterministic_scenario(rng: random.Random) -> model.ScenarioConfig:
    """Random p = 1 scenario across all protocols, mixed feasibility.

    A quarter of the draws pin the receiver's coherence time exactly at the
    total message delay, exercising the strict boundary.
    """
    protocol = rng.choice(list(Protocol))
    delay = lambda: rng.uniform(0.0002, 0.002)
    t_coh_end = rng.uniform(0.0005, 0.012)
    if protocol is Protocol.PARALLEL_CHAIN:
        config = chain_scenario(
            [(delay(), delay()) for _ in range(rng.randint(1, 3))],
            dec_end=delay(),
            t_coh_end=t_coh_end,
            t_coh_far=rng.uniform(0.001, 1.0),
            t_coh_repeater=rng.uniform(0.001, 1.0),
            p_success=1.0,
        )
    else:
        config = two_party_scenario(
            protocol=protocol,
            enc=delay(),
            comm=delay(),
            dec=delay(),
            t_coh_end=t_coh_end,
            t_coh_far=rng.uniform(0.001, 1.0),
            rounds_l=rng.randint(1, 4),
            p_success=1.0,
        )
    if rng.random() < 0.25:
        boundary = max(timing.scenario_timings(config).totals)
        receiver = model.resolve_path(config)[-1]
        index = [n.id for n in config.nodes].index(receiver)
        config = model.set_config_value(config, f"nodes.{index}.memory.t_coh", boundary)
    return config


def reference_execute(prepared, trial_seed: int, max_slots: int) -> TrialOutcome:
    """``engine._execute`` with the chain trial run slot by slot."""
    rng = random.Random(trial_seed)
    if isinstance(prepared, engine._PreparedChain):
        return reference_parallel_chain(prepared, rng, max_slots)
    return engine._run_two_party(prepared, rng, max_slots)


def reference_parallel_chain(run, rng: random.Random, max_slots: int) -> TrialOutcome:
    """The slot-by-slot chain engine: expiry sweep, draws and Bell-state scan in every slot.

    Kept as the reference the fast-forwarding engine must match outcome for
    outcome, including ``slots_used`` and the draw stream.
    """
    tau = run.tau
    p = run.p
    lo_tcoh = run.lo_tcoh
    hi_tcoh = run.hi_tcoh
    # While both qubits are stored, the pair is lost at the first of its two cutoffs.
    intact_limit = tuple(min(lo, hi) for lo, hi in zip(lo_tcoh, hi_tcoh))
    delays = run.delays
    t_coh_end = run.t_coh_end
    n_links = len(p)
    n_reps = n_links - 1
    assert n_reps >= 1

    up = [False] * n_links
    gen_slot = [0] * n_links
    bsm_done = [False] * n_reps
    bsm_slot = [0] * n_reps
    pending = n_reps

    rand = rng.random
    slot = 0
    failure: FailureReason | None = None
    while slot < max_slots:
        slot += 1
        # Expiry sweep at the slot boundary, before new attempts.  Links with
        # both sides already measured carry no storage and are skipped.
        for j in range(n_links):
            if not up[j]:
                continue
            lo_used = j >= 1 and bsm_done[j - 1]
            hi_used = j < n_reps and bsm_done[j]
            if lo_used and hi_used:
                continue
            age = (slot - gen_slot[j]) * tau
            if not lo_used and not hi_used:
                if age >= intact_limit[j]:
                    up[j] = False
            elif lo_used:
                if age >= hi_tcoh[j]:
                    failure = FailureReason.MEMORY_EXPIRED
                    break
            else:
                # Remaining qubit sits at the lo-side node; for the first
                # link that is the non-designated end node, whose storage
                # never aborts the protocol.
                if j > 0 and age >= lo_tcoh[j]:
                    failure = FailureReason.MEMORY_EXPIRED
                    break
        if failure is not None:
            return TrialOutcome(False, slot, failure_reason=failure)

        for j in range(n_links):
            if not up[j] and rand() < p[j]:
                up[j] = True
                gen_slot[j] = slot

        # The sweep above guarantees every live pair is fresh at this slot,
        # so a repeater fires as soon as both adjacent pairs are present.
        for i in range(n_reps):
            if not bsm_done[i] and up[i] and up[i + 1]:
                bsm_done[i] = True
                bsm_slot[i] = slot
                pending -= 1
        if pending == 0:
            break
    else:
        return TrialOutcome(False, max_slots, failure_reason=FailureReason.HORIZON_EXCEEDED)

    # All corrections are in flight; the rest is arithmetic.
    store_slot = gen_slot[n_links - 1]
    lateness = [
        (bsm_slot[i] - store_slot) * tau + delays[i] for i in range(n_reps)
    ]
    worst = max(lateness)
    t_dist = store_slot * tau + worst
    if not (worst < t_coh_end):
        return TrialOutcome(False, slot, t_dist=t_dist, failure_reason=FailureReason.MESSAGE_LATE)

    # Decay each link for both storage waits, then fold it in as chain_fidelity does.
    decay, swap = fidelity._decay, fidelity._swap
    for j in range(n_links):
        if j == 0:
            wait_lo = max(0.0, t_dist - gen_slot[j] * tau)
        else:
            wait_lo = (bsm_slot[j - 1] - gen_slot[j]) * tau
        if j == n_links - 1:
            wait_hi = max(0.0, t_dist - gen_slot[j] * tau)
        else:
            wait_hi = (bsm_slot[j] - gen_slot[j]) * tau
        f = decay(decay(run.base_fids[j], wait_lo, lo_tcoh[j]), wait_hi, hi_tcoh[j])
        f_end = f if j == 0 else swap(f_end, f)
    return TrialOutcome(True, slot, t_dist=t_dist, f_end=f_end)

# ---------------------------------------------------------------------------
# Reference scenario and registry readers
# ---------------------------------------------------------------------------
# The readers and the record-by-record validation loop as they stood beside
# the one-reader design: each reader appends a violation at its full path and
# returns None, and a record is built only if none was appended.  The
# differential tests in test_model.py hold model's readers to these.

def reference_load_registry(path: str | Path) -> CryptoRegistry:
    """``model.load_registry`` by the reference readers: the same registry, or the same ParameterError."""
    try:
        data = _read_json(path)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParameterError(f"cannot read profile registry {path}: {exc}") from exc
    if not isinstance(data, list):
        raise ParameterError("profile registry must be a JSON array of profile objects")
    vios: list[Violation] = []
    profiles = []
    for i, raw in enumerate(data):
        where = f"[{i}]"
        unknown = raw.keys() - _field_names(CryptoProfile) if isinstance(raw, dict) else None
        if unknown:
            vios.append(Violation(where, f"unknown profile key(s): {sorted(unknown)}"))
            continue
        found: list[Violation] = []
        profile = _parse_record(CryptoProfile, raw, where, found, None)
        if profile is not None:
            profiles.append(profile)
            found += [Violation(f"{where}.{fname}", problem) for fname, problem in _range_problems(profile)]
        name = raw.get("name") if isinstance(raw, dict) else None
        named = f" (profile {name!r})" if isinstance(name, str) and name else ""
        vios.extend(Violation(v.path + named, v.message) for v in found)
    if vios:
        raise ParameterError("; ".join(map(str, vios)))
    return CryptoRegistry(profiles)


def _range_problems(record: Any) -> list[tuple[str, str]]:
    """``(field name, message)`` for each field of ``record`` outside its declared range, in field order."""
    problems = []
    for name, spec in _ranges(type(record)):
        low, high, message = spec["range"]
        if not low <= getattr(record, name) <= high:
            problems.append((name, message))
    return problems


# A reader parses one JSON value: ``read(value, path, key, vios, registry)``
# returns the value, or appends a violation at ``path + key`` (the path is
# only built then) and returns None.  Readers of composite types are
# ``functools.partial``s that bind what the type hint names.

def _read_float(value, path, key, vios, registry):
    if not _is_number(value):
        vios.append(Violation(path + key, _mismatch("a number", value)))
        return None
    try:
        return float(value)
    except OverflowError:
        vios.append(Violation(path + key, "integer too large for a float"))


def _read_checked(ok, expected, value, path, key, vios, registry):
    """Take a JSON value as it is when ``ok`` accepts it."""
    if ok(value):
        return value
    vios.append(Violation(path + key, _mismatch(expected, value)))


_read_str = functools.partial(_read_checked, lambda v: isinstance(v, str) and v != "", "a non-empty string")


def _read_profile(value, path, key, vios, registry):
    """``NodeSpec.crypto``: the name of a registry profile, resolved here."""
    name = _read_str(value, path, key, vios, registry)
    if name is not None:
        try:
            return registry.lookup(name)
        except ProfileNotFoundError:
            vios.append(Violation(path + key, f"unknown crypto profile {name!r}"))


def _read_ids(value, path, key, vios, registry):
    if isinstance(value, list) and len(value) == 2 and all(isinstance(e, str) and e for e in value):
        return value[0], value[1]
    vios.append(Violation(path + key, "must be a list of two node ids"))


def _read_enum(members, value, path, key, vios, registry):
    try:
        return members[value]
    except (KeyError, TypeError):
        vios.append(Violation(path + key, f"must be one of {list(members)}, got {value!r}"))


def _read_optional(read, value, path, key, vios, registry):
    return None if value is None else read(value, path, key, vios, registry)


def _read_record(cls, value, path, key, vios, registry):
    return _parse_record(cls, value, path + key, vios, registry)


def _read_list(read, value, path, key, vios, registry):
    if not isinstance(value, list):
        vios.append(Violation(path + key, _mismatch("a list", value)))
        return None
    path += key
    return tuple([read(item, path, f"[{i}]", vios, registry) for i, item in enumerate(value)])


def _read_pair_keyed(read, value, path, key, vios, registry):
    """An object keyed by ``"a,b"`` node pairs; keys are canonicalised with :func:`pair_key`."""
    if not isinstance(value, dict):
        vios.append(Violation(path + key, _mismatch("an object keyed by 'a,b' node pairs", value)))
        return None
    path += key
    out = {}
    for text, item in value.items():
        where = f"[{text!r}]"
        pair = split_pair_key(text)
        if pair is None or pair[0] == pair[1]:
            vios.append(Violation(path + where, "key must name two distinct node ids joined by a comma"))
            continue
        canon = pair_key(*pair)
        parsed = read(item, path, where, vios, registry)
        if canon in out:
            vios.append(Violation(path + where, "duplicate channel for this node pair"))
        out[canon] = parsed
    return out


_SCALAR_READERS = {
    float: _read_float,
    int: functools.partial(_read_checked, _is_int, "an integer"),
    bool: functools.partial(_read_checked, lambda v: isinstance(v, bool), "a boolean"),
    str: _read_str,
}


def _reader(hint: Any) -> Callable:
    """The reader for a dataclass field's type hint."""
    if hint in _SCALAR_READERS:
        return _SCALAR_READERS[hint]
    if isinstance(hint, type) and issubclass(hint, Enum):
        return functools.partial(_read_enum, {m.value: m for m in hint})
    if dataclasses.is_dataclass(hint):
        return functools.partial(_read_record, hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple and args == (str, str):
        return _read_ids
    if origin is types.UnionType and len(args) == 2 and args[1] is type(None):
        read, inner = _read_optional, args[0]
    elif origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        read, inner = _read_list, args[0]
    elif origin is dict and args[0] is str:
        read, inner = _read_pair_keyed, args[1]
    else:
        raise TypeError(f"no JSON reader for type {hint!r}")
    return functools.partial(read, _reader(inner))


@functools.cache
def _plan(cls: type) -> tuple[tuple[str, str, Any, Callable], ...]:
    """How to read a dataclass from JSON, built once per class.

    One step per field, in field order: its name, its path suffix, its
    default (``dataclasses.MISSING`` when it has none), and the reader of
    its type hint.  A field marked ``registry_name`` is read as a profile
    name.
    """
    hints = typing.get_type_hints(cls)
    steps = []
    for f in dataclasses.fields(cls):
        read = _read_profile if f.metadata.get("registry_name") else _reader(hints[f.name])
        steps.append((f.name, "." + f.name, f.default, read))
    return tuple(steps)


def _parse_record(cls: type, raw: Any, path: str, vios: list[Violation], registry: CryptoRegistry | None) -> Any:
    """Read the JSON object ``raw`` as dataclass ``cls``, by its fields and their type hints.

    Unknown keys, then each missing or ill-typed field in field order, are
    appended to ``vios`` at their paths under ``path``; the record is
    returned only if there were none.  A missing field with a default takes it.
    """
    if not isinstance(raw, dict):
        vios.append(Violation(path, _mismatch("an object", raw)))
        return None
    count = len(vios)
    names = _field_names(cls)
    if not raw.keys() <= names:
        vios.extend(Violation(f"{path}.{key}", "unknown key") for key in sorted(raw.keys() - names))
    values = {}
    for name, key, default, read in _plan(cls):
        value = raw.get(name, default)
        if value is dataclasses.MISSING:
            vios.append(Violation(path + key, "missing"))
        else:
            values[name] = read(value, path, key, vios, registry)
    return cls(**values) if len(vios) == count else None


def reference_parse_scenario(data: dict, registry: CryptoRegistry) -> ScenarioConfig:
    """``model.parse_scenario`` on a JSON object: every structural violation, in field order."""
    vios: list[Violation] = []
    config = _parse_record(ScenarioConfig, data, "$", vios, registry)
    if config is not None and config.adversary is not None:
        pair = split_pair_key(config.adversary.intercept_link)
        if pair is None:
            vios.append(Violation("$.adversary.intercept_link", "must name a link as 'a,b'"))
        else:
            adversary = dataclasses.replace(config.adversary, intercept_link=pair_key(*pair))
            config = dataclasses.replace(config, adversary=adversary)
    if vios:
        raise ScenarioValidationError(vios)
    return config


def reference_violations(config: ScenarioConfig) -> list[Violation]:
    """``model.validate_scenario``: every violation, read record by record, in record order."""
    vios: list[Violation] = []
    node_ids: set[str] = set()
    profile_problems: dict[int, list[tuple[str, str]]] = {}
    for i, node in enumerate(config.nodes):
        path = f"$.nodes[{i}]"
        if node.id in node_ids:
            vios.append(Violation(f"{path}.id", f"duplicate node id {node.id!r}"))
        node_ids.add(node.id)
        for name, message in _range_problems(node.memory):
            vios.append(Violation(f"{path}.memory.{name}", f"node {node.id!r}: {name} {message}"))
        # Many nodes share one profile object; check each once.
        crypto = node.crypto
        problems = profile_problems.get(id(crypto))
        if problems is None:
            problems = profile_problems[id(crypto)] = _range_problems(crypto)
        for name, message in problems:
            vios.append(Violation(f"{path}.crypto.{name}", f"profile {crypto.name!r}: {message}"))

    seen_links: set[str] = set()
    links_clean = True
    for i, link in enumerate(config.quantum_links):
        path = f"$.quantum_links[{i}]"
        a, b = link.endpoints
        key = link.key
        count = len(vios)
        if a == b:
            vios.append(Violation(f"{path}.endpoints", f"link {key!r}: endpoints must be distinct"))
        for endpoint in (a, b):
            if endpoint not in node_ids:
                vios.append(Violation(f"{path}.endpoints", f"link references unknown node id {endpoint!r}"))
        if key in seen_links:
            vios.append(Violation(f"{path}.endpoints", f"duplicate quantum link {key!r}"))
        seen_links.add(key)
        links_clean = links_clean and len(vios) == count
        for name, message in _range_problems(link):
            vios.append(Violation(f"{path}.{name}", f"link {key!r}: {name} {message}"))

    for key, spec in config.classical_channels.items():
        path = f"$.classical_channels[{key!r}]"
        pair = split_pair_key(key)
        if pair is None or pair[0] == pair[1]:
            vios.append(Violation(path, "key must name two distinct node ids joined by a comma"))
            continue
        if pair[0] > pair[1]:
            vios.append(Violation(path, f"key must be in pair_key order, {pair_key(*pair)!r}"))
        for endpoint in pair:
            if endpoint not in node_ids:
                vios.append(Violation(path, f"channel references unknown node id {endpoint!r}"))
        for name, message in _range_problems(spec):
            vios.append(Violation(f"{path}.{name}", message))

    vios.extend(Violation(f"$.{name}", message) for name, message in _range_problems(config))
    if config.adversary is not None:
        vios.extend(_adversary_violations(config.adversary, seen_links))

    # Referential problems are already reported; shape checks need clean links.
    if links_clean:
        vios.extend(_validate_topology(config))
    return vios


def _adversary_violations(adv: AdversaryConfig, link_keys: set[str]) -> list[Violation]:
    """The adversary's ranges, its finite total delay, and an ``intercept_link`` that names a link in order."""
    vios = [Violation(f"$.adversary.{name}", message) for name, message in _range_problems(adv)]
    if adv.delta_t == math.inf and math.isfinite(adv.t_eve) and math.isfinite(adv.t_pqc):
        vios.append(Violation("$.adversary", "t_eve + t_pqc must be finite"))
    pair = split_pair_key(adv.intercept_link)
    if pair is None or pair_key(*pair) not in link_keys:
        vios.append(Violation("$.adversary.intercept_link", f"no quantum link matches {adv.intercept_link!r}"))
    elif pair[0] > pair[1]:
        vios.append(Violation("$.adversary.intercept_link", f"must be in pair_key order, {pair_key(*pair)!r}"))
    return vios

"""Domain model for quantum-network scenarios with PQC-protected signaling.

This module holds every type shared across the package: node, link and
channel specifications, the crypto-profile registry, the full scenario
description, and the validation machinery that turns a JSON document into a
checked :class:`ScenarioConfig`.

The dataclasses are the schema: their field names give the keys, their type
hints the JSON type of each value (read by :func:`_record_reader`), and their
``range`` metadata each value's legal range (checked by :func:`_range_problem`).
Durations are numbers in seconds; unknown keys are violations, never ignored,
and so is a key given twice in one JSON object.
Unordered node pairs (classical-channel keys and the adversary's
``intercept_link``) are encoded as the two node ids joined by a comma, e.g.
``"alice,relay"``; key order does not matter and is normalized on load.

Every JSON type has one reader, and valid and invalid input take the same
path.  A reader returns its value or raises every problem it found, each
with its path relative to the value; a record, list or pair-keyed object
reads each item once, in one loop, and puts the item's key in front of the
item's problems (:func:`_record_reader`).  Validation reads the records once
each, in record order, and builds a violation's path only when it reports
one (:func:`validate_scenario`).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import operator
import sys
import types
import typing
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from .errors import ParameterError, ProfileNotFoundError, ScenarioValidationError, Violation

__all__ = [
    "CryptoKind",
    "CryptoProfile",
    "CryptoRegistry",
    "default_registry",
    "load_registry",
    "MemoryTier",
    "MemorySpec",
    "NodeRole",
    "NodeSpec",
    "ClassicalChannelSpec",
    "QuantumLinkSpec",
    "AdversaryConfig",
    "Protocol",
    "ScenarioConfig",
    "SecurityFamily",
    "effective_security",
    "pair_key",
    "split_pair_key",
    "parse_scenario",
    "load_scenario",
    "validate_scenario",
    "resolve_path",
    "message_senders",
    "set_config_value",
]


def _range(low: Any, high: Any, message: str) -> dict:
    """Field metadata: a legal value has ``low <= value <= high`` (never NaN); ``message`` says so otherwise.

    ``math.ulp(0.0)`` as ``low`` reads "> 0", ``sys.float_info.max`` as ``high`` reads "finite".
    An int ``low`` declares an integer range.  The same dict is the ``spec`` of :func:`_check_arg`.
    """
    return {"range": (low, high, message)}


_NON_NEGATIVE = _range(0.0, sys.float_info.max, "must be finite and >= 0")
_POSITIVE = _range(math.ulp(0.0), sys.float_info.max, "must be finite and > 0")
_FINITE = _range(-sys.float_info.max, sys.float_info.max, "must be finite")
_FIDELITY = _range(0.25, 1.0, "must be in [0.25, 1]")
_COUNT = _range(0, math.inf, "must be >= 0")
_AT_LEAST_ONE = _range(1, math.inf, "must be >= 1")
_SEED = _range(0, 2**64 - 1, "must fit in an unsigned 64-bit integer")


def _range_problem(value: Any, low: Any, high: Any, message: str) -> str | None:
    """The range rule: None if ``value`` is legal under a :func:`_range` declaration, else what is wrong."""
    if not (_is_int(value) if type(low) is int else _is_number(value)):
        return f"must be {'an integer' if type(low) is int else 'a number'}"
    return None if low <= value <= high else message


def _check_arg(value: Any, name: str, spec: dict) -> Any:
    """``value`` if :func:`_range_problem` finds nothing under ``spec``; else a :class:`ParameterError`.

    The message shows an integer past 128 bits by its size: ``repr`` fails past 4300 digits.
    """
    if (problem := _range_problem(value, *spec["range"])) is None:
        return value
    big = _is_int(value) and value.bit_length() > 128
    shown = f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits" if big else repr(value)
    raise ParameterError(f"{name} {problem}, got {shown}")


def _check_type(value: Any, name: str, cls: type) -> Any:
    """``value`` if it is a ``cls`` (a string counts only as a ``str``); else a :class:`ParameterError`."""
    if not isinstance(value, cls) or (isinstance(value, str) and cls is not str):
        raise ParameterError(f"{name} must be of type {cls.__name__}, got {type(value).__name__}")
    return value


class CryptoKind(Enum):
    KEM = "kem"
    SIGNATURE = "signature"


class MemoryTier(Enum):
    SHORT_LIVED = "short_lived"
    LONG_LIVED = "long_lived"


class NodeRole(Enum):
    END_NODE = "end_node"
    REPEATER = "repeater"
    CORE = "core"
    EDGE = "edge"


class Protocol(Enum):
    SINGLE_HOP = "single_hop"
    PARALLEL_CHAIN = "parallel_chain"
    SEQUENTIAL_ROUNDS = "sequential_rounds"


class SecurityFamily(Enum):
    SYMMETRIC = "symmetric"
    FACTORING_OR_DLOG_BASED = "factoring_or_dlog_based"
    PQC = "pqc"


@dataclass(frozen=True)
class CryptoProfile:
    """Latency/size profile of a PQC algorithm class.

    Only the externally observable costs are modeled: how long it takes a
    node to protect (encrypt or sign) and to verify/decrypt a message, and
    how large the transmitted material is.  No actual cryptography happens
    anywhere in this package.

    Attributes:
        name: registry identifier, unique within a registry.
        kind: ``kem`` or ``signature``.
        t_encrypt: seconds to encrypt/authenticate one message.
        t_decrypt: seconds to decrypt/verify one message.
        public_key_bytes: size of the public key material.
        ciphertext_or_sig_bytes: size of a ciphertext or signature.
        claimed_security_bits: security level claimed by the scheme.
        illustrative: True for the shipped defaults, whose latencies are
            placeholders to be replaced by user-measured numbers.
    """

    name: str
    kind: CryptoKind
    t_encrypt: float = field(metadata=_NON_NEGATIVE)
    t_decrypt: float = field(metadata=_NON_NEGATIVE)
    public_key_bytes: int = field(metadata=_COUNT)
    ciphertext_or_sig_bytes: int = field(metadata=_COUNT)
    claimed_security_bits: int = field(metadata=_COUNT)
    illustrative: bool = False


@dataclass(frozen=True)
class MemorySpec:
    """Quantum-memory parameters of one node: coherence time and tier."""

    t_coh: float = field(metadata=_POSITIVE)
    tier: MemoryTier


@dataclass(frozen=True)
class NodeSpec:
    """One network node: identity, role, memory, and its crypto profile.

    In JSON, ``crypto`` is the name of a profile in the registry.
    """

    id: str
    role: NodeRole
    memory: MemorySpec
    crypto: CryptoProfile = field(metadata={"registry_name": True})


@dataclass(frozen=True)
class ClassicalChannelSpec:
    """Classical channel delays between one node pair."""

    propagation_delay: float = field(metadata=_NON_NEGATIVE)
    processing_delay: float = field(metadata=_NON_NEGATIVE)

    @property
    def t_comm(self) -> float:
        """Effective one-way communication delay (propagation + processing)."""
        return self.propagation_delay + self.processing_delay


@dataclass(frozen=True)
class QuantumLinkSpec:
    """Elementary entanglement link between two adjacent nodes.

    ``p_success`` is the per-slot generation probability used by the engine;
    ``gen_rate`` records the hardware attempt rate (attempts per second) as
    descriptive metadata.  ``base_fidelity`` is the Werner fidelity of a
    freshly generated pair and must lie in [0.25, 1].
    """

    endpoints: tuple[str, str]
    gen_rate: float = field(metadata=_POSITIVE)
    p_success: float = field(metadata=_range(math.ulp(0.0), 1.0, "must be in (0, 1]"))
    base_fidelity: float = field(metadata=_FIDELITY)

    @functools.cached_property
    def key(self) -> str:
        """The link's :func:`pair_key`, computed once per link object."""
        return pair_key(*self.endpoints)


@dataclass(frozen=True)
class AdversaryConfig:
    """Hybrid intercept-and-manipulate adversary parameters.

    The adversary pulls flying qubits of one link into its own memory
    (``t_eve`` capture/storage latency), tampers with the PQC-protected
    classical traffic (``t_pqc`` manipulation delay) and can hold state for
    ``t_coh_eve`` seconds before its memory decoheres.  ``intercept_link``
    names the attacked link by its comma-joined endpoint pair.
    """

    t_eve: float = field(metadata=_NON_NEGATIVE)
    t_pqc: float = field(metadata=_NON_NEGATIVE)
    t_coh_eve: float = field(metadata=_POSITIVE)
    intercept_link: str

    @property
    def delta_t(self) -> float:
        """Total adversarial delay: interception plus classical manipulation."""
        return self.t_eve + self.t_pqc


_Chain = tuple[tuple[NodeSpec, ...] | None, tuple[QuantumLinkSpec, ...], tuple[Violation, ...]]


@dataclass(frozen=True)
class ScenarioConfig:
    """Full declarative description of one simulation or analysis run."""

    nodes: tuple[NodeSpec, ...]
    quantum_links: tuple[QuantumLinkSpec, ...]
    classical_channels: dict[str, ClassicalChannelSpec]
    protocol: Protocol
    seed: int = field(metadata=_SEED)
    n_trials: int = field(metadata=_AT_LEAST_ONE)
    slot_duration: float = field(metadata=_POSITIVE)
    rounds_l: int = field(default=1, metadata=_range(1, 10**6, "must be in [1, 1000000]"))
    adversary: AdversaryConfig | None = None

    @functools.cached_property
    def _chain(self) -> _Chain:
        """:func:`_walk` of this scenario, walked once per object: validation holds its nodes and links to tuples."""
        return _walk(self)


def pair_key(a: str, b: str) -> str:
    """Canonical unordered-pair key: the two ids, sorted, joined by a comma."""
    return ",".join((a, b) if a <= b else (b, a))


def split_pair_key(key: str) -> tuple[str, str] | None:
    """Inverse of :func:`pair_key`; returns None if the key is malformed."""
    parts = key.split(",")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        return None
    return parts[0], parts[1]


# ---------------------------------------------------------------------------
# Quantum-era effective security
# ---------------------------------------------------------------------------

def effective_security(claimed_bits: int, family: SecurityFamily) -> int:
    """Security bits that survive a quantum adversary.

    Quadratic-speedup search halves symmetric security (floor division, the
    conservative integer reading), polynomial-time factoring/discrete-log
    attacks zero out that family entirely, and PQC schemes keep their
    claimed level.
    """
    _check_arg(claimed_bits, "claimed_bits", _COUNT)
    if family is SecurityFamily.SYMMETRIC:
        return claimed_bits // 2
    if family is SecurityFamily.FACTORING_OR_DLOG_BASED:
        return 0
    return claimed_bits


# ---------------------------------------------------------------------------
# Crypto-profile registry
# ---------------------------------------------------------------------------

class CryptoRegistry:
    """Read-only, name-keyed collection of crypto profiles."""

    def __init__(self, profiles: Iterable[CryptoProfile]):
        self._profiles: dict[str, CryptoProfile] = {}
        for p in profiles:
            if p.name in self._profiles:
                raise ParameterError(f"duplicate crypto profile name: {p.name!r}")
            self._profiles[p.name] = p

    def lookup(self, name: str) -> CryptoProfile:
        try:
            return self._profiles[name]
        except KeyError:
            raise ProfileNotFoundError(f"profile not found: {name!r}") from None

    def profiles(self) -> list[CryptoProfile]:
        return list(self._profiles.values())


# Shipped defaults. The latencies are illustrative configuration values, not
# measurements; every deployment is expected to supply its own registry file.
_DEFAULT_PROFILES = (
    CryptoProfile("kyber512-class", CryptoKind.KEM, 5.0e-5, 6.0e-5, 800, 768, 128, illustrative=True),
    CryptoProfile("frodo1344-class", CryptoKind.KEM, 1.2e-3, 1.4e-3, 21520, 21632, 256, illustrative=True),
    CryptoProfile("dilithium-class", CryptoKind.SIGNATURE, 1.2e-4, 4.0e-5, 1312, 2420, 128, illustrative=True),
    CryptoProfile("sphincs-class", CryptoKind.SIGNATURE, 4.0e-3, 2.0e-4, 32, 7856, 128, illustrative=True),
)


def default_registry() -> CryptoRegistry:
    """Registry holding the shipped illustrative profiles."""
    return CryptoRegistry(_DEFAULT_PROFILES)


def load_registry(path: str | Path) -> CryptoRegistry:
    """Load a registry from a JSON array of profile objects.

    Entries are read by the same type rules as scenario files, and every
    problem in the file is reported together.

    Raises:
        ParameterError: on malformed JSON, unknown keys, bad field values or
            duplicate names.
    """
    try:
        data = _read_json(path)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParameterError(f"cannot read profile registry {path}: {exc}") from exc
    if not isinstance(data, list):
        raise ParameterError("profile registry must be a JSON array of profile objects")
    read, check = _record_reader(CryptoProfile), _range_check(CryptoProfile)
    vios: list[Violation] = []
    profiles = []
    for i, raw in enumerate(data):
        unknown = raw.keys() - _field_names(CryptoProfile) if isinstance(raw, dict) else None
        if unknown:
            vios.append(Violation(f"[{i}]", f"unknown profile key(s): {sorted(unknown)}"))
            continue
        try:
            profiles.append(read(raw, None))
            problems = [(f".{name}", message) for name, message in check(profiles[-1])]
        except _Problems as exc:
            problems = exc.problems
        name = raw.get("name") if isinstance(raw, dict) else None
        named = f" (profile {name!r})" if isinstance(name, str) and name else ""
        vios.extend(Violation(f"[{i}]{where}{named}", message) for where, message in problems)
    if vios:
        raise ParameterError("; ".join(map(str, vios)))
    return CryptoRegistry(profiles)


# ---------------------------------------------------------------------------
# Scenario parsing (structure) and validation (invariants)
# ---------------------------------------------------------------------------

def _json_object(pairs: list[tuple[str, Any]]) -> dict:
    """``object_pairs_hook`` for strict JSON: a key given twice in one object is an error, not last-wins."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


def _read_json(path: str | Path) -> Any:
    """The JSON document in the file at ``path``; a ValueError if it is not strict JSON."""
    return json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_json_object)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@functools.cache
def _field_names(cls: type) -> frozenset[str]:
    """A dataclass's field names, built once per class: the keys its JSON object may carry."""
    return frozenset(f.name for f in dataclasses.fields(cls))


@functools.cache
def _ranges(cls: type) -> tuple[tuple[str, dict], ...]:
    """A dataclass's range-checked fields, built once per class: name and :func:`_range` metadata."""
    return tuple((f.name, f.metadata) for f in dataclasses.fields(cls) if "range" in f.metadata)


@functools.cache
def _range_check(cls: type) -> Callable[[Any], list[tuple[str, str]]]:
    """The range check of dataclass ``cls``, built once per class from its :func:`_ranges`: ``(field name,
    message)`` for each field of a record that :func:`_range_problem` refuses, in field order."""
    bounds = tuple((name, *spec["range"], None if type(spec["range"][0]) is int else float) for name, spec in _ranges(cls))

    def problems(record):
        found = []
        for name, low, high, message, fast in bounds:
            value = getattr(record, name)
            accepted = type(value) is fast and low <= value <= high  # a float in a float range: no call needed
            if not accepted and (problem := _range_problem(value, low, high, message)):
                found.append((name, problem))
        return found

    return problems


def _mismatch(expected: str, value: Any) -> str:
    return f"expected {expected}, got {'an empty string' if value == '' else type(value).__name__}"


class _Problems(Exception):
    """What a reader found wrong: ``(path relative to the value read, message)`` pairs, in document order."""

    def __init__(self, problems: list[tuple[str, str]]):
        self.problems = problems


def _problem(message: str) -> _Problems:
    return _Problems([("", message)])


def _under(suffix: str, exc: _Problems) -> list[tuple[str, str]]:
    """The problems of ``exc``, moved under an item's ``suffix`` (``.field``, ``[i]`` or ``['a,b']``)."""
    return [(suffix + where, message) for where, message in exc.problems]


# A reader reads one JSON value: ``read(value, registry)`` returns it as its
# type hint names it, or raises _Problems.  Readers of composite types are
# ``functools.partial``s that bind what the type hint names; each reads its
# items in one loop and puts an item's suffix in front of the item's problems.

def _read_float(value, registry):
    if type(value) is float:
        return value
    if not _is_number(value):
        raise _problem(_mismatch("a number", value))
    try:
        return float(value)
    except OverflowError:
        raise _problem("integer too large for a float") from None


def _read_checked(ok, expected, value, registry):
    """Take a JSON value as it is when ``ok`` accepts it."""
    if ok(value):
        return value
    raise _problem(_mismatch(expected, value))


_read_str = functools.partial(_read_checked, lambda v: isinstance(v, str) and v != "", "a non-empty string")


def _read_profile(value, registry):
    """``NodeSpec.crypto``: the name of a registry profile, resolved here."""
    name = _read_str(value, registry)
    try:
        return registry.lookup(name)
    except ProfileNotFoundError:
        raise _problem(f"unknown crypto profile {name!r}") from None


def _read_ids(value, registry):
    if isinstance(value, list) and len(value) == 2:
        a, b = value
        if isinstance(a, str) and a and isinstance(b, str) and b:
            return a, b
    raise _problem("must be a list of two node ids")


def _read_enum(members, value, registry):
    try:
        return members[value]
    except (KeyError, TypeError):
        raise _problem(f"must be one of {list(members)}, got {value!r}") from None


def _read_optional(read, value, registry):
    return None if value is None else read(value, registry)


def _read_list(read, value, registry):
    if not isinstance(value, list):
        raise _problem(_mismatch("a list", value))
    items, problems = [], []
    for i, item in enumerate(value):
        try:
            items.append(read(item, registry))
        except _Problems as exc:
            problems += _under(f"[{i}]", exc)
    if problems:
        raise _Problems(problems)
    return tuple(items)


def _read_pair_keyed(read, value, registry):
    """An object keyed by ``"a,b"`` node pairs; keys are canonicalised with :func:`pair_key`."""
    if not isinstance(value, dict):
        raise _problem(_mismatch("an object keyed by 'a,b' node pairs", value))
    out, problems = {}, []
    for text, item in value.items():
        pair = split_pair_key(text)
        if pair is None or pair[0] == pair[1]:
            problems.append((f"[{text!r}]", "key must name two distinct node ids joined by a comma"))
            continue
        canon = pair_key(*pair)
        try:
            parsed = read(item, registry)
        except _Problems as exc:
            parsed = None
            problems += _under(f"[{text!r}]", exc)
        if canon in out:
            problems.append((f"[{text!r}]", "duplicate channel for this node pair"))
        out[canon] = parsed
    if problems:
        raise _Problems(problems)
    return out


_SCALARS = {
    float: _read_float,
    int: functools.partial(_read_checked, _is_int, "an integer"),
    bool: functools.partial(_read_checked, lambda v: isinstance(v, bool), "a boolean"),
    str: _read_str,
}


def _reader(hint: Any) -> Callable:
    """The reader for a dataclass field's type hint."""
    if hint in _SCALARS:
        return _SCALARS[hint]
    if isinstance(hint, type) and issubclass(hint, Enum):
        return functools.partial(_read_enum, {m.value: m for m in hint})
    if dataclasses.is_dataclass(hint):
        return _record_reader(hint)
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
def _record_reader(cls: type) -> Callable:
    """The reader of dataclass ``cls``, built once per class from its fields and their type hints.

    It reads a JSON object keyed by field names.  Its problems are the
    unknown keys, then each missing or ill-typed field in field order; a
    missing field with a default takes it.  A field marked ``registry_name``
    is read as a profile name.
    """
    hints = typing.get_type_hints(cls)
    names = _field_names(cls)
    steps = tuple((f.name, f.default, _read_profile if f.metadata.get("registry_name") else _reader(hints[f.name]))
                  for f in dataclasses.fields(cls))

    def read(raw, registry):
        if not isinstance(raw, dict):
            raise _problem(_mismatch("an object", raw))
        problems = [] if raw.keys() <= names else [(f".{key}", "unknown key") for key in sorted(raw.keys() - names)]
        values = []
        for name, default, read_field in steps:
            value = raw.get(name, default)
            try:
                if value is dataclasses.MISSING:
                    raise _problem("missing")
                values.append(read_field(value, registry))
            except _Problems as exc:
                problems += _under(f".{name}", exc)
        if problems:
            raise _Problems(problems)
        return cls(*values)

    return read


def parse_scenario(data: Any, registry: CryptoRegistry) -> ScenarioConfig:
    """Build a :class:`ScenarioConfig` from decoded JSON, strictly.

    Structural problems (wrong types, missing or unknown keys, unknown
    crypto-profile names, malformed pair keys) are collected and raised
    together as a :class:`ScenarioValidationError`.  Range and referential
    invariants are the job of :func:`validate_scenario`, which callers
    should run next.
    """
    if not isinstance(data, dict):
        raise ScenarioValidationError([Violation("$", "scenario must be a JSON object")])
    try:
        config = _record_reader(ScenarioConfig)(data, registry)
    except _Problems as exc:
        raise ScenarioValidationError([Violation(f"${where}", message) for where, message in exc.problems]) from None
    if config.adversary is not None:
        pair = split_pair_key(config.adversary.intercept_link)
        if pair is None:
            raise ScenarioValidationError([Violation("$.adversary.intercept_link", "must name a link as 'a,b'")])
        adversary = dataclasses.replace(config.adversary, intercept_link=pair_key(*pair))
        config = dataclasses.replace(config, adversary=adversary)
    return config


def load_scenario(path: str | Path, registry: CryptoRegistry | None = None) -> ScenarioConfig:
    """Read and parse a scenario file; raises ScenarioValidationError on problems."""
    registry = registry if registry is not None else default_registry()
    try:
        data = _read_json(path)
    except OSError as exc:
        raise ScenarioValidationError([Violation("$", f"cannot read {path}: {exc}")]) from exc
    except ValueError as exc:  # a JSONDecodeError, a duplicate key, or an integer literal beyond the digit limit
        raise ScenarioValidationError([Violation("$", f"not valid JSON: {exc}")]) from exc
    except RecursionError as exc:
        raise ScenarioValidationError([Violation("$", "JSON nested too deeply to decode")]) from exc
    return parse_scenario(data, registry)


def validate_scenario(config: ScenarioConfig) -> list[Violation]:
    """Check every scenario invariant; returns one violation per failure.

    Idempotent and order-independent: permuting node or link lists changes
    only the index part of violation paths, never the violation set.  The
    records are checked once each, in record order, and a violation's path
    is built only when it is reported.  Records, enums and dicts of another
    class than declared are reported alone (:func:`_wrong_classes`).
    """
    _check_type(config, "config", ScenarioConfig)
    if vios := _wrong_classes(config):
        return vios
    node_ids: set[str] = set()
    profile_problems: dict[int, list[tuple[str, str]]] = {}
    check_memory, check_profile = _range_check(MemorySpec), _range_check(CryptoProfile)
    for i, node in enumerate(config.nodes):
        if node.id in node_ids:
            vios.append(Violation(f"$.nodes[{i}].id", f"duplicate node id {node.id!r}"))
        node_ids.add(node.id)
        for name, message in check_memory(node.memory):
            vios.append(Violation(f"$.nodes[{i}].memory.{name}", f"node {node.id!r}: {name} {message}"))
        # Many nodes share one profile object; check each once.
        crypto = node.crypto
        problems = profile_problems.get(id(crypto))
        if problems is None:
            problems = profile_problems[id(crypto)] = check_profile(crypto)
        for name, message in problems:
            vios.append(Violation(f"$.nodes[{i}].crypto.{name}", f"profile {crypto.name!r}: {message}"))

    seen_links: set[str] = set()
    links_clean = True
    check_link = _range_check(QuantumLinkSpec)
    for i, link in enumerate(config.quantum_links):
        a, b = link.endpoints
        key = link.key
        count = len(vios)
        if a == b:
            vios.append(Violation(f"$.quantum_links[{i}].endpoints", f"link {key!r}: endpoints must be distinct"))
        for endpoint in (a, b):
            if endpoint not in node_ids:
                message = f"link references unknown node id {endpoint!r}"
                vios.append(Violation(f"$.quantum_links[{i}].endpoints", message))
        if key in seen_links:
            vios.append(Violation(f"$.quantum_links[{i}].endpoints", f"duplicate quantum link {key!r}"))
        seen_links.add(key)
        links_clean = links_clean and len(vios) == count
        for name, message in check_link(link):
            vios.append(Violation(f"$.quantum_links[{i}].{name}", f"link {key!r}: {name} {message}"))

    check_channel = _range_check(ClassicalChannelSpec)
    for key, spec in config.classical_channels.items():
        pair = split_pair_key(key)
        if pair is None or pair[0] == pair[1]:
            message = "key must name two distinct node ids joined by a comma"
            vios.append(Violation(f"$.classical_channels[{key!r}]", message))
            continue
        if pair[0] > pair[1]:
            message = f"key must be in pair_key order, {pair_key(*pair)!r}"
            vios.append(Violation(f"$.classical_channels[{key!r}]", message))
        for endpoint in pair:
            if endpoint not in node_ids:
                message = f"channel references unknown node id {endpoint!r}"
                vios.append(Violation(f"$.classical_channels[{key!r}]", message))
        for name, message in check_channel(spec):
            vios.append(Violation(f"$.classical_channels[{key!r}].{name}", message))

    vios.extend(Violation(f"$.{name}", message) for name, message in _range_check(ScenarioConfig)(config))
    adv = config.adversary
    if adv is not None:
        problems = _range_check(AdversaryConfig)(adv)
        vios.extend(Violation(f"$.adversary.{name}", message) for name, message in problems)
        if not {"t_eve", "t_pqc"} & {name for name, _ in problems} and adv.delta_t == math.inf:
            vios.append(Violation("$.adversary", "t_eve + t_pqc must be finite"))
        pair = split_pair_key(adv.intercept_link)
        if pair is None or pair_key(*pair) not in seen_links:
            vios.append(Violation("$.adversary.intercept_link", f"no quantum link matches {adv.intercept_link!r}"))
        elif pair[0] > pair[1]:
            vios.append(Violation("$.adversary.intercept_link", f"must be in pair_key order, {pair_key(*pair)!r}"))

    # Referential problems are already reported; shape checks need clean links.
    if links_clean:
        vios.extend(_validate_topology(config))
    return vios


def _wrong_classes(config: ScenarioConfig) -> list[Violation]:
    """A violation at each value that validation reads and that is of another class than declared.

    Items are read only once their containers have their classes; a link's ``endpoints`` is a tuple of two str.
    """
    nodes, links, channels, adv = config.nodes, config.quantum_links, config.classical_channels, config.adversary
    return _misfits([
        ("$.nodes", [(0, nodes)], tuple), ("$.quantum_links", [(0, links)], tuple),
        ("$.classical_channels", [(0, channels)], dict), ("$.protocol", [(0, config.protocol)], Protocol),
        ("$.adversary", [] if adv is None else [(0, adv)], AdversaryConfig)]) or _misfits([
        ("$.nodes[{}]", enumerate(nodes), NodeSpec), ("$.quantum_links[{}]", enumerate(links), QuantumLinkSpec),
        ("$.classical_channels[{!r}]", zip(channels, channels), str),
        ("$.classical_channels[{!r}]", channels.items(), ClassicalChannelSpec),
        ("$.adversary.intercept_link", [] if adv is None else [(0, adv.intercept_link)], str)]) or _misfits([
        (f"$.nodes[{{}}].{name}", enumerate(map(operator.attrgetter(name), nodes)), cls)
        for name, cls in (("id", str), ("role", NodeRole), ("memory", MemorySpec), ("crypto", CryptoProfile))]) or [
        Violation(f"$.quantum_links[{i}].endpoints", f"must be of type tuple[str, str], got {_kind(e)}")
        for i, e in enumerate(link.endpoints for link in links)
        if not (type(e) is tuple and len(e) == 2 and type(e[0]) is type(e[1]) is str)]


def _kind(value: Any) -> str:
    """The class name of ``value``; a tuple's names its items' classes too, as in ``tuple[str, int]``."""
    if type(value) is not tuple:
        return type(value).__name__
    return f"tuple[{', '.join(type(item).__name__ for item in value)}]"


def _misfits(columns: list[tuple[str, Iterable, type]]) -> list[Violation]:
    """For each ``(path, pairs, cls)``, a violation at ``path.format(key)`` for each pair whose value is no ``cls``."""
    return [Violation(path.format(key), f"must be of type {cls.__name__}, got {type(value).__name__}")
            for path, pairs, cls in columns for key, value in pairs if not isinstance(value, cls)]


def _require_valid(config: ScenarioConfig) -> ScenarioConfig:
    """``config`` if :func:`validate_scenario` finds nothing; else a :class:`ScenarioValidationError`."""
    violations = validate_scenario(config)
    if violations:
        raise ScenarioValidationError(violations)
    return config


def _validate_topology(config: ScenarioConfig) -> list[Violation]:
    """Protocol-shape checks on links that name distinct known nodes: path, roles, required channels."""
    links = config.quantum_links
    chain = config.protocol is Protocol.PARALLEL_CHAIN
    if not chain and len(links) != 1:
        problem = f"requires exactly one quantum link, found {len(links)}"
        return [Violation("$.quantum_links", f"protocol {config.protocol.value!r} {problem}")]
    if chain and len(links) < 2:
        return [Violation("$.quantum_links", "protocol 'parallel_chain' requires a chain of at least two links")]

    nodes, _, found = config._chain
    vios = list(found)
    if nodes is None:
        return vios
    for end in (nodes[0], nodes[-1]):
        if end.role is not NodeRole.END_NODE:
            vios.append(Violation("$.nodes", f"path endpoint {end.id!r} must have role 'end_node'"))
    for interior in nodes[1:-1]:
        if interior.role is NodeRole.END_NODE:
            vios.append(Violation("$.nodes", f"interior node {interior.id!r} must not have role 'end_node'"))

    for sender in message_senders(config.protocol, nodes):
        key = pair_key(sender.id, nodes[-1].id)
        if key not in config.classical_channels:
            vios.append(Violation("$.classical_channels", f"missing classical channel for message pair {key!r}"))
    return vios


def _walk(config: ScenarioConfig) -> _Chain:
    """The links as one path of node and link records (None and () if they form none), and the violations found.

    The violations name each node with no link or more than two, and links
    that are not one simple path.  The end whose id sorts first starts the
    path, so orientation never depends on list order.  Of duplicate node ids
    the first wins; a link naming an unknown node id raises KeyError.
    """
    records = {n.id: n for n in reversed(config.nodes)}
    adjacency: dict[str, list[tuple[str, QuantumLinkSpec]]] = {n.id: [] for n in config.nodes}
    for link in config.quantum_links:
        a, b = link.endpoints
        adjacency[a].append((b, link))
        adjacency[b].append((a, link))
    vios, branching = [], False
    for node_id, neighbours in adjacency.items():
        if not neighbours:
            vios.append(Violation("$.nodes", f"node {node_id!r} is not attached to any quantum link"))
        elif len(neighbours) > 2:
            branching = True
            vios.append(
                Violation("$.quantum_links", f"node {node_id!r} has degree {len(neighbours)}; links must form a path")
            )
    ends = sorted(n.id for n in config.nodes if len(adjacency[n.id]) == 1)
    if len(ends) != 2:
        vios.append(Violation("$.quantum_links", "links must form a simple path with exactly two endpoints"))
    if len(ends) != 2 or branching:
        return None, (), tuple(vios)
    node, finish = ends
    path, links, previous = [node], [], None
    # Every node here has one or two neighbours, and every one the walk reaches
    # lists the node it came from; it leaves by the other.  (Only an isolated
    # doubled link would list one neighbour twice, and no walk reaches it.)
    while node != finish and len(links) < len(config.quantum_links):
        neighbours = adjacency[node]
        (node, link), previous = neighbours[-1] if neighbours[0][0] == previous else neighbours[0], node
        path.append(node)
        links.append(link)
    if path[-1] != finish or len(links) != len(config.quantum_links):
        vios.append(Violation("$.quantum_links", "links must form one connected path (no cycles or islands)"))
        return None, (), tuple(vios)
    return tuple(records[node_id] for node_id in path), tuple(links), tuple(vios)


def resolve_path(config: ScenarioConfig) -> list[str]:
    """Node ids in path order; the last entry is the designated receiver.

    Classical correction messages flow toward ``path[-1]``, the path endpoint
    whose id sorts lexicographically later.  Assumes the scenario is valid;
    raises :class:`ParameterError` when no simple path over known nodes exists.
    """
    _check_type(config, "config", ScenarioConfig)
    try:
        nodes, _, _ = config._chain
    except KeyError as exc:
        raise ParameterError(f"quantum link references unknown node id {exc.args[0]!r}") from None
    if nodes is None:
        raise ParameterError("quantum links do not form a simple path")
    return [node.id for node in nodes]


def message_senders(protocol: Protocol, path: Sequence) -> Sequence:
    """The nodes of ``path`` (ids or records) that send a correction message to the receiver ``path[-1]``.

    Every interior node on a ``parallel_chain``; the first path node otherwise.
    """
    return path[1:-1] if protocol is Protocol.PARALLEL_CHAIN else path[:1]


# ---------------------------------------------------------------------------
# Parameter-path editing (used by sweeps)
# ---------------------------------------------------------------------------

def set_config_value(config: ScenarioConfig, parameter_path: str, value: float) -> ScenarioConfig:
    """Return a copy of ``config`` with one numeric field replaced.

    ``parameter_path`` is dot-separated attribute access with integer tokens
    indexing lists, e.g. ``"slot_duration"``, ``"nodes.2.memory.t_coh"``,
    ``"quantum_links.0.p_success"``, or ``"classical_channels.a,b.propagation_delay"``.

    Raises:
        ParameterError: when the path does not resolve to a numeric field.
    """
    _check_type(parameter_path, "parameter_path", str)
    tokens = parameter_path.split(".") if parameter_path else []
    if not tokens:
        raise ParameterError("empty parameter path")
    if not _is_number(value):
        raise ParameterError(f"value for {parameter_path!r} must be a number, got {type(value).__name__}")
    return _with_value(config, tokens, value, parameter_path)


def _with_value(obj: Any, tokens: list[str], value: float, full_path: str) -> Any:
    if not tokens:
        if not _is_number(obj):
            raise ParameterError(f"parameter path {full_path!r} does not address a numeric field")
        if _is_int(obj):
            if not (_is_int(value) or value.is_integer()):  # also refuses inf and nan
                raise ParameterError(f"parameter path {full_path!r} addresses an integer field, got {value!r}")
            return int(value)
        if _is_int(value) and abs(value) > sys.float_info.max:
            raise ParameterError(f"value for {full_path!r} is too large for a float field")
        return float(value)
    head, rest = tokens[0], tokens[1:]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        if head not in _field_names(type(obj)):
            raise ParameterError(f"invalid parameter path {full_path!r}: no field {head!r}")
        return dataclasses.replace(obj, **{head: _with_value(getattr(obj, head), rest, value, full_path)})
    if isinstance(obj, tuple):
        # Plain non-negative indices only: a negative one would splice the tuple
        # wrongly, and no tuple here is long enough for a ten-digit index.
        index = int(head) if head.isdecimal() and len(head) <= 9 else len(obj)
        if index >= len(obj):
            raise ParameterError(f"invalid parameter path {full_path!r}: bad index {head!r}")
        return obj[:index] + (_with_value(obj[index], rest, value, full_path),) + obj[index + 1 :]
    if isinstance(obj, dict):
        # classical_channels, the only dict, is keyed by pair_key; a pair names its key in either order.
        pair = split_pair_key(head)
        head = pair_key(*pair) if pair else head
        if head not in obj:
            raise ParameterError(f"invalid parameter path {full_path!r}: no key {head!r}")
        updated = dict(obj)
        updated[head] = _with_value(obj[head], rest, value, full_path)
        return updated
    raise ParameterError(f"invalid parameter path {full_path!r}: cannot descend into {type(obj).__name__}")

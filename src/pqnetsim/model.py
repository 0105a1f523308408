"""Domain model for quantum-network scenarios with PQC-protected signaling.

This module holds every type shared across the package: node, link and
channel specifications, the crypto-profile registry, the full scenario
description, and the validation machinery that turns a JSON document into a
checked :class:`ScenarioConfig`.

The dataclasses are the schema: their field names give the keys, their type
hints the JSON type of each value (read by :func:`_parse_record`), and their
``range`` metadata each value's legal range (checked by :func:`_range_problems`).
Durations are numbers in seconds; unknown keys are violations, never ignored,
and so is a key given twice in one JSON object.
Unordered node pairs (classical-channel keys and the adversary's
``intercept_link``) are encoded as the two node ids joined by a comma, e.g.
``"alice,relay"``; key order does not matter and is normalized on load.

Valid input takes a fast path through both layers.  A record whose keys are
its field names and whose values have exactly the JSON types their readers
take is built directly, by a reader made once per class from its fields
(:func:`_fast_record`); a scenario whose records pass one fast test
(:func:`_records_valid`) goes straight to the protocol-shape checks.  Any
other input is read by the exact code (:func:`_parse_exactly`,
:func:`_record_violations`), and only that code reports a violation, so
every message, path and order is the same on either path.
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


def _check_arg(value: Any, name: str, spec: dict) -> Any:
    """``value`` if it is a number (an int for an integer range) inside ``spec``; else a :class:`ParameterError`.

    The message shows an integer past 128 bits by its size: ``repr`` fails past 4300 digits.
    """
    low, high, message = spec["range"]
    integer = type(low) is int
    if not (_is_int(value) if integer else _is_number(value)):
        message = f"must be {'an integer' if integer else 'a number'}"
    elif low <= value <= high:
        return value
    big = _is_int(value) and value.bit_length() > 128
    shown = f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits" if big else repr(value)
    raise ParameterError(f"{name} {message}, got {shown}")


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

    def node_index(self) -> dict[str, NodeSpec]:
        """Nodes by id, built in one pass; of duplicate ids the first wins."""
        return {n.id: n for n in reversed(self.nodes)}


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


def _range_problems(record: Any) -> list[tuple[str, str]]:
    """``(field name, message)`` for each field of ``record`` outside its declared range, in field order."""
    problems = []
    for name, spec in _ranges(type(record)):
        low, high, message = spec["range"]
        if not low <= getattr(record, name) <= high:
            problems.append((name, message))
    return problems


def _mismatch(expected: str, value: Any) -> str:
    return f"expected {expected}, got {'an empty string' if value == '' else type(value).__name__}"


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


# A fast reader takes one JSON value only as the exact reader would take it
# unchanged: ``fast(value, registry)`` returns what the exact reader returns,
# or raises _NotFast for anything else (a value the exact reader converts,
# defaults or reports), and the exact readers then read the whole document.

class _NotFast(Exception):
    """A value the fast readers do not take as it is."""


def _fast_type(cls: type) -> Callable:
    """The fast reader of a scalar: the value itself, when its type is exactly ``cls``."""
    def read(value, registry):
        if type(value) is cls:
            return value
        raise _NotFast
    return read


def _fast_str(value, registry):
    if type(value) is str and value:
        return value
    raise _NotFast


def _fast_profile(value, registry):
    try:
        return registry.lookup(_fast_str(value, registry))
    except ProfileNotFoundError:
        raise _NotFast from None


def _fast_ids(value, registry):
    if type(value) is list and len(value) == 2:
        a, b = value
        if type(a) is str and a and type(b) is str and b:
            return a, b
    raise _NotFast


def _fast_enum(members, value, registry):
    try:
        return members[value]
    except (KeyError, TypeError):
        raise _NotFast from None


def _fast_optional(read, value, registry):
    return None if value is None else read(value, registry)


def _fast_list(read, value, registry):
    if type(value) is not list:
        raise _NotFast
    return tuple([read(item, registry) for item in value])


def _ordered_pair(text: str) -> bool:
    """True if ``text`` is two distinct non-empty ids, comma-joined in :func:`pair_key` order."""
    parts = text.split(",")
    return len(parts) == 2 and "" < parts[0] < parts[1]


def _fast_pair_keyed(read, value, registry):
    """Pair keys already in :func:`pair_key` order, so none needs canonicalising."""
    if type(value) is not dict or not all(map(_ordered_pair, value)):
        raise _NotFast
    return {key: read(item, registry) for key, item in value.items()}


@functools.cache
def _fast_record(cls: type) -> Callable:
    """The fast reader of dataclass ``cls``, built once per class from its :func:`_plan`.

    It takes an object whose keys are the field names (those with a default
    may be missing) and whose values each pass their field's fast reader,
    and calls ``cls`` with them positionally.
    """
    plan = _plan(cls)
    names = _field_names(cls)
    defaults = {name: default for name, _, default, _, _ in plan if default is not dataclasses.MISSING}
    required = names - defaults.keys()
    steps = tuple((name, fast) for name, _, _, _, fast in plan)

    def read(raw, registry):
        if type(raw) is not dict:
            raise _NotFast
        if raw.keys() != names:
            if not required <= raw.keys() <= names:
                raise _NotFast
            raw = {**defaults, **raw}
        return cls(*[fast(raw[name], registry) for name, fast in steps])

    return read


_SCALAR_READERS = {
    float: (_read_float, _fast_type(float)),
    int: (functools.partial(_read_checked, _is_int, "an integer"), _fast_type(int)),
    bool: (functools.partial(_read_checked, lambda v: isinstance(v, bool), "a boolean"), _fast_type(bool)),
    str: (_read_str, _fast_str),
}


def _reader(hint: Any) -> tuple[Callable, Callable]:
    """The exact and the fast reader for a dataclass field's type hint."""
    if hint in _SCALAR_READERS:
        return _SCALAR_READERS[hint]
    if isinstance(hint, type) and issubclass(hint, Enum):
        members = {m.value: m for m in hint}
        return functools.partial(_read_enum, members), functools.partial(_fast_enum, members)
    if dataclasses.is_dataclass(hint):
        return functools.partial(_read_record, hint), _fast_record(hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple and args == (str, str):
        return _read_ids, _fast_ids
    if origin is types.UnionType and len(args) == 2 and args[1] is type(None):
        read, fast, inner = _read_optional, _fast_optional, args[0]
    elif origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        read, fast, inner = _read_list, _fast_list, args[0]
    elif origin is dict and args[0] is str:
        read, fast, inner = _read_pair_keyed, _fast_pair_keyed, args[1]
    else:
        raise TypeError(f"no JSON reader for type {hint!r}")
    inner_read, inner_fast = _reader(inner)
    return functools.partial(read, inner_read), functools.partial(fast, inner_fast)


@functools.cache
def _plan(cls: type) -> tuple[tuple[str, str, Any, Callable, Callable], ...]:
    """How to read a dataclass from JSON, built once per class.

    One step per field, in field order: its name, its path suffix, its
    default (``dataclasses.MISSING`` when it has none), and the exact and
    the fast reader of its type hint.  A field marked ``registry_name`` is
    read as a profile name.
    """
    hints = typing.get_type_hints(cls)
    steps = []
    for f in dataclasses.fields(cls):
        read, fast = (_read_profile, _fast_profile) if f.metadata.get("registry_name") else _reader(hints[f.name])
        steps.append((f.name, "." + f.name, f.default, read, fast))
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
    for name, key, default, read, _ in _plan(cls):
        value = raw.get(name, default)
        if value is dataclasses.MISSING:
            vios.append(Violation(path + key, "missing"))
        else:
            values[name] = read(value, path, key, vios, registry)
    return cls(**values) if len(vios) == count else None


def parse_scenario(data: Any, registry: CryptoRegistry) -> ScenarioConfig:
    """Build a :class:`ScenarioConfig` from decoded JSON, strictly.

    Structural problems (wrong types, missing or unknown keys, unknown
    crypto-profile names, malformed pair keys) are collected and raised
    together as a :class:`ScenarioValidationError`.  Range and referential
    invariants are the job of :func:`validate_scenario`, which callers
    should run next.  A document the fast readers take as it is is built by
    them; any other is read by :func:`_parse_exactly`, which reports it.
    """
    if not isinstance(data, dict):
        raise ScenarioValidationError([Violation("$", "scenario must be a JSON object")])
    try:
        config = _fast_record(ScenarioConfig)(data, registry)
        if config.adversary is None or _ordered_pair(config.adversary.intercept_link):
            return config
    except _NotFast:
        pass
    return _parse_exactly(data, registry)


def _parse_exactly(data: dict, registry: CryptoRegistry) -> ScenarioConfig:
    """The exact reader of :func:`parse_scenario`: every structural violation, in field order."""
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
    only the index part of violation paths, never the violation set.  A
    scenario whose records pass one fast test (:func:`_records_valid`) goes
    straight to the protocol-shape checks; any other is read record by
    record, and only that loop reports a record's violations.
    """
    _check_type(config, "config", ScenarioConfig)
    try:
        valid = _records_valid(config)
    except (TypeError, ValueError, AttributeError):  # a record the fast test cannot read: the loop reports it
        valid = False
    return _validate_topology(config) if valid else _record_violations(config)


def _in_ranges(cls: type, records: Iterable[Any]) -> bool:
    """True if each declared range of ``cls`` holds on every record; a comparison per value, so NaN fails."""
    for name, spec in _ranges(cls):
        low, high, _ = spec["range"]
        if not all(low <= value <= high for value in map(operator.attrgetter(name), records)):
            return False
    return True


def _records_valid(config: ScenarioConfig) -> bool:
    """The fast test: True only where :func:`_record_violations` finds nothing but the topology's violations.

    Node ids are unique; links name two distinct known nodes, once each;
    channel keys are in :func:`pair_key` order and name known nodes; every
    value lies in its declared range; and the adversary passes its checks.
    """
    nodes, links, channels, adv = config.nodes, config.quantum_links, config.classical_channels, config.adversary
    ids = {node.id for node in nodes}
    link_keys = {link.key for link in links}
    if len(ids) != len(nodes) or len(link_keys) != len(links):
        return False
    for a, b in map(operator.attrgetter("endpoints"), links):
        if a == b or a not in ids or b not in ids:
            return False
    if not all(_ordered_pair(key) and ids.issuperset(key.split(",")) for key in channels):
        return False
    # Many nodes share one profile object; check each once.
    profiles = {id(node.crypto): node.crypto for node in nodes}.values()
    return (
        _in_ranges(MemorySpec, [node.memory for node in nodes])
        and _in_ranges(CryptoProfile, profiles)
        and _in_ranges(QuantumLinkSpec, links)
        and _in_ranges(ClassicalChannelSpec, channels.values())
        and not _range_problems(config)
        and (adv is None or not _adversary_violations(adv, link_keys))
    )


def _record_violations(config: ScenarioConfig) -> list[Violation]:
    """Every violation of :func:`validate_scenario`, read record by record, in record order."""
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

    path, vios = _walk(config, links)
    if path is None:
        return vios
    nodes = config.node_index()
    for end_id in (path[0], path[-1]):
        if nodes[end_id].role is not NodeRole.END_NODE:
            vios.append(Violation("$.nodes", f"path endpoint {end_id!r} must have role 'end_node'"))
    for interior_id in path[1:-1]:
        if nodes[interior_id].role is NodeRole.END_NODE:
            vios.append(Violation("$.nodes", f"interior node {interior_id!r} must not have role 'end_node'"))

    for sender in message_senders(config.protocol, path):
        key = pair_key(sender, path[-1])
        if key not in config.classical_channels:
            vios.append(Violation("$.classical_channels", f"missing classical channel for message pair {key!r}"))
    return vios


def _walk(config: ScenarioConfig, links: Sequence[QuantumLinkSpec]) -> tuple[list[str] | None, list[Violation]]:
    """The links as one path of node ids (None if they form none), and the shape violations found.

    The violations name each node with no link or more than two, and links
    that are not one simple path.  The end whose id sorts first starts the
    path, so orientation never depends on list order.  A link naming an
    unknown node id raises KeyError.
    """
    adjacency: dict[str, list[str]] = {n.id: [] for n in config.nodes}
    for a, b in (link.endpoints for link in links):
        adjacency[a].append(b)
        adjacency[b].append(a)
    vios = []
    branching = False
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
        return None, vios
    if branching:
        return None, vios
    start, finish = ends
    path = [start]
    node, previous = start, None
    # Every node here has one or two neighbours, and every one the walk reaches
    # lists the node it came from; it leaves by the other.  (Only an isolated
    # doubled link would list one neighbour twice, and no walk reaches it.)
    for _ in links:
        if node == finish:
            break
        neighbours = adjacency[node]
        node, previous = neighbours[-1] if neighbours[0] == previous else neighbours[0], node
        path.append(node)
    if path[-1] != finish or len(path) != len(links) + 1:
        vios.append(Violation("$.quantum_links", "links must form one connected path (no cycles or islands)"))
        return None, vios
    return path, vios


def resolve_path(config: ScenarioConfig) -> list[str]:
    """Node ids in path order; the last entry is the designated receiver.

    Classical correction messages flow toward ``path[-1]``, the path endpoint
    whose id sorts lexicographically later.  Assumes the scenario is valid;
    raises :class:`ParameterError` when no simple path over known nodes exists.
    """
    _check_type(config, "config", ScenarioConfig)
    try:
        path, _ = _walk(config, config.quantum_links)
    except KeyError as exc:
        raise ParameterError(f"quantum link references unknown node id {exc.args[0]!r}") from None
    if path is None:
        raise ParameterError("quantum links do not form a simple path")
    return path


def message_senders(protocol: Protocol, path: Sequence[str]) -> Sequence[str]:
    """Node ids that send a correction message to the receiver ``path[-1]``.

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

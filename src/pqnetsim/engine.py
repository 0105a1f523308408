"""Slotted Monte Carlo engine for entanglement distribution with PQC feedforward.

Time advances in fixed slots of ``slot_duration`` seconds.  In every slot
each quantum link that is not currently holding a pair attempts generation
and succeeds with probability ``p_success`` (so the effective pair rate is
``p_success / slot_duration``).  A fresh pair stores one qubit at each
endpoint, stamped with its birth slot; qubit ages are always evaluated at
slot boundaries as ``(slot - birth_slot) * slot_duration``.

Memory policy is a hard cutoff: a stored qubit becomes unusable the moment
its age reaches the storing node's coherence time (strict survival,
``age < t_coh``, matching the strict feasibility inequalities).  Each run
states that rule once per node as a slot gap, the least ``d >= 1`` with
``d * slot_duration >= t_coh``: a qubit born in slot ``b`` is expired from
slot ``b + d`` on.  Gaps are capped at ``2**52``, which no trial reaches
(``max_slots <= 2**52``).  An expired pair that no measurement has touched
yet simply resets its link to the regenerating state; once one side has been
consumed by a Bell-state measurement, expiry of the remaining qubit aborts
the trial (``memory_expired``).  Storage at the non-designated end node never
aborts a trial; its decoherence shows up only in the delivered fidelity.

A repeater performs its Bell-state measurement (taken as instantaneous) in
the first slot where both adjacent pairs are present and unexpired, then
sends one correction message to the designated end node (the last node of
the path, the end whose id sorts later).  Each message costs the
sender's ``t_encrypt``, the pair's classical-channel delay, and the end
node's ``t_decrypt``; message delays reuse the exact arithmetic of
:mod:`pqnetsim.timing`, so for deterministic scenarios (``p_success = 1``)
trial success agrees bit-for-bit with the static feasibility checks.  The
trial succeeds when every correction message is decrypted while the end
node's stored qubit is still within its coherence window; arrivals at or
past the window edge fail the trial (``message_late``).

``t_dist`` runs from the first entanglement attempt (time zero) to the last
message decryption.  Delivered fidelity applies exponential memory decay
for every qubit's individual storage wait and composes links with the
Werner swap formula: one left fold, a ``reduce`` of ``swap`` over the mapped
decays, in the order of :func:`pqnetsim.fidelity.chain_fidelity`.  Trials
that never complete within ``max_slots`` slots (default one million, at
most ``2**52``) end as ``horizon_exceeded``.  A run
is refused unless its horizon, ``max_slots * slot_duration`` plus the longest
message wait, is a finite float with a margin of ``2**-49`` to spare; that
bounds every time a trial reports, whatever the order of its roundings.  So is a run, before its
first trial, where a link's ``re_tcoh_product`` (see :class:`RunSummary`) is not a finite float.

Per-trial randomness comes from ``random.Random(trial_seed)`` where
``trial_seed`` is derived from the master seed by a fixed, documented hash
split (:func:`trial_seed_for`): the first eight bytes, little-endian, of
``SHA-256(master_seed_le64 || trial_index_le64)``.  Only regenerating links
draw, one uniform variate per link per slot, in path order.  Every trial is
therefore an isolated state machine, bit-reproducible in isolation.  The
SHA-256 is CPython's built-in one (``_sha2``, or ``_sha256`` before Python
3.12), the FIPS 180-4 function that ``hashlib`` also gives, taken as the
standard library's ``random`` takes its sha512: ``hashlib`` would load the
OpenSSL binding, about 3.6 MB of a process's peak RSS, to hash 16 bytes a
trial.  Only a build without the built-in module imports ``hashlib``.

Chain trials fast-forward through quiet slots.  Until the next expiry is
due, nothing happens but the down links' draws, so when those links are rare
(the sum of their ``p`` at most 1/4) one scan finds their first success, and
the sweep and the swap scan run only in event slots.  The scan reads its
uniforms in bulk from the trial's own Mersenne Twister words.
``random()`` returns ``K / 2**53`` with ``K = (w0 >> 5) << 26 | w1 >> 6``
for two consecutive words, and ``getrandbits(64 * m)`` emits the next
``2 * m`` words least significant first, so a fetched chunk holds, in order,
the uniforms that ``random()`` would have returned.  ``u < p`` holds iff
``K < ceil(p * 2**53)``, an exact comparison; the top byte of ``w0`` settles
it for all but one value in 256.  Words fetched past the first success are
the next uniforms of the stream: the slots after it read them before drawing
afresh.  The draws, and so every outcome, are those of the slot-by-slot loop.

Each public function that takes a scenario (:func:`run_trial`, :func:`run_trials`,
:func:`summarize`, :func:`run_monte_carlo`, :func:`sweep`) validates it, once per scenario object
unless its ``classical_channels`` dict is changed in place; set-up, linear in the chain length, the
trial loops and the summary then trust it, calling only the unchecked fidelity kernels.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from enum import Enum
from functools import lru_cache, reduce
from typing import Sequence

from . import fidelity, model, timing
from .errors import ParameterError

# The seed split's SHA-256, without loading the OpenSSL binding (see the module docstring).
try:
    from _sha2 import sha256 as _sha256  # Python 3.12 on
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256  # a build without the built-in module

__all__ = [
    "DEFAULT_MAX_SLOTS",
    "FailureReason",
    "TrialOutcome",
    "RunSummary",
    "trial_seed_for",
    "derive_stream_seed",
    "run_trial",
    "run_trials",
    "run_monte_carlo",
    "summarize",
    "sweep",
]

# Bounds runtime when generation probabilities are near zero.
DEFAULT_MAX_SLOTS = model._DEFAULT_MAX_SLOTS

_MAX_GAP = 2**52  # cap on a slot count to an expiry; no trial lasts that long
_MAX_SLOTS = model._range(1, _MAX_GAP, f"must be in [1, {_MAX_GAP}]")

_CHUNK_DRAWS = 4096  # most uniforms one fetch of a quiet window reads (32 KiB of words)
_SCAN_MIN_SLOTS = 4  # a window scan costs about as much as this many slots drawn one by one


class FailureReason(Enum):
    MEMORY_EXPIRED = "memory_expired"
    MESSAGE_LATE = "message_late"
    HORIZON_EXCEEDED = "horizon_exceeded"


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one simulated trial.

    ``t_dist`` is present whenever the protocol ran to completion (all
    messages decrypted), even if they arrived too late; ``f_end`` is present
    only for successes.  ``slots_used`` is the last slot index processed
    before the outcome was decided.
    """

    success: bool
    slots_used: int
    t_dist: float | None = None
    f_end: float | None = None
    failure_reason: FailureReason | None = None

    def __post_init__(self):
        assert self.success == (self.failure_reason is None)
        assert not self.success or (self.t_dist is not None and self.f_end is not None)


@dataclass(frozen=True)
class RunSummary:
    """Aggregate statistics over one Monte Carlo run.

    ``re_tcoh_product`` reports, per link, the effective pair rate
    (``p_success / slot_duration``) times the smaller coherence time of the
    two storing nodes.  It is a synchronization diagnostic only, never a
    pass/fail gate.
    """

    n_trials: int
    success_rate: float
    mean_t_dist: float | None
    f_end_mean: float | None
    f_end_min: float | None
    re_tcoh_product: dict[str, float]

    def as_dict(self) -> dict:
        return asdict(self)


def trial_seed_for(master_seed: int, trial_index: int) -> int:
    """Derive the seed of one trial from the run's master seed.

    The split is the first eight bytes, interpreted little-endian, of
    ``SHA-256(master_seed || trial_index)`` with both inputs encoded as
    little-endian unsigned 64-bit integers.  Fixed forever; changing it
    would silently change every published result.
    """
    model._check_arg(master_seed, "master_seed", model._SEED)
    model._check_arg(trial_index, "trial_index", model._SEED)
    payload = master_seed.to_bytes(8, "little") + trial_index.to_bytes(8, "little")
    return int.from_bytes(_sha256(payload).digest()[:8], "little")


def derive_stream_seed(master_seed: int, label: str) -> int:
    """Derive an independent named seed stream (e.g. baseline vs observed).

    The same split as :func:`trial_seed_for`, over ``master_seed`` (little-endian, 64 bits) followed by the UTF-8
    bytes of ``label``; a label that has none (a lone surrogate) is a :class:`ParameterError`.
    """
    model._check_arg(master_seed, "master_seed", model._SEED)
    model._check_type(label, "label", str)
    try:
        payload = master_seed.to_bytes(8, "little") + label.encode("utf-8")
    except UnicodeEncodeError as exc:
        bad = exc.start
        raise ParameterError(f"label must be encodable as UTF-8, got {label[bad]!r} at index {bad}") from None
    return int.from_bytes(_sha256(payload).digest()[:8], "little")


# ---------------------------------------------------------------------------
# Single trial
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _PreparedTwoParty:
    """Single-hop or sequential run, reduced to its constants.

    With one link the only randomness is the generation slot; the message
    phase and the delivered fidelity are fixed by the configuration.
    """

    p: float
    tau: float
    total_delay: float
    t_coh_end: float
    f_end: float


@dataclass(frozen=True)
class _PreparedChain:
    """Per-link constants of a repeater chain, extracted once per run."""

    tau: float
    p: tuple[float, ...]
    lo_tcoh: tuple[float, ...]
    hi_tcoh: tuple[float, ...]
    gaps: tuple[int, ...]  # per path node; link j stores its qubits at nodes j and j + 1
    intact_gap: tuple[int, ...]  # per link, the smaller gap of its two nodes
    delays: tuple[float, ...]
    t_coh_end: float
    base_fids: tuple[float, ...]
    # Per link, (threshold byte, bound): a draw succeeds iff its K < bound.
    draw_tests: tuple[tuple[int, int], ...]


def _prepare(config: model.ScenarioConfig, max_slots: int = DEFAULT_MAX_SLOTS) -> _PreparedTwoParty | _PreparedChain:
    model._check_arg(max_slots, "max_slots", _MAX_SLOTS)
    # The path and message waits are the static check's own numbers.
    timings = timing.scenario_timings(config)
    # A chain's t_dist takes 4 roundings of 2**-53, this horizon 3; the 2**-49 margin covers all 7.
    horizon = (max_slots * config.slot_duration + max(timings.totals)) * (1 + 2**-49)
    if not math.isfinite(horizon):
        raise ParameterError(f"max_slots * slot_duration + the longest message wait must be finite, got {horizon}")
    nodes, links, _ = config._chain  # the path scenario_timings resolved, as records
    # p_success <= 1 and rounding is monotone: while this bound is finite, no link's product overflows.
    if not math.isfinite((1 / config.slot_duration) * max(node.memory.t_coh for node in nodes)):
        _re_tcoh_products(config)
    base_fids = [link.base_fidelity for link in links]
    adv = config.adversary
    if adv is not None:  # every pair on the intercepted link ages in the adversary's memory for its whole delay
        j = [link.key for link in links].index(adv.intercept_link)
        base_fids[j] = fidelity._decay(base_fids[j], adv.delta_t, adv.t_coh_eve)
    if config.protocol is model.Protocol.PARALLEL_CHAIN:
        t_coh = [node.memory.t_coh for node in nodes]
        gap_of = {limit: _expiry_gap(limit, config.slot_duration) for limit in set(t_coh)}
        gaps = tuple(map(gap_of.get, t_coh))
        return _PreparedChain(
            tau=config.slot_duration,
            p=tuple(link.p_success for link in links),
            lo_tcoh=tuple(t_coh[:-1]),
            hi_tcoh=tuple(t_coh[1:]),
            gaps=gaps,
            intact_gap=tuple(map(min, gaps[:-1], gaps[1:])),  # exact: the gap is monotone in t_coh
            delays=timings.totals,
            t_coh_end=timings.t_coh_end,
            base_fids=tuple(base_fids),
            draw_tests=tuple(_draw_test(link.p_success) for link in links),
        )

    # Single hop or sequential rounds: the sender measures its qubit the
    # moment the pair exists, so the receiver's window starts at generation
    # and covers the one total wait (all rounds, for sequential rounds).
    (f,) = base_fids
    (total_delay,) = timings.totals
    if config.protocol is model.Protocol.SEQUENTIAL_ROUNDS:
        # Both parties keep their qubit through all rounds.
        f = fidelity._decay(f, total_delay, nodes[0].memory.t_coh)
    return _PreparedTwoParty(
        p=links[0].p_success,
        tau=config.slot_duration,
        total_delay=total_delay,
        t_coh_end=timings.t_coh_end,
        f_end=fidelity._decay(f, total_delay, timings.t_coh_end),
    )


def run_trial(
    config: model.ScenarioConfig, trial_seed: int, max_slots: int = DEFAULT_MAX_SLOTS
) -> TrialOutcome:
    """Simulate one trial; deterministic given ``(config, trial_seed)``.

    The scenario is prepared on every call, and once per run by :func:`run_trials`.  Quiet chain slots
    are fast-forwarded, with the same draws: one uniform per regenerating link per slot, in path order.
    """
    model._require_valid(config)
    model._check_arg(trial_seed, "trial_seed", model._SEED)
    return _execute(_prepare(config, max_slots), trial_seed, max_slots)


def _execute(
    prepared: _PreparedTwoParty | _PreparedChain, trial_seed: int, max_slots: int
) -> TrialOutcome:
    rng = random.Random(trial_seed)
    if isinstance(prepared, _PreparedChain):
        return _run_parallel_chain(prepared, _Draws(rng), max_slots)
    return _run_two_party(prepared, rng, max_slots)


def _run_two_party(run: _PreparedTwoParty, rng: random.Random, max_slots: int) -> TrialOutcome:
    p = run.p
    rand = rng.random
    gen_slot = 0
    for slot in range(1, max_slots + 1):
        if rand() < p:
            gen_slot = slot
            break
    if gen_slot == 0:
        return TrialOutcome(False, max_slots, failure_reason=FailureReason.HORIZON_EXCEEDED)
    t_dist = gen_slot * run.tau + run.total_delay
    if not (run.total_delay < run.t_coh_end):
        return TrialOutcome(False, gen_slot, t_dist=t_dist, failure_reason=FailureReason.MESSAGE_LATE)
    return TrialOutcome(True, gen_slot, t_dist=t_dist, f_end=run.f_end)


def _expiry_gap(limit: float, tau: float) -> int:
    """The least ``d >= 1`` with ``d * tau >= limit``: a qubit's slot gap, capped at ``_MAX_GAP``."""
    d = max(1, math.ceil(min(limit / tau, _MAX_GAP)))
    while d > 1 and (d - 1) * tau >= limit:
        d -= 1
    while d < _MAX_GAP and d * tau < limit:
        d += 1
    return d


def _draw_test(p: float) -> tuple[int, int]:
    """``(threshold byte, bound)`` of ``u < p``: the draw succeeds iff ``K < bound``.

    A top byte ``K >> 45`` below the threshold byte means a success, one
    above it a failure; only a tie needs the full ``K``.
    """
    bound = math.ceil(p * 2**53)
    return (bound - 1) >> 45, bound


@lru_cache(maxsize=None)
def _candidate_table(threshold: int) -> bytes:
    """``bytes.translate`` table mapping the top bytes that may mean a success to 0."""
    return bytes(threshold + 1) + b"\x01" * (255 - threshold)


def _draw_k(buf: bytes, d: int) -> int:
    """``K`` of fetched draw ``d``: the uniform is ``K / 2**53``."""
    x = int.from_bytes(buf[8 * d : 8 * d + 8], "little")
    return (x & 0xFFFFFFFF) >> 5 << 26 | x >> 38


class _Draws:
    """One trial's uniforms: its ``random.Random`` and the words fetched ahead of it.

    ``buf`` holds ``end`` fetched draws of eight bytes each, ``pos`` of them
    already read.  ``marks`` has one byte per fetched draw, 0 where its top
    byte is at most ``marks_threshold``: the only draws that can succeed for
    a link of that threshold or below.
    """

    __slots__ = ("rng", "buf", "marks", "marks_threshold", "pos", "end")

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.buf = self.marks = b""
        self.marks_threshold = -1
        self.pos = self.end = 0

    def random(self) -> float:
        """The next uniform: the next fetched draw, else ``rng.random()``; the same value."""
        d = self.pos
        if d == self.end:
            return self.rng.random()
        self.pos = d + 1
        return _draw_k(self.buf, d) * 2.0**-53

    def first_success(self, tests: list[tuple[int, int]], budget: int, chunk: int) -> int | None:
        """Offset of the first success among the next ``budget`` draws, or None.

        Draw ``d`` of the window succeeds iff its ``K < bound`` for
        ``tests[d % len(tests)]``.  Reads up to and including that draw, or
        all ``budget`` draws; fetches at most ``chunk`` draws at a time, and
        never past the window.
        """
        k = len(tests)
        threshold = max(tests)[0]
        scanned = 0
        while scanned < budget:
            pos = self.pos
            if pos == self.end:
                m = min(chunk, budget - scanned)
                self.buf = self.rng.getrandbits(64 * m).to_bytes(8 * m, "little")
                self.pos = pos = 0
                self.end = m
                self.marks_threshold = -1
            buf = self.buf
            if self.marks_threshold != threshold:
                # Top bytes; a zero threshold needs no table, its candidates are the zero bytes.
                marks = buf[3::8]
                self.marks = marks.translate(_candidate_table(threshold)) if threshold else marks
                self.marks_threshold = threshold
            start = pos - scanned  # buffer index of the window's draw 0
            stop = min(self.end, start + budget)
            find = self.marks.find
            d = find(0, pos, stop)
            while d >= 0:
                t, bound = tests[(d - start) % k]
                top = buf[8 * d + 3]
                if top < t or top == t and _draw_k(buf, d) < bound:
                    self.pos = d + 1
                    return d - start
                d = find(0, d + 1, stop)
            scanned += stop - pos
            self.pos = stop
        return None


def _run_parallel_chain(run: _PreparedChain, draws: _Draws, max_slots: int) -> TrialOutcome:
    p = run.p
    gaps = run.gaps
    intact_gap = run.intact_gap
    draw_tests = run.draw_tests
    n_links = len(p)
    n_reps = n_links - 1
    assert n_reps >= 1

    up = [False] * n_links
    gen_slot = [0] * n_links
    bsm_done = [False] * n_reps
    bsm_slot = [0] * n_reps
    pending = n_reps

    # A quiet window ends in a given slot with probability about the sum of its
    # down links' p.  A scan costs about _SCAN_MIN_SLOTS slots drawn one by one,
    # so only windows expected to last longer are scanned; with every link
    # denser than that, none is.
    scans = min(p) * _SCAN_MIN_SLOTS <= 1.0
    # Slots drawn one by one use rand: rng.random, or draws.random while a scan's lookahead lasts.
    rand = rng_random = draws.rng.random
    slot = 0
    while slot < max_slots:
        slot += 1
        # Live links whose stored qubits can expire: (link, slot gap, fatal).
        # Storage at the non-designated end node (link 0, lo side) never aborts.
        stored = []
        for j in range(n_links):
            if up[j]:
                lo_used = j >= 1 and bsm_done[j - 1]
                hi_used = j < n_reps and bsm_done[j]
                if not lo_used and not hi_used:
                    stored.append((j, intact_gap[j], False))
                elif not hi_used:
                    stored.append((j, gaps[j + 1], True))
                elif not lo_used and j > 0:
                    stored.append((j, gaps[j], True))
        # Expiry sweep at the slot boundary, before new attempts.
        for j, gap, fatal in stored:
            if slot - gen_slot[j] >= gap:
                if fatal:
                    return TrialOutcome(False, slot, failure_reason=FailureReason.MEMORY_EXPIRED)
                up[j] = False
        if scans:
            down = [j for j in range(n_links) if not up[j]]
            rate = sum([p[j] for j in down])
        if scans and rate * _SCAN_MIN_SLOTS <= 1.0:
            # Until the next expiry nothing fires unless a pair is generated, and
            # the same down links draw every slot: find their first success.
            due = min([max_slots + 1] + [gen_slot[j] + gap for j, gap, _ in stored if up[j]])
            k = len(down)
            quiet = due - slot
            chunk = int(min(_CHUNK_DRAWS, 2 * k / rate)) + 1
            hit = draws.first_success([draw_tests[j] for j in down], quiet * k, chunk)
            rand = draws.random if draws.pos < draws.end else rng_random
            if hit is None:
                slot += quiet - 1
                continue
            skipped, first = divmod(hit, k)
            slot += skipped
            for j in down[first:]:  # the link that succeeded, then the rest of the slot
                if j == down[first] or rand() < p[j]:
                    up[j] = True
                    gen_slot[j] = slot
        else:
            for j in range(n_links):
                if not up[j] and rand() < p[j]:
                    up[j] = True
                    gen_slot[j] = slot

        # Every live pair is fresh at this slot, so a repeater fires as soon
        # as both adjacent pairs are present.
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
    tau, lo_tcoh, hi_tcoh = run.tau, run.lo_tcoh, run.hi_tcoh
    store_slot = gen_slot[n_links - 1]
    lateness = [(bsm - store_slot) * tau + delay for bsm, delay in zip(bsm_slot, run.delays)]
    worst = max(lateness)
    t_dist = store_slot * tau + worst
    if not (worst < run.t_coh_end):
        return TrialOutcome(False, slot, t_dist=t_dist, failure_reason=FailureReason.MESSAGE_LATE)

    # Decay each link for both storage waits, then fold them as chain_fidelity does.
    # The end nodes store until t_dist; a repeater's qubit until its Bell-state measurement.
    waits_lo = [max(0.0, t_dist - gen_slot[0] * tau)] + [(b - g) * tau for b, g in zip(bsm_slot, gen_slot[1:])]
    waits_hi = [(b - g) * tau for b, g in zip(bsm_slot, gen_slot)] + [max(0.0, t_dist - store_slot * tau)]
    decay = fidelity._decay
    f_end = reduce(fidelity._swap, map(decay, map(decay, run.base_fids, waits_lo, lo_tcoh), waits_hi, hi_tcoh))
    return TrialOutcome(True, slot, t_dist=t_dist, f_end=f_end)


# ---------------------------------------------------------------------------
# Monte Carlo runs
# ---------------------------------------------------------------------------

def run_trials(
    config: model.ScenarioConfig,
    n_trials: int | None = None,
    master_seed: int | None = None,
    max_slots: int = DEFAULT_MAX_SLOTS,
) -> list[TrialOutcome]:
    """Run independent trials with per-trial seeds split from the master seed.

    ``n_trials`` and ``master_seed`` default to the scenario's own fields.
    """
    model._require_valid(config)
    n = config.n_trials if n_trials is None else n_trials
    seed = config.seed if master_seed is None else master_seed
    model._check_arg(n, "n_trials", model._AT_LEAST_ONE)
    model._check_arg(seed, "master_seed", model._SEED)
    prepared = _prepare(config, max_slots)
    return [_execute(prepared, trial_seed_for(seed, i), max_slots) for i in range(n)]


def _re_tcoh_products(config: model.ScenarioConfig) -> dict[str, float]:
    """Each link's ``re_tcoh_product``; a :class:`ParameterError` for the first, in link order, past the float range."""
    t_coh = {n.id: n.memory.t_coh for n in config.nodes}
    products = {
        link.key: (link.p_success / config.slot_duration)
        * min(t_coh[link.endpoints[0]], t_coh[link.endpoints[1]])
        for link in config.quantum_links
    }
    for key, product in products.items():
        if not math.isfinite(product):
            raise ParameterError(f"re_tcoh_product of link {key} must be finite, got {product}")
    return products


def _fmean(values: list[float]) -> float:
    """The mean of ``values``, scaled by an exact power of two where the sum of finite values overflows.

    ``math.fsum(values) / len(values)`` is the body of ``statistics.fmean``, so the bits are the same,
    without importing ``statistics``.
    """
    n = len(values)
    try:
        return math.fsum(values) / n
    except OverflowError:
        k = n.bit_length()
        return math.ldexp(math.fsum([math.ldexp(v, -k) for v in values]) / n, k)


def summarize(config: model.ScenarioConfig, outcomes: Sequence[TrialOutcome]) -> RunSummary:
    """Aggregate trial outcomes of a scenario, validated first; order-independent for the reported statistics.

    Raises:
        ScenarioValidationError: when the scenario is invalid.
        ParameterError: when a link's ``re_tcoh_product`` overflows a float.
    """
    model._require_valid(config)
    if not model._check_type(outcomes, "outcomes", Sequence):
        raise ParameterError("summarize requires at least one outcome")
    for i, outcome in enumerate(outcomes):
        if not isinstance(outcome, TrialOutcome):  # builds the label only for a bad element
            model._check_type(outcome, f"outcomes[{i}]", TrialOutcome)
    successes = [o for o in outcomes if o.success]
    return RunSummary(
        n_trials=len(outcomes),
        success_rate=len(successes) / len(outcomes),
        mean_t_dist=_fmean([o.t_dist for o in successes]) if successes else None,
        f_end_mean=_fmean([o.f_end for o in successes]) if successes else None,
        f_end_min=min(o.f_end for o in successes) if successes else None,
        re_tcoh_product=_re_tcoh_products(config),
    )


def run_monte_carlo(
    config: model.ScenarioConfig,
    n_trials: int | None = None,
    master_seed: int | None = None,
    max_slots: int = DEFAULT_MAX_SLOTS,
) -> RunSummary:
    """Validated Monte Carlo run; bit-identical across calls with equal inputs."""
    return summarize(config, run_trials(config, n_trials, master_seed, max_slots=max_slots))


def sweep(
    config: model.ScenarioConfig,
    parameter_path: str,
    values: Sequence[float],
    n_trials: int | None = None,
    master_seed: int | None = None,
    max_slots: int = DEFAULT_MAX_SLOTS,
) -> list[tuple[float, RunSummary]]:
    """One independent Monte Carlo per parameter value, in the given order.

    Every row uses the same master seed, so each is reproducible standalone
    as ``run_monte_carlo(set_config_value(config, path, value), ...)``.

    Raises:
        ParameterError: when the path does not address a numeric field, or
            when the scenario, or one with a value substituted, is invalid.
    """
    model._require_valid(config)
    model._check_type(values, "values", Sequence)
    rows: list[tuple[float, RunSummary]] = []
    for value in values:
        modified = model.set_config_value(config, parameter_path, value)
        rows.append((value, run_monte_carlo(modified, n_trials, master_seed, max_slots=max_slots)))
    return rows

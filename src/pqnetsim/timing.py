"""Feasibility checks for classical signaling against memory coherence.

A stored qubit survives only while the classical traffic it waits for
completes within the memory's coherence time.  Three protocol shapes are
covered, each with a strict inequality (equality counts as infeasible):

* single hop: ``t_encrypt + t_comm + t_decrypt < t_coh``
* parallel broadcast: the slowest of the simultaneously sent messages sets
  the wait, ``max_i(t_encrypt_i + t_comm_i + t_decrypt_end) < t_coh_end``
* sequential rounds: dependent rounds accumulate,
  ``sum_i(t_encrypt_i + t_comm_i + t_decrypt_i) < t_coh``

Results carry a signed slack (negative values quantify the deficit) so
planners can see how far a configuration is from feasibility, plus the index
of the binding message for aggregated checks.  For a whole scenario,
:func:`scenario_timings` validates it, then derives one total wait per
correction message, refusing only a wait that overflows; :func:`check_scenario`
reads them as the engine does.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from . import model
from .errors import ParameterError

__all__ = [
    "HopTiming",
    "FeasibilityResult",
    "check_single_hop",
    "check_parallel",
    "check_sequential",
    "min_required_coherence",
    "scenario_timings",
    "check_scenario",
    "ScenarioTimings",
]


@dataclass(frozen=True)
class HopTiming:
    """Per-message delay components, all in seconds and non-negative."""

    t_encrypt: float = field(metadata=model._NON_NEGATIVE)
    t_comm: float = field(metadata=model._NON_NEGATIVE)
    t_decrypt: float = field(metadata=model._NON_NEGATIVE)

    def __post_init__(self):
        model._check_fields(self, "HopTiming.")


@dataclass(frozen=True)
class FeasibilityResult:
    """Verdict of one timing check.

    ``slack`` is the signed margin ``t_coh`` minus total delay; ``feasible``
    holds exactly when slack is strictly positive.  ``binding_index`` is set
    only by checks that aggregate over a message set and names the argmax
    contributor (lowest index on ties).
    """

    feasible: bool
    slack: float
    binding_index: int | None = None


def _wait(t_encrypt: float, t_comm: float, t_decrypt: float) -> float:
    """Total delay of one message, the one place it is summed: encrypt, transmit, decrypt."""
    return (t_encrypt + t_comm) + t_decrypt


def hop_total(hop: HopTiming) -> float:
    """Total delay of one message: encrypt, transmit, decrypt."""
    return _wait(hop.t_encrypt, hop.t_comm, hop.t_decrypt)


def parallel_totals(messages: Sequence[HopTiming], t_decrypt_end: float) -> list[float]:
    """Per-message totals with the end node's decryption time substituted in.

    Each message's own ``t_decrypt`` is ignored: the designated end node
    decrypts every broadcast message, independently (fully parallel
    decryption; serial decryption can be emulated by inflating the value).
    """
    model._check_arg(t_decrypt_end, "t_decrypt_end", model._NON_NEGATIVE)
    return [_wait(m.t_encrypt, m.t_comm, t_decrypt_end) for m in messages]


def sequential_total(waits: Iterable[float]) -> float:
    """Accumulated delay of dependent rounds: a left fold of their waits in round order (``sum`` compensates)."""
    total = 0.0
    for wait in waits:
        total += wait
    return total


def _verdict(t_coh: float, totals: Sequence[float], binding: bool) -> FeasibilityResult:
    """Strict verdict on the slowest of ``totals``; with ``binding``, its index (lowest on ties)."""
    worst = max(totals)
    slack = t_coh - worst
    return FeasibilityResult(slack > 0.0, slack, totals.index(worst) if binding else None)


def _check_hops(hops: Sequence[HopTiming], name: str) -> None:
    """A :class:`ParameterError` unless ``hops`` is a non-empty sequence of :class:`HopTiming`."""
    if not model._check_type(hops, name, Sequence):
        raise ParameterError(f"{name} must hold at least one HopTiming")
    for i, hop in enumerate(hops):
        model._check_type(hop, f"{name}[{i}]", HopTiming)


def check_single_hop(hop: HopTiming, t_coh: float) -> FeasibilityResult:
    """Can a stored qubit survive one protected message exchange?"""
    model._check_type(hop, "hop", HopTiming)
    model._check_arg(t_coh, "t_coh", model._POSITIVE)
    return _verdict(t_coh, [hop_total(hop)], binding=False)


def check_parallel(
    messages: Sequence[HopTiming], t_decrypt_end: float, t_coh_end: float
) -> FeasibilityResult:
    """Can the end node collect every broadcast correction in time?

    The slowest message is binding; ties resolve to the lowest index so
    reports are reproducible.
    """
    _check_hops(messages, "messages")
    model._check_arg(t_coh_end, "t_coh_end", model._POSITIVE)
    return _verdict(t_coh_end, parallel_totals(messages, t_decrypt_end), binding=True)


def check_sequential(rounds: Sequence[HopTiming], t_coh: float) -> FeasibilityResult:
    """Can a stored qubit survive L dependent message rounds?"""
    _check_hops(rounds, "rounds")
    model._check_arg(t_coh, "t_coh", model._POSITIVE)
    return _verdict(t_coh, [sequential_total(map(hop_total, rounds))], binding=False)


def min_required_coherence(
    protocol: model.Protocol,
    timings: HopTiming | Sequence[HopTiming],
    t_decrypt_end: float | None = None,
) -> float:
    """Infimum coherence time that makes the protocol feasible.

    The returned value itself is infeasible (the inequalities are strict);
    any strictly larger coherence time is feasible.

    Args:
        protocol: which inequality shape to invert.
        timings: a single :class:`HopTiming` for ``single_hop``, otherwise a
            non-empty sequence of them.
        t_decrypt_end: required for ``parallel_chain``, ignored otherwise.
    """
    if protocol is model.Protocol.SINGLE_HOP:
        return hop_total(model._check_type(timings, "timings", HopTiming))
    _check_hops(timings, "timings")
    if protocol is model.Protocol.PARALLEL_CHAIN:
        if t_decrypt_end is None:
            raise ParameterError("parallel_chain requires t_decrypt_end")
        return max(parallel_totals(timings, t_decrypt_end))
    return sequential_total(map(hop_total, timings))


# ---------------------------------------------------------------------------
# Scenario-level extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioTimings:
    """What the receiver of a validated scenario waits for.

    ``totals`` holds one wait per correction message, from encryption to
    decryption at the receiver: one for a single hop, one per repeater (in
    path order) for a parallel chain, and one for all ``rounds_l`` sequential
    rounds, summed round by round.  ``t_coh_end`` is the coherence time of the
    receiver, the last node of the path that :func:`pqnetsim.model.resolve_path`
    gives.  The static check and the engine both read these numbers, so they
    agree bit for bit.
    """

    totals: tuple[float, ...]
    t_coh_end: float


def scenario_timings(config: model.ScenarioConfig) -> ScenarioTimings:
    """The receiver's message waits, from a scenario validated first; a wait that overflows is refused."""
    nodes, _, _ = model._require_valid(config)._chain
    receiver, channels, t_decrypt = nodes[-1], config.classical_channels, nodes[-1].crypto.t_decrypt
    senders = model.message_senders(config.protocol, nodes)
    totals = tuple(_wait(s.crypto.t_encrypt, channels[model.pair_key(s.id, receiver.id)].t_comm, t_decrypt)
                   for s in senders)
    if config.protocol is model.Protocol.SEQUENTIAL_ROUNDS:
        totals = (sequential_total(itertools.repeat(totals[0], config.rounds_l)),)
    if math.inf in totals:  # a sum of finite waits >= 0 is finite or +inf, never NaN
        raise ParameterError(f"message wait from node {senders[totals.index(math.inf)].id!r} must be finite, got inf")
    return ScenarioTimings(totals, receiver.memory.t_coh)


def check_scenario(config: model.ScenarioConfig) -> FeasibilityResult:
    """Validate the scenario, then run the timing check matching its protocol."""
    # Validated here, so that scenario_timings finds it valid and its own time holds no validation.
    t = scenario_timings(model._require_valid(config))
    return _verdict(t.t_coh_end, t.totals, binding=config.protocol is model.Protocol.PARALLEL_CHAIN)

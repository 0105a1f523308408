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
of the binding message for aggregated checks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

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
        for name, spec in model._ranges(HopTiming):
            model._check_arg(getattr(self, name), f"HopTiming.{name}", spec)


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

    def as_dict(self) -> dict:
        return asdict(self)


def hop_total(hop: HopTiming) -> float:
    """Total delay of one message: encrypt, transmit, decrypt."""
    return (hop.t_encrypt + hop.t_comm) + hop.t_decrypt


def parallel_totals(messages: Sequence[HopTiming], t_decrypt_end: float) -> list[float]:
    """Per-message totals with the end node's decryption time substituted in.

    Each message's own ``t_decrypt`` is ignored: the designated end node
    decrypts every broadcast message, independently (fully parallel
    decryption; serial decryption can be emulated by inflating the value).
    """
    model._check_arg(t_decrypt_end, "t_decrypt_end", model._NON_NEGATIVE)
    return [(m.t_encrypt + m.t_comm) + t_decrypt_end for m in messages]


def sequential_total(rounds: Sequence[HopTiming]) -> float:
    """Accumulated delay of dependent rounds, summed in round order."""
    total = 0.0
    for hop in rounds:
        total += hop_total(hop)
    return total


def check_single_hop(hop: HopTiming, t_coh: float) -> FeasibilityResult:
    """Can a stored qubit survive one protected message exchange?"""
    model._check_arg(t_coh, "t_coh", model._POSITIVE)
    slack = t_coh - hop_total(hop)
    return FeasibilityResult(feasible=slack > 0.0, slack=slack)


def check_parallel(
    messages: Sequence[HopTiming], t_decrypt_end: float, t_coh_end: float
) -> FeasibilityResult:
    """Can the end node collect every broadcast correction in time?

    The slowest message is binding; ties resolve to the lowest index so
    reports are reproducible.
    """
    if not messages:
        raise ParameterError("check_parallel requires at least one message")
    model._check_arg(t_coh_end, "t_coh_end", model._POSITIVE)
    totals = parallel_totals(messages, t_decrypt_end)
    worst = max(totals)
    binding = totals.index(worst)
    slack = t_coh_end - worst
    return FeasibilityResult(feasible=slack > 0.0, slack=slack, binding_index=binding)


def check_sequential(rounds: Sequence[HopTiming], t_coh: float) -> FeasibilityResult:
    """Can a stored qubit survive L dependent message rounds?"""
    if not rounds:
        raise ParameterError("check_sequential requires at least one round")
    model._check_arg(t_coh, "t_coh", model._POSITIVE)
    slack = t_coh - sequential_total(rounds)
    return FeasibilityResult(feasible=slack > 0.0, slack=slack)


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
        if not isinstance(timings, HopTiming):
            raise ParameterError("single_hop expects one HopTiming")
        return hop_total(timings)
    if isinstance(timings, HopTiming) or not timings:
        raise ParameterError(f"{protocol.value} expects a non-empty sequence of HopTiming")
    if protocol is model.Protocol.PARALLEL_CHAIN:
        if t_decrypt_end is None:
            raise ParameterError("parallel_chain requires t_decrypt_end")
        return max(parallel_totals(timings, t_decrypt_end))
    return sequential_total(timings)


# ---------------------------------------------------------------------------
# Scenario-level extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioTimings:
    """Message timings derived from a scenario, shaped for its protocol.

    ``hops`` holds one entry for the single-hop message, one per repeater
    (in path order) for parallel chains, or one per round for sequential
    protocols.  The simulation engine consumes the same structure, so the
    static checks and the dynamic enforcement always see identical numbers.
    """

    protocol: model.Protocol
    hops: tuple[HopTiming, ...]
    t_decrypt_end: float
    t_coh_end: float


def scenario_timings(config: model.ScenarioConfig) -> ScenarioTimings:
    """Extract the protocol's message timings from a validated scenario."""
    path = model.resolve_path(config)
    nodes = config.node_index()
    receiver = nodes[path[-1]]
    t_coh_end = receiver.memory.t_coh
    dec_end = receiver.crypto.t_decrypt
    hops = tuple(
        HopTiming(
            t_encrypt=nodes[sender].crypto.t_encrypt,
            t_comm=config.channel_between(sender, receiver.id).t_comm,
            t_decrypt=dec_end,
        )
        for sender in model.message_senders(config.protocol, path)
    )
    if config.protocol is model.Protocol.SEQUENTIAL_ROUNDS:
        hops *= config.rounds_l
    return ScenarioTimings(protocol=config.protocol, hops=hops, t_decrypt_end=dec_end, t_coh_end=t_coh_end)


def check_scenario(config: model.ScenarioConfig) -> FeasibilityResult:
    """Run the timing check matching the scenario's protocol."""
    timings = scenario_timings(config)
    if timings.protocol is model.Protocol.SINGLE_HOP:
        return check_single_hop(timings.hops[0], timings.t_coh_end)
    if timings.protocol is model.Protocol.PARALLEL_CHAIN:
        return check_parallel(list(timings.hops), timings.t_decrypt_end, timings.t_coh_end)
    return check_sequential(list(timings.hops), timings.t_coh_end)

"""Werner-state fidelity model: memory decay, swapping, and chain composition.

Every entangled pair is treated as a Werner state, fully described by its
fidelity F in [0.25, 1].  Storage in an imperfect memory depolarizes the
state exponentially toward the maximally mixed point F = 0.25::

    decay(F, wait, t_coh) = 0.25 + (F - 0.25) * exp(-wait / t_coh)

and a Bell-state measurement at a shared intermediate node composes two
pairs into one with::

    swap(F1, F2) = F1 * F2 + (1 - F1) * (1 - F2) / 3

Both operations fix the maximally mixed point (0.25 maps to 0.25), a perfect
pair is the identity element of ``swap``, and the composed fidelity of a
chain never exceeds its weakest link.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable

from .errors import ParameterError
from .model import _FIDELITY, _NON_NEGATIVE, _POSITIVE, _check_arg

__all__ = ["FIDELITY_FLOOR", "decay", "swap", "chain_fidelity"]

# Fidelity of the maximally mixed two-qubit state; below this the Werner
# parameterization is meaningless.
FIDELITY_FLOOR = 0.25


def decay(f0: float, wait: float, t_coh: float) -> float:
    """Fidelity after storing a pair for ``wait`` seconds in one memory.

    Args:
        f0: fidelity at the start of storage, in [0.25, 1].
        wait: storage duration in seconds, >= 0.
        t_coh: coherence time of the storing memory, > 0.

    Returns:
        The decayed fidelity, in [0.25, f0].
    """
    _check_arg(f0, "f0", _FIDELITY)
    _check_arg(wait, "wait", _NON_NEGATIVE)
    _check_arg(t_coh, "t_coh", _POSITIVE)
    return _decay(f0, wait, t_coh)


def swap(f1: float, f2: float) -> float:
    """Fidelity of the pair produced by swapping two Werner pairs.

    Symmetric in its arguments and monotone non-decreasing in each; a
    perfect pair (F = 1) acts as identity.
    """
    _check_arg(f1, "f1", _FIDELITY)
    _check_arg(f2, "f2", _FIDELITY)
    return _swap(f1, f2)


def chain_fidelity(links: Iterable[float]) -> float:
    """End-to-end fidelity of a chain: left fold of ``swap`` over the links.

    A singleton chain returns its only element unchanged.  The result is
    bounded above by the weakest link in the chain.
    """
    values = list(links)
    if not values:
        raise ParameterError("chain_fidelity requires at least one link fidelity")
    for i, value in enumerate(values):
        _check_arg(value, f"links[{i}]", _FIDELITY)
    return functools.reduce(_swap, values[1:], float(values[0]))


# Unchecked kernels: the public functions above check their arguments, and
# the engine calls these directly on data that validate_scenario accepted.

def _decay(f0: float, wait: float, t_coh: float) -> float:
    if wait == 0.0:
        return float(f0)
    decayed = FIDELITY_FLOOR + (f0 - FIDELITY_FLOOR) * math.exp(-wait / t_coh)
    # exp() <= 1 bounds the true value by f0; min() guards the last ulp.
    return min(float(f0), decayed)


def _swap(f1: float, f2: float) -> float:
    value = f1 * f2 + (1.0 - f1) * (1.0 - f2) / 3.0
    return max(FIDELITY_FLOOR, min(1.0, value))

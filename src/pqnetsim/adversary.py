"""Hybrid man-in-the-middle model: attack bound, fidelity impact, detection.

The adversary intercepts flying qubits into its own memory and tampers with
the PQC-protected classical traffic.  Its total delay is
``delta_t = t_eve + t_pqc``; the attack completes without forced detection
only when ``delta_t < t_coh_eve`` (strict).  Whether or not that bound
holds, the held pair ages in the adversary's memory for the full delta_t, so
a sufficiently sensitive statistical detector can still see the residual
fidelity dip.

Fidelity maps to the per-basis quantum bit error rate of a Werner state via
``qber = 2 * (1 - F) / 3``, and the detector is a one-sided z-test on mean
QBER against a clean baseline.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from . import fidelity
from .errors import ParameterError
from .model import _FIDELITY, _FINITE, _POSITIVE, AdversaryConfig, _check_arg, _check_fields, _check_type, _fmean, _sum_problem

__all__ = [
    "AttackOutcome",
    "DetectionReport",
    "attack_outcome",
    "intercepted_fidelity",
    "qber_of",
    "detect",
]


class AttackOutcome(Enum):
    UNDETECTABLE_SUCCESS = "undetectable_success"
    DECOHERES = "decoheres"


@dataclass(frozen=True)
class DetectionReport:
    """Result of comparing observed QBER samples against a baseline.

    ``flagged`` holds exactly when ``z_score > threshold_sigma``; with a
    standard error of 0 the z-score degenerates to +inf (observed mean above
    baseline) or 0 (otherwise).  The CLI writes an infinite z-score as JSON
    ``null``.
    """

    baseline_mean_qber: float
    observed_mean_qber: float
    z_score: float
    flagged: bool
    threshold_sigma: float


def _check_adversary(adv: AdversaryConfig) -> None:
    _check_fields(_check_type(adv, "adversary", AdversaryConfig), "adversary ")
    if problem := _sum_problem(adv):
        raise ParameterError(f"adversary {problem}, got {adv.delta_t}")


def attack_outcome(adv: AdversaryConfig) -> AttackOutcome:
    """Does the adversary finish interception and manipulation in time?

    Strict bound: when the total delay exactly equals the adversary's
    coherence time the held state decoheres.
    """
    _check_adversary(adv)
    if adv.delta_t < adv.t_coh_eve:
        return AttackOutcome.UNDETECTABLE_SUCCESS
    return AttackOutcome.DECOHERES


def intercepted_fidelity(f_in: float, adv: AdversaryConfig) -> float:
    """Fidelity of a pair after sitting in the adversary's memory for delta_t."""
    _check_arg(f_in, "f_in", _FIDELITY)
    _check_adversary(adv)
    return fidelity.decay(f_in, adv.delta_t, adv.t_coh_eve)


def qber_of(f: float) -> float:
    """Per-basis quantum bit error rate of a Werner state with fidelity ``f``.

    Strictly decreasing, mapping [0.25, 1] onto [0, 0.5].
    """
    _check_arg(f, "fidelity", _FIDELITY)
    return (2.0 * (1.0 - f)) / 3.0


def detect(
    baseline_samples: Sequence[float],
    observed_samples: Sequence[float],
    threshold_sigma: float,
) -> DetectionReport:
    """One-sided z-test of observed mean QBER against a baseline.

    ``z = (mean(observed) - mean(baseline)) / se``, ``se = sd(baseline) / sqrt(n_obs)``;
    a mean is finite even where its samples' sum overflows.  Where ``se`` is 0 (no
    baseline spread, or one that underflows) z is +inf if the observed mean exceeds
    the baseline's, else 0; a z past the float range is +inf or -inf.

    Args:
        baseline_samples: QBER samples from attack-free operation (>= 2).
        observed_samples: QBER samples from the run under test (>= 2).
        threshold_sigma: flagging threshold, > 0.

    Raises:
        ParameterError: on short sample lists, non-finite samples, a baseline
            standard deviation that overflows a float, or a non-positive threshold.
    """
    _check_arg(threshold_sigma, "threshold_sigma", _POSITIVE)
    for name, samples in (("baseline_samples", baseline_samples), ("observed_samples", observed_samples)):
        if len(_check_type(samples, name, Sequence)) < 2:
            raise ParameterError(f"{name} must hold at least 2 samples, got {len(samples)}")
        for i, value in enumerate(samples):
            _check_arg(value, f"{name}[{i}]", _FINITE)

    import statistics  # here, so that a command that detects nothing does not load it

    try:
        baseline_sd = statistics.stdev(baseline_samples)
    except OverflowError:
        raise ParameterError("baseline_samples overflow a float in their standard deviation") from None
    baseline_mean, observed_mean = _fmean(baseline_samples), _fmean(observed_samples)
    if (standard_error := baseline_sd / math.sqrt(len(observed_samples))) == 0.0:
        z_score = math.inf if observed_mean > baseline_mean else 0.0
    else:
        z_score = (observed_mean - baseline_mean) / standard_error
    return DetectionReport(
        baseline_mean_qber=baseline_mean,
        observed_mean_qber=observed_mean,
        z_score=z_score,
        flagged=z_score > threshold_sigma,
        threshold_sigma=threshold_sigma,
    )

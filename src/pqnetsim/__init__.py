"""Deterministic simulator and analyzer for PQC-protected quantum networks.

The package answers one family of questions: given per-node quantum-memory
coherence times, per-algorithm PQC latency profiles, classical channel
delays, entanglement generation rates and an optional man-in-the-middle
adversary, do end-to-end entanglement protocols still complete, with what
distribution time and delivered fidelity, and does key management scale?

Layers:

* :mod:`pqnetsim.model` -- shared domain types, crypto-profile registry,
  scenario loading and validation.
* :mod:`pqnetsim.timing` -- exact feasibility inequalities with signed slack.
* :mod:`pqnetsim.fidelity` -- Werner-state decay and swap composition.
* :mod:`pqnetsim.engine` -- seeded slotted Monte Carlo simulation.
* :mod:`pqnetsim.adversary` -- hybrid attack bound, QBER impact, detection.
* :mod:`pqnetsim.kms` -- key-management scaling analytics.
* :mod:`pqnetsim.cli` -- the ``pqnetsim`` command-line tool.

The package exports the names in each module's ``__all__``, the one list of
that module's public names (the command-line tool's aside).
"""

from . import adversary, engine, errors, fidelity, kms, model, timing
from .adversary import *
from .engine import *
from .errors import *
from .fidelity import *
from .kms import *
from .model import *
from .timing import *

__version__ = "0.1.0"

__all__ = errors.__all__ + model.__all__ + timing.__all__ + fidelity.__all__ + engine.__all__ + adversary.__all__ + kms.__all__

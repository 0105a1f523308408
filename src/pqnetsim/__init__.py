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
that module's public names (the command-line tool's aside).  It imports no
module up front: on first access (PEP 562) a name is looked up by importing
the modules in layer order, ``errors`` to ``kms``, until one's ``__all__``
lists it, so ``from pqnetsim import check_scenario`` does not load the
engine.  ``__all__`` joins the lists in that order.
"""

__version__ = "0.1.0"

_LAYERS = ("errors", "model", "timing", "fidelity", "engine", "adversary", "kms")


def _module(name: str):
    __import__(f"{__name__}.{name}")  # not importlib.import_module: `python -X importtime` lists this import
    return globals()[name]


def __getattr__(name: str):
    if name in _LAYERS or name == "cli":
        return _module(name)
    if name == "__all__":
        value = [public for layer in _LAYERS for public in _module(layer).__all__]
    else:
        for layer in _LAYERS:
            module = _module(layer)
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})

"""Key-management scaling analytics: handshake counts and re-key cycle time.

A network-wide re-key in a fully meshed topology needs one handshake per
unordered node pair, O(N^2).  A one-level hierarchy (members talk to their
cluster head, heads form a full mesh among themselves) grows near-linearly
only while the heads fit in one cluster (N <= c^2, e.g. c >= ceil(sqrt(N)));
for a fixed cluster size c the head mesh still grows as ~N^2 / (2 c^2), the
full mesh divided by c^2.  Cycle time assumes uniform
handshake duration and greedy batching of independent handshakes across a
fixed number of parallel lanes.
"""

from __future__ import annotations

import math

from .errors import ParameterError
from .model import _AT_LEAST_ONE, _NON_NEGATIVE, _check_arg, _range

__all__ = [
    "full_mesh_handshakes",
    "hierarchical_handshakes",
    "rekey_cycle_time",
]


# Caps that keep handshake counts, and the cycle times derived from them, inside float range.
_SIZE = _range(2, 10**9, "must be in [2, 1000000000]")
_HANDSHAKES = _range(0, 10**18, "must be in [0, 1000000000000000000]")


def full_mesh_handshakes(n: int) -> int:
    """Handshakes per re-key cycle with every node pair exchanging keys.

    One handshake establishes both directions of a pair, so the count is
    n * (n - 1) / 2.
    """
    _check_arg(n, "n", _SIZE)
    return n * (n - 1) // 2


def hierarchical_handshakes(n: int, cluster_size: int) -> int:
    """Handshakes per re-key cycle with a one-level cluster hierarchy.

    ``ceil(n / cluster_size)`` nodes act as cluster heads; every remaining
    node handshakes with its head, and the heads form a full mesh among
    themselves.  With a single cluster this degenerates to a star (n - 1).
    """
    _check_arg(n, "n", _SIZE)
    _check_arg(cluster_size, "cluster_size", _SIZE)
    if cluster_size > n:
        raise ParameterError(f"cluster_size must be <= n, got {cluster_size} > {n}")
    heads = math.ceil(n / cluster_size)
    member_handshakes = n - heads
    head_mesh = heads * (heads - 1) // 2
    return member_handshakes + head_mesh


def rekey_cycle_time(
    handshakes: int, per_handshake_time: float, t_auth: float, parallelism: int
) -> float:
    """Wall-clock duration of one re-key cycle.

    Independent handshakes of uniform duration are batched greedily across
    ``parallelism`` lanes: ``ceil(handshakes / parallelism)`` batches, each
    taking ``per_handshake_time + t_auth`` seconds.  A cycle time past the
    float range is refused.
    """
    _check_arg(handshakes, "handshakes", _HANDSHAKES)
    _check_arg(parallelism, "parallelism", _AT_LEAST_ONE)
    _check_arg(per_handshake_time, "per_handshake_time", _NON_NEGATIVE)
    _check_arg(t_auth, "t_auth", _NON_NEGATIVE)
    batches = -(-handshakes // parallelism)
    return _check_arg(batches * (per_handshake_time + t_auth), "rekey cycle time", _NON_NEGATIVE)

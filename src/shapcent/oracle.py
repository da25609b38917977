"""Brute-force Shapley ground truth via coalition enumeration.

Deliberately naive: each of the 2^n coalitions is evaluated once, fresh,
through the characteristic function, so this module stays an independent
check on the closed-form solvers.
"""
from __future__ import annotations

import math
from array import array

from .exact import ShapleyVector
from .games import GameSpec, _value_fn
from .graph import Graph, distance_matrix

DEFAULT_NODE_LIMIT = 16


class OracleSizeError(ValueError):
    """Graph too large for exhaustive enumeration."""


def brute_force_shapley(
    g: Graph, spec: GameSpec, node_limit: int = DEFAULT_NODE_LIMIT
) -> ShapleyVector:
    """Exact Shapley values from the factorial-weighted coalition sum.

    Refuses graphs above node_limit (default 16, override up to ~20 for
    patient runs); weights are formed from exact integer factorials.
    value[mask] holds the value of the coalition of mask's bits, an
    8 * 2^n byte table: 512 KiB at n = 16, where g5 on K16 takes about
    0.9 s of CPU time (Python 3.11, 2-core host). phi(i) adds
    weight[|S|] * (value[S + i] - value[S]) over the masks S without bit
    i, ascending, left to right.
    """
    n = g.node_count
    if n > node_limit:
        raise OracleSizeError(
            f"graph has {n} nodes, above the enumeration limit {node_limit}"
        )
    ctx = distance_matrix(g, "forward") if spec.game in ("g3", "g4") else None
    value_of = _value_fn(g, spec, ctx)
    value = array("d", bytes(8 << n))
    for mask in range(1, 1 << n):
        value[mask] = value_of({v for v in range(n) if mask >> v & 1})
    fact = [math.factorial(i) for i in range(n + 1)]
    weight = [fact[s] * fact[n - 1 - s] / fact[n] for s in range(n)]
    scores = []
    for i in range(n):
        bit = 1 << i
        total = 0.0
        for high in range(0, 1 << n, bit << 1):
            for mask in range(high, high + bit):
                total += weight[mask.bit_count()] * (value[mask | bit] - value[mask])
        scores.append(total)
    return ShapleyVector(tuple(scores), game=spec.game, method="brute_force")

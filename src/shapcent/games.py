"""The five coalitional games and their characteristic functions.

Game tags:
  g1  one-hop fringe counting
  g2  k-threshold neighbor counting
  g3  distance-cutoff reach
  g4  decay-weighted proximity sum
  g5  weighted-threshold influence

Every characteristic function maps a node subset to a nonnegative real
and returns 0 for the empty coalition.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Collection, Mapping, Sequence

import numpy as np

from .graph import Graph, data_lines, distance_blocks, settle

GAME_TAGS = ("g1", "g2", "g3", "g4", "g5")

INF = math.inf

Decay = Callable[[float], float]

# probe grid on which DecayFn.custom checks every decay
_DECAY_PROBE = (0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0, INF)


class GameSpecError(ValueError):
    """Invalid game description or parameter map."""


def _inv_linear(d: float) -> float:
    return 1.0 / (1.0 + d)


def _inv_quadratic(d: float) -> float:
    return 1.0 / (1.0 + d * d)


def _exponential(d: float) -> float:
    return math.exp(-d)


def _step(d: float, c: float) -> float:
    return 1.0 if d <= c else 0.0


def step_threshold(f: Decay) -> float:
    """c when f is DecayFn.step(c) and c is a float or an int that a float
    holds exactly, else +inf: the distance past which f is 0.0."""
    if isinstance(f, functools.partial) and f.func is _step and not f.args:
        c = f.keywords.get("c")
        if isinstance(c, float) or (isinstance(c, int) and abs(c) <= 1 << 53):
            return float(c)
    return INF


def decay_values(f: Decay, d: np.ndarray) -> np.ndarray:
    """[f(x) for x in d] as an array, bit for bit: one numpy expression
    for the builtin decays, which round as the scalar ones do, else one
    map of f over d. exp stays math.exp, since np.exp rounds differently."""
    if f is _inv_linear:
        return 1.0 / (1.0 + d)
    if f is _inv_quadratic:
        with np.errstate(over="ignore"):  # d * d = inf gives 0.0, as in Python
            return 1.0 / (1.0 + d * d)
    if f is _exponential:
        return np.fromiter(map(math.exp, (-d).tolist()), float, len(d))
    c = step_threshold(f)
    if c < INF:
        return np.where(d <= c, 1.0, 0.0)
    return np.fromiter(map(f, d.tolist()), float, len(d))


class DecayFn:
    """Factories of g4 distance decays. Each returns a plain function
    d -> f(d) that passed `custom`'s probe check: finite, nonnegative,
    non-increasing and 0 at +inf. The class has no instances."""

    @staticmethod
    def inv_linear() -> Decay:
        return DecayFn.custom(_inv_linear)

    @staticmethod
    def inv_quadratic() -> Decay:
        return DecayFn.custom(_inv_quadratic)

    @staticmethod
    def exponential() -> Decay:
        return DecayFn.custom(_exponential)

    @staticmethod
    def step(c: float) -> Decay:
        if not c > 0:
            raise GameSpecError(f"step threshold must be positive, got {c}")
        # a partial of a module-level function pickles; a closure does not
        return DecayFn.custom(functools.partial(_step, c=c))

    @staticmethod
    def custom(fn: Decay) -> Decay:
        """fn itself, once its values on the probe grid meet the contract."""
        vals = [fn(d) for d in _DECAY_PROBE]
        try:
            finite = all(math.isfinite(v) for v in vals)
        except TypeError:
            raise GameSpecError("decay function must return real numbers") from None
        if not finite:
            raise GameSpecError("decay function must be finite")
        if any(v < 0 for v in vals):
            raise GameSpecError("decay function must be nonnegative")
        if any(b > a for a, b in zip(vals, vals[1:])):
            raise GameSpecError("decay function must be non-increasing")
        if vals[-1] != 0.0:
            raise GameSpecError("decay function must vanish at +infinity")
        return fn


@dataclass(frozen=True)
class GameSpec:
    """One of the five games plus its per-node parameters.

    Per-node maps may be given as a uniform scalar shorthand (numpy
    scalars included); they are broadcast over all nodes at evaluation
    time.
    """

    game: str
    k: Mapping[int, int] | int | None = None
    d_cutoff: Mapping[int, float] | float | None = None
    decay: Decay | None = None
    w_cutoff: Mapping[int, float] | float | None = None

    def __post_init__(self):
        if self.game not in GAME_TAGS:
            raise GameSpecError(f"unknown game tag {self.game!r}")
        needed = {"g2": self.k, "g3": self.d_cutoff, "g4": self.decay, "g5": self.w_cutoff}
        if self.game in needed and needed[self.game] is None:
            raise GameSpecError(f"game {self.game} requires its parameter")
        if self.game == "g4":
            DecayFn.custom(self.decay)
        import numbers

        for name in ("k", "d_cutoff", "w_cutoff"):
            param = getattr(self, name)
            if param is None or isinstance(param, (int, float, Mapping)):
                continue
            if not isinstance(param, numbers.Real):
                raise GameSpecError(
                    f"parameter {name} must be a number or a per-node map, "
                    f"got {type(param).__name__}"
                )
            # numpy scalars become plain numbers, which evaluation broadcasts
            plain = int(param) if isinstance(param, numbers.Integral) else float(param)
            object.__setattr__(self, name, plain)

    @staticmethod
    def fringe() -> "GameSpec":
        return GameSpec("g1")

    @staticmethod
    def threshold(k: Mapping[int, int] | int) -> "GameSpec":
        return GameSpec("g2", k=k)

    @staticmethod
    def cutoff(d_cutoff: Mapping[int, float] | float) -> "GameSpec":
        return GameSpec("g3", d_cutoff=d_cutoff)

    @staticmethod
    def proximity(decay: Decay) -> "GameSpec":
        return GameSpec("g4", decay=decay)

    @staticmethod
    def weighted_threshold(w_cutoff: Mapping[int, float] | float) -> "GameSpec":
        return GameSpec("g5", w_cutoff=w_cutoff)

    def k_values(self, g: Graph) -> list[int]:
        """Per-node k, range-checked against 1 <= k(v) <= 1 + deg(v),
        deg(v) being the in-degree."""
        return self._k_for_degrees(np.diff(g.in_arcs.ptr).tolist())

    def _k_for_degrees(self, deg: Sequence[int]) -> list[int]:
        """Per-node k, range-checked against the given in-degrees."""
        vals = _broadcast(self.k, len(deg), "k")
        for v, kv in enumerate(vals):
            if type(kv) is not int:
                if kv % 1 != 0:  # also catches nan and inf
                    raise GameSpecError(f"k({v}) = {kv} is not a whole number")
                kv = int(kv)
            if not 1 <= kv <= 1 + deg[v]:
                raise GameSpecError(
                    f"k({v}) = {kv} outside [1, {1 + deg[v]}] for degree {deg[v]}"
                )
            vals[v] = kv
        return vals

    def d_cutoff_values(self, g: Graph) -> list[float]:
        return _positive_cutoffs(self.d_cutoff, g.node_count, "d_cutoff")

    def w_cutoff_values(self, g: Graph) -> list[float]:
        return _positive_cutoffs(self.w_cutoff, g.node_count, "w_cutoff")


def _positive_cutoffs(param, n: int, name: str) -> list[float]:
    """Per-node cutoff as floats, each checked to be positive."""
    vals = _broadcast(param, n, name)
    for v, c in enumerate(vals):
        if not c > 0:
            raise GameSpecError(f"{name}({v}) must be positive, got {c}")
    return [float(c) for c in vals]


def _broadcast(param, n: int, name: str) -> list:
    if param is None:
        raise GameSpecError(f"missing parameter {name}")
    if isinstance(param, (int, float)):
        return [param] * n
    vals = []
    for v in range(n):
        if v not in param:
            raise GameSpecError(f"parameter map {name} missing node {v}")
        vals.append(param[v])
    if len(param) > n:
        unknown = [key for key in param if key not in range(n)]
        raise GameSpecError(f"parameter map {name} names node {unknown[0]!r} outside [0, {n})")
    return vals


def load_node_params(stream, integral: bool = False) -> dict[int, float] | dict[int, int]:
    """Parse "node,value" CSV lines into a per-node parameter map."""
    out: dict = {}
    for lineno, line in data_lines(stream):
        parts = line.split(",")
        if len(parts) != 2:
            raise GameSpecError(f"line {lineno}: expected 'node,value': {line!r}")
        try:
            node = int(parts[0])
            val = int(parts[1]) if integral else float(parts[1])
        except ValueError:
            raise GameSpecError(f"line {lineno}: bad value: {line!r}") from None
        if node in out:
            raise GameSpecError(f"line {lineno}: duplicate node {node}")
        out[node] = val
    return out


def _check_coalition(g: Graph, coalition: Collection[int]) -> set[int]:
    members = set(coalition)
    for v in members:
        if not (0 <= v < g.node_count):
            raise GameSpecError(f"coalition contains invalid node id {v}")
    return members


def _min_distances(
    g: Graph, members: set[int], ctx: Sequence[Sequence[float]] | None
) -> list[float]:
    """Per-node minimum forward distance from the coalition."""
    n = g.node_count
    best = [INF] * n
    for c in members:
        if ctx is not None:
            row = ctx[c]
            for v in range(n):
                if row[v] < best[v]:
                    best[v] = row[v]
        else:
            settle(g, c, "forward", bound=best)
    return best


def one_hop_covers(g: Graph) -> list[list[int]]:
    """For each node v, its out-neighbor ids: the nodes v covers in game
    g1 and counts toward in game g2. The number of nodes that cover u is
    u's in-degree, which on an undirected graph is its degree."""
    ids, ptr = g.out_arcs.ids.tolist(), g.out_arcs.ptr.tolist()
    return [ids[a:b] for a, b in zip(ptr, ptr[1:])]


def cutoff_covers(g: Graph, cut: Sequence[float]) -> list[list[int]]:
    """For each node v, the other nodes u with distance(v, u) <= cut[u],
    in node-id order.

    These are the nodes v covers in game g3. They come from the forward
    distance_blocks bounded at the largest cutoff, whose entries are exact
    at or below it and above it everywhere else.
    """
    cut = np.asarray(cut, dtype=float)
    # one int object per node, shared by every list that holds it: a fresh
    # int per entry (ndarray.tolist) cost 28 bytes for each of the n * ball
    # entries, 1.3 MB on a 500-node graph with balls of 94
    ids = np.arange(len(cut)).astype(object)
    covers: list[list[int]] = []
    for rows in distance_blocks(g, "forward", cut.max(initial=0.0)):
        within = rows <= cut
        at = np.arange(len(rows))
        within[at, len(covers) + at] = False  # each source's own entry
        covers += [ids[row].tolist() for row in within]
    return covers


def characteristic_value(
    g: Graph,
    spec: GameSpec,
    coalition: Collection[int],
    ctx: Sequence[Sequence[float]] | None = None,
) -> float:
    """Evaluate the game's characteristic function on a coalition.

    ctx may carry the forward distance matrix (distance_matrix, or any
    n x n nested sequence) to avoid repeated Dijkstra runs for g3/g4.
    """
    members = _check_coalition(g, coalition)
    value = _value_fn(g, spec, ctx)  # checks the spec, even for no members
    return value(members) if members else 0.0


def _value_fn(g: Graph, spec: GameSpec, ctx=None) -> Callable[[set[int]], float]:
    """The game's characteristic function on a checked, nonempty member set.
    It broadcasts and checks the per-node parameters once, so a caller that
    evaluates many coalitions (the brute-force oracle) checks them once."""
    n, out = g.node_count, g.arc_tuples("forward")
    # nested lists: the naive loops read Python floats faster than array scalars
    ctx = None if ctx is None else np.asarray(ctx, dtype=float).tolist()

    if spec.game == "g1":
        def value(members):
            covered = set(members)
            for c in members:
                for u, _ in out[c]:
                    covered.add(u)
            return float(len(covered))

    elif spec.game == "g2":
        k = spec.k_values(g)
        def value(members):
            hits = [0] * n
            for c in members:
                for u, _ in out[c]:
                    hits[u] += 1
            return float(sum(1 for v in range(n) if v in members or hits[v] >= k[v]))

    elif spec.game == "g3":
        cut = spec.d_cutoff_values(g)
        def value(members):
            best = _min_distances(g, members, ctx)
            return float(sum(1 for v in range(n) if best[v] <= cut[v]))

    elif spec.game == "g4":
        f = spec.decay
        def value(members):
            total = 0.0  # left to right: sum() compensates from Python 3.12
            for d in _min_distances(g, members, ctx):
                total += f(d)
            return float(total)

    else:  # g5
        wc = spec.w_cutoff_values(g)
        def value(members):
            acc = [0.0] * n
            for c in members:
                for u, w in out[c]:
                    acc[u] += w
            return float(sum(1 for v in range(n) if v in members or acc[v] >= wc[v]))

    return value


def grand_value(g: Graph, spec: GameSpec) -> float:
    """Value of the grand coalition, nu(V)."""
    if spec.game in ("g1", "g2", "g3", "g5"):
        return float(g.node_count)
    return float(g.node_count) * spec.decay(0.0)

"""Cover-to-clustering pivot transformations and their charging certificate.

All three pivots run through one kernel.  A run repeatedly picks a
uniformly random unclustered pivot and lets each unclustered neighbour
join the pivot's cluster independently, with a per-edge join probability
that ``join_probabilities`` defines for every algorithm:

* ``cover-pivot`` (the 3/2 transformation): 1 over positive edges and 0
  over negative edges, softened to 1/4 and 3/4 on cover edges.  On
  complete graphs the expected number of disagreements is at most 3/2
  times the cover size.
* ``flip-pivot``: 1 over the edges that are positive once the cover's
  signs are flipped, else 0; the standard pivot on the flipped graph,
  within twice the cover size.
* ``pivot``: 1 over positive edges, 0 over negative ones; no cover.

Each algorithm's rule is one table from (edge is positive, edge is in the
cover) to one of four shared Fraction constants, 0, 1/4, 3/4 and 1:

=============  =========  ==========  =========  ==========
algorithm      +, out     +, in       -, out     -, in
=============  =========  ==========  =========  ==========
cover-pivot    1          1/4         0          3/4
flip-pivot     1          0           0          1
pivot          1          --          0          --
=============  =========  ==========  =========  ==========

``join_probabilities`` reads the table per edge in exact rationals, for
the exhaustive oracle.  The sampler converts the four cells to floats
once; each is exact in binary, so a uniform draw compares with the float
as it would with the Fraction.  The probabilities are computed, and the
cover checked, once per batch: ``pivot_trials`` samples all its trials
from the same per-node neighbour lists, and ``run_pivot`` is a batch of
one.  The sampler builds those lists from the graph's numpy edge columns,
and a run keeps its unclustered nodes as a sorted list from which each
clustered node is deleted by bisection, so a round costs its joins rather
than a pass over every node.  Disagreements are always counted on the
input graph, by ``cc_cost``.

The guarantee rests on a finite case analysis over the 4 triangle sign
classes times the 8 cover-membership patterns; ``verify_charging_tables``
recomputes the full disagreement/budget/ratio tables in exact rationals
and checks them cell by cell against frozen reference values.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import CapacityError, InputError, VerificationError
from .graphs import (Clustering, EdgeCover, POSITIVE, SignedGraph, cc_cost,
                     is_feasible_cover, total)
from .graphs import flip_edges  # noqa: F401  perfbench/tracing.py wraps this name
from .rng import make_rng, spawn_seeds

ALG_STANDARD_PIVOT = "pivot"
ALG_COVER_PIVOT = "cover-pivot"
ALG_FLIP_PIVOT = "flip-pivot"


_ZERO, _QUARTER, _THREE_QUARTERS, _ONE = (Fraction(0), Fraction(1, 4),
                                          Fraction(3, 4), Fraction(1))

#: Join probability per algorithm, keyed by (edge is positive, edge is in
#: the cover).  ``pivot`` has no cover, so only its (_, False) cells occur.
_JOIN_TABLES = {
    ALG_COVER_PIVOT: {(True, False): _ONE, (True, True): _QUARTER,
                      (False, False): _ZERO, (False, True): _THREE_QUARTERS},
    ALG_FLIP_PIVOT: {(True, False): _ONE, (True, True): _ZERO,
                     (False, False): _ZERO, (False, True): _ONE},
}
_JOIN_TABLES[ALG_STANDARD_PIVOT] = _JOIN_TABLES[ALG_FLIP_PIVOT]


def inclusion_probability(sign: int, in_cover: bool) -> Fraction:
    """Probability that a neighbour joins the pivot's cluster over one edge.

    Positive edges join with probability 1, negative edges never; edges in
    the cover are softened to 1/4 (positive) and 3/4 (negative).
    """
    return _JOIN_TABLES[ALG_COVER_PIVOT][sign == POSITIVE, bool(in_cover)]


@dataclass(frozen=True)
class TripletConfig:
    """Signs and cover membership of one node triple's edges (uv, uw, vw)."""

    signs: tuple[int, int, int]
    membership: tuple[bool, bool, bool]

    def is_bad_triangle(self) -> bool:
        return sum(1 for s in self.signs if s != POSITIVE) == 1

    def is_uncovered_bad_triangle(self) -> bool:
        return self.is_bad_triangle() and not any(self.membership)


def _pair_disagreement(sign: int, p_a, p_b) -> Fraction:
    """Probability the (a,b) edge disagrees when the third node pivots."""
    if sign == POSITIVE:
        return p_a + p_b - 2 * p_a * p_b
    return p_a * p_b


def _pair_budget(in_cover: bool, p_a, p_b) -> Fraction:
    """Probability the (a,b) edge is removed, times its unit budget."""
    if not in_cover:
        return Fraction(0)
    return p_a + p_b - p_a * p_b


def triplet_sums(config: TripletConfig):
    """Three-way disagreement and budget sums for one triple configuration.

    Returns ``(d_sum, b_sum, ratio)`` in exact rationals; ``ratio`` is
    None when the budget sum is zero (an undefined 0/0 cell, not an error).
    """
    p = [inclusion_probability(s, m) for s, m in zip(config.signs, config.membership)]
    p_uv, p_uw, p_vw = p
    d_sum = (_pair_disagreement(config.signs[0], p_uw, p_vw)
             + _pair_disagreement(config.signs[1], p_uv, p_vw)
             + _pair_disagreement(config.signs[2], p_uv, p_uw))
    b_sum = (_pair_budget(config.membership[0], p_uw, p_vw)
             + _pair_budget(config.membership[1], p_uv, p_vw)
             + _pair_budget(config.membership[2], p_uv, p_uw))
    ratio = None if b_sum == 0 else d_sum / b_sum
    return d_sum, b_sum, ratio


# Frozen reference tables for the charging argument: rows are triangle
# sign classes, columns are cover-membership patterns for (uv, uw, vw).
# "x" marks the one impossible column per row (an uncovered bad triangle).
# Each ratio is its disagreement over its budget, 0/0 where the budget is 0.
SIGN_ROWS = ((-1, -1, -1), (-1, -1, 1), (-1, 1, 1), (1, 1, 1))
MEMBER_COLUMNS = ((False, False, False), (False, False, True),
                  (False, True, False), (True, False, False),
                  (False, True, True), (True, True, False),
                  (True, False, True), (True, True, True))

_F = Fraction
_EXCLUDED = "x"
_REF_DISAGREEMENT = (
    (0, 0, 0, 0, _F(9, 16), _F(9, 16), _F(9, 16), _F(27, 16)),
    (0, 0, _F(3, 2), _F(3, 2), _F(15, 16), _F(15, 8), _F(15, 16), _F(3, 4)),
    (_EXCLUDED, _F(3, 2), _F(3, 2), _F(3, 2), _F(9, 16), _F(9, 8), _F(9, 8), _F(21, 16)),
    (0, _F(3, 2), _F(3, 2), _F(3, 2), _F(15, 8), _F(15, 8), _F(15, 8), _F(9, 8)),
)
_REF_BUDGET = (
    (0, 0, 0, 0, _F(3, 2), _F(3, 2), _F(3, 2), _F(45, 16)),
    (0, 0, 1, 1, 1, 2, 1, _F(41, 16)),
    (_EXCLUDED, 1, 1, 1, _F(1, 2), 2, 2, _F(33, 16)),
    (0, 1, 1, 1, 2, 2, 2, _F(21, 16)),
)


def _sig4(value: Fraction) -> str:
    """Render a nonnegative rational to at most 4 significant figures
    (banker's rounding), trailing zeros stripped."""
    if value == 0:
        return "0"
    exponent = 0
    scaled = value
    while scaled >= 10:
        scaled /= 10
        exponent += 1
    while scaled < 1:
        scaled *= 10
        exponent -= 1
    digits = 3 - exponent
    quantum = Fraction(10) ** -digits
    rounded = round(value / quantum) * quantum  # round() on Fraction is banker's
    if digits <= 0:
        return str(int(rounded))
    scaled_int = int(rounded * 10 ** digits)
    text = f"{scaled_int:0{digits + 1}d}"
    whole, frac = text[:-digits], text[-digits:]
    frac = frac.rstrip("0")
    return whole if not frac else f"{whole}.{frac}"


def _sign_label(signs) -> str:
    return "".join("+" if s == POSITIVE else "-" for s in signs)


def _member_label(member) -> str:
    return "".join("+" if m else "-" for m in member)


def _checked_cell(ri: int, ci: int):
    """``triplet_sums`` of one table cell, checked against the reference;
    None for the excluded cell.  Raises VerificationError naming the cell."""
    signs, member = SIGN_ROWS[ri], MEMBER_COLUMNS[ci]
    cell = f"row {_sign_label(signs)} column {_member_label(member)}"
    ref_d, ref_b = _REF_DISAGREEMENT[ri][ci], _REF_BUDGET[ri][ci]
    config = TripletConfig(signs, member)
    if config.is_uncovered_bad_triangle():
        if ref_d != _EXCLUDED:
            raise VerificationError(f"{cell}: expected an excluded cell")
        return None
    d_sum, b_sum, ratio = triplet_sums(config)
    if d_sum != ref_d:
        raise VerificationError(f"{cell}: disagreement sum {d_sum} != reference {ref_d}")
    if b_sum != ref_b:
        raise VerificationError(f"{cell}: budget sum {b_sum} != reference {ref_b}")
    ref_ratio = None if ref_b == 0 else Fraction(ref_d) / ref_b
    if ratio != ref_ratio:
        raise VerificationError(f"{cell}: ratio {ratio} != reference {ref_ratio}")
    if ratio is None:
        if d_sum != 0:
            raise VerificationError(f"{cell}: zero budget with nonzero disagreement {d_sum}")
    elif ratio > Fraction(3, 2):
        raise VerificationError(f"{cell}: ratio {ratio} exceeds 3/2")
    return d_sum, b_sum, ratio


def verify_charging_tables() -> dict:
    """Recompute the 4 x 8 disagreement/budget/ratio tables and audit them.

    Checks, in exact rational arithmetic: every cell matches its frozen
    reference value, each ratio being the reference disagreement over the
    reference budget; exactly one cell (the uncovered bad triangle) is
    excluded; every defined ratio is at most 3/2; 0/0 cells have both sums
    zero; and the single-edge bound (the edge into the pivot never
    disagrees more than its budget) holds for both membership cases.

    Each cell is computed once.  Returns the recomputed tables both as
    exact fraction strings and rendered to 4 significant figures, with the
    count of cells that are not excluded and the largest ratio among them.
    Raises VerificationError naming the offending cell on any mismatch.
    """
    grid = [[_checked_cell(ri, ci) for ci in range(len(MEMBER_COLUMNS))]
            for ri in range(len(SIGN_ROWS))]
    excluded = [(ri, ci) for ri, row in enumerate(grid)
                for ci, cell in enumerate(row) if cell is None]
    if len(excluded) != 1:
        raise VerificationError(f"expected exactly one excluded cell, found {excluded}")
    # Single-edge bound: when the pivot is an endpoint the edge is always
    # removed, so its disagreement probability must not exceed its budget.
    for sign in (POSITIVE, -POSITIVE):
        for in_cover in (False, True):
            p = inclusion_probability(sign, in_cover)
            d_self = 1 - p if sign == POSITIVE else p
            b_self = Fraction(1) if in_cover else Fraction(0)
            if d_self > b_self:
                raise VerificationError(
                    f"single-edge bound fails for sign {sign}, in_cover {in_cover}")

    def render(k: int, form) -> list:
        return [[_EXCLUDED if cell is None else "0/0" if cell[k] is None
                 else form(cell[k]) for cell in row] for row in grid]

    report = {"rows": [_sign_label(s) for s in SIGN_ROWS],
              "columns": [_member_label(m) for m in MEMBER_COLUMNS]}
    for k, name in enumerate(("disagreement", "budget", "ratio")):
        report[name] = render(k, str)
        report[f"{name}_sig4"] = render(k, _sig4)
    cells = [cell for row in grid for cell in row if cell is not None]
    report["defined_cells"] = len(cells)
    report["max_defined_ratio"] = str(max(c[2] for c in cells if c[2] is not None))
    return report


# -- pivot execution ---------------------------------------------------------


@dataclass(frozen=True)
class PivotTrace:
    """One pivot run: order of pivots, final clustering, disagreement count
    and per-round counts of cover edges removed."""

    algorithm: str
    seed: int | None
    pivot_order: tuple[int, ...]
    clustering: Clustering
    disagreements: object
    removed_per_round: tuple[int, ...]


def _join_rule(g: SignedGraph, algorithm: str, cover: EdgeCover | None):
    """The (positive, in-cover) table of ``algorithm`` and the cover's
    edge ids.  The only place that validates the algorithm name and, for
    the two cover-based pivots, that a feasible cover was given."""
    if algorithm not in _JOIN_TABLES:
        raise InputError(f"unknown pivot algorithm {algorithm!r}")
    ids: frozenset[int] = frozenset()
    if algorithm != ALG_STANDARD_PIVOT:
        if cover is None:
            raise InputError(f"{algorithm} needs a cover")
        if not is_feasible_cover(g, cover):
            raise InputError(
                f"cover is infeasible; {algorithm} requires a feasible cover")
        ids = cover.edge_ids
    return _JOIN_TABLES[algorithm], ids


def join_probabilities(g: SignedGraph, algorithm: str,
                       cover: EdgeCover | None = None) -> list[Fraction]:
    """Exact probability, per edge id, that a neighbour joins the pivot,
    by the rules in the module docstring."""
    table, ids = _join_rule(g, algorithm, cover)
    return [table[e.sign == POSITIVE, i in ids] for i, e in enumerate(g.edges)]


class _PivotSampler:
    """Pivot state built once per batch and sampled once per seed.

    Each node keeps its neighbours of nonzero join probability, as floats,
    sorted by neighbour id.  The floats are the four cells of the
    algorithm's (positive, in-cover) table in the module docstring, the
    table ``join_probabilities`` reads, converted once per batch and taken
    per edge from the graph's edge columns at ``2 * positive + in_cover``;
    one ``np.lexsort`` groups the half-edges by node and sorts each group
    by neighbour.  The cover's endpoints are kept as numpy columns, from
    which each run counts the cover edges removed per round with one
    ``np.bincount``.
    """

    def __init__(self, g: SignedGraph, algorithm: str, cover: EdgeCover | None):
        table, ids = _join_rule(g, algorithm, cover)
        cells = np.array([float(table[positive, in_cover])
                          for positive in (False, True) for in_cover in (False, True)])
        cols = g.edge_columns()
        in_cover = np.zeros(g.m, dtype=np.intp)
        in_cover[np.fromiter(ids, dtype=np.intp, count=len(ids))] = 1
        join = cells[2 * cols.positive + in_cover]
        kept = join.nonzero()[0]
        node = np.concatenate((cols.u[kept], cols.v[kept]))
        neighbour = np.concatenate((cols.v[kept], cols.u[kept]))
        order = np.lexsort((neighbour, node))
        p = join[kept]
        pairs = list(zip(neighbour[order].tolist(), np.concatenate((p, p))[order].tolist()))
        bounds = node[order].searchsorted(np.arange(g.n + 1)).tolist()
        # removed edges are counted for any given cover, also by ``pivot``,
        # whose joins ignore it
        counted = () if cover is None else cover.edge_ids
        cover_ids = np.fromiter(counted, dtype=np.intp, count=len(counted))
        self.g = g
        self.algorithm = algorithm
        self.joins = [pairs[start:stop] for start, stop in zip(bounds, bounds[1:])]
        self.cover_u = cols.u[cover_ids]
        self.cover_v = cols.v[cover_ids]

    def run(self, seed: int) -> PivotTrace:
        """Pick a uniformly random unclustered pivot, then walk its
        neighbours in id order; a coin is drawn only for an unclustered
        neighbour with a fractional probability.  The unclustered nodes are
        kept as a sorted list, so the draw picks the k-th of them in id
        order, and each newly clustered node is deleted by bisection."""
        g = self.g
        rng = make_rng(seed)
        rounds = [-1] * g.n  # round in which each node was clustered
        unclustered = list(range(g.n))
        pivots: list[int] = []
        while unclustered:
            pivot = unclustered[int(rng.integers(len(unclustered)))]
            k = len(pivots)
            pivots.append(pivot)
            rounds[pivot] = k
            del unclustered[bisect_left(unclustered, pivot)]
            for v, p in self.joins[pivot]:
                if rounds[v] < 0 and (p == 1.0 or rng.random() < p):
                    rounds[v] = k
                    del unclustered[bisect_left(unclustered, v)]
        # a cover edge is removed in the first round that clusters one of
        # its endpoints
        node_round = np.array(rounds, dtype=np.intp)
        removed = np.bincount(
            np.minimum(node_round[self.cover_u], node_round[self.cover_v]),
            minlength=len(pivots))
        clustering = Clustering.from_labels(rounds)
        return PivotTrace(self.algorithm, seed, tuple(pivots), clustering,
                          cc_cost(g, clustering), tuple(removed.tolist()))


def run_pivot(g: SignedGraph, algorithm: str, seed: int,
              cover: EdgeCover | None = None) -> PivotTrace:
    """One seeded pivot run of ``algorithm`` (pivot, cover-pivot or
    flip-pivot); disagreements are always counted on ``g``, and
    ``removed_per_round`` counts the edges of ``cover`` when one is given."""
    return _PivotSampler(g, algorithm, cover).run(seed)


def cover_pivot(g: SignedGraph, cover: EdgeCover, seed: int) -> PivotTrace:
    """Pivot with cover-softened join probabilities (the 3/2 transformation).

    Requires a feasible cover; expected disagreements are then at most
    1.5 times the cover size on complete signed graphs.
    """
    return run_pivot(g, ALG_COVER_PIVOT, seed, cover)


def standard_pivot(g: SignedGraph, seed: int) -> PivotTrace:
    """Plain pivot: join over positive edges, never over negative ones."""
    return run_pivot(g, ALG_STANDARD_PIVOT, seed)


def match_flip_pivot(g: SignedGraph, cover: EdgeCover, seed: int) -> PivotTrace:
    """Standard pivot on the cover-flipped graph, scored on the original.

    Expected disagreements are at most twice the cover size.
    """
    return run_pivot(g, ALG_FLIP_PIVOT, seed, cover)


def pivot_trials(g: SignedGraph, algorithm: str, trials: int, seed: int,
                 cover: EdgeCover | None = None) -> dict:
    """Seeded batch of pivot runs with summary statistics.

    Trial seeds derive from the root seed by a splittable scheme, so the
    batch is reproducible and trial k equals ``run_pivot`` with the k-th
    spawned seed.  The cover is validated once per batch.
    """
    if trials < 1:
        raise InputError(f"trials must be at least 1, got {trials}")
    sampler = _PivotSampler(g, algorithm, cover)
    costs = [float(sampler.run(s).disagreements) for s in spawn_seeds(seed, trials)]
    mean = total(costs) / trials
    variance = total((c - mean) ** 2 for c in costs) / max(trials - 1, 1)
    stderr = (variance / trials) ** 0.5
    return {
        "algorithm": algorithm,
        "trials": trials,
        "seed": seed,
        "disagreements": costs,
        "mean": mean,
        "stderr": stderr,
    }


# -- exhaustive expectation oracle ------------------------------------------

#: Largest node count the exhaustive expectation oracle accepts.
EXHAUSTIVE_NODE_CAP = 10


def exhaustive_expected_disagreements(g: SignedGraph,
                                      cover: EdgeCover | None = None,
                                      algorithm: str = ALG_COVER_PIVOT) -> Fraction:
    """Exact expected disagreements of a pivot run by full enumeration.

    Recurses over the unclustered node set (uniform pivot choice, joint
    coin outcomes for fractional join probabilities), memoised on the set.
    It certifies the paper's 3/2 (cover-pivot) and 2 (flip-pivot) bounds
    on small graphs.  Exponential in n, so graphs above
    ``EXHAUSTIVE_NODE_CAP`` nodes are refused with CapacityError.
    """
    if g.n > EXHAUSTIVE_NODE_CAP:
        raise CapacityError(f"exhaustive expectation oracle capped at "
                            f"{EXHAUSTIVE_NODE_CAP} nodes (n={g.n})")
    probs = join_probabilities(g, algorithm, cover)

    def round_cost(members: tuple[int, ...], outside: tuple[int, ...]) -> Fraction:
        cost = Fraction(0)
        for a, b in combinations(members, 2):
            eid = g.edge_id(a, b)
            if eid is not None and g.edges[eid].sign != POSITIVE:
                cost += Fraction(g.edges[eid].weight)
        for a in members:
            for b in outside:
                eid = g.edge_id(a, b)
                if eid is not None and g.edges[eid].sign == POSITIVE:
                    cost += Fraction(g.edges[eid].weight)
        return cost

    @lru_cache(maxsize=None)
    def expect(mask: int) -> Fraction:
        nodes = [v for v in range(g.n) if mask & (1 << v)]
        if len(nodes) <= 1:
            return Fraction(0)
        summed = Fraction(0)
        for pivot in nodes:
            always, coins = [], []
            for v in nodes:
                if v == pivot:
                    continue
                eid = g.edge_id(pivot, v)
                p = Fraction(0) if eid is None else probs[eid]
                if p == 1:
                    always.append(v)
                elif 0 < p < 1:
                    coins.append((v, p))
            pivot_total = Fraction(0)
            for pattern in range(1 << len(coins)):
                weight = Fraction(1)
                joined = list(always)
                for k, (v, p) in enumerate(coins):
                    if pattern & (1 << k):
                        weight *= p
                        joined.append(v)
                    else:
                        weight *= 1 - p
                members = tuple(sorted([pivot] + joined))
                outside = tuple(v for v in nodes if v != pivot and v not in members)
                rest = mask
                for v in members:
                    rest &= ~(1 << v)
                pivot_total += weight * (round_cost(members, outside) + expect(rest))
            summed += pivot_total
        return summed / len(nodes)

    result = expect((1 << g.n) - 1)
    expect.cache_clear()
    return result


TRIALS_SCHEMA = "btt.pivot-trials/1"


def trials_to_json(report: dict) -> dict:
    return {"schema": TRIALS_SCHEMA, **report}

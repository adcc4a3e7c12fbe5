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
one.  Disagreements are always counted on the input graph, by
``cc_cost``.

The guarantee rests on a finite case analysis over the 4 triangle sign
classes times the 8 cover-membership patterns; ``verify_charging_tables``
recomputes the full disagreement/budget/ratio tables in exact rationals
and checks them cell by cell against frozen reference values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import CapacityError, InputError, VerificationError
from .graphs import (Clustering, EdgeCover, POSITIVE, SignedGraph, cc_cost,
                     is_feasible_cover)
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
_REF_RATIO = (
    (None, None, None, None, _F(3, 8), _F(3, 8), _F(3, 8), _F(3, 5)),
    (None, None, _F(3, 2), _F(3, 2), _F(15, 16), _F(15, 16), _F(15, 16), _F(12, 41)),
    (_EXCLUDED, _F(3, 2), _F(3, 2), _F(3, 2), _F(9, 8), _F(9, 16), _F(9, 16), _F(7, 11)),
    (None, _F(3, 2), _F(3, 2), _F(3, 2), _F(15, 16), _F(15, 16), _F(15, 16), _F(6, 7)),
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


def verify_charging_tables() -> dict:
    """Recompute the 4 x 8 disagreement/budget/ratio tables and audit them.

    Checks, in exact rational arithmetic: every cell matches its frozen
    reference value; exactly one cell (the uncovered bad triangle) is
    excluded; every defined ratio is at most 3/2; 0/0 cells have both sums
    zero; and the single-edge bound (the edge into the pivot never
    disagrees more than its budget) holds for both membership cases.

    Returns the recomputed tables both as exact fraction strings and
    rendered to 4 significant figures.  Raises VerificationError naming
    the offending cell on any mismatch.
    """
    report = {
        "rows": [_sign_label(s) for s in SIGN_ROWS],
        "columns": [_member_label(m) for m in MEMBER_COLUMNS],
        "disagreement": [], "budget": [], "ratio": [],
        "disagreement_sig4": [], "budget_sig4": [], "ratio_sig4": [],
    }
    max_ratio = Fraction(3, 2)
    excluded_cells = []
    for ri, signs in enumerate(SIGN_ROWS):
        d_row, b_row, r_row = [], [], []
        d_sig, b_sig, r_sig = [], [], []
        for ci, member in enumerate(MEMBER_COLUMNS):
            cell = f"row {_sign_label(signs)} column {_member_label(member)}"
            config = TripletConfig(signs, member)
            if config.is_uncovered_bad_triangle():
                excluded_cells.append((ri, ci))
                if _REF_DISAGREEMENT[ri][ci] != _EXCLUDED:
                    raise VerificationError(f"{cell}: expected an excluded cell")
                for row, sig in ((d_row, d_sig), (b_row, b_sig), (r_row, r_sig)):
                    row.append(_EXCLUDED)
                    sig.append(_EXCLUDED)
                continue
            d_sum, b_sum, ratio = triplet_sums(config)
            if d_sum != _REF_DISAGREEMENT[ri][ci]:
                raise VerificationError(
                    f"{cell}: disagreement sum {d_sum} != reference "
                    f"{_REF_DISAGREEMENT[ri][ci]}")
            if b_sum != _REF_BUDGET[ri][ci]:
                raise VerificationError(
                    f"{cell}: budget sum {b_sum} != reference {_REF_BUDGET[ri][ci]}")
            if ratio != _REF_RATIO[ri][ci]:
                raise VerificationError(
                    f"{cell}: ratio {ratio} != reference {_REF_RATIO[ri][ci]}")
            if ratio is None:
                if d_sum != 0:
                    raise VerificationError(
                        f"{cell}: zero budget with nonzero disagreement {d_sum}")
            elif ratio > max_ratio:
                raise VerificationError(f"{cell}: ratio {ratio} exceeds 3/2")
            d_row.append(str(d_sum))
            b_row.append(str(b_sum))
            r_row.append("0/0" if ratio is None else str(ratio))
            d_sig.append(_sig4(d_sum))
            b_sig.append(_sig4(b_sum))
            r_sig.append("0/0" if ratio is None else _sig4(ratio))
        report["disagreement"].append(d_row)
        report["budget"].append(b_row)
        report["ratio"].append(r_row)
        report["disagreement_sig4"].append(d_sig)
        report["budget_sig4"].append(b_sig)
        report["ratio_sig4"].append(r_sig)
    if len(excluded_cells) != 1:
        raise VerificationError(
            f"expected exactly one excluded cell, found {excluded_cells}")
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
    report["defined_cells"] = 31
    report["max_defined_ratio"] = str(max(
        v for row in _REF_RATIO for v in row
        if isinstance(v, Fraction)))
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
    table ``join_probabilities`` reads, converted once per batch.  The
    cover's endpoints are kept as numpy columns, from which each run
    counts the cover edges removed per round with one ``np.bincount``.
    """

    def __init__(self, g: SignedGraph, algorithm: str, cover: EdgeCover | None):
        table, ids = _join_rule(g, algorithm, cover)
        floats = {key: float(p) for key, p in table.items()}
        joins: list[list[tuple[int, float]]] = [[] for _ in range(g.n)]
        for i, e in enumerate(g.edges):
            p = floats[e.sign == POSITIVE, i in ids]
            if p:
                joins[e.u].append((e.v, p))
                joins[e.v].append((e.u, p))
        for neighbours in joins:
            neighbours.sort()
        # removed edges are counted for any given cover, also by ``pivot``,
        # whose joins ignore it
        cols = g.edge_columns()
        counted = () if cover is None else cover.edge_ids
        cover_ids = np.fromiter(counted, dtype=np.intp, count=len(counted))
        self.g = g
        self.algorithm = algorithm
        self.joins = joins
        self.cover_u = cols.u[cover_ids]
        self.cover_v = cols.v[cover_ids]

    def run(self, seed: int) -> PivotTrace:
        """Pick a uniformly random unclustered pivot, then walk its
        neighbours in id order; a coin is drawn only for an unclustered
        neighbour with a fractional probability."""
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
            for v, p in self.joins[pivot]:
                if rounds[v] < 0 and (p == 1.0 or rng.random() < p):
                    rounds[v] = k
            unclustered = [v for v in unclustered if rounds[v] < 0]
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
    mean = sum(costs) / trials
    variance = sum((c - mean) ** 2 for c in costs) / max(trials - 1, 1)
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
        total = Fraction(0)
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
            total += pivot_total
        return total / len(nodes)

    result = expect((1 << g.n) - 1)
    expect.cache_clear()
    return result


TRIALS_SCHEMA = "btt.pivot-trials/1"


def trials_to_json(report: dict) -> dict:
    return {"schema": TRIALS_SCHEMA, **report}

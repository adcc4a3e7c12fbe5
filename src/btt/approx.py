"""Integral approximation algorithms for bad-triangle transversals.

Four families:

* the standard 3-approximation (all edges of a maximal edge-disjoint bad
  triangle packing);
* iterative LP rounding in the style of Krivelevich's triangle-cover
  algorithm;
* single-shot deterministic rounding of an optimal fractional cover
  (negative edges with positive value, positive edges at or above 1/2);
* randomized threshold rounding and its derandomized threshold sweep,
  which also handle weighted instances and merely-feasible fractional
  covers.

The roundings check, clamp and set the float slack tau of their input x
in one place, ``_rounding_input``, once per call.  An exact x (ints and
Fractions) comes back as integer numerators over its common denominator D
(``lp.scaled_integers``: int64 while 3 x max(D, |num|) < 2**63, else
Python ints), so det2 and the threshold rule compare integers with
thresholds that are computed from r in r's own arithmetic and then scaled
by D (rounded up for >=, down for >).  The
sweep groups its breakpoints (2 num and D - num) with ``np.unique`` and
sums costs as integer numerators over the weights' common denominator
(int64 while m x max(D, |num|) < 2**63).  An x holding a float is read as
float64 and keeps float thresholds.
Every algorithm returns a :class:`RoundingOutcome` whose cover is
re-checked for feasibility at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import InputError, VerificationError
from .graphs import (EdgeColumns, EdgeCover, SignedGraph, is_feasible_cover,
                     json_value)
from .lp import (FLOAT_POSITIVITY_TAU, FractionalCover, ceil_scaled,
                 check_fractional_feasibility, covers_scaled, floor_scaled,
                 greedy_maximal_packing, scaled_integers, solve_exact)
from .rng import make_rng

ALG_THREE_APPROX = "3approx"
ALG_KRIVELEVICH = "kriv"
ALG_DETERMINISTIC = "det2"
ALG_RANDOMIZED = "rand2"
ALG_SWEEP = "sweep2"


@dataclass(frozen=True)
class RoundingOutcome:
    """A produced cover plus its certificate data.

    ``lower_bound`` is the LP-side quantity the ratio certifies against:
    the exact LP value where one was computed, the packing size for the
    packing-based 3-approximation, or None when the caller supplied no
    bound.  ``certified_ratio`` is cover cost over that bound (cover size
    for the 3-approximation, whose certificate is cardinality-based); it
    is an exact Fraction whenever the bound is exact, float weights too.
    """

    cover: EdgeCover
    algorithm: str
    threshold: object = None
    threshold_side: str | None = None
    seed: int | None = None
    lower_bound: object = None
    certified_ratio: object = None

    @classmethod
    def create(cls, g: SignedGraph, edge_ids, algorithm: str, *,
               threshold=None, threshold_side=None, seed=None,
               lower_bound=None, ratio_numerator=None) -> "RoundingOutcome":
        cover = EdgeCover.from_ids(g, edge_ids)
        if not is_feasible_cover(g, cover):
            raise VerificationError(
                f"{algorithm} produced an infeasible cover; this is a bug")
        ratio = None
        if lower_bound is not None:
            num = cover.cost if ratio_numerator is None else ratio_numerator
            if lower_bound == 0:
                ratio = 1
            elif isinstance(lower_bound, (int, Fraction)):
                if isinstance(num, float):  # float weights: sum them exactly
                    weights = g.edge_columns().weight[sorted(cover.edge_ids)]
                    num = sum(map(Fraction, weights.tolist()))
                ratio = Fraction(num) / Fraction(lower_bound)
            else:
                ratio = num / lower_bound
        return cls(cover, algorithm, threshold, threshold_side, seed,
                   lower_bound, ratio)


class _Column(NamedTuple):
    """A checked fractional cover, clamped into [0, 1], as one column.

    Exact values come as integer numerators ``values`` over ``den`` (see
    ``lp.scaled_integers``) with ``tau = 0``; values holding a float come as
    float64 with ``den = None`` and ``tau = FLOAT_POSITIVITY_TAU``.
    """

    values: np.ndarray
    den: int | None
    tau: float

    def above(self, t, strict: bool) -> np.ndarray:
        """Mask of values > t (``strict``) or >= t, compared exactly."""
        if self.den is None:
            return self.values > t if strict else self.values >= t
        if strict:
            return self.values > floor_scaled(t, self.den)
        return self.values >= ceil_scaled(t, self.den)


def _rounding_input(g: SignedGraph, x: FractionalCover) -> _Column:
    """Check a fractional cover given to a rounding and return its clamped
    column.

    Exact values are checked exactly and come back as integer numerators
    over their common denominator, rounding with tau = 0.  Values holding a
    float are checked within 1e-9, come back as float64 (an exact value
    among them is rounded to the nearest float) and round with the
    inclusion slack tau = FLOAT_POSITIVITY_TAU.
    """
    if any(isinstance(v, float) for v in x.values):
        if not check_fractional_feasibility(g, x, tol=1e-9):
            raise InputError("fractional cover is infeasible for this graph")
        values = np.clip(np.array(x.values, dtype=np.float64), 0.0, 1.0)
        return _Column(values, None, FLOAT_POSITIVITY_TAU)
    if len(x.values) != g.m:
        raise InputError(f"expected {g.m} edge values, got {len(x.values)}")
    num, den = scaled_integers(x.values, headroom=3)
    if not covers_scaled(g, num, den):
        raise InputError("fractional cover is infeasible for this graph")
    return _Column(np.clip(num, 0, den), den, 0)


def standard_three_approx(g: SignedGraph) -> RoundingOutcome:
    """Union of all edges of a greedy maximal edge-disjoint packing.

    Feasible by maximality; exactly 3 edges per packed triangle, so the
    cardinality certificate is size <= 3 x packing size.
    """
    packing = greedy_maximal_packing(g)
    ids = sorted({eid for t in packing for eid in t})
    return RoundingOutcome.create(
        g, ids, ALG_THREE_APPROX,
        lower_bound=len(packing), ratio_numerator=len(ids))


def krivelevich(g: SignedGraph) -> RoundingOutcome:
    """Iterative LP rounding: each pass solves the cover LP on the
    surviving edges, adds the edges at >= 1/2 to the cover and keeps only
    the edges strictly between 0 and 1/2.

    Every pass drops an edge, so the max cut that ends Krivelevich's
    triangle-cover algorithm is never needed.  Lemma: with z_e = 2 on
    negative and -1 on positive edges, z sums to 0 over every bad
    triangle, so on m >= 1 edges the triangle rows span at most m - 1
    dimensions and every vertex of the cover polytope has some tight
    x_e >= 0.  ``solve_exact`` returns a vertex (a basic slack reads x_e
    exactly 0).  Cost <= 2 x LP: x restricted to the kept edges is
    feasible for the next LP, so each pass adds at most twice its drop in
    LP value, and a triangle losing an edge at 0 has one at >= 1/2.  The
    certificate is recorded against the original graph's exact LP optimum.
    """
    first = solve_exact(g)
    lp_value = first.primal.objective
    cover: set[int] = set()
    alive = list(range(g.m))
    values = first.primal.values
    half = Fraction(1, 2)

    while alive:
        if all(v > 0 for v in values):
            raise VerificationError(
                "cover LP vertex without a zero value; this is a bug")
        cover.update(eid for eid, v in zip(alive, values) if v >= half)
        alive = [eid for eid, v in zip(alive, values) if 0 < v < half]
        if alive:
            sub = SignedGraph(g.n, EdgeColumns(*(c[alive] for c in g.edge_columns())))
            values = solve_exact(sub).primal.values
    return RoundingOutcome.create(g, cover, ALG_KRIVELEVICH, lower_bound=lp_value)


def round_deterministic(g: SignedGraph, x: FractionalCover,
                        lower_bound=None) -> RoundingOutcome:
    """Negative edges with positive value plus positive edges at >= 1/2.

    Feasible for any feasible ``x``; the 2x cost guarantee additionally
    needs ``x`` optimal (complementary slackness).  In floating mode
    "positive" means above FLOAT_POSITIVITY_TAU and the positive-edge
    threshold relaxes to (1 - tau)/2.
    """
    col = _rounding_input(g, x)
    tau = col.tau
    # positive threshold drops by tau so that excluding a negative edge at
    # <= tau still leaves an includable positive edge for tol-feasible x
    half = (1 - 2 * tau) / 2 if tau else Fraction(1, 2)
    positive = g.edge_columns().positive
    take = np.where(positive, col.above(half, strict=False), col.above(tau, strict=True))
    return RoundingOutcome.create(g, np.flatnonzero(take).tolist(), ALG_DETERMINISTIC,
                                  lower_bound=lower_bound)


def _threshold_cover_ids(g: SignedGraph, col: _Column, r, side: str) -> list[int]:
    """Edges selected at threshold r; ``side`` 'above' takes the right limit.

    ``col`` comes from ``_rounding_input``: positive edges need x >= r/2 - tau
    (strictly above it for 'above'), negative edges x > 1 - r - tau (at
    least it for 'above').  The two bounds are computed from r as numbers
    of r's kind, then compared exactly.  With tau > 0 (float values) both
    rules gain an inclusion slack of tau, so any x whose triangle sums are
    within 3*tau of feasible still rounds to a feasible cover at every
    threshold (an uncovered triangle would force a sum below 1 - 3*tau).
    """
    tau = col.tau
    above = side == "above"
    take = np.where(g.edge_columns().positive,
                    col.above(r / 2 - tau, strict=above),
                    col.above(1 - r - tau, strict=not above))
    return np.flatnonzero(take).tolist()


def round_fixed_threshold(g: SignedGraph, x: FractionalCover, r, *,
                          lower_bound=None, seed=None) -> RoundingOutcome:
    """Threshold rounding at a fixed r: positive edges with x >= r/2 and
    negative edges with x strictly above 1-r.

    Always feasible for feasible x: an uncovered bad triangle would make
    its constraint sum strictly below (1-r) + r/2 + r/2 = 1.
    """
    col = _rounding_input(g, x)
    if not (0 <= r <= 1):
        raise InputError(f"threshold must lie in [0,1], got {r}")
    ids = _threshold_cover_ids(g, col, r, side="at")
    return RoundingOutcome.create(g, ids, ALG_RANDOMIZED, threshold=r,
                                  threshold_side="at", seed=seed,
                                  lower_bound=lower_bound)


def round_randomized(g: SignedGraph, x: FractionalCover, seed: int,
                     lower_bound=None) -> RoundingOutcome:
    """Draw r uniformly from the seeded counter-based stream and round.

    Per-edge inclusion probability is x_e for negative edges and
    min(1, 2 x_e) for positive edges, so the expected weighted cost is at
    most the negative part plus twice the positive part of the objective.
    """
    r = float(make_rng(seed).random())
    return round_fixed_threshold(g, x, r, lower_bound=lower_bound, seed=seed)


def derandomized_sweep(g: SignedGraph, x: FractionalCover,
                       lower_bound=None) -> RoundingOutcome:
    """Minimum-cost cover over every combinatorially distinct threshold.

    The breakpoints are r = 2 x_e (+ 2 tau) for positive edges, where the
    edge drops out, and r = 1 - x_e (- tau) for negative edges, where it
    enters.  Equal breakpoints are grouped with ``np.unique`` and the
    running cover cost is walked over the groups in sorted order; the
    first strictly cheapest cover wins: r = 0 itself, or the right limit
    just past a breakpoint (the left limit at a breakpoint is the right
    limit of the previous one, and r = 1 that of the last).  Costs are
    integer numerators over the weights' common denominator, exact for
    float weights too, so the running cost equals the cost of the cover
    rebuilt at the chosen threshold.  The result costs no more than any
    fixed-threshold rounding, hence no more than the randomized
    expectation.

    On exact x the breakpoints are integers over x's denominator, and the
    threshold takes the number kind of the first edge (in id order) at the
    chosen breakpoint: an int x_e gives an int, as an int breakpoint would.
    """
    col = _rounding_input(g, x)
    tau, positive = col.tau, g.edge_columns().positive
    one = 1 if col.den is None else col.den
    w_num, _ = scaled_integers(g.edge_columns().weight.tolist(), headroom=max(g.m, 1))
    # r = 0 takes every positive edge, plus (float mode) negative edges
    # already inside the tau inclusion slack
    running = w_num[positive | col.above(1 - tau, strict=True)].sum()
    keys = np.where(positive, 2 * col.values + 2 * tau, one - col.values - tau)
    events = np.flatnonzero((keys < one) & (positive | (keys >= 0)))
    breaks, first, group = np.unique(keys[events], return_index=True,
                                     return_inverse=True)
    deltas = np.zeros(len(breaks), dtype=w_num.dtype)
    np.add.at(deltas, group, np.where(positive, -w_num, w_num)[events])
    costs = np.concatenate(([running], running + deltas.cumsum()))
    best = int(np.argmin(costs))
    best_r, best_side = 0, "at"
    if best:
        best_r, best_side = breaks.tolist()[best - 1], "above"
        if col.den is not None:
            edge = events[first[best - 1]]
            v = x.values[edge]
            exact_kind = isinstance(v, Fraction) or not 0 <= v <= 1
            best_r = Fraction(best_r, col.den) if exact_kind else best_r // col.den
    ids = _threshold_cover_ids(g, col, best_r, best_side)
    if w_num[ids].sum() != costs[best]:
        raise VerificationError("sweep bookkeeping drifted from the rebuilt cover")
    return RoundingOutcome.create(
        g, ids, ALG_SWEEP, threshold=best_r, threshold_side=best_side,
        lower_bound=lower_bound)


OUTCOME_SCHEMA = "btt.rounding-outcome/1"


def outcome_to_json(g: SignedGraph, outcome: RoundingOutcome) -> dict:
    return {
        "schema": OUTCOME_SCHEMA,
        "algorithm": outcome.algorithm,
        "seed": outcome.seed,
        "threshold": json_value(outcome.threshold),
        "threshold_side": outcome.threshold_side,
        "cover_edge_ids": sorted(outcome.cover.edge_ids),
        "cover_pairs": [list(p) for p in outcome.cover.pairs(g)],
        "cost": json_value(outcome.cover.cost),
        "size": outcome.cover.size,
        "lp_lower_bound": json_value(outcome.lower_bound),
        "certified_ratio": json_value(outcome.certified_ratio),
    }

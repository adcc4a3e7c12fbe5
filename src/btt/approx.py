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
in one place, ``_rounding_input``, once per call.
Every algorithm returns a :class:`RoundingOutcome` whose cover is
re-checked for feasibility at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, VerificationError
from .graphs import (EdgeCover, POSITIVE, SignedGraph, is_feasible_cover,
                     json_value)
from .lp import (FLOAT_POSITIVITY_TAU, FractionalCover,
                 check_fractional_feasibility, greedy_maximal_packing,
                 solve_exact)
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
                    num = sum(Fraction(g.edges[i].weight) for i in cover.edge_ids)
                ratio = Fraction(num) / Fraction(lower_bound)
            else:
                ratio = num / lower_bound
        return cls(cover, algorithm, threshold, threshold_side, seed,
                   lower_bound, ratio)


def _rounding_input(g: SignedGraph, x: FractionalCover) -> tuple:
    """Check a fractional cover given to a rounding; return (values, tau).

    Float values are checked within 1e-9 and round with the inclusion
    slack tau = FLOAT_POSITIVITY_TAU; exact values are checked exactly
    and round with tau = 0.  ``values`` are x's values clamped into [0, 1].
    """
    float_mode = any(isinstance(v, float) for v in x.values)
    if not check_fractional_feasibility(g, x, tol=1e-9 if float_mode else 0):
        raise InputError("fractional cover is infeasible for this graph")
    return x.clamped(g).values, FLOAT_POSITIVITY_TAU if float_mode else 0


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
            sub = SignedGraph(g.n, [g.edges[eid] for eid in alive])
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
    values, tau = _rounding_input(g, x)
    # positive threshold drops by tau so that excluding a negative edge at
    # <= tau still leaves an includable positive edge for tol-feasible x
    half = (1 - 2 * tau) / 2 if tau else Fraction(1, 2)
    ids = [i for i, e in enumerate(g.edges)
           if (e.sign != POSITIVE and values[i] > tau)
           or (e.sign == POSITIVE and values[i] >= half)]
    return RoundingOutcome.create(g, ids, ALG_DETERMINISTIC, lower_bound=lower_bound)


def _threshold_cover_ids(g: SignedGraph, values, tau, r, side: str) -> list[int]:
    """Edges selected at threshold r; ``side`` 'above' takes the right limit.

    ``values`` and ``tau`` come from ``_rounding_input``.  With tau > 0
    (float values) both rules gain an inclusion slack of tau, so any x
    whose triangle sums are within 3*tau of feasible still rounds to a
    feasible cover at every threshold (an uncovered triangle would force
    a sum below 1 - 3*tau).
    """
    ids = []
    for i, e in enumerate(g.edges):
        v = values[i]
        if e.sign == POSITIVE:
            take = v > r / 2 - tau if side == "above" else v >= r / 2 - tau
        else:
            take = v >= 1 - r - tau if side == "above" else v > 1 - r - tau
        if take:
            ids.append(i)
    return ids


def round_fixed_threshold(g: SignedGraph, x: FractionalCover, r, *,
                          lower_bound=None, seed=None) -> RoundingOutcome:
    """Threshold rounding at a fixed r: positive edges with x >= r/2 and
    negative edges with x strictly above 1-r.

    Always feasible for feasible x: an uncovered bad triangle would make
    its constraint sum strictly below (1-r) + r/2 + r/2 = 1.
    """
    values, tau = _rounding_input(g, x)
    if not (0 <= r <= 1):
        raise InputError(f"threshold must lie in [0,1], got {r}")
    ids = _threshold_cover_ids(g, values, tau, r, side="at")
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


def expected_rounding_cost(g: SignedGraph, x: FractionalCover):
    """Exact expectation of the randomized-rounding cover cost."""
    x = x.clamped(g)
    total = 0
    for e, v in zip(g.edges, x.values):
        total += e.weight * (min(1, 2 * v) if e.sign == POSITIVE else v)
    return total


def derandomized_sweep(g: SignedGraph, x: FractionalCover,
                       lower_bound=None) -> RoundingOutcome:
    """Minimum-cost cover over every combinatorially distinct threshold.

    Walks the sorted breakpoints (r = 2 x_e for positive edges, r = 1 - x_e
    for negative edges, both one-sided limits at each, plus the interval
    ends) while updating the running cover cost incrementally, so the scan
    is sort-plus-linear after the breakpoint sort.  The result costs no
    more than any fixed-threshold rounding, hence no more than the
    randomized expectation.
    """
    values, tau = _rounding_input(g, x)
    # Cost at r = 0: every positive edge, plus (float mode) negative edges
    # already inside the tau inclusion slack.  Costs are summed as
    # Fractions, exact for float weights too, so the running cost equals
    # the cost of the cover rebuilt at the chosen threshold.
    running = sum(Fraction(e.weight) for i, e in enumerate(g.edges)
                  if e.sign == POSITIVE or values[i] > 1 - tau)
    events: dict[object, Fraction] = {}
    for i, e in enumerate(g.edges):
        if e.sign == POSITIVE:
            v = 2 * values[i] + 2 * tau  # drops out once r exceeds this
            if v < 1:
                events[v] = events.get(v, 0) - Fraction(e.weight)
        else:
            v = 1 - values[i] - tau  # enters once r exceeds this
            if 0 <= v < 1:
                events[v] = events.get(v, 0) + Fraction(e.weight)
    best_cost, best_r, best_side = running, 0, "at"
    for v in sorted(events):
        if v > 0 and running < best_cost:
            best_cost, best_r, best_side = running, v, "at"
        running += events[v]
        if running < best_cost:
            best_cost, best_r, best_side = running, v, "above"
    # r = 1 candidate equals the last "above" (or the r=0 baseline when
    # there are no events), so it is already covered by the walk.
    ids = _threshold_cover_ids(g, values, tau, best_r, best_side)
    if sum(Fraction(g.edges[i].weight) for i in ids) != best_cost:
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

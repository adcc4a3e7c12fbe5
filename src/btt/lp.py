"""The bad-triangle cover LP and its packing dual.

The primal minimises the weighted sum of per-edge values x_e subject to
every bad triangle summing to at least one; the dual packs fractional
bad-triangle masses y_t subject to a per-edge capacity of w_e.

Two solvers are provided:

* :func:`solve_exact` - exact optimum of both LPs.  A float tableau
  simplex on the packing dual (Bland's rule) proposes a primal/dual pair,
  which is rebuilt as small-denominator Fractions and certified in exact
  arithmetic: primal feasible, dual feasible, equal objectives.  When the
  certificate fails, a dense exact-rational simplex with the same rule
  runs instead.  Either way the result carries a strong-duality
  certificate, enabling exact complementary-slackness checks downstream.
* :func:`solve_mwu` - a phased multiplicative-weights scheme for
  covering LPs (Garg-Koenemann style: each round steps every edge within
  a factor 1+eps/4 of the best ratio).  Returns a feasible primal within
  a caller-chosen factor (1+eps) of optimal, certified by a
  simultaneously maintained feasible dual, and then made minimal: no
  value can drop without uncovering a triangle.  Its default round cap is
  the scheme's proven bound, O(log T / eps^2) for T bad triangles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import CapacityError, ConvergenceError, InputError, VerificationError
from .graphs import SignedGraph, json_value

#: Threshold separating "zero" from "positive" LP values in floating mode.
#: In rational mode the trichotomy is exact and the threshold is 0.
FLOAT_POSITIVITY_TAU = 1e-7

#: Float simplex zero: reduced costs and pivot-column entries above it count
#: as positive, and ratios within it of the minimum tie.
_FLOAT_PIVOT_TOL = 1e-9

#: The float simplex gives up after this many pivots per tableau column.
_FLOAT_PIVOT_CAP_PER_COLUMN = 50

#: Largest denominator tried when rebuilding float LP values as Fractions.
_CERTIFIED_DENOMINATOR_BOUND = 10**6

#: Default cap on the number of LP constraints (bad triangles) accepted by
#: the exact solver.
DEFAULT_EXACT_TRIANGLE_BOUND = 50_000

STATUS_EXACT = "exact-optimal"
STATUS_EPS = "eps-approximate"


@dataclass(frozen=True)
class FractionalCover:
    """Per-edge LP values x_e >= 0 with their weighted objective."""

    values: tuple
    objective: object

    @classmethod
    def from_values(cls, g: SignedGraph, values: Sequence) -> "FractionalCover":
        if len(values) != g.m:
            raise InputError(f"expected {g.m} edge values, got {len(values)}")
        vals = tuple(values)
        # Exact values keep an exact objective even when weights are floats.
        if any(isinstance(v, float) for v in vals):
            weights = [e.weight for e in g.edges]
        else:
            weights = [Fraction(e.weight) for e in g.edges]
        return cls(vals, sum(w * x for w, x in zip(weights, vals)))

    def clamped(self, g: SignedGraph) -> "FractionalCover":
        """Values clamped into [0, 1], or ``self`` when all already lie there;
        never increases cost or breaks feasibility."""
        if all(0 <= v <= 1 for v in self.values):
            return self

        def clamp(v):
            if v < 0:
                return 0.0 if isinstance(v, float) else Fraction(0)
            if v > 1:
                return 1.0 if isinstance(v, float) else Fraction(1)
            return v

        return FractionalCover.from_values(g, [clamp(v) for v in self.values])


@dataclass(frozen=True)
class FractionalPacking:
    """Per-bad-triangle dual values y_t >= 0: ``values[i]`` belongs to the
    edge-id triple ``g.bad_triangles()[i]`` (lexicographic node order)."""

    values: tuple
    objective: object

    @classmethod
    def from_values(cls, g: SignedGraph, values: Sequence) -> "FractionalPacking":
        if len(values) != len(g.bad_triangles()):
            raise InputError(
                f"expected {len(g.bad_triangles())} triangle values, got {len(values)}")
        vals = tuple(values)
        return cls(vals, sum(vals))


@dataclass(frozen=True)
class LpSolution:
    """A cover-LP solve result: primal, optional dual certificate, bounds.

    ``bounds = (lower, upper)`` bracket the LP optimum; in exact mode both
    equal the primal objective.
    """

    primal: FractionalCover
    dual: FractionalPacking | None
    status: str
    bounds: tuple
    eps: float | None = None

    @property
    def value(self):
        return self.primal.objective


def check_fractional_feasibility(g: SignedGraph, x: FractionalCover, tol=0) -> bool:
    """True iff all values >= -tol and every bad triangle sums to >= 1 - tol."""
    if len(x.values) != g.m:
        raise InputError(f"expected {g.m} edge values, got {len(x.values)}")
    if any(v < -tol for v in x.values):
        return False
    vals = x.values
    return all(vals[a] + vals[b] + vals[c] >= 1 - tol for a, b, c in g.bad_triangles())


def check_packing_feasibility(g: SignedGraph, y: FractionalPacking, tol=0) -> bool:
    """True iff y >= -tol and every edge load sum_{t: e in t} y_t <= w_e + tol."""
    if any(v < -tol for v in y.values):
        return False
    load = [0] * g.m
    for t, yt in zip(g.bad_triangles(), y.values):
        for eid in t:
            load[eid] += yt
    return all(load[i] <= g.edges[i].weight + tol for i in range(g.m))


def greedy_maximal_packing(g: SignedGraph) -> list[tuple[int, int, int]]:
    """Maximal set of pairwise edge-disjoint bad triangles, greedy in
    deterministic (lexicographic) triangle order.

    The induced 0/1 packing loads every edge at most once, so on
    unweighted graphs its size lower-bounds the cover-LP value.
    """
    used: set[int] = set()
    chosen: list[tuple[int, int, int]] = []
    for t in g.bad_triangles():
        if used.isdisjoint(t):
            chosen.append(t)
            used.update(t)
    return chosen


# -- exact rational simplex ------------------------------------------------


def _packing_simplex(triangles: Sequence[tuple[int, int, int]], weights: list[Fraction]):
    """Simplex on: max sum(y) s.t. per-edge load <= weight, y >= 0 (Bland's rule).

    Returns (x, y, value): the packing optimum y, the cover optimum x read
    off the optimal tableau's slack reduced costs, and the shared objective
    value.  All exact Fractions.
    """
    m = len(weights)
    nt = len(triangles)
    ncols = nt + m
    zero = Fraction(0)
    one = Fraction(1)

    rows = [[zero] * ncols for _ in range(m)]
    rhs = [Fraction(w) for w in weights]
    for j, tri in enumerate(triangles):
        for eid in tri:
            rows[eid][j] = one
    for i in range(m):
        rows[i][nt + i] = one
    basis = list(range(nt, nt + m))
    # reduced costs c_j - z_j for the max problem; slack basis gives z = 0
    obj = [one] * nt + [zero] * m
    value = zero

    while True:
        enter = next((j for j in range(ncols) if obj[j] > 0), None)
        if enter is None:
            break
        leave_row = None
        best_ratio = None
        for i in range(m):
            coef = rows[i][enter]
            if coef > 0:
                ratio = rhs[i] / coef
                if (best_ratio is None or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[leave_row])):
                    best_ratio = ratio
                    leave_row = i
        if leave_row is None:
            raise InputError("packing LP unbounded; graph invariants violated")
        piv_row = rows[leave_row]
        piv = piv_row[enter]
        if piv != 1:
            rows[leave_row] = piv_row = [a / piv for a in piv_row]
            rhs[leave_row] /= piv
        for i in range(m):
            if i == leave_row:
                continue
            factor = rows[i][enter]
            if factor != 0:
                row = rows[i]
                rows[i] = [a - factor * b if b else a for a, b in zip(row, piv_row)]
                rhs[i] -= factor * rhs[leave_row]
        factor = obj[enter]
        obj = [a - factor * b if b else a for a, b in zip(obj, piv_row)]
        value += factor * rhs[leave_row]
        basis[leave_row] = enter

    y = [zero] * nt
    for i, var in enumerate(basis):
        if var < nt:
            y[var] = rhs[i]
    x = [-obj[nt + e] for e in range(m)]
    return x, y, value


def _float_packing_simplex(triangles: Sequence[tuple[int, int, int]],
                           weights: list[float]):
    """Float mirror of :func:`_packing_simplex`: the same tableau, Bland's
    entering rule and lowest-basic-index choice among tied rows, with
    ``_FLOAT_PIVOT_TOL`` standing in for exact zero in comparisons.  Small
    entries are left in the tableau: zeroing them made it drift from the
    exact one over long degenerate runs.

    Returns float lists (x, y) read off the final tableau as the exact
    solver reads them, or None when the pivot column has no positive
    entry; the caller then falls back.  Raises CapacityError at the pivot
    cap: an instance that stalls the float simplex that long is beyond
    the Fraction simplex too.
    """
    m = len(weights)
    nt = len(triangles)
    tol = _FLOAT_PIVOT_TOL
    rows = np.zeros((m, nt + m))
    rows[np.asarray(triangles).ravel(), np.repeat(np.arange(nt), 3)] = 1.0
    rows[:, nt:] = np.eye(m)
    rhs = np.array(weights, dtype=float)
    basis = np.arange(nt, nt + m)
    obj = np.concatenate([np.ones(nt), np.zeros(m)])

    cap = _FLOAT_PIVOT_CAP_PER_COLUMN * (nt + m)
    for _ in range(cap):
        positive = np.flatnonzero(obj > tol)
        if positive.size == 0:
            y = np.zeros(nt)
            in_basis = basis < nt
            y[basis[in_basis]] = rhs[in_basis]
            return (-obj[nt:]).tolist(), y.tolist()
        enter = positive[0]
        col = rows[:, enter].copy()
        candidates = np.flatnonzero(col > tol)
        if candidates.size == 0:
            return None
        ratios = rhs[candidates] / col[candidates]
        tied = candidates[ratios <= ratios.min() + tol]
        leave = tied[np.argmin(basis[tied])]
        piv_row = rows[leave] / col[leave]
        piv_rhs = rhs[leave] / col[leave]
        rows -= np.outer(col, piv_row)
        rhs -= col * piv_rhs
        rows[leave] = piv_row
        rhs[leave] = piv_rhs
        obj -= obj[enter] * piv_row
        basis[leave] = enter
    raise CapacityError(
        f"the float simplex reached its cap of {cap} pivots on {nt} bad "
        f"triangles; the exact solver cannot finish at this size: use "
        f"solve_mwu for an approximate solution (btt solve --alg lp-mwu, or "
        f"--mode float for the roundings)")


def _certified_pair(g: SignedGraph, x, y, value=None):
    """(primal, dual) built from exact values x and y, or None unless they
    certify each other: x covers every bad triangle, y packs within every
    weight, and both objectives agree (and equal ``value`` when given), all
    in exact arithmetic.  Such a pair is optimal on both sides."""
    primal = FractionalCover.from_values(g, x).clamped(g)
    dual = FractionalPacking.from_values(g, y)
    if (primal.objective == dual.objective
            and (value is None or value == dual.objective)
            and check_fractional_feasibility(g, primal)
            and check_packing_feasibility(g, dual)):
        return primal, dual
    return None


def solve_exact(g: SignedGraph,
                max_triangles: int = DEFAULT_EXACT_TRIANGLE_BOUND) -> LpSolution:
    """Exact-rational optimum of the cover LP with a dual certificate.

    The packing dual is first solved by a float tableau simplex under
    Bland's rule; its primal (slack reduced costs) and dual (basic values)
    are rebuilt as small-denominator Fractions and kept only if they pass
    the exact check of :func:`_certified_pair`: x feasible, y feasible,
    and equal objectives.  When that check fails (float weights,
    numerically hard instances) the exact-rational tableau simplex
    :func:`_packing_simplex` runs instead, and its output must pass the
    same check, with both objectives equal to the value it reports.
    Either way primal and dual objectives agree identically, so
    complementary slackness holds exactly.  Weights are converted to
    Fractions; float weights must be finite.

    Raises CapacityError when the bad-triangle count exceeds
    ``max_triangles`` or the float simplex reaches its pivot cap; use
    :func:`solve_mwu` there.  Raises VerificationError if the exact
    simplex's output fails the check.
    """
    tris = g.bad_triangles()
    if len(tris) > max_triangles:
        raise CapacityError(
            f"{len(tris)} bad triangles exceed the exact-solver bound "
            f"{max_triangles}; use solve_mwu for an approximate solution")
    if not tris:
        primal = FractionalCover.from_values(g, [Fraction(0)] * g.m)
        dual = FractionalPacking.from_values(g, [])
        return LpSolution(primal, dual, STATUS_EXACT, (Fraction(0), Fraction(0)))
    weights = [Fraction(e.weight) for e in g.edges]
    certified = None
    found = _float_packing_simplex(tris, [float(w) for w in weights])
    if found is not None:
        x, y = ([Fraction(v).limit_denominator(_CERTIFIED_DENOMINATOR_BOUND)
                 for v in vals] for vals in found)
        certified = _certified_pair(g, x, y)
    if certified is None:
        certified = _certified_pair(g, *_packing_simplex(tris, weights))
        if certified is None:
            raise VerificationError(
                "exact simplex failed its certificate (feasibility or strong "
                "duality); this is a bug")
    primal, dual = certified
    value = dual.objective
    return LpSolution(primal, dual, STATUS_EXACT, (value, value))


# -- multiplicative-weights covering solver --------------------------------


def _mwu_iteration_cap(num_triangles: int, eps: float, start_gap: float) -> int:
    """Rounds after which the phased scheme of :func:`solve_mwu` has
    provably certified; ``start_gap`` bounds OPT over the round-0 dual.

    Write eta = eps/4, T = num_triangles, Phi_r = sum_t exp(-eta cov_t)
    over rounds r, and mu_r for the largest score/weight ratio under
    those unnormalised weights (normalising by the least coverage cancels
    in every quantity below).  Then:

    * mu drops by more than (1+eta) per round.  A stepped edge had ratio
      at most mu_r, and each of its triangles gains at least one unit,
      so its ratio falls by e^eta; every other edge was already below
      mu_r/(1+eta).  Hence mu_R < mu_0 (1+eta)^-R.
    * The least coverage grows.  Weak duality gives Phi_R / mu_R <= OPT,
      and Phi_R >= exp(-eta cov_min), so
      eta cov_min >= R ln(1+eta) - ln(OPT mu_0), where
      OPT mu_0 = T OPT / D_0 <= T start_gap (D_0 = T / mu_0 is the
      round-0 dual).
    * Phi falls with the primal cost.  A triangle gaining k <= 3 units
      loses p_t (1 - e^{-k eta}) >= k p_t (1 - e^{-eta}) e^{-eta}, and
      every stepped edge has ratio at least mu_r/(1+eta), so
      Phi_{r+1} <= Phi_r exp(-c cost_step / B) with
      c = (1 - e^{-eta}) e^{-eta} / (1+eta) and B the best dual so far.
      With Phi_0 = T this gives
      cost/cov_min <= B (eta/c) (1 + ln T / (eta cov_min)).

    The last bound is at most (1+eps) B once
    eta cov_min >= ln T / (a - 1), where a = (1+eps) c / eta > 1 for every
    eps in (0, 1), and the second bullet says when that holds.  The cap
    counts loop passes, one more than rounds.  It is a proof bound, far
    above the rounds taken in practice (a few hundred at eps = 0.1 on
    graphs with up to half a million triangles).
    """
    eta = eps / 4.0
    c = -math.expm1(-eta) * math.exp(-eta) / (1.0 + eta)
    a = (1.0 + eps) * c / eta
    log_t = math.log(num_triangles)
    rounds = (log_t / (a - 1.0) + log_t + math.log(start_gap)) / math.log1p(eta)
    return max(math.ceil(rounds), 1) + 1


def _minimal_primal(x: np.ndarray, tri_edges: np.ndarray) -> np.ndarray:
    """Lower each positive value, smallest first (ties by edge id), by the
    least slack (sum - 1) of its triangles.  Every triangle stays covered
    and every remaining positive value ends in a triangle of sum 1."""
    x = x.copy()
    sums = x[tri_edges].sum(axis=1)
    flat = tri_edges.ravel()
    tri_of = np.argsort(flat, kind="stable") // 3
    starts = np.concatenate([[0], np.cumsum(np.bincount(flat, minlength=x.size))])
    positive = np.flatnonzero(x > 0)
    for e in positive[np.argsort(x[positive], kind="stable")]:
        ts = tri_of[starts[e]:starts[e + 1]]
        slack = sums[ts].min() - 1.0
        if slack > 0:
            drop = min(x[e], slack)
            x[e] -= drop
            sums[ts] -= drop
    return x


def solve_mwu(g: SignedGraph, eps: float,
              max_iterations: int | None = None) -> LpSolution:
    """(1+eps)-approximate cover-LP solve by multiplicative weights.

    Phased width-1 scheme on the triangle constraints in the style of
    Garg-Koenemann, with eta = eps/4: constraint weights decay
    exponentially in current coverage, and each round every edge whose
    weighted score/weight ratio lies within a factor (1+eta) of the best
    gains one unit.  The scan that reprices the cached triangle list also
    yields the least-covered triangle used for primal scaling.  Every
    round produces a feasible primal candidate (raw values divided by the
    minimum constraint sum) and a feasible dual candidate (constraint
    weights scaled into the packing polytope); the loop stops as soon as
    the best pair certifies primal <= (1+eps) * dual.  The certified
    primal is then made minimal (:func:`_minimal_primal`), which only
    lowers the upper bound; rounding that thresholds x then keeps fewer
    edges.

    Returns an LpSolution with ``bounds = (dual value, primal value)``.
    Raises ConvergenceError carrying the best bounds if the iteration cap
    is hit first.  The default cap is the round bound proven in
    :func:`_mwu_iteration_cap`, O(log T / eps^2) plus a term in the
    weight spread, so only a smaller ``max_iterations`` can trip it.
    """
    if not (0 < eps < 1):
        raise InputError(f"eps must lie in (0,1), got {eps}")
    tris_all = g.bad_triangles()
    if not tris_all:
        primal = FractionalCover.from_values(g, [0.0] * g.m)
        dual = FractionalPacking.from_values(g, [])
        return LpSolution(primal, dual, STATUS_EPS, (0.0, 0.0), eps=eps)

    # Edges of zero weight cover their triangles for free.
    w = np.array([float(e.weight) for e in g.edges])
    free = w == 0
    all_edges = np.array(tris_all, dtype=np.int64)
    keep = ~free[all_edges].any(axis=1)
    x_final = free.astype(float)
    if not keep.any():
        primal = FractionalCover.from_values(g, x_final.tolist())
        dual = FractionalPacking.from_values(g, [0.0] * len(tris_all))
        return LpSolution(primal, dual, STATUS_EPS,
                          (0.0, float(primal.objective)), eps=eps)

    # The solve runs over the candidate edges (those in a kept triangle),
    # renumbered 0..k-1.
    cand_ids, local = np.unique(all_edges[keep], return_inverse=True)
    tri_edges = local.reshape(-1, 3)
    nt, k = len(tri_edges), len(cand_ids)
    wc = w[cand_ids]
    # One contiguous index row per triangle side: at T = 490k, a sum over
    # sides and one bincount per side halve the round's time against a row
    # sum over (T, 3) and one bincount over the repeated weights.
    sides = tri_edges.T.copy()

    eta = eps / 4.0
    if max_iterations is not None:
        cap = max_iterations
    else:
        # Covering each triangle by its cheapest edge bounds OPT; the
        # round-0 dual is T / mu_0.
        mu_0 = (np.bincount(tri_edges.ravel(), minlength=k) / wc).max()
        start_gap = float(wc[tri_edges].min(axis=1).sum()) * mu_0 / nt
        cap = _mwu_iteration_cap(nt, eps, start_gap)

    x_raw = np.zeros(k)
    best_primal = math.inf
    best_x = None
    best_dual = 0.0
    best_y = None
    certified = False
    for _ in range(cap):
        cover_sums = x_raw[sides].sum(axis=0)
        min_cov = cover_sums.min()
        p = np.exp(eta * (min_cov - cover_sums))
        ratios = (np.bincount(sides[0], p, k) + np.bincount(sides[1], p, k)
                  + np.bincount(sides[2], p, k)) / wc
        mu = ratios.max()
        dual_val = p.sum() / mu
        if dual_val > best_dual:
            best_dual = dual_val
            best_y = p / mu
        if min_cov > 0:
            cost = float(wc @ x_raw) / min_cov
            if cost < best_primal:
                best_primal = cost
                best_x = x_raw / min_cov
        if best_x is not None and best_primal <= (1 + eps) * best_dual:
            certified = True
            break
        x_raw += ratios * (1 + eta) >= mu
    if not certified:
        raise ConvergenceError(
            f"MWU failed to certify a (1+{eps}) gap within {cap} iterations",
            (best_dual, best_primal))

    # Make minimal, harden feasibility against float slop, clamp into [0, 1].
    x_final[cand_ids] = x_raw_to_feasible(_minimal_primal(best_x, tri_edges), tri_edges)
    np.clip(x_final, 0.0, 1.0, out=x_final)
    primal = FractionalCover.from_values(g, x_final.tolist())

    y_full = np.zeros(len(tris_all))
    y_full[keep] = best_y * (1 - 1e-12)
    dual = FractionalPacking.from_values(g, y_full.tolist())
    return LpSolution(primal, dual, STATUS_EPS,
                      (float(dual.objective), float(primal.objective)), eps=eps)


def x_raw_to_feasible(x: np.ndarray, tri_edges: np.ndarray) -> np.ndarray:
    """Rescale so every triangle sum is >= 1 exactly in float arithmetic."""
    scaled = x.copy()
    for _ in range(5):
        min_cov = scaled[tri_edges].sum(axis=1).min()
        if min_cov >= 1.0:
            return scaled
        scaled /= min_cov
    raise VerificationError("rescaling failed to reach feasibility")


# -- JSON ------------------------------------------------------------------

LP_SCHEMA = "btt.lp-solution/1"


def lp_solution_to_json(g: SignedGraph, sol: LpSolution) -> dict:
    obj = {
        "schema": LP_SCHEMA,
        "status": sol.status,
        "eps": sol.eps,
        "bounds": [json_value(sol.bounds[0]), json_value(sol.bounds[1])],
        "objective": json_value(sol.primal.objective),
        "edge_values": [json_value(v) for v in sol.primal.values],
    }
    if sol.dual is not None:
        obj["dual_objective"] = json_value(sol.dual.objective)
        obj["triangle_values"] = [json_value(v) for v in sol.dual.values]
    return obj

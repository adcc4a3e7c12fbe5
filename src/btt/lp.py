"""The bad-triangle cover LP and its packing dual.

The primal minimises the weighted sum of per-edge values x_e subject to
every bad triangle summing to at least one; the dual packs fractional
bad-triangle masses y_t subject to a per-edge capacity of w_e.

Two solvers are provided:

* :func:`solve_exact` - exact optimum of both LPs from one tableau
  simplex on the packing dual (Bland's rule), run twice at most.  The
  float run proposes a primal/dual pair, which is rebuilt as
  small-denominator Fractions (an integer continued-fraction rebuild,
  :func:`_limit_denominator`) and certified in exact arithmetic: primal
  feasible, dual feasible, equal objectives.  When the certificate fails,
  or a weight has no finite float64, the same simplex runs over
  Fractions.  Either way the result carries a strong-duality
  certificate, enabling exact complementary-slackness checks downstream.
  The tableau is one (m + 1) x (T + m + 1) array: the m edge rows, the
  reduced costs as row m, the right-hand side as the last column.  A
  pivot is one rank-one update of the whole array; in float64 its outer
  product is a matrix product with inner dimension 1, whose every cell is
  one rounded multiply, so the float run's bits are those of
  ``np.outer`` (zero signs aside) at a fraction of its numpy overhead,
  taken over cache-sized row blocks on large tableaux.
* :func:`solve_mwu` - a phased multiplicative-weights scheme for
  covering LPs (Garg-Koenemann style: each round steps every edge within
  a factor 1+eps/4 of the best ratio).  Returns a feasible primal within
  a caller-chosen factor (1+eps) of optimal, certified by a
  simultaneously maintained feasible dual (each round rescales the primal
  per edge and the dual per triangle), and then made minimal: no
  value can drop without uncovering a triangle.  Its default round cap is
  the scheme's proven bound, O(log T / eps^2) for T bad triangles.

Exact checks run on integers, never on Fractions per triangle.
:func:`scaled_integers` writes exact values (ints and Fractions; a float
counts as the dyadic rational it stores) over their least common
denominator D as one integer numpy column.  The column is int64 when a
stated headroom rules out overflow, that is when headroom x max(D, |num|)
stays below 2**63: 3 for the values of one triangle, n for the loads of
an edge, which lies in at most n - 2 bad triangles, m for a sum of
weights.  Otherwise it is an object array of Python ints.  Bounds such as
1 - tol or w_e + tol are computed in Python arithmetic first and then
scaled by D, rounded up for >= and down for <= (:func:`ceil_scaled`,
:func:`floor_scaled`), so an integer comparison gives exactly the
comparison of the value with that bound.

Every function here reads the bad triangles as the rows of
``g.bad_triangle_index()``, the package's one triangle form: the
solvers, the cover check (:func:`covers_scaled`), the packing check
(:func:`packs_scaled`), the certificate of :func:`solve_exact` and
:func:`greedy_maximal_packing`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import CapacityError, ConvergenceError, InputError, VerificationError
from .graphs import SignedGraph, json_value, total

#: Threshold separating "zero" from "positive" LP values in floating mode.
#: In rational mode the trichotomy is exact and the threshold is 0.
FLOAT_POSITIVITY_TAU = 1e-7

#: Float simplex zero: reduced costs and pivot-column entries above it count
#: as positive, and ratios within it of the minimum tie.
_FLOAT_PIVOT_TOL = 1e-9

#: The simplex gives up after this many pivots per tableau column.
_FLOAT_PIVOT_CAP_PER_COLUMN = 50

#: The float simplex updates its tableau in row blocks of about this many
#: cells (1 MB of float64), so that each block's outer product stays in
#: cache: at 300 x 1176, one product of the whole tableau per pivot took
#: twice as long.
_UPDATE_BLOCK_CELLS = 2**17

#: Largest denominator tried when rebuilding float LP values as Fractions.
_CERTIFIED_DENOMINATOR_BOUND = 10**6

#: Integer columns at or past this magnitude are kept as Python ints.
_INT64_LIMIT = 2**63

#: solve_mwu refuses graphs on which a load ratio deg_e / w_e, over its
#: scaled weights, reaches this bound: their weights spread too widely for
#: float64, and the ratios or the round cap would overflow.
_MWU_RATIO_LIMIT = 2.0**1000

#: Triangle rows that greedy_maximal_packing turns into Python ints at a
#: time: at T = 33k, reading the whole index at once held 3.8 MB more.
_PACKING_BLOCK = 8192

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
        # Exact values keep an exact objective even when weights are floats,
        # and an exact sum starts at Fraction(0) so that m = 0 gives one too.
        if any(isinstance(v, float) for v in vals):
            return cls(vals, total(e.weight * x for e, x in zip(g.edges, vals)))
        return cls(vals, sum((Fraction(e.weight) * x for e, x in zip(g.edges, vals)),
                             Fraction(0)))

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
    """Per-bad-triangle dual values y_t >= 0: ``values[i]`` belongs to row i
    of ``g.bad_triangle_index()`` (lexicographic node order)."""

    values: tuple
    objective: object

    @classmethod
    def from_values(cls, g: SignedGraph, values: Sequence) -> "FractionalPacking":
        count = len(g.bad_triangle_index())
        if len(values) != count:
            raise InputError(f"expected {count} triangle values, got {len(values)}")
        vals = tuple(values)
        return cls(vals, total(vals))


@dataclass(frozen=True)
class LpSolution:
    """A cover-LP solve result: primal, optional dual certificate, bounds.

    ``bounds = (lower, upper)`` bracket the LP optimum; in exact mode both
    equal the primal objective.  ``rounds`` counts the repricing rounds of
    :func:`solve_mwu` (0 when no triangle needs a solve) and is None for
    :func:`solve_exact`.  ``pivots`` holds the simplex pivots of each pass
    :func:`solve_exact` ran, float pass first (empty when no triangle needs
    a solve), and is None for :func:`solve_mwu`.  Neither counter appears
    in the result JSON.
    """

    primal: FractionalCover
    dual: FractionalPacking | None
    status: str
    bounds: tuple
    eps: float | None = None
    rounds: int | None = None
    pivots: tuple | None = None

    @property
    def value(self):
        return self.primal.objective


def scaled_integers(values: Sequence, headroom: int = 1) -> tuple[np.ndarray, int]:
    """Exact values as integer numerators over their least common
    denominator: ``(num, den)`` with ``num[i] / den == values[i]`` exactly.

    The values are ints, Fractions or floats; a float stands for the
    dyadic rational it stores.  ``num`` is int64 when ``headroom`` times
    the largest of ``den`` and every ``|num[i]|`` stays below 2**63, so
    that a sum of up to ``headroom`` numerators, or of ``den``, cannot
    overflow; otherwise it is an object array of Python ints.
    """
    try:  # one method call per value on the common kinds
        ratios = [v.as_integer_ratio() for v in values]
    except AttributeError:
        ratios = [_ratio(v) for v in values]
    den = math.lcm(*{d for _, d in ratios})
    nums = [n * (den // d) for n, d in ratios]
    big = max(den, max(map(abs, nums), default=0)) * headroom >= _INT64_LIMIT
    return np.array(nums, dtype=object if big else np.int64), den


def _ratio(q) -> tuple[int, int]:
    """(numerator, denominator) of a finite int, Fraction or float."""
    try:
        return q.as_integer_ratio()
    except AttributeError:  # numpy integers have no as_integer_ratio
        return Fraction(q).as_integer_ratio()


def ceil_scaled(q, den: int) -> int:
    """ceil(q * den) for a finite int, Fraction or float q: an integer
    numerator k over ``den`` has k / den >= q exactly when k >= this."""
    n, d = _ratio(q)
    return -(-n * den // d)


def floor_scaled(q, den: int) -> int:
    """floor(q * den): an integer numerator k has k / den <= q exactly when
    k <= this."""
    n, d = _ratio(q)
    return n * den // d


def _float_count(values) -> int:
    return sum(isinstance(v, float) for v in values)


def covers_scaled(g: SignedGraph, num: np.ndarray, den: int, tol=0) -> bool:
    """The exact cover check on values ``num / den``: every value >= -tol
    and every bad triangle sums to >= 1 - tol.  The bounds are computed as
    the value check computes them, then compared as integers."""
    index = g.bad_triangle_index()
    return bool((num >= ceil_scaled(-tol, den)).all()
                and (num[index].sum(axis=1) >= ceil_scaled(1 - tol, den)).all())


def check_fractional_feasibility(g: SignedGraph, x: FractionalCover, tol=0) -> bool:
    """True iff all values >= -tol and every bad triangle sums to >= 1 - tol.

    Exact values (ints and Fractions) are compared as integers over their
    common denominator (:func:`covers_scaled`).  Values holding a float
    are summed ``(a + b) + c`` per triangle as one numpy column: float64
    when every value is a float, else dtype object, whose cells add in
    Python's mixed arithmetic.
    """
    vals = x.values
    if len(vals) != g.m:
        raise InputError(f"expected {g.m} edge values, got {len(vals)}")
    floats = _float_count(vals)
    if not floats:
        return covers_scaled(g, *scaled_integers(vals, headroom=3), tol)
    col = np.array(vals, dtype=np.float64 if floats == len(vals) else object)
    ab, ac, bc = col[g.bad_triangle_index().T]
    return not (col < -tol).any() and bool(((ab + ac) + bc >= 1 - tol).all())


def packs_scaled(g: SignedGraph, num: np.ndarray, den: int, caps: Sequence,
                 tol=0) -> bool:
    """The exact packing check on triangle values ``num / den``: every value
    >= -tol, and every edge load at most ``caps[e]`` (w_e + tol as the value
    check computes it).  Loads are integer sums, so ``num`` needs a headroom
    of ``g.n``: an edge lies in at most n - 2 bad triangles."""
    if (num < ceil_scaled(-tol, den)).any():
        return False
    load = np.zeros(g.m, dtype=num.dtype)
    np.add.at(load, g.bad_triangle_index().ravel(), num.repeat(3))
    limits = np.array([floor_scaled(c, den) for c in caps], dtype=object)
    return bool((load <= limits).all())


def check_packing_feasibility(g: SignedGraph, y: FractionalPacking, tol=0) -> bool:
    """True iff y >= -tol and every edge load sum_{t: e in t} y_t <= w_e + tol.

    Exact values are compared as integers over their common denominator
    (:func:`packs_scaled`).  Values holding a float are loaded with
    ``np.add.at`` over the row-major flattened triangle index, so each edge
    adds its triangles' values in index order, as a scalar loop would: in
    float64 when every value is a float, else in dtype object, whose cells
    add in Python's mixed arithmetic from int 0.  Each load is compared
    exactly with w_e + tol.
    """
    vals = y.values
    index = g.bad_triangle_index()
    if len(vals) != len(index):
        raise InputError(f"expected {len(index)} triangle values, got {len(vals)}")
    weights = [e.weight for e in g.edges]
    caps = (weights if tol == 0 and not isinstance(tol, float)
            else [w + tol for w in weights])
    floats = _float_count(vals)
    if not floats:
        return packs_scaled(g, *scaled_integers(vals, headroom=max(g.n, 1)), caps, tol)
    if any(v < -tol for v in vals):
        return False
    kind = np.float64 if floats == len(vals) else object
    load = np.zeros(g.m, dtype=kind)
    np.add.at(load, index.ravel(), np.array(vals, dtype=kind).repeat(3))
    cap_kind = np.float64 if _float_count(caps) == len(caps) else object
    return bool((load <= np.array(caps, dtype=cap_kind)).all())


def greedy_maximal_packing(g: SignedGraph) -> list[tuple[int, int, int]]:
    """Maximal set of pairwise edge-disjoint bad triangles, greedy in
    deterministic (lexicographic) triangle order.

    The induced 0/1 packing loads every edge at most once, so on
    unweighted graphs its size lower-bounds the cover-LP value.  The
    triangle index is read as Python ints ``_PACKING_BLOCK`` rows at a
    time, so the temporary lists stay small.
    """
    index = g.bad_triangle_index()
    used = bytearray(g.m)
    chosen: list[tuple[int, int, int]] = []
    for start in range(0, len(index), _PACKING_BLOCK):
        for a, b, c in zip(*index[start:start + _PACKING_BLOCK].T.tolist()):
            if not (used[a] or used[b] or used[c]):
                chosen.append((a, b, c))
                used[a] = used[b] = used[c] = 1
    return chosen


# -- tableau simplex -------------------------------------------------------


def _packing_simplex(triangles: np.ndarray, weights: list):
    """Tableau simplex on: max sum(y) s.t. per-edge load <= weight, y >= 0,
    over the (T, 3) edge ids of ``triangles``.

    One (m + 1) x (T + m + 1) array holds the whole tableau: row e < m is
    edge e's constraint over the T triangle columns and the m slack
    columns, row m the reduced costs, and the last column the right-hand
    side, whose cell in row m is minus the objective.  A pivot is then one
    entering scan of row m, one ratio test over the last column, one pivot
    row and one rank-one update of the whole array.

    The tableau holds the weights' number kind: float64 with
    ``_FLOAT_PIVOT_TOL`` as zero in every comparison, or exact Fractions
    (dtype object) with tolerance 0.  Bland's rule enters the first column
    of positive reduced cost; the least ratio leaves, ties going to the
    lowest basic index.  Small float entries stay in the tableau: zeroing
    them made the float run drift from the exact one.

    The float update forms the outer product as a matrix product with inner
    dimension 1, ``np.dot(col[:, None], row[None, :])``: each cell is one
    rounded multiply, the bits of ``np.outer`` apart from the signs of
    zeros, which no comparison and no rebuilt Fraction sees, at a fraction
    of its numpy overhead.  It runs over row blocks of about
    ``_UPDATE_BLOCK_CELLS`` cells into one reused buffer, so a large
    tableau's product stays in cache; a tableau of fewer cells (complete
    graphs up to n = 20) is one block.  Each cell still gets one multiply and
    one subtraction, so any block size gives the same bits.  The Fraction
    update touches only the nonzero rows of the pivot column and the
    nonzero columns of the pivot row, since each Fraction operation is a
    Python call.

    Returns ``(found, pivots)``: the pivots made, and ``found = (x, y,
    value)``, the packing optimum y and the cover optimum x (read off the
    slack reduced costs) as lists with the objective; or ``found = None``
    when a pivot column has no positive entry, which only float error can
    cause.  Raises CapacityError at the pivot cap.
    """
    m, nt = len(weights), len(triangles)
    width = nt + m
    zero = weights[0] * 0
    one = zero + 1
    tab = np.full((m + 1, width + 1), zero)
    tab[triangles.ravel(), np.repeat(np.arange(nt), 3)] = one
    tab[np.arange(m), nt + np.arange(m)] = one
    tab[:m, -1] = weights
    # reduced costs c_j - z_j for the max problem; slack basis gives z = 0
    tab[m, :nt] = one
    costs, rhs = tab[m, :width], tab[:m, -1]
    exact = tab.dtype == object
    tol = 0 if exact else _FLOAT_PIVOT_TOL
    basis = np.arange(nt, width)
    block = max(1, _UPDATE_BLOCK_CELLS // (width + 1))
    product = None if exact else np.empty((min(block, m + 1), width + 1))

    cap = _FLOAT_PIVOT_CAP_PER_COLUMN * width
    for pivots in range(cap):
        # array methods skip numpy's Python-level wrappers: a pivot makes
        # about 20 calls on arrays of about 100 cells
        enter = (costs > tol).argmax()
        if not costs[enter] > tol:
            y = np.full(nt, zero)
            y[basis[basis < nt]] = rhs[basis < nt]
            return ((-costs[nt:]).tolist(), y.tolist(), -tab[m, -1]), pivots
        col = tab[:, enter].copy()
        candidates = (col[:m] > tol).nonzero()[0]
        if candidates.size == 0:
            return None, pivots
        ratios = rhs[candidates] / col[candidates]
        tied = candidates[ratios <= np.minimum.reduce(ratios) + tol]
        leave = tied[basis[tied].argmin()]
        piv = col[leave]
        if exact:
            live, cols = col.nonzero()[0], tab[leave].nonzero()[0]
            live = live[live != leave]
            piv_row = tab[leave, cols] / piv
            tab[np.ix_(live, cols)] -= np.outer(col[live], piv_row)
            tab[leave, cols] = piv_row
        else:
            piv_row = tab[leave] / piv
            row = piv_row[None, :]
            for lo in range(0, m + 1, block):
                rows = tab[lo:lo + block]
                part = product[:len(rows)]
                np.dot(col[lo:lo + block, None], row, out=part)
                rows -= part
            tab[leave] = piv_row
        basis[leave] = enter
    raise CapacityError(
        f"the simplex reached its cap of {cap} pivots on {nt} bad "
        f"triangles; the exact solver cannot finish at this size: use "
        f"solve_mwu for an approximate solution (btt solve --alg lp-mwu, or "
        f"--mode float for the roundings)")


def _certified_pair(g: SignedGraph, weights: list, x, y, value=None):
    """(primal, dual) built from exact values x and y, or None unless they
    certify each other: x covers every bad triangle, y packs within every
    weight, and both objectives agree (and equal ``value`` when given), all
    in exact arithmetic.  Such a pair is optimal on both sides.

    x is clamped into [0, 1] as :meth:`FractionalCover.clamped` does; the
    checks and both objectives run on integer numerators over the common
    denominators of the weights, of x and of y.
    """
    x_num, x_den = scaled_integers(x, headroom=3)
    if ((x_num < 0) | (x_num > x_den)).any():
        x = FractionalCover.from_values(g, x).clamped(g).values
        x_num, x_den = scaled_integers(x, headroom=3)
    y_num, y_den = scaled_integers(y, headroom=max(g.n, 1))
    w_num, w_den = scaled_integers(weights)
    primal_value = Fraction(sum(map(operator.mul, w_num.tolist(), x_num.tolist())),
                            w_den * x_den)
    dual_value = Fraction(sum(y_num.tolist()), y_den)
    if (primal_value == dual_value
            and (value is None or value == dual_value)
            and covers_scaled(g, x_num, x_den)
            and packs_scaled(g, y_num, y_den, weights)):
        return (FractionalCover(tuple(x), primal_value),
                FractionalPacking(tuple(y), dual_value))
    return None


def _limit_denominator(v: float) -> Fraction:
    """``Fraction(v).limit_denominator(_CERTIFIED_DENOMINATOR_BOUND)`` for a
    finite float v, in integer arithmetic.

    The continued fraction of v runs until the next convergent's
    denominator would pass the bound.  The answer is then the last
    convergent p1/q1 or the semiconvergent (p0 + k p1)/(q0 + k q1) with
    the largest denominator within the bound, whichever lies closer to v;
    a tie goes to p1/q1.  The two candidates lie 1/(q1 (q0 + k q1)) apart
    and p1/q1 lies d'/(q1 d) from v = n/d, d' being the remainder left, so
    the comparison is one of integers: CPython 3.12's form of the rule.
    """
    n, d = v.as_integer_ratio()
    bound = _CERTIFIED_DENOMINATOR_BOUND
    if d <= bound:
        return Fraction(n, d)
    p0, q0, p1, q1 = 0, 1, 1, 0
    num, den = n, d
    while True:
        a = num // den
        q2 = q0 + a * q1
        if q2 > bound:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        num, den = den, num - a * den
    k = (bound - q0) // q1
    if 2 * den * (q0 + k * q1) <= d:
        return Fraction(p1, q1)
    return Fraction(p0 + k * p1, q0 + k * q1)


def solve_exact(g: SignedGraph,
                max_triangles: int = DEFAULT_EXACT_TRIANGLE_BOUND) -> LpSolution:
    """Exact-rational optimum of the cover LP with a dual certificate.

    :func:`_packing_simplex` runs first on float weights.  Its x and y are
    rebuilt as small-denominator Fractions and kept if
    :func:`_certified_pair` certifies them in exact arithmetic.  Otherwise
    (float weights, numerically hard instances) the same simplex runs on
    Fraction weights, and its output must pass the same check with both
    objectives equal to the value it reports.  Either way primal and dual
    objectives agree identically, so complementary slackness holds
    exactly.  Float weights must be finite.

    A weight with no finite float64 (past about 1.8e308) skips the float
    pass, and the Fraction pass solves alone.  ``LpSolution.pivots``
    records the pivots of each pass run.

    Raises CapacityError when the bad-triangle count exceeds
    ``max_triangles`` or a run reaches its pivot cap; use
    :func:`solve_mwu` there.  Raises VerificationError if the exact run
    finds no optimum or fails the check: the packing LP is bounded, so
    either is a bug.
    """
    index = g.bad_triangle_index()
    if len(index) > max_triangles:
        raise CapacityError(
            f"{len(index)} bad triangles exceed the exact-solver bound "
            f"{max_triangles}; use solve_mwu for an approximate solution")
    if not len(index):
        primal = FractionalCover.from_values(g, [Fraction(0)] * g.m)
        dual = FractionalPacking((), Fraction(0))
        return LpSolution(primal, dual, STATUS_EXACT, (Fraction(0), Fraction(0)),
                          pivots=())
    weights = [Fraction(e.weight) for e in g.edges]
    pivots = []
    certified = None
    try:
        floats = [float(w) for w in weights]
    except OverflowError:  # a weight past float64's range: no float pass
        floats = None
    if floats is not None:
        found, count = _packing_simplex(index, floats)
        pivots.append(count)
        if found is not None:
            # each distinct float is rebuilt once: a vertex repeats few values
            rebuilt = {v: _limit_denominator(v) for v in {*found[0], *found[1]}}
            x, y = ([rebuilt[v] for v in vals] for vals in found[:2])
            certified = _certified_pair(g, weights, x, y)
    if certified is None:
        found, count = _packing_simplex(index, weights)
        pivots.append(count)
        certified = None if found is None else _certified_pair(g, weights, *found)
        if certified is None:
            raise VerificationError(
                "exact simplex failed its certificate (optimum, feasibility "
                "or strong duality); this is a bug")
    primal, dual = certified
    value = dual.objective
    return LpSolution(primal, dual, STATUS_EXACT, (value, value), pivots=tuple(pivots))


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
    eps in (0, 1), and the second bullet says when that holds.

    The bound is proven for the global candidates x_raw / cov_min and
    p / mu, and it still holds for the locally rescaled ones that
    :func:`solve_mwu` keeps.  Its local primal is componentwise at most
    x_raw / cov_min, so its best primal is at most the best cost/cov_min;
    its local dual is componentwise at least p / mu, so its best dual B' is
    at least B.  Hence best primal <= cost/cov_min <= (1+eps) B
    <= (1+eps) B' by the same round.  The cap counts loop passes, one more
    than steps; ``LpSolution.rounds`` counts passes too.  It is a proof
    bound, far above the rounds taken in practice (at most a few hundred at
    eps = 0.1 on graphs with up to half a million triangles).
    """
    eta = eps / 4.0
    c = -math.expm1(-eta) * math.exp(-eta) / (1.0 + eta)
    a = (1.0 + eps) * c / eta
    log_t = math.log(num_triangles)
    rounds = (log_t / (a - 1.0) + log_t + math.log(start_gap)) / math.log1p(eta)
    return max(math.ceil(rounds), 1) + 1


def _edge_incidence(tri_edges: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Edge -> triangle incidence over edges 0..k-1: the triangles of edge
    e are ``tri_of[starts[e]:starts[e + 1]]``, in increasing order."""
    flat = tri_edges.ravel()
    tri_of = np.argsort(flat, kind="stable") // 3
    starts = np.concatenate([[0], np.cumsum(np.bincount(flat, minlength=k))])
    return tri_of, starts


def _primal_candidate(x_raw: np.ndarray, cover_sums: np.ndarray,
                      tri_of: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``x_raw`` with each edge divided by the least coverage among its own
    triangles.  Needs every edge in a triangle and every triangle covered.

    A triangle of sum s has each of its edges divided by at most s, so its
    new sum is at least 1.  The result is componentwise at most
    x_raw / min_cov, the global scaling."""
    return x_raw / np.minimum.reduceat(cover_sums[tri_of], starts[:-1])


def _dual_candidate(p: np.ndarray, ratios: np.ndarray,
                    sides: np.ndarray) -> np.ndarray:
    """``p`` with each triangle divided by the largest score/weight ratio
    among its own three edges.

    Edge e then carries at most sum_{t on e} p_t / ratio_e = w_e.  The result
    is componentwise at least p / mu, mu the largest ratio: the global
    scaling."""
    return p / ratios[sides].max(axis=0)


def _minimal_primal(x: np.ndarray, tri_edges: np.ndarray, tri_of: np.ndarray,
                    starts: np.ndarray) -> np.ndarray:
    """Lower each positive value, smallest first (ties by edge id), by the
    least slack (sum - 1) of its triangles.  Every triangle stays covered
    and every remaining positive value ends in a triangle of sum 1."""
    x = x.copy()
    sums = x[tri_edges].sum(axis=1)
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
    gains one unit.  Every round also scales both sides into feasible
    candidates, each by local rather than global factors:

    * the primal divides each edge's raw value by the least coverage among
      its own triangles (:func:`_primal_candidate`), not by the least
      coverage of all triangles;
    * the dual divides each triangle's weight by the largest ratio among
      its own three edges (:func:`_dual_candidate`), not by the largest
      ratio of all edges.

    The local primal is componentwise at most the global one and the local
    dual at least the global one, so the best pair only certifies sooner:
    about 3.5x fewer rounds at eps = 0.1 on the float graphs of the mwu-lp
    benchmark.  The loop stops as soon as the best pair certifies
    primal <= (1+eps) * dual.  The certified primal is then made minimal
    (:func:`_minimal_primal`), which only lowers the upper bound; rounding
    that thresholds x then keeps fewer edges.

    Weights below 1 are first scaled up by a power of two, which changes
    no comparison, so tiny weights give the solution of their rescaled
    graph, scaled back.  Returns an LpSolution with ``bounds = (dual
    value, primal value)`` and the number of rounds run.  Raises
    CapacityError when a load ratio would reach ``_MWU_RATIO_LIMIT``, and
    ConvergenceError carrying the best bounds and the rounds run if the
    iteration cap is hit first.  The default cap is the round bound proven
    in :func:`_mwu_iteration_cap` for the global candidates,
    O(log T / eps^2) plus a term in the weight spread; it holds for the
    local ones too, so only a smaller ``max_iterations`` can trip it.
    """
    if not (0 < eps < 1):
        raise InputError(f"eps must lie in (0,1), got {eps}")
    all_edges = g.bad_triangle_index()
    if not len(all_edges):
        primal = FractionalCover((0.0,) * g.m, 0.0)
        return LpSolution(primal, FractionalPacking((), 0.0), STATUS_EPS,
                          (0.0, 0.0), eps=eps, rounds=0)

    # Edges of zero weight cover their triangles for free.
    w = g.edge_columns().weight
    if w.dtype == object:
        try:
            w = w.astype(np.float64)
        except OverflowError:
            raise CapacityError(
                "a weight lies beyond float64's range, so solve_mwu's float "
                "arithmetic cannot hold it; use solve_exact") from None
    free = w == 0
    keep = ~free[all_edges].any(axis=1)
    x_final = free.astype(float)
    if not keep.any():
        primal = FractionalCover.from_values(g, x_final.tolist())
        dual = FractionalPacking.from_values(g, [0.0] * len(all_edges))
        return LpSolution(primal, dual, STATUS_EPS,
                          (0.0, float(primal.objective)), eps=eps, rounds=0)

    # The solve runs over the candidate edges (those in a kept triangle),
    # renumbered 0..k-1.
    cand_ids, local = np.unique(all_edges[keep], return_inverse=True)
    tri_edges = local.reshape(-1, 3)
    nt, k = len(tri_edges), len(cand_ids)
    # One contiguous index row per triangle side: at T = 490k, a sum over
    # sides and one bincount per side halve the round's time against a row
    # sum over (T, 3) and one bincount over the repeated weights.
    sides = tri_edges.T.copy()
    tri_of, starts = _edge_incidence(tri_edges, k)
    # Weights below 1 are scaled up by 2**shift, so that the largest lies
    # in [1, 2) and the load ratios of tiny weights stay finite.  A power of
    # two commutes with float rounding: every comparison below is the one
    # the unscaled weights give, and y and the bounds scale back exactly.
    # Weights are never scaled down, which could round the smallest ones
    # into subnormals.  Both objectives are totalled over the scaled values
    # and scaled back once, so subnormal products cannot reorder them.
    shift = max(0, 1 - math.frexp(w[cand_ids].max())[1])
    wc = np.ldexp(w[cand_ids], shift)
    # Every p_t <= 1, so no load ratio ever exceeds the round-0 largest.
    with np.errstate(over="ignore"):
        mu_0 = (np.diff(starts) / wc).max()
    if not mu_0 < _MWU_RATIO_LIMIT:
        raise CapacityError(
            "the weights of the bad triangles spread too widely for "
            "solve_mwu's float arithmetic; use solve_exact")

    eta = eps / 4.0
    if max_iterations is not None:
        cap = max_iterations
    else:
        # Covering each triangle by its cheapest edge bounds OPT; the
        # round-0 dual is T / mu_0.
        start_gap = float(wc[tri_edges].min(axis=1).sum()) * mu_0 / nt
        cap = _mwu_iteration_cap(nt, eps, start_gap)

    x_raw = np.zeros(k)
    best_primal = math.inf
    best_x = None
    best_dual = 0.0
    best_y = None
    for rounds in range(1, cap + 1):
        cover_sums = x_raw[sides].sum(axis=0)
        min_cov = cover_sums.min()
        p = np.exp(eta * (min_cov - cover_sums))
        ratios = (np.bincount(sides[0], p, k) + np.bincount(sides[1], p, k)
                  + np.bincount(sides[2], p, k)) / wc
        y = _dual_candidate(p, ratios, sides)
        dual_val = y.sum()
        if dual_val > best_dual:
            best_dual = dual_val
            best_y = y
        if min_cov > 0:
            x = _primal_candidate(x_raw, cover_sums, tri_of, starts)
            cost = float(wc @ x)
            if cost < best_primal:
                best_primal = cost
                best_x = x
        if best_x is not None and best_primal <= (1 + eps) * best_dual:
            break
        x_raw += ratios * (1 + eta) >= ratios.max()
    else:
        raise ConvergenceError(
            f"MWU failed to certify a (1+{eps}) gap within {cap} iterations",
            (math.ldexp(best_dual, -shift), math.ldexp(best_primal, -shift)), cap)

    # Make minimal, harden feasibility against float slop, clamp into [0, 1].
    x_final[cand_ids] = x_raw_to_feasible(
        _minimal_primal(best_x, tri_edges, tri_of, starts), tri_edges)
    np.clip(x_final, 0.0, 1.0, out=x_final)
    primal = FractionalCover(tuple(x_final.tolist()),
                             math.ldexp(total(wc * x_final[cand_ids]), -shift))

    y_full = np.zeros(len(all_edges))
    y_full[keep] = np.ldexp(best_y, -shift) * (1 - 1e-12)
    dual = FractionalPacking(tuple(y_full.tolist()),
                             math.ldexp(total(best_y * (1 - 1e-12)), -shift))
    return LpSolution(primal, dual, STATUS_EPS, (dual.objective, primal.objective),
                      eps=eps, rounds=rounds)


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

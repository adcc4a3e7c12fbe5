"""Signed-graph data model, bad-triangle enumeration and objective evaluators.

A signed graph is a simple undirected graph whose edges carry a sign
(+1 or -1) and a nonnegative weight.  A *bad triangle* is a triangle with
exactly one negative edge; the covering, clustering and LP machinery in the
rest of the package is built on top of the types defined here.

Every layer reads bad triangles in one form: one edge-id triple
``(ab, ac, bc)`` per triangle on nodes a < b < c, in lexicographic order
of (a, b, c), as the rows of the read-only (T, 3) numpy index that
``SignedGraph.bad_triangle_index()`` builds once and caches.  The cover
check ``is_feasible_cover`` (which the roundings and the pivots call), the
LP solvers and checks of ``lp``, its greedy packing and the cover search
of ``exact`` all read it.
Enumeration builds the index from the edge columns: it looks up the
closing pair of every positive wedge among the sorted negative edges, a
block of about 4,096 wedges at a time, so memory follows the triangle
count.  ``SignedGraph.bad_triangles()`` is a view of the same rows as
Python int triples, built on each call, kept only for callers outside
the package.

Graphs are immutable after construction: every "mutating" operation
(``flip_edges``) returns a new value, so instances can be shared freely
across threads.

Weights are generic over the number kind: ``int``/``Fraction`` weights give
exact-rational behaviour (required by the exact LP solver and the charging
oracles), ``float`` weights trade exactness for speed.  Float weights must
be finite.

A graph stores its edges as numpy columns
(``SignedGraph.edge_columns()``, an ``EdgeColumns``): endpoints u < v, a
positive-sign mask, and one weight column, float64 when every weight is a
Python float and an object array of the weights themselves otherwise.
The constructor and ``parse_edge_list`` build the columns and check them
whole: node range, self-loops, signs, finite and nonnegative weights,
duplicate pairs (one sort of the pair keys), the weights' common
denominator and the ``complete`` edge count; an error still names the
first faulty edge in input order.  A text that fails to parse is read
once more, line by line, only to name its first faulty line.  Every
reader in the package reads the columns.  ``SignedGraph.edges``, the
``Edge`` tuples, is a view built from the columns on first access and
cached, and so is the pair-to-id map behind ``SignedGraph.edge_id``;
most graphs build neither.

Every total that can hold a float is added by ``total``, the package's one
summation rule: left to right from int 0, in the values' own arithmetic.
That is ``sum()`` up to CPython 3.11; 3.12's ``sum()`` compensates float
rounding, so it would give other bits on other Pythons.  Totals that are
exact (ints and Fractions) may use ``sum()``.  ``json_value`` is the one
Fraction-to-JSON rule, and ``SignedGraph.weight_numerators()`` the one
integer-weight rule: the weights over their common denominator, cached,
which every search, certificate and rounding that decides exactly reads.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations, compress, repeat, zip_longest
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import CapacityError, InputError

POSITIVE = 1
NEGATIVE = -1

#: Largest node count for which complete graphs are materialised.
COMPLETE_NODE_BOUND = 2000

#: Largest node count a graph accepts: the triangle index keys a node pair
#: (a, b) as ``a * n + b`` in int64, which needs n * n < 2**63.
MAX_NODES = math.isqrt(2**63 - 1)

#: Parsed weights keep numerator and denominator below 10 ** this, and a
#: graph's Fraction weights keep their common denominator below it, so
#: sums of weights stay far below Python's int-to-str digit limit.
MAX_WEIGHT_DIGITS = 1000
_WEIGHT_LIMIT = 10 ** MAX_WEIGHT_DIGITS

GRAPH_SCHEMA = "btt.graph/1"
COVER_SCHEMA = "btt.cover/1"
CLUSTERING_SCHEMA = "btt.clustering/1"

Weight = int | float | Fraction


def _canon(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class Edge(NamedTuple):
    """One undirected edge with canonical ``u < v`` endpoint order."""

    u: int
    v: int
    sign: int
    weight: Weight = 1

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v)


class EdgeColumns(NamedTuple):
    """The edges of a graph as numpy columns, indexed by edge id: the
    storage of ``SignedGraph``.

    ``u < v`` are the intp endpoints, ``positive`` the bool sign mask, and
    ``weight`` is float64 when every weight is a Python float, and an
    object array of the weights themselves otherwise, so that a ``total``
    over int, Fraction or mixed weights stays in Python arithmetic.

    Handed to the ``SignedGraph`` constructor, the fields may be any
    sequences, endpoints in either order; the constructor checks them.
    """

    u: np.ndarray
    v: np.ndarray
    positive: np.ndarray
    weight: np.ndarray


class SignedGraph:
    """Immutable signed graph with dense integer edge ids.

    Edge ids are assigned in construction order, giving deterministic
    iteration and tie-breaking in every downstream algorithm.
    """

    __slots__ = ("n", "complete", "_columns", "_edges", "_pair_to_id",
                 "_triangle_index", "_numerators")

    def __init__(self, n: int, edges: Iterable[tuple] | EdgeColumns,
                 complete: bool = False):
        """Build a graph from ``(u, v, sign[, weight])`` tuples, a 3-tuple
        weighing 1, or from ``EdgeColumns`` (``positive`` gives the signs).

        Raises InputError on self-loops, duplicate pairs, bad signs,
        negative or non-finite weights, Fraction weights whose common
        denominator reaches 10 ** MAX_WEIGHT_DIGITS, out-of-range node ids,
        tuples without 3 or 4 fields, or a ``complete`` flag that does not
        match the edge count.  The message names the first faulty edge in
        input order.  Raises CapacityError for more than MAX_NODES nodes.

        The checks run on whole columns (see ``_checked_columns``).
        """
        if n < 0:
            raise InputError(f"node count must be nonnegative, got {n}")
        if n > MAX_NODES:
            raise CapacityError(f"graphs are capped at {MAX_NODES} nodes (asked {n})")
        if isinstance(edges, EdgeColumns):
            u, v, positive, weight = edges
            positive = np.array(positive, dtype=bool)  # a copy: no caller's array
            sign, items, cut = None, (), 0
        else:
            items = list(edges)
            cut, (u, v, sign, weight) = _tuple_columns(items)
            positive = None
        columns, denominators = _checked_columns(n, u, v, positive, sign, weight)
        if cut < len(items):
            raise InputError(f"edge tuple must have 3 or 4 fields: {items[cut]!r}")
        common = 1
        for d in denominators:
            common = math.lcm(common, d)
            if common >= _WEIGHT_LIMIT:
                raise InputError(f"the weights' common denominator exceeds "
                                 f"{MAX_WEIGHT_DIGITS} digits")
        m = len(columns.u)
        if complete and m != n * (n - 1) // 2:
            raise InputError(
                f"complete graph on {n} nodes needs {n * (n - 1) // 2} edges, "
                f"got {m}")
        self.n = n
        self.complete = complete
        self._columns = columns
        self._edges: tuple[Edge, ...] | None = None
        self._pair_to_id: dict[tuple[int, int], int] | None = None
        self._triangle_index: np.ndarray | None = None
        self._numerators: tuple[np.ndarray, int] | None = None

    # -- basic accessors ------------------------------------------------

    @property
    def m(self) -> int:
        return len(self._columns.u)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as ``Edge`` tuples, indexed by edge id: a view of the
        columns, built on first access and cached."""
        if self._edges is None:
            u, v, positive, weight = self._columns
            sign = np.where(positive, POSITIVE, NEGATIVE)
            self._edges = tuple(map(_new_edge, zip(
                u.tolist(), v.tolist(), sign.tolist(), weight.tolist())))
        return self._edges

    def edge_id(self, u: int, v: int) -> int | None:
        """Dense id of edge {u, v}, or None when the pair is absent.  The
        pair-to-id map is built on the first call."""
        if self._pair_to_id is None:
            cols = self._columns
            self._pair_to_id = dict(zip(zip(cols.u.tolist(), cols.v.tolist()),
                                        range(self.m)))
        return self._pair_to_id.get(_canon(u, v))

    def positive_edge_ids(self) -> list[int]:
        return self._columns.positive.nonzero()[0].tolist()

    def is_exact(self) -> bool:
        """True when every weight is an int or Fraction (rational mode)."""
        kinds = set(map(type, self._columns.weight.tolist()))
        return all(issubclass(kind, (int, Fraction)) for kind in kinds)

    def check_edge_ids(self, edge_ids: Iterable[int]) -> None:
        m = self.m
        for eid in edge_ids:
            if not (0 <= eid < m):
                raise InputError(f"invalid edge id {eid} (graph has {m} edges)")

    def edge_columns(self) -> EdgeColumns:
        """The edges as numpy columns: the graph's storage."""
        return self._columns

    def weight_numerators(self) -> tuple[np.ndarray, int]:
        """The weight column as ``scaled_integers`` with headroom m, built
        on first use and cached read-only: ``num[i] / den == w_i`` exactly,
        ``num`` int64 while a sum of all m weights fits; den 1 on int weights."""
        if self._numerators is None:
            num, den = scaled_integers(self._columns.weight.tolist(),
                                       headroom=max(self.m, 1))
            num.flags.writeable = False
            self._numerators = num, den
        return self._numerators

    def __repr__(self) -> str:
        kind = "complete " if self.complete else ""
        return f"SignedGraph({kind}n={self.n}, m={self.m})"

    # -- bad triangles ----------------------------------------------------

    def bad_triangles(self) -> tuple[tuple[int, int, int], ...]:
        """The rows of ``bad_triangle_index()`` as a tuple of Python int
        triples, built on each call; kept only for callers outside the
        package, which reads the index.

        The ints come from one shared ``list(range(m))``, so each id is one
        object however many triangles hold it.
        """
        ints = list(range(self.m))
        ab, ac, bc = (list(map(ints.__getitem__, column.tolist()))
                      for column in self.bad_triangle_index().T)
        return tuple(zip(ab, ac, bc))

    def bad_triangle_index(self) -> np.ndarray:
        """The bad triangles as a read-only (T, 3) intp array, cached: row
        i holds the edge ids ``(ab, ac, bc)`` of the i-th triangle on nodes
        a < b < c, in lexicographic order of (a, b, c).

        Built from the edge columns.  The positive half-edges are sorted by
        (centre, neighbour), so the wedges of a centre are its pairs of
        half-edges i < j, with neighbours a < b; each closing pair (a, b) is
        looked up with ``np.searchsorted`` among the negative edges sorted
        by ``a * n + b``.  A bad triangle has a unique wedge centre (the node
        on both positive edges), so no deduplication is needed.  Wedges are
        made in blocks of about ``_WEDGE_BLOCK``, so memory follows the
        triangle count rather than the wedge count, and one sort on
        (a, b, c) gives lexicographic order.  The work scales with the
        positive-wedge count (Chiba–Nishizeki, Latapy).
        """
        if self._triangle_index is None:
            index = _bad_triangle_index(self.n, self.edge_columns())
            index.flags.writeable = False
            self._triangle_index = index
        return self._triangle_index


_new_edge = partial(tuple.__new__, Edge)  # Edge(*fields) without its __new__

_EDGE_WIDTHS = {3: True, 4: True}


def _tuple_columns(items: list) -> tuple[int, list]:
    """``(cut, [u, v, sign, weight])``: the columns of the edge tuples
    before index ``cut``, the first tuple without 3 or 4 fields
    (``len(items)`` when there is none); a 3-tuple weighs 1."""
    widths = list(map(len, items))
    cut = len(items)
    if not set(widths) <= {3, 4}:
        cut = list(map(_EDGE_WIDTHS.get, widths)).index(None)
    columns = list(zip_longest(*items[:cut], fillvalue=1)) or [()] * 3
    if len(columns) == 3:
        columns.append((1,) * cut)
    return cut, columns


def _column(values) -> np.ndarray:
    """``values`` as a numeric array, or as an object array when they are
    not all numbers, so that comparisons are Python's."""
    column = np.asarray(values)
    if column.dtype.kind in "biuf" and column.ndim == 1:
        return column
    return np.fromiter(values, dtype=object, count=len(values))


def _weight_column(weight) -> tuple[np.ndarray, np.ndarray | None, set]:
    """``(column, bad, denominators)`` of raw weights: the weight column of
    ``EdgeColumns``, the mask of the weights that are negative or
    non-finite (None when there are none), and the denominators of the
    Fraction weights.  Only floats (numpy's float64 among them) can be
    non-finite."""
    if isinstance(weight, np.ndarray):
        weight = weight.tolist()
    m = len(weight)
    kinds = set(map(type, weight))
    if kinds <= {float}:
        column = np.fromiter(weight, dtype=np.float64, count=m)
        return column, ~((column >= 0) & (column < math.inf)), set()  # NaN fails both
    column = np.fromiter(weight, dtype=object, count=m)
    denominator = operator.attrgetter("denominator")
    if kinds <= {int, Fraction}:
        # a Fraction's sign is its numerator's; Fraction < is slow
        numerator = operator.attrgetter("numerator")
        bad = (np.fromiter(map(numerator, weight), dtype=object, count=m) < 0
               if min(map(numerator, weight), default=0) < 0 else None)
        return column, bad, set(map(denominator, weight)) if Fraction in kinds else set()
    floats = np.fromiter(map(isinstance, weight, repeat(float)), dtype=bool, count=m)
    fractions = np.fromiter(map(isinstance, weight, repeat(Fraction)), dtype=bool, count=m)
    with np.errstate(invalid="ignore"):  # nan < 0 is False, as in Python
        bad = column < 0
    bad[floats] |= ~np.isfinite(column[floats].astype(np.float64))
    return column, bad, set(map(denominator, column[fractions].tolist()))


def _checked_columns(n: int, u, v, positive, sign, weight) -> tuple[EdgeColumns, set]:
    """Check raw edge columns and return them as ``EdgeColumns``, each
    pair in ``u < v`` order, with the Fraction weights' denominators.  The
    signs are given either as a ``positive`` mask or as a ``sign`` column
    (``positive`` None), whose entries must be +1 or -1.

    Every check runs on whole columns, into one mask of the edges found
    sound; a repeated pair is found by one stable sort of the pair keys
    ``u * n + v``.  Raises InputError naming the first faulty edge in input
    order, whose faults are tried in the order: out of range, self-loop,
    bad sign, non-finite weight, negative weight, duplicate pair.
    """
    a, b = _column(u), _column(v)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    in_range = (lo >= 0) & (hi < n)  # False for a NaN
    sound = in_range & (lo != hi)
    if positive is None:
        s = _column(sign)
        positive = s == POSITIVE
        sign_ok = positive | (s == NEGATIVE)
        sound &= sign_ok
    column, bad_weight, denominators = _weight_column(weight)
    if bad_weight is not None:
        sound &= ~bad_weight
    # a pair out of range can share its key with another pair; that marks
    # only the later of the two, which comes after the first fault anyway
    key = lo * n + hi
    order = key.argsort(kind="stable")
    ordered = key[order]
    sound[order[1:]] &= ordered[1:] != ordered[:-1]
    i = int(sound.argmin()) if len(sound) else 0
    if len(sound) and not sound[i]:
        x, y, w = u[i], v[i], weight[i]
        if not in_range[i]:
            raise InputError(f"edge ({x},{y}) out of range for n={n}")
        if lo[i] == hi[i]:
            raise InputError(f"self-loop at node {x}")
        if sign is not None and not sign_ok[i]:
            raise InputError(f"sign must be +1 or -1, got {sign[i]!r}")
        if isinstance(w, float) and not math.isfinite(w):
            raise InputError(f"non-finite weight on edge ({x},{y}): {w}")
        if bad_weight is not None and bad_weight[i]:
            raise InputError(f"negative weight on edge ({x},{y}): {w}")
        raise InputError(f"duplicate edge {_canon(x, y)}")
    return (EdgeColumns(lo.astype(np.intp), hi.astype(np.intp), positive, column),
            denominators)


#: Wedges looked up per block by ``SignedGraph.bad_triangle_index``.
_WEDGE_BLOCK = 4096


def _bad_triangle_index(n: int, cols: EdgeColumns) -> np.ndarray:
    positive = cols.positive.nonzero()[0]
    negative = (~cols.positive).nonzero()[0]
    centre = np.concatenate((cols.u[positive], cols.v[positive]))
    other = np.concatenate((cols.v[positive], cols.u[positive]))
    order = (centre * n + other).argsort()
    centre, other = centre[order], other[order]
    half_id = np.concatenate((positive, positive))[order]
    key = cols.u[negative] * n + cols.v[negative]  # u < v; n <= MAX_NODES
    order = key.argsort()
    # n * n closes no wedge: a lookup past the last key lands on it
    neg_key, neg_id = np.append(key[order], n * n), negative[order]
    # half-edge i opens a wedge with every later half-edge of its centre
    count = centre.searchsorted(centre, side="right") - np.arange(1, len(centre) + 1)
    ends = count.cumsum()
    wedges = int(ends[-1]) if len(ends) else 0
    if not wedges or not len(negative):
        return np.empty((0, 3), dtype=np.intp)
    cuts = ends.searchsorted(np.arange(_WEDGE_BLOCK, wedges, _WEDGE_BLOCK), side="right")
    blocks = []
    start = 0
    for stop in sorted({*cuts.tolist(), len(count)}):
        runs = count[start:stop]
        first = np.arange(start, stop).repeat(runs)
        second = first + np.arange(1, len(first) + 1) - (runs.cumsum() - runs).repeat(runs)
        start = stop
        wedge_key = other[first] * n + other[second]
        at = neg_key.searchsorted(wedge_key)
        hit = neg_key[at] == wedge_key
        first, second = first[hit], second[hit]
        c, a, b = centre[first], other[first], other[second]
        ca, cb, ab = half_id[first], half_id[second], neg_id[at[hit]]
        # order (c, a, b) with a < b: c below a, between them, or above b
        below, above = c < a, c > b
        blocks.append(np.stack((np.where(above, ab, ca),
                                np.where(below, cb, np.where(above, ca, ab)),
                                np.where(below, ab, cb)), axis=1))
    index = np.concatenate(blocks)
    del blocks  # freed before the sort's temporaries, for peak memory
    # row (ab, ac, bc) sorts by the key of edge ab, a * n + b, then by c
    order = np.lexsort((cols.v[index[:, 1]], (cols.u * n + cols.v)[index[:, 0]]))
    return index[order]


@dataclass(frozen=True)
class EdgeCover:
    """An integral edge subset, normally one intersecting every bad triangle."""

    edge_ids: frozenset[int]
    cost: Weight

    @classmethod
    def from_ids(cls, g: SignedGraph, edge_ids: Iterable[int]) -> "EdgeCover":
        ids = frozenset(edge_ids)
        g.check_edge_ids(ids)
        return cls(ids, total(g.edge_columns().weight[_id_array(sorted(ids))]))

    @classmethod
    def from_pairs(cls, g: SignedGraph, pairs: Iterable[tuple[int, int]]) -> "EdgeCover":
        ids = []
        for u, v in pairs:
            eid = g.edge_id(u, v)
            if eid is None:
                raise InputError(f"no edge {_canon(u, v)} in graph")
            ids.append(eid)
        return cls.from_ids(g, ids)

    @property
    def size(self) -> int:
        return len(self.edge_ids)

    def pairs(self, g: SignedGraph) -> list[tuple[int, int]]:
        cols, ids = g.edge_columns(), _id_array(self.edge_ids)
        return sorted(zip(cols.u[ids].tolist(), cols.v[ids].tolist()))


def _id_array(ids) -> np.ndarray:
    """A collection of edge ids as an intp array, in iteration order."""
    return np.fromiter(ids, dtype=np.intp, count=len(ids))


def is_feasible_cover(g: SignedGraph, cover: EdgeCover | Iterable[int]) -> bool:
    """True iff every bad triangle of ``g`` contains at least one cover edge:
    a membership mask over the edges, read at ``g.bad_triangle_index()``."""
    ids = cover.edge_ids if isinstance(cover, EdgeCover) else frozenset(cover)
    g.check_edge_ids(ids)
    mask = np.zeros(g.m, dtype=bool)
    mask[_id_array(ids)] = True
    return bool(mask[g.bad_triangle_index()].any(axis=1).all())


@dataclass(frozen=True)
class Clustering:
    """A partition of the node set as per-node labels forming a dense range."""

    labels: tuple[int, ...]
    num_clusters: int = field(default=0)

    @classmethod
    def from_labels(cls, labels: Sequence[int]) -> "Clustering":
        """Normalise arbitrary labels to 0..k-1 in order of first appearance."""
        first_seen = dict.fromkeys(labels)
        remap = dict(zip(first_seen, range(len(first_seen))))
        return cls(tuple(map(remap.__getitem__, labels)), len(remap))


def total(values) -> Weight:
    """The package's one summation rule: ``values`` added left to right
    from int 0, each addition in the values' own arithmetic, so an empty
    input gives int 0.  This is ``sum()`` up to CPython 3.11 bit for bit;
    3.12's ``sum()`` compensates float rounding and is not used on floats.

    A float64 array is added by ``np.add.accumulate``, which adds in the
    same order; its first addition starts from the first value rather
    than from 0, so ``+ 0.0`` turns an all-(-0.0) total into 0.0, as
    ``0 + -0.0`` does; a total past float64's range is inf without
    numpy's overflow warning, as ``sum()`` gives it.  Any other array is
    added as its ``tolist()``, the objects themselves for dtype object: a
    Python loop over a list is faster than one over array elements.
    """
    if isinstance(values, np.ndarray):
        if values.dtype == np.float64:
            if not values.size:
                return 0
            with np.errstate(over="ignore"):
                return float(np.add.accumulate(values)[-1]) + 0.0
        values = values.tolist()
    return reduce(operator.add, values, 0)


def scaled_integers(values: Sequence, headroom: int = 1) -> tuple[np.ndarray, int]:
    """Exact values as integer numerators over their least common
    denominator: ``(num, den)`` with ``num[i] / den == values[i]`` exactly.

    The values are ints (their own numerators, over 1), Fractions or
    floats; a float stands for the dyadic rational it stores.  ``num`` is
    int64 when ``headroom`` times the largest of ``den`` and every
    ``|num[i]|`` stays below 2**63, so that a sum of up to ``headroom``
    numerators, or of ``den``, cannot overflow; otherwise it is an object
    array of Python ints.
    """
    if all(type(v) is int for v in values):  # stops at the first non-int
        nums, den = values, 1
    else:
        try:  # one method call per value on the common kinds
            ratios = [v.as_integer_ratio() for v in values]
        except AttributeError:  # numpy integers have no as_integer_ratio
            ratios = [Fraction(v).as_integer_ratio() for v in values]
        den = math.lcm(*{d for _, d in ratios})
        nums = [n * (den // d) for n, d in ratios]
    big = max(den, max(map(abs, nums), default=0)) * headroom >= 2**63
    return np.array(nums, dtype=object if big else np.int64), den


def cc_cost(g: SignedGraph, clustering: Clustering) -> Weight:
    """Correlation-clustering disagreements of a partition.

    Sum of weights of positive edges crossing clusters plus negative edges
    inside clusters: the ``total`` of the edge columns' weight column over
    the disagreeing edges, in edge-id order.  Absent pairs contribute
    nothing.
    """
    if len(clustering.labels) != g.n:
        raise InputError(
            f"clustering labels {len(clustering.labels)} != node count {g.n}")
    return disagreement_cost(g.edge_columns(), clustering.labels)


def disagreement_cost(cols: EdgeColumns, labels: Sequence[int]) -> Weight:
    """``cc_cost`` of per-node ``labels`` on the edge columns ``cols``,
    without building a ``Clustering`` or checking the label count."""
    lab = np.array(labels, dtype=np.intp)
    # compress selects a few thousand weights in about half the time of a
    # boolean index
    return total(cols.weight.compress((lab[cols.u] == lab[cols.v]) != cols.positive))


def flip_edges(g: SignedGraph, edge_ids: Iterable[int]) -> SignedGraph:
    """New graph with the signs of ``edge_ids`` inverted; weights preserved."""
    ids = frozenset(edge_ids)
    g.check_edge_ids(ids)
    cols = g.edge_columns()
    flipped = cols.positive.copy()
    flipped[_id_array(ids)] ^= True
    return SignedGraph(g.n, cols._replace(positive=flipped), complete=g.complete)


def complete_graph(n: int, sign_of_pair) -> SignedGraph:
    """Materialise a unit-weight complete signed graph from a sign callback.

    Refuses n beyond COMPLETE_NODE_BOUND.
    """
    if n > COMPLETE_NODE_BOUND:
        raise CapacityError(
            f"complete graphs are capped at {COMPLETE_NODE_BOUND} nodes (asked {n})")
    tuples = [(u, v, sign_of_pair(u, v)) for u, v in combinations(range(n), 2)]
    return SignedGraph(n, tuples, complete=True)


# -- text edge-list format ---------------------------------------------------
#
#   # comment
#   n 6 complete
#   0 1 +1
#   1 2 -1 3/2


def _parse_weight(token: str) -> Weight:
    """``int(token)``, else ``Fraction(token)``; InputError when neither
    parses or the numerator or denominator reaches 10 ** MAX_WEIGHT_DIGITS."""
    whole, dot, frac = token.partition(".")
    if (dot and whole.isdigit() and frac.isdigit() and token.isascii()
            and len(token) <= MAX_WEIGHT_DIGITS):
        # a plain decimal D.F, too short to reach the bound: the value
        # Fraction(token) gives, without its regular-expression parse
        return Fraction(int(whole + frac), 10 ** len(frac))
    try:
        value = int(token)
    except ValueError:
        mantissa, e, exponent = token.lower().partition("e")
        try:  # refuse a huge exponent before Fraction expands it
            huge = abs(int(exponent)) > MAX_WEIGHT_DIGITS + 2 * len(token)
        except ValueError:  # no exponent, or not a number
            huge = False
        if huge:  # parse the token with its exponent's digits set to 0
            exponent = "".join("0" if c.isdecimal() else c for c in exponent)
        try:
            value = Fraction(mantissa + e + exponent if huge else token)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse weight {token!r}") from exc
        if huge and value:
            # a nonzero mantissa has fewer than len(token) digits, so the
            # exponent alone puts the numerator or denominator past the bound
            raise InputError(f"weight {token!r} exceeds {MAX_WEIGHT_DIGITS} digits")
    if max(abs(value.numerator), value.denominator) >= _WEIGHT_LIMIT:
        raise InputError(f"weight {token!r} exceeds {MAX_WEIGHT_DIGITS} digits")
    return value


def _format_weight(w: Weight) -> str:
    if isinstance(w, (int, Fraction)):
        return str(w)
    return repr(w)


#: Sign tokens of the edge-list format, to "is positive".
_SIGN_TOKENS = {"+1": True, "1": True, "-1": False}

#: A comment: ``#`` up to the next line boundary of ``str.splitlines``.
_COMMENT = re.compile("#[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*")


def parse_edge_list(text: str) -> SignedGraph:
    """Parse the line-oriented edge-list format.

    Header line ``n <count> [complete]``, then one ``u v s [w]`` line per
    edge with s in {+1, -1}; ``#`` starts a comment.  Weights parse as
    exact rationals (``3/2``, ``1.5`` and ``2`` are all exact).

    A valid text is read straight into columns: the header is checked,
    then that every edge row has 3 or 4 tokens, then one ``int`` map per
    endpoint, one lookup map for the signs and one ``_parse_weight`` map
    for the weights.  When a check or a map fails, ``_line_fault`` walks
    the text once, line by line, and its error names the first faulty
    line.  The graph's own checks come last.
    """
    if "#" in text:
        text = _COMMENT.sub("", text)
    rows = list(filter(None, map(str.split, text.splitlines())))
    if not rows:
        raise InputError("missing 'n <count>' header")
    header = rows.pop(0)
    try:
        if _header_fault(header) or not set(map(len, rows)) <= {3, 4}:
            raise ValueError
        u = list(map(int, map(operator.itemgetter(0), rows)))
        v = list(map(int, map(operator.itemgetter(1), rows)))
        positive = list(map(_SIGN_TOKENS.__getitem__, map(operator.itemgetter(2), rows)))
        four = list(map((4).__eq__, map(len, rows)))
        parsed = list(map(_parse_weight, map(operator.itemgetter(3), compress(rows, four))))
    except (ValueError, KeyError, InputError):
        raise _line_fault(text) from None
    weight = np.ones(len(rows), dtype=object)
    weight[four] = np.fromiter(parsed, dtype=object, count=len(parsed))
    return SignedGraph(int(header[1]), EdgeColumns(u, v, positive, weight),
                       complete=len(header) == 3)


def _line_fault(text: str) -> InputError:
    """The error of the first faulty line of a comment-stripped edge-list
    text.  A line's checks run in the order: header (first nonblank line
    only), duplicate header, field count, node ids, sign, then weight,
    whose error is ``_parse_weight``'s own."""
    header = True
    for lineno, fields in enumerate(map(str.split, text.splitlines()), start=1):
        if not fields:
            continue
        if header:
            fault, header = _header_fault(fields), False
        elif fields[0] == "n":
            fault = "duplicate header"
        elif len(fields) not in (3, 4):
            fault = "edge line is 'u v s [w]'"
        elif None in (_int_or_none(fields[0]), _int_or_none(fields[1])):
            fault = "bad node id"
        elif fields[2] not in _SIGN_TOKENS:
            fault = f"sign must be +1 or -1, got {fields[2]!r}"
        else:
            fault = None
            if len(fields) == 4:
                try:
                    _parse_weight(fields[3])
                except InputError as exc:
                    return exc
        if fault:
            return InputError(f"line {lineno}: {fault}")
    raise AssertionError("no faulty line in a text that failed to parse")


def _header_fault(fields: list[str]) -> str | None:
    """What is wrong with the first nonblank line as the header, if any."""
    if fields[0] != "n":
        return "edge before 'n' header"
    if len(fields) not in (2, 3):
        return "header is 'n <count> [complete]'"
    if _int_or_none(fields[1]) is None:
        return f"bad node count {fields[1]!r}"
    if len(fields) == 3 and fields[2] != "complete":
        return f"unknown header flag {fields[2]!r}"
    return None


def _int_or_none(token: str) -> int | None:
    try:
        return int(token)
    except ValueError:
        return None


def format_edge_list(g: SignedGraph) -> str:
    cols = g.edge_columns()
    signs = map(("-1", "+1").__getitem__, cols.positive.tolist())
    lines = [f"{u} {v} {s}" if w == 1 else f"{u} {v} {s} {_format_weight(w)}"
             for u, v, s, w in zip(cols.u.tolist(), cols.v.tolist(), signs,
                                   cols.weight.tolist())]
    header = f"n {g.n}" + (" complete" if g.complete else "")
    return "\n".join([header, *lines]) + "\n"


# -- JSON export / import ------------------------------------------------


def json_value(v):
    """The package's one JSON rule for numbers: a Fraction becomes its
    string, anything else passes through unchanged."""
    return str(v) if isinstance(v, Fraction) else v


def graph_to_json(g: SignedGraph) -> dict:
    return {
        "schema": GRAPH_SCHEMA,
        "n": g.n,
        "complete": g.complete,
        "edges": [[u, v, POSITIVE if p else NEGATIVE, json_value(w)]
                  for u, v, p, w in zip(*(c.tolist() for c in g.edge_columns()))],
    }


def cover_from_json(g: SignedGraph, obj: dict) -> EdgeCover:
    """Read a ``btt.cover/1`` object: its ``edge_ids`` must be a list of
    edge ids of ``g`` (ints, not bools)."""
    if obj.get("schema") != COVER_SCHEMA:
        raise InputError(f"expected schema {COVER_SCHEMA!r}, got {obj.get('schema')!r}")
    ids = obj.get("edge_ids")
    if not isinstance(ids, list) or not all(type(i) is int for i in ids):
        raise InputError("cover edge ids must be a list of integers")
    return EdgeCover.from_ids(g, ids)


def clustering_to_json(c: Clustering) -> dict:
    return {
        "schema": CLUSTERING_SCHEMA,
        "labels": list(c.labels),
        "num_clusters": c.num_clusters,
    }


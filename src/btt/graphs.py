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

Beside the triangles, a graph caches its edges as numpy columns
(``SignedGraph.edge_columns()``): endpoints u and v, a positive-sign mask,
and one weight column, float64 when every weight is a Python float and an
object array of the weights themselves otherwise.  ``cc_cost`` reads that
column on every graph.  The pair-to-id map behind ``SignedGraph.edge_id``
is built on its first call: the constructor checks duplicates with a set,
and most graphs never look a pair up.

Every total that can hold a float is added by ``total``, the package's one
summation rule: left to right from int 0, in the values' own arithmetic.
That is ``sum()`` up to CPython 3.11; 3.12's ``sum()`` compensates float
rounding, so it would give other bits on other Pythons.  Totals that are
exact (ints and Fractions) may use ``sum()``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import combinations
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
    """The edges of a graph as numpy columns, indexed by edge id.

    ``weight`` is float64 when every weight is a Python float, and an
    object array of the weights otherwise, so that a ``total`` over int,
    Fraction or mixed weights stays in Python arithmetic.
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

    __slots__ = ("n", "edges", "complete", "_pair_to_id", "_triangle_index",
                 "_columns")

    def __init__(self, n: int, edges: Iterable[tuple], complete: bool = False):
        """Build a graph from ``(u, v, sign[, weight])`` tuples.

        Raises InputError on self-loops, duplicate pairs, bad signs,
        negative or non-finite weights, Fraction weights whose common
        denominator reaches 10 ** MAX_WEIGHT_DIGITS, out-of-range node ids,
        or a ``complete`` flag that does not match the edge count.  The
        message names the first faulty edge in input order.  Raises
        CapacityError for more than MAX_NODES nodes.
        """
        if n < 0:
            raise InputError(f"node count must be nonnegative, got {n}")
        if n > MAX_NODES:
            raise CapacityError(f"graphs are capped at {MAX_NODES} nodes (asked {n})")
        canonical: list[Edge] = []
        append = canonical.append
        new_tuple = tuple.__new__  # Edge(...) without its Python-level __new__
        seen: set[tuple[int, int]] = set()
        denominators: set[int] = set()
        for item in edges:
            if len(item) == 3:
                u, v, sign = item
                weight: Weight = 1
            elif len(item) == 4:
                u, v, sign, weight = item
            else:
                raise InputError(f"edge tuple must have 3 or 4 fields: {item!r}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at node {u}")
            if sign not in (POSITIVE, NEGATIVE):
                raise InputError(f"sign must be +1 or -1, got {sign!r}")
            kind = type(weight)
            if kind is int:
                negative = weight < 0
            elif kind is float:
                if not math.isfinite(weight):
                    raise InputError(f"non-finite weight on edge ({u},{v}): {weight}")
                negative = weight < 0
            elif kind is Fraction:
                # a Fraction's sign is its numerator's; Fraction < is slow
                denominators.add(weight.denominator)
                negative = weight.numerator < 0
            else:  # bool, numpy scalars, subclasses of float or Fraction
                if isinstance(weight, float) and not math.isfinite(weight):
                    raise InputError(f"non-finite weight on edge ({u},{v}): {weight}")
                if isinstance(weight, Fraction):
                    denominators.add(weight.denominator)
                negative = weight < 0
            if negative:
                raise InputError(f"negative weight on edge ({u},{v}): {weight}")
            if u > v:
                u, v = v, u
            pair = (u, v)
            if pair in seen:
                raise InputError(f"duplicate edge {pair}")
            seen.add(pair)
            append(new_tuple(Edge, (u, v, sign, weight)))
        common = 1
        for d in denominators:
            common = math.lcm(common, d)
            if common >= _WEIGHT_LIMIT:
                raise InputError(f"the weights' common denominator exceeds "
                                 f"{MAX_WEIGHT_DIGITS} digits")
        if complete and len(canonical) != n * (n - 1) // 2:
            raise InputError(
                f"complete graph on {n} nodes needs {n * (n - 1) // 2} edges, "
                f"got {len(canonical)}")
        self.n = n
        self.edges: tuple[Edge, ...] = tuple(canonical)
        self.complete = complete
        self._pair_to_id: dict[tuple[int, int], int] | None = None
        self._triangle_index: np.ndarray | None = None
        self._columns: EdgeColumns | None = None

    # -- basic accessors ------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_id(self, u: int, v: int) -> int | None:
        """Dense id of edge {u, v}, or None when the pair is absent.  The
        pair-to-id map is built on the first call."""
        if self._pair_to_id is None:
            self._pair_to_id = {e.pair: i for i, e in enumerate(self.edges)}
        return self._pair_to_id.get(_canon(u, v))

    def positive_edge_ids(self) -> list[int]:
        return [i for i, e in enumerate(self.edges) if e.sign == POSITIVE]

    def is_exact(self) -> bool:
        """True when every weight is an int or Fraction (rational mode)."""
        return all(isinstance(e.weight, (int, Fraction)) for e in self.edges)

    def check_edge_ids(self, edge_ids: Iterable[int]) -> None:
        m = self.m
        for eid in edge_ids:
            if not (0 <= eid < m):
                raise InputError(f"invalid edge id {eid} (graph has {m} edges)")

    def edge_columns(self) -> EdgeColumns:
        """The edges as numpy columns, built on first use and cached."""
        if self._columns is None:
            u, v, sign, weight = (zip(*self.edges) if self.edges
                                  else ((), (), (), ()))
            kind = np.float64 if set(map(type, weight)) <= {float} else object
            self._columns = EdgeColumns(
                np.array(u, dtype=np.intp), np.array(v, dtype=np.intp),
                np.array(sign, dtype=np.intp) == POSITIVE,
                np.array(weight, dtype=kind))
        return self._columns

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
        return cls(ids, total(g.edges[i].weight for i in sorted(ids)))

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
        return sorted(g.edges[i].pair for i in self.edge_ids)


def is_feasible_cover(g: SignedGraph, cover: EdgeCover | Iterable[int]) -> bool:
    """True iff every bad triangle of ``g`` contains at least one cover edge:
    a membership mask over the edges, read at ``g.bad_triangle_index()``."""
    ids = cover.edge_ids if isinstance(cover, EdgeCover) else frozenset(cover)
    g.check_edge_ids(ids)
    mask = np.zeros(g.m, dtype=bool)
    mask[np.fromiter(ids, dtype=np.intp, count=len(ids))] = True
    return bool(mask[g.bad_triangle_index()].any(axis=1).all())


@dataclass(frozen=True)
class Clustering:
    """A partition of the node set as per-node labels forming a dense range."""

    labels: tuple[int, ...]
    num_clusters: int = field(default=0)

    @classmethod
    def from_labels(cls, labels: Sequence[int]) -> "Clustering":
        """Normalise arbitrary labels to 0..k-1 in order of first appearance."""
        remap: dict[int, int] = {}
        normal = []
        for lab in labels:
            if lab not in remap:
                remap[lab] = len(remap)
            normal.append(remap[lab])
        return cls(tuple(normal), len(remap))


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
    cols = g.edge_columns()
    lab = np.array(clustering.labels, dtype=np.intp)
    # compress selects a few thousand weights in about half the time of a
    # boolean index
    return total(cols.weight.compress((lab[cols.u] == lab[cols.v]) != cols.positive))


def flip_edges(g: SignedGraph, edge_ids: Iterable[int]) -> SignedGraph:
    """New graph with the signs of ``edge_ids`` inverted; weights preserved."""
    ids = frozenset(edge_ids)
    g.check_edge_ids(ids)
    tuples = [(e.u, e.v, -e.sign if i in ids else e.sign, e.weight)
              for i, e in enumerate(g.edges)]
    return SignedGraph(g.n, tuples, complete=g.complete)


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


def parse_edge_list(text: str) -> SignedGraph:
    """Parse the line-oriented edge-list format.

    Header line ``n <count> [complete]``, then one ``u v s [w]`` line per
    edge with s in {+1, -1}; ``#`` starts a comment.  Weights parse as
    exact rationals (``3/2``, ``1.5`` and ``2`` are all exact).
    """
    n = None
    complete = False
    tuples = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "n":
            if n is not None:
                raise InputError(f"line {lineno}: duplicate header")
            if len(fields) not in (2, 3):
                raise InputError(f"line {lineno}: header is 'n <count> [complete]'")
            try:
                n = int(fields[1])
            except ValueError as exc:
                raise InputError(f"line {lineno}: bad node count {fields[1]!r}") from exc
            if len(fields) == 3:
                if fields[2] != "complete":
                    raise InputError(f"line {lineno}: unknown header flag {fields[2]!r}")
                complete = True
            continue
        if n is None:
            raise InputError(f"line {lineno}: edge before 'n' header")
        if len(fields) not in (3, 4):
            raise InputError(f"line {lineno}: edge line is 'u v s [w]'")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise InputError(f"line {lineno}: bad node id") from exc
        if fields[2] not in ("+1", "-1", "1"):
            raise InputError(f"line {lineno}: sign must be +1 or -1, got {fields[2]!r}")
        sign = POSITIVE if fields[2] in ("+1", "1") else NEGATIVE
        if len(fields) == 4:
            tuples.append((u, v, sign, _parse_weight(fields[3])))
        else:
            tuples.append((u, v, sign))
    if n is None:
        raise InputError("missing 'n <count>' header")
    return SignedGraph(n, tuples, complete=complete)


def format_edge_list(g: SignedGraph) -> str:
    lines = [f"n {g.n}" + (" complete" if g.complete else "")]
    for e in g.edges:
        sign = "+1" if e.sign == POSITIVE else "-1"
        if e.weight == 1:
            lines.append(f"{e.u} {e.v} {sign}")
        else:
            lines.append(f"{e.u} {e.v} {sign} {_format_weight(e.weight)}")
    return "\n".join(lines) + "\n"


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
        "edges": [[e.u, e.v, e.sign, json_value(e.weight)] for e in g.edges],
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


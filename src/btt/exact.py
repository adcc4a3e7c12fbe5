"""Exact oracles: minimum bad-triangle covers, minimum-disagreement
clusterings, and the cover-versus-clustering ratio survey.

The cover search is a branch-and-bound over edges: pick the uncovered bad
triangle with the fewest open edges, branch on its open edge that lies in
the most uncovered triangles (include it or forbid it; a triangle's last
open edge is forced in), and prune with a greedy edge-disjoint packing
bound that packs the tightest triangles first.  The triangles are the rows
of ``g.bad_triangle_index()``, the package's one triangle form, renumbered
inside the search so that triangles on the least crowded edges come
first; the bound packs, in that order, the triangles with one open edge,
then those with two, then those with three.  Any edge-disjoint packing
is a lower bound, so the order only decides how high it reaches.  Each
triangle is one bitmask of its allowed edges and each edge one bitmask of
its triangles, and a search node carries the uncovered triangles as three
bitmasks, one per number of open edges, so the bound and the branching
choice are integer operations.  The packing stops as soon as it prunes:
its bound only grows, and rounded float addition is monotone, so a
partial bound prunes only when the full one would.  The incumbent starts
as the cheaper of two covers: the edges of the index-order root packing,
which is maximal and so covers every triangle, and a greedy cover by
uncovered triangles per unit weight.

On exact weights, ints and Fractions, both searches add and compare
the graph's cached ``weight_numerators()``, integers over the weights'
common denominator, which decides as Fractions would; float weights are
searched as they are.  Every number an oracle reports is computed from
the weights themselves, so it keeps their kind: an int-weight optimum is
an int, not a Fraction.

The clustering search enumerates set partitions as restricted growth
strings: nodes are placed in id order, each in a used cluster or a fresh
one, and the cost of the pairs among placed nodes is carried along.  A
choice is pruned when that cost plus a lower bound on the pairs not yet
priced reaches the incumbent.  The unpriced pairs fall into two disjoint
sets, so their bounds add: a later node pays for its pairs with the placed
nodes at least what its cheapest cluster, used or fresh, would cost it,
and the pairs among the later nodes pay at least a greedy edge-disjoint
packing of the bad triangles on them.  Only subtrees none of whose
clusterings could become the incumbent are cut, so the enumeration order,
the witness and the value are those of the search without the bound.
Given a lower bound on the optimum, such as the minimum cover cost, the
search looks first for a clustering at that bound: it sets aside, in
order, the choices whose bound exceeds it, and searches them only when
no clustering meets it.  The witness and value are again those of the
search without either bound, and the node counts fall; the trail of a
search that meets its bound leaves out the costlier incumbents met on
the way.

Both searches are desk-scale tools, with guards set from the input and
from measurement.  The cover search refuses more than
``DEFAULT_BTT_TRIANGLE_BUDGET`` bad triangles and recursion deeper than
``MAX_BTT_DEPTH``, and by default explores at most ``BTT_NODE_WORK // T``
nodes for T bad triangles, since a node's cost grows with T.  The
clustering search refuses graphs on more than ``DEFAULT_CC_NODE_CAP``
nodes, the largest size whose worst measured run stayed under a second.
Witnesses are re-validated through the graph evaluators rather than
trusted from the search.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce
from operator import add, itemgetter, or_

import numpy as np

from .errors import (BudgetExceededError, CapacityError, InputError,
                     VerificationError)
from .graphs import (Clustering, EdgeCover, SignedGraph, cc_cost,
                     disagreement_cost, format_edge_list, is_feasible_cover,
                     total)
from .lp import floor_scaled
from .rng import spawn_seeds

DEFAULT_BTT_TRIANGLE_BUDGET = 5000
#: The cover search's default node budget is this over the bad-triangle
#: count T: a node's cost grows with T, as its packing walks the uncovered
#: triangles, so the budget bounds time (1.4-3.2 s of CPU at T =
#: 334-4,750, complete unit graphs on 18-44 nodes).
BTT_NODE_WORK = 50_000_000
#: Largest graph the clustering search takes: its worst measured run took
#: 0.42 s at 17 nodes, and 0.93-1.15 s at 18.
DEFAULT_CC_NODE_CAP = 17
DEFAULT_CC_NODE_BUDGET = 50_000_000
#: Deepest branching the recursive cover search takes before it raises
#: CapacityError; kept well below CPython's default recursion limit (1000)
#: so that the caller's own frames still fit.
MAX_BTT_DEPTH = 800


@dataclass(frozen=True)
class ExactResult:
    """An exact optimum with its witness and a summary of the search.

    ``trail`` records the seed incumbents at node 0 and then each
    incumbent improvement as (nodes_explored, value) pairs; together with
    ``root_lower_bound`` it documents why the final value is optimal.  A
    clustering search given a ``lower_bound`` that it meets records only
    the clustering at the bound after its seed (see ``exact_cc``).
    ``optima`` is populated only by enumeration runs.
    """

    value: object
    witness: object
    nodes_explored: int
    root_lower_bound: object
    trail: tuple
    optima: tuple | None = None
    optima_truncated: bool = False


def _redundant(edges: list, edge_tri_mask: list) -> list[int]:
    """The edges of ``edges`` each of whose triangles holds a second edge
    of ``edges``, in the order given: a cover made of ``edges`` can drop
    any one of them.  ``edge_tri_mask[e]`` is edge e's triangle bitmask."""
    seen = twice = 0
    for e in edges:
        twice |= seen & edge_tri_mask[e]
        seen |= edge_tri_mask[e]
    return [e for e in edges if not edge_tri_mask[e] & ~twice]


def _greedy_cover(edge_tri_mask: list, weights: list) -> list[int]:
    """A cover of every triangle in ``edge_tri_mask`` (edge e's triangle
    bitmask), in sorted id order.

    It takes the edge with the most uncovered triangles per unit weight
    (zero weight first, ties: lowest id) until every triangle is covered,
    then drops each ``_redundant`` edge, heaviest first (ties: lowest id);
    a drop makes no other edge redundant, so only those redundant at first
    are tried.  Hit counts only fall, so a popped heap entry's count is
    checked against a popcount of the edge's uncovered triangles, and a
    stale entry is pushed back with its current count.
    """
    def entry(e: int, hits: int) -> tuple:
        w = weights[e]
        return (-hits / w if w else -math.inf), e, hits

    heap = [entry(e, mask.bit_count()) for e, mask in enumerate(edge_tri_mask) if mask]
    heapq.heapify(heap)
    uncovered = reduce(or_, edge_tri_mask, 0)
    chosen = []
    while uncovered:
        _, e, count = heapq.heappop(heap)
        hits = (edge_tri_mask[e] & uncovered).bit_count()
        if hits == count:
            chosen.append(e)
            uncovered &= ~edge_tri_mask[e]
        elif hits:
            heapq.heappush(heap, entry(e, hits))
    chosen.sort()
    for e in sorted(_redundant(chosen, edge_tri_mask), key=lambda e: -weights[e]):
        if e in _redundant(chosen, edge_tri_mask):
            chosen.remove(e)
    return chosen


def _btt_search(g: SignedGraph, allowed: list[int], *,
                triangle_budget: int | None = None, node_budget: int | None = None,
                enumerate_cap=None, max_optima: int = 10_000) -> ExactResult:
    """Shared branch-and-bound core over bitmasks.

    The search numbers the triangles by how crowded their allowed edges
    are: the key is the sum, over a triangle's allowed edges, of the number
    of triangles each lies in, and ties keep index order.  ``tri_mask[p]``
    holds the allowed edges of the triangle at position p and
    ``edge_tri_mask[e]`` the positions of edge e's triangles.  A node is
    its excluded edges and three position bitmasks, the classes of the
    uncovered triangles with one, two and three open edges; every row has
    two or three allowed edges, so the root starts from their counts.
    Including an edge drops its triangles from every class; excluding one
    moves its uncovered triangles down a class, which never empties a
    triangle, because an edge is excluded only when no triangle has one
    open edge.  So a node with no uncovered triangle is a leaf, and every
    other node has an open edge in each uncovered triangle.

    The bound is an edge-disjoint packing of the uncovered triangles, each
    packed triangle adding its cheapest open edge, in the order of the
    classes: the one-open class, then the two-open and the three-open one,
    each in position order.  Every cover of the node's subtree takes an
    open edge of each uncovered triangle, a different one for each packed
    triangle since they share no edge, so any packing, in any order, is a
    lower bound.  The order only decides how high it reaches: a triangle
    with one open edge uses up a single edge, and a three-open triangle
    packed early can block two disjoint tighter ones.  A triangle is
    packed unless it shares an open edge with one packed before it, so
    each packed triangle adds the triangles on its open edges to
    ``blocked`` and the walk visits only the triangles it packs.  It stops
    as soon as ``cost + bound`` prunes.  The bound only grows, by
    nonnegative terms, and rounded float addition is monotone, so a
    partial bound prunes only when the whole one would: the decisions are
    those of the full walk.  A leaf is tested with a bound of 0.

    The search picks the first triangle of the one-open class, or else the
    triangle of the smallest class with the lowest open edge (ties:
    position): the first open edge, in id order, that lies in a triangle
    of that class, and the first such triangle.  It branches on that
    triangle's busiest open edge, the one in the most uncovered triangles
    (ties: lowest id): include it, then exclude it.  When the triangle has
    one open edge, the edge is forced: it is included and no exclude child
    is made, since that child would leave the triangle with no open edge.

    Any open edge of an uncovered triangle splits the covers that extend a
    node into those that contain it and those that do not, and each part is
    exactly one child's covers.  So the choice of edge changes only the
    order and number of nodes, never which covers are reachable: the
    optimum, the completeness of enumeration, the node budget and the
    depth guard mean what they meant under any other open edge.

    On exact weights (every weight an int or a Fraction), and always in
    enumeration mode, the search adds and compares the graph's
    ``weight_numerators()``, and so decides as it would on Fractions.
    Float weights are searched as they are, since an exact comparison
    would change their prunes.  Every reported number is computed from
    the weights themselves, so it keeps their kind: the value and the
    trail are the ``total`` of the witness's weights in sorted-id order,
    and an int-weight cover costs an int.

    ``root_lower_bound``, and the lower bound that BudgetExceededError
    carries, is the bound of the greedy packing in index order.  That
    packing's edges form a feasible cover: the packing is maximal, so every
    triangle left out shares an allowed edge with a packed one.  With every
    edge allowed it is the standard 3-approximation.  Optimisation mode
    (enumerate_cap None) seeds the incumbent with it, and then with
    ``_greedy_cover`` when that is strictly cheaper; the trail records both
    at node 0.  Enumeration mode collects in ``optima`` every irredundant
    feasible cover of cost exactly ``enumerate_cap``, an optimal witness's
    cost as a numerator over the weights' denominator, and reports its
    root bound as a Fraction.  Each such cover is one leaf, since an
    irredundant cover holds no smaller one; a leaf is listed only when
    none of its edges is ``_redundant``, which leaves out covers that keep
    a zero-weight edge made redundant by later edges.  The witness
    returned is a frozenset of edge ids.
    """
    index = g.bad_triangle_index()
    if triangle_budget is None:
        triangle_budget = DEFAULT_BTT_TRIANGLE_BUDGET
    if len(index) > triangle_budget:
        raise CapacityError(
            f"{len(index)} bad triangles exceed the search budget {triangle_budget}")
    if node_budget is None:
        node_budget = BTT_NODE_WORK // max(len(index), 1)
    enumerating = enumerate_cap is not None
    allowed_set = frozenset(allowed)
    weights = g.edge_columns().weight.tolist()
    num, den = g.weight_numerators() if enumerating or g.is_exact() else (None, 1)
    search = weights if num is None else num.tolist()
    rows = index.tolist()
    if len(allowed_set) < g.m:
        rows = [[e for e in t if e in allowed_set] for t in rows]
    masks = [sum(1 << e for e in ids) for ids in rows]
    # enumeration reports its root bound as the exact sum it searches with
    priced = search if enumerating else weights
    root_bound = seed = 0
    for ids, mask in zip(rows, masks):
        if not mask & seed:
            seed |= mask
            root_bound += min(priced[e] for e in ids)
    if enumerating:
        root_bound = Fraction(root_bound, den)
    # each edge's triangle count, read only for allowed edges
    crowding = np.bincount(index.ravel(), minlength=g.m).tolist()
    order = sorted(range(len(rows)), key=lambda t: sum(crowding[e] for e in rows[t]))
    rows = [rows[t] for t in order]
    tri_mask = [masks[t] for t in order]
    edge_tri_mask = [0] * g.m
    classes = [0, 0, 0, 0]
    for p, ids in enumerate(rows):
        classes[len(ids)] |= 1 << p
        for e in ids:
            edge_tri_mask[e] |= 1 << p
    # the allowed edges that lie in a triangle
    triangle_edges = sum(1 << e for e in range(g.m) if edge_tri_mask[e])
    # each triangle's allowed edges, cheapest first, with their triangles
    entries = [(1 << e, search[e], edge_tri_mask[e]) for e in range(g.m)]
    cheapest = [tuple(sorted(map(entries.__getitem__, ids), key=itemgetter(1)))
                for ids in rows]

    nodes, truncated, trail, optima, included = 0, False, [], [], []
    best = best_cover = None
    if enumerating:
        # integer costs: pruning ``cost > enumerate_cap`` is ``>= limit``
        limit = enumerate_cap + 1
    else:
        # Costs are totalled in sorted-id order, so float weights give the
        # witness's cost to the last bit.
        best_cover = [e for e in range(g.m) if seed >> e & 1]
        limit = total(search[e] for e in best_cover)
        best = total(weights[e] for e in best_cover)
        trail.append((0, best))
        greedy = _greedy_cover(edge_tri_mask, weights)
        value = total(search[e] for e in greedy)
        if value < limit:
            limit, best_cover = value, greedy
            best = total(weights[e] for e in greedy)
            trail.append((0, best))

    def dfs(one: int, two: int, three: int, excluded: int, cost, depth: int) -> None:
        nonlocal nodes, best, best_cover, limit, truncated
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(
                f"cover search exceeded its budget of {node_budget} nodes "
                f"for {len(rows)} bad triangles", (root_bound, best))
        if depth > MAX_BTT_DEPTH:
            raise CapacityError(f"cover search deeper than {MAX_BTT_DEPTH} branchings")
        if not (one or two or three):
            if cost >= limit:
                return
            if enumerating:
                if not _redundant(included, edge_tri_mask):
                    if len(optima) < max_optima:
                        optima.append(frozenset(included))
                    else:
                        truncated = True
            else:
                best_cover = sorted(included)
                limit = total(search[e] for e in best_cover)
                best = total(weights[e] for e in best_cover)
                trail.append((nodes, best))
            return
        keep = ~excluded
        bound = blocked = 0
        for rest in (one, two, three):
            rest &= ~blocked
            while rest:
                p = (rest & -rest).bit_length() - 1
                open_edges = tri_mask[p] & keep
                w = None
                for bit, weight, tris in cheapest[p]:
                    if bit & open_edges:
                        if w is None:
                            w = weight
                        blocked |= tris
                bound += w
                if cost + bound >= limit:
                    return
                rest &= ~blocked
        if one:
            p = (one & -one).bit_length() - 1
            branch = (tri_mask[p] & keep).bit_length() - 1
        else:
            group = two or three
            edges = triangle_edges & keep
            while True:
                low = edges & -edges
                tris = edge_tri_mask[low.bit_length() - 1] & group
                if tris:
                    break
                edges ^= low
            chosen = tri_mask[(tris & -tris).bit_length() - 1] & keep
            uncovered = two | three
            branch, most = -1, -1
            while chosen:
                e = chosen.bit_length() - 1
                chosen ^= 1 << e
                hits = (edge_tri_mask[e] & uncovered).bit_count()
                if hits >= most:
                    branch, most = e, hits
        mask = edge_tri_mask[branch]
        included.append(branch)
        dfs(one & ~mask, two & ~mask, three & ~mask, excluded,
            cost + search[branch], depth + 1)
        included.pop()
        if not one:
            dfs(two & mask, two & ~mask | three & mask, three & ~mask,
                excluded | 1 << branch, cost, depth + 1)

    dfs(classes[1], classes[2], classes[3], 0, 0, 0)
    if enumerating:
        return ExactResult(None, None, nodes, root_bound, (), tuple(optima), truncated)
    return ExactResult(best, frozenset(best_cover), nodes, root_bound, tuple(trail))


def _min_cover(g: SignedGraph, allowed: list[int], search: str,
               **budgets) -> ExactResult:
    """Minimum cover drawn from ``allowed``, its witness re-validated."""
    if not len(g.bad_triangle_index()):
        return ExactResult(0, EdgeCover(frozenset(), 0), 0, 0, ((0, 0),))
    res = _btt_search(g, allowed, **budgets)
    cover = EdgeCover.from_ids(g, res.witness)
    if not is_feasible_cover(g, cover) or cover.cost != res.value:
        raise VerificationError(f"{search} returned an invalid witness")
    return replace(res, witness=cover)


def exact_btt(g: SignedGraph, *, triangle_budget: int | None = None,
              node_budget: int | None = None) -> ExactResult:
    """Minimum-weight feasible bad-triangle cover, branch-and-bound.

    Raises CapacityError when the bad-triangle count T exceeds
    ``triangle_budget`` (default ``DEFAULT_BTT_TRIANGLE_BUDGET``), and
    BudgetExceededError, with the best bounds, when the search explores
    more than ``node_budget`` nodes (default ``BTT_NODE_WORK // T``).  A
    negative budget is an InputError.
    """
    if any(b is not None and b < 0 for b in (triangle_budget, node_budget)):
        raise InputError(f"search budgets must be nonnegative: triangle budget "
                         f"{triangle_budget}, node budget {node_budget}")
    return _min_cover(g, list(range(g.m)), "cover search",
                      triangle_budget=triangle_budget, node_budget=node_budget)


def exact_btt_positive_only(g: SignedGraph, *,
                            enumerate_optima: int | None = None) -> ExactResult:
    """Minimum cover drawn from positive edges only, with ``exact_btt``'s
    default budgets.

    Always feasible: every bad triangle has two positive edges.  With
    ``enumerate_optima`` set, a second pass collects all irredundant
    optimal covers up to that count cap (exact search, so the list is
    complete unless the ``optima_truncated`` flag is set).
    """
    allowed = g.positive_edge_ids()
    res = _min_cover(g, allowed, "positive-only search")
    if enumerate_optima is None:
        return res
    cap = sum(g.weight_numerators()[0][sorted(res.witness.edge_ids)].tolist())
    found = _btt_search(g, allowed, enumerate_cap=cap, max_optima=enumerate_optima)
    return replace(res, optima=tuple(sorted(found.optima, key=sorted)),
                   optima_truncated=found.optima_truncated)


def _check_cc_node_cap(n: int) -> None:
    """Raise CapacityError when ``exact_cc`` would refuse a graph on ``n``
    nodes; callers that pair it with costlier searches check first."""
    if n > DEFAULT_CC_NODE_CAP:
        raise CapacityError(f"exact clustering search capped at "
                            f"{DEFAULT_CC_NODE_CAP} nodes (n={n})")


def _tail_packing(g: SignedGraph, weights: list) -> list:
    """``tail[i]`` for i in 0..n: a lower bound on what any clustering
    pays for the pairs among nodes i, i + 1, ...

    It is a greedy edge-disjoint packing of the bad triangles on those
    nodes, each packed triangle adding its cheapest weight: a clustering
    disagrees on at least one edge of every bad triangle, and the packed
    triangles share no edge.  The index is sorted by lowest node, so the
    triangles on nodes >= i are a suffix of it; packing from the last row
    back passes through every suffix, and one pass gives every i.
    """
    index = g.bad_triangle_index()
    lowest = g.edge_columns().u[index[:, 0]].tolist()
    tail = [0] * (g.n + 1)
    bound = used = 0
    for (ab, ac, bc), a in zip(reversed(index.tolist()), reversed(lowest)):
        mask = 1 << ab | 1 << ac | 1 << bc
        if not mask & used:
            used |= mask
            bound += min(weights[ab], weights[ac], weights[bc])
        tail[a] = bound
    for i in range(g.n - 1, -1, -1):
        tail[i] = max(tail[i], tail[i + 1])
    return tail


def exact_cc(g: SignedGraph, *, lower_bound=None) -> ExactResult:
    """Minimum-disagreement clustering by restricted-growth enumeration.

    Assigns nodes in id order to an existing cluster or a fresh one,
    carrying the cost of finalised pairs.  Placing node i in cluster c is
    pruned when that cost plus a lower bound on the pairs still unpriced
    reaches the incumbent.  Those pairs fall into two disjoint sets:

    * a later node u and the nodes up to i: u will join a used cluster or
      a fresh one, so it pays at least the least of those costs, its
      positive weight to the placed nodes outside the cluster plus its
      negative weight inside;
    * two later nodes: at least ``_tail_packing``'s bound for node i + 1.

    Each pair is in one set, so the two bounds add.  The bound is first
    taken over the nodes before i, the same for every c, and only a choice
    that passes it is priced with its pairs (i, u) as well.

    A pruned subtree holds only clusterings that cost at least the
    incumbent, and a clustering replaces the incumbent only when it costs
    strictly less, so none of them could have been recorded: the order of
    the leaves, the witness and the value are those of the search without
    the bound, and so are the trail's values when no ``lower_bound`` is
    given.  (With float weights this holds up to rounding, as it does for
    the incumbent prune.)

    On exact weights the search adds and compares the graph's
    ``weight_numerators()`` against ``limit``, the incumbent's cost
    scaled the same way; float weights are searched as they are.  A leaf
    is priced by ``disagreement_cost`` on the weight column, and the
    seeds, the trail and the packing part of the root bound are computed
    from the weights themselves, so each keeps their kind.

    ``lower_bound`` L, for instance the minimum cover cost, which no
    clustering undercuts, must not exceed the optimum.  The search trusts
    it: a bound above the optimum can end the search at a clustering that
    is not optimal.  Given L, the search runs bound-first, in up to two
    passes over one enumeration:

    * the first prunes on the incumbent as above, but sets aside, in
      search order, each choice whose bound exceeds L (on exact weights,
      reaches ``floor_scaled(L, den) + 1``; on float weights, exceeds L by
      more than m ulps of the total weight, room for the rounding of a
      search-order sum), and it stops at the first clustering priced L;
    * the second runs only when the first did not stop, and searches the
      choices set aside, in the order they were set aside, against the
      incumbent alone.

    The witness and value stay those of the search without L.  That
    search's incumbent stays above L until it finds a clustering priced
    L, so it never prunes a subtree holding one and returns the first in
    search order.  The first pass visits the clusterings in the same
    order and sets aside only subtrees whose clusterings all cost more
    than L, so it stops at that same clustering, having visited no node
    the other search skips.  When the optimum exceeds L the first pass
    records nothing, and the second visits the subtrees set aside in the
    other search's order and under the same incumbents, so the two passes
    together visit exactly its nodes.  (On float weights, again up to
    rounding.)  ``nodes_explored`` and the node
    budget count both passes.  The trail holds the cheaper seed at node 0
    and then what the passes record, node counts running on across both;
    a search that meets L records only the clustering priced L, not the
    costlier incumbents the search without L would pass on its way.

    ``root_lower_bound``, and the lower bound that BudgetExceededError
    carries, is the larger of ``lower_bound`` and the packing bound of the
    whole graph.  Graphs above ``DEFAULT_CC_NODE_CAP`` nodes are refused
    with CapacityError before any search, and a search past
    ``DEFAULT_CC_NODE_BUDGET`` nodes raises BudgetExceededError; both
    constants are read at call time.
    """
    _check_cc_node_cap(g.n)
    node_budget = DEFAULT_CC_NODE_BUDGET
    if g.n == 0:
        return ExactResult(0, Clustering((), 0), 0, 0, ((0, 0),))
    n = g.n
    cols = g.edge_columns()
    weights = cols.weight.tolist()
    exact = g.is_exact()
    num, den = g.weight_numerators() if exact else (None, 1)
    search = num.tolist() if exact else weights
    # gain[j] and shift[j] list, for each node u > j in turn, what placing
    # j in a cluster adds to u's positive weight towards placed nodes and
    # to u's pull (negative minus positive weight) towards that cluster
    gain = [[0] * (n - 1 - j) for j in range(n)]
    shift = [[0] * (n - 1 - j) for j in range(n)]
    for u, v, positive, w in zip(cols.u.tolist(), cols.v.tolist(),
                                 cols.positive.tolist(), search):
        if positive:
            gain[u][v - u - 1] = w
            shift[u][v - u - 1] = -w
        else:
            shift[u][v - u - 1] = w
    tail = _tail_packing(g, search)
    # the reported bound keeps the weights' kind, the search's on floats and ints
    ints = not exact or set(map(type, weights)) <= {int}
    low = tail[0] if ints else _tail_packing(g, weights)[0]
    root_bound = low if lower_bound is None else max(lower_bound, low)
    singletons = Clustering.from_labels(list(range(n)))
    one_cluster = Clustering.from_labels([0] * n)
    # cc_cost of the seeds: every positive edge crosses singletons and
    # every negative edge lies inside one cluster
    seeds = [(total(cols.weight[cols.positive]), singletons),
             (total(cols.weight[~cols.positive]), one_cluster)]
    best, witness = min(seeds, key=lambda s: s[0])
    # the search prunes a choice whose bound reaches ``limit``, the
    # incumbent's cost in ``search``, and sets aside one whose bound
    # reaches ``cut``: ``limit`` itself, or just above ``lower_bound``
    # while the incumbent costs more
    limit = cut = floor_scaled(best, den) if exact else best
    trail = [(0, best)]
    labels = [0] * n
    nodes = 0
    done = best == lower_bound
    if lower_bound is not None and not done:
        # float sums in search order may exceed a clustering's edge-order
        # price by rounding; the slack keeps one priced at the bound
        cut = min(limit, floor_scaled(lower_bound, den) + 1 if exact
                  else lower_bound + g.m * math.ulp(total(weights)))
    later = []

    def assign(i: int, cost, pos: list, pull: list):
        # pos[u - i]: node u's positive weight towards the placed nodes;
        # pull[c][u - i]: its negative minus positive weight towards
        # cluster c, so u joins c at pos[u - i] + pull[c][u - i].  The last
        # row is zero: it stands for a fresh cluster.
        nonlocal nodes, best, limit, cut, witness, done
        if done:
            return
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(
                f"clustering search exceeded {node_budget} nodes", (root_bound, best))
        if i == n:
            # the search adds ``cost`` in its own order; the incumbent is
            # priced in edge-id order, as cc_cost adds it, so float weights
            # give its cost to the last bit (exact weights give ``cost``)
            price = disagreement_cost(cols, labels)
            if price < best:
                best = price
                limit = floor_scaled(price, den) if exact else price
                cut = min(cut, limit)
                witness = Clustering.from_labels(labels)
                trail.append((nodes, price))
                if lower_bound is not None and price == lower_bound:
                    done = True
            return
        branch(i, cost, pos, pull, range(len(pull)))

    def branch(i: int, cost, pos: list, pull: list, choices) -> None:
        # place node i in each cluster c of ``choices``
        own = pos[0]
        next_pos = [p + q for p, q in zip(pos[1:], gain[i])]
        kept = [row[1:] for row in pull]
        fresh = len(pull) - 1
        # each later node joins its cheapest cluster, and the pairs among
        # the later nodes are the packing's; ``floor`` leaves out the
        # pairs (i, u), so it is one test for every choice of c
        floor = total(map(add, pos[1:], map(min, *kept))) + tail[i + 1]
        for c in choices:
            new_cost = cost + (own + pull[c][0])
            bound = new_cost + floor
            if bound < cut:
                rows = kept.copy()
                rows[c] = [p + q for p, q in zip(kept[c], shift[i])]
                if c == fresh:
                    rows.append([0] * (n - 1 - i))
                rest = total(map(add, next_pos, map(min, *rows))) + tail[i + 1]
                bound = new_cost + rest
                if bound < cut:
                    labels[i] = c
                    assign(i + 1, new_cost, next_pos, rows)
                    continue
            if bound < limit:
                later.append((labels[:i], i, cost, pos, pull, c))
        labels[i] = 0

    # node 0 opens cluster 0
    assign(1, 0, gain[0], [shift[0], [0] * (n - 1)])
    # the choices set aside, in search order, against the incumbent alone
    cut = limit
    for prefix, i, cost, pos, pull, c in later:
        if done:
            break
        labels[:i] = prefix
        branch(i, cost, pos, pull, (c,))
    if cc_cost(g, witness) != best:
        raise VerificationError("clustering search returned an invalid witness")
    return ExactResult(best, witness, nodes, root_bound, tuple(trail))


# -- cover-versus-clustering survey -----------------------------------------


def _survey_one(index: int, seed: int, g: SignedGraph) -> dict:
    """One survey row for instance ``index``, built from ``seed``."""
    start = time.perf_counter()
    row: dict = {"instance": index, "seed": seed, "n": g.n}
    try:
        _check_cc_node_cap(g.n)
        btt = exact_btt(g)
        cc = exact_cc(g, lower_bound=btt.value)
        error = None
        if btt.value == 0:
            # both optima vanish together on complete graphs; a positive
            # clustering optimum over an empty cover can only happen on
            # non-complete instances (bad cycles without bad triangles)
            ratio = Fraction(1) if cc.value == 0 else None
            if ratio is None:
                error = "ratio undefined: cover optimum 0, clustering optimum > 0"
        else:
            ratio = Fraction(cc.value) / Fraction(btt.value)
        row.update(opt_cover=btt.value, opt_clustering=cc.value,
                   ratio=ratio, error=error)
    except CapacityError as exc:
        row.update(opt_cover=None, opt_clustering=None, ratio=None,
                   error=str(exc))
    row["runtime_s"] = time.perf_counter() - start
    return row


def ratio_survey(make_instance, count: int, seed: int) -> dict:
    """Compare minimum cover and minimum clustering costs over a seeded
    instance suite.

    ``make_instance(instance_seed)`` builds one signed graph.  Each row
    records both optima and their ratio (0/0 counts as 1).  Ratios outside
    [1, 3/2] are collected as violations; ratios strictly above 1 are
    flagged as equality counterexample candidates, each with its edge
    list.  The searches run with their default budgets; an instance that
    exceeds one is recorded as that row's error and the survey continues.
    """
    seeds = spawn_seeds(seed, count)
    graphs = [make_instance(s) for s in seeds]
    rows = [_survey_one(i, s, g) for i, (s, g) in enumerate(zip(seeds, graphs))]
    violations = []
    candidates = []
    for row, g in zip(rows, graphs):
        ratio = row["ratio"]
        if ratio is None:
            continue
        if not (1 <= ratio <= Fraction(3, 2)):
            violations.append(row["instance"])
        if ratio > 1:
            candidate = dict(row)
            candidate["edge_list"] = format_edge_list(g)
            candidates.append(candidate)
    return {
        "count": count,
        "seed": seed,
        "rows": rows,
        "violations": violations,
        "equality_counterexample_candidates": candidates,
    }


SURVEY_CSV_HEADER = "instance,seed,n,opt_cover,opt_clustering,ratio,runtime_s"


def survey_rows_to_csv(rows: list[dict]) -> str:
    lines = [SURVEY_CSV_HEADER]
    for row in rows:
        ratio = row["ratio"]
        lines.append(",".join([
            str(row["instance"]), str(row["seed"]), str(row["n"]),
            "" if row["opt_cover"] is None else str(row["opt_cover"]),
            "" if row["opt_clustering"] is None else str(row["opt_clustering"]),
            "" if ratio is None else str(float(ratio)),
            f"{row['runtime_s']:.6f}",
        ]))
    return "\n".join(lines) + "\n"

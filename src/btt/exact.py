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
its triangles, so the bound and the branching choice are integer
operations.  The incumbent starts as the cheaper of two covers: the edges
of the index-order root packing, which is maximal and so covers every
triangle, and a greedy cover by uncovered triangles per unit weight.

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
the witness and the trail values are those of the search without the
bound; only the node counts fall.

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
from operator import add

from .errors import (BudgetExceededError, CapacityError, InputError,
                     VerificationError)
from .graphs import (Clustering, EdgeCover, SignedGraph, cc_cost,
                     disagreement_cost, format_edge_list, is_feasible_cover,
                     total)
from .rng import spawn_seeds

DEFAULT_BTT_TRIANGLE_BUDGET = 5000
#: The cover search's default node budget is this over the bad-triangle
#: count T: a node's cost grows with T, as ``pack`` walks the uncovered
#: triangles, so the budget bounds time (5-15 s of CPU at T = 334-4,750).
BTT_NODE_WORK = 50_000_000
#: Largest graph the clustering search takes: its worst measured run took
#: 0.68 s at 15 nodes and 7.5 s at 16.
DEFAULT_CC_NODE_CAP = 15
DEFAULT_CC_NODE_BUDGET = 50_000_000
#: Deepest branching the recursive cover search takes before it raises
#: CapacityError; kept well below CPython's default recursion limit (1000)
#: so that the caller's own frames still fit.
MAX_BTT_DEPTH = 800


@dataclass(frozen=True)
class ExactResult:
    """An exact optimum with its witness and a summary of the search.

    ``trail`` records incumbent improvements as (nodes_explored, value)
    pairs; together with ``root_lower_bound`` it documents why the final
    value is optimal.  ``optima`` is populated only by enumeration runs.
    """

    value: object
    witness: object
    nodes_explored: int
    root_lower_bound: object
    trail: tuple
    optima: tuple | None = None
    optima_truncated: bool = False


def _greedy_cover(rows: list, weights: list) -> list[int]:
    """A cover drawn from the edges in ``rows`` (each triangle's allowed
    edge ids), in sorted id order.

    It takes the edge with the most uncovered triangles per unit weight
    (zero weight first, ties: lowest id) until every triangle is covered,
    then drops each edge whose triangles all hold another chosen edge,
    heaviest first (ties: lowest id).  Hit counts only fall, so a heap
    entry whose count is stale is pushed back with its current count, and
    one kept count per triangle tells which edges are redundant.
    """
    m = len(weights)
    edge_rows = [[] for _ in range(m)]
    for ti, ids in enumerate(rows):
        for e in ids:
            edge_rows[e].append(ti)
    hits = [len(ts) for ts in edge_rows]

    def entry(e: int) -> tuple:
        w = weights[e]
        return (-hits[e] / w if w else -math.inf), e, hits[e]

    heap = [entry(e) for e in range(m) if hits[e]]
    heapq.heapify(heap)
    covered = bytearray(len(rows))
    chosen = []
    while heap:
        _, e, count = heapq.heappop(heap)
        if count != hits[e]:
            if hits[e]:
                heapq.heappush(heap, entry(e))
            continue
        chosen.append(e)
        for ti in edge_rows[e]:
            if not covered[ti]:
                covered[ti] = 1
                for f in rows[ti]:
                    hits[f] -= 1
    load = [0] * len(rows)
    for e in chosen:
        for ti in edge_rows[e]:
            load[ti] += 1
    cover = set(chosen)
    for e in sorted(sorted(chosen), key=weights.__getitem__, reverse=True):
        if all(load[ti] > 1 for ti in edge_rows[e]):
            cover.discard(e)
            for ti in edge_rows[e]:
                load[ti] -= 1
    return sorted(cover)


def _btt_search(g: SignedGraph, allowed: list[int], *,
                triangle_budget: int | None = None, node_budget: int | None = None,
                enumerate_cap=None, max_optima: int = 10_000) -> ExactResult:
    """Shared branch-and-bound core over bitmasks.

    The search numbers the triangles by how crowded their allowed edges
    are: the key is the sum, over a triangle's allowed edges, of the number
    of triangles each lies in, and ties keep index order.  ``tri_mask[p]``
    holds the allowed edges of the triangle at position p and
    ``edge_tri_mask[e]`` the positions of edge e's triangles; a node is
    (covered triangles, excluded edges).

    The bound is an edge-disjoint packing of the uncovered triangles, each
    packed triangle adding its cheapest open edge.  One walk in position
    order packs each triangle with one open edge as it meets it and sets
    the others aside; those with two open edges are packed next and those
    with three last.  Every cover of the node's subtree takes an open edge
    of each uncovered triangle, a different one for each packed triangle
    since they share no edge, so any packing, in any order, is a lower
    bound.  The order only decides how high it reaches: a triangle with
    one open edge uses up a single edge, and a three-open triangle packed
    early can block two disjoint tighter ones.

    The search picks the uncovered triangle with the fewest open edges
    (ties: lowest open edge, then position) and branches on its busiest
    open edge, the one in the most uncovered triangles (ties: lowest id):
    include it, then exclude it.  When that triangle has one open edge,
    the edge is forced: it is included and no exclude child is made, since
    that child would leave the triangle with no open edge.

    Any open edge of an uncovered triangle splits the covers that extend a
    node into those that contain it and those that do not, and each part is
    exactly one child's covers.  So the choice of edge changes only the
    order and number of nodes, never which covers are reachable: the
    optimum, the completeness of enumeration, the node budget and the
    depth guard mean what they meant under any other open edge.

    ``root_lower_bound``, and the lower bound that BudgetExceededError
    carries, is the bound of the greedy packing in index order.  That
    packing's edges form a feasible cover: the packing is maximal, so every
    triangle left out shares an allowed edge with a packed one.  With every
    edge allowed it is the standard 3-approximation.  Optimisation mode
    (enumerate_cap None) seeds the incumbent with it, and then with
    ``_greedy_cover`` when that is strictly cheaper; the trail records both
    at node 0.  Enumeration mode collects in ``optima`` every irredundant
    feasible cover of cost exactly ``enumerate_cap``, the exact sum of an
    optimal witness's weights.  Each such cover is one leaf, since an
    irredundant cover holds no smaller one; a leaf is listed only when each
    of its edges is the one cover edge of some triangle, which leaves out
    covers that keep a zero-weight edge made redundant by later edges.
    Weights are Fractions there, so the prune does not depend on the order
    edges are added in.  The witness returned is a frozenset of edge ids.
    """
    index = g.bad_triangle_index()
    if triangle_budget is None:
        triangle_budget = DEFAULT_BTT_TRIANGLE_BUDGET
    if len(index) > triangle_budget:
        raise CapacityError(
            f"{len(index)} bad triangles exceed the search budget {triangle_budget}")
    if node_budget is None:
        node_budget = BTT_NODE_WORK // max(len(index), 1)
    allowed_set = frozenset(allowed)
    weights = g.edge_columns().weight.tolist()
    if enumerate_cap is not None:
        weights = [Fraction(w) for w in weights]
    rows = [[e for e in t if e in allowed_set] for t in index.tolist()]
    root_bound = seed = 0
    for ids in rows:
        mask = sum(1 << e for e in ids)
        if not mask & seed:
            seed |= mask
            root_bound += min(weights[e] for e in ids)
    crowding = [0] * g.m
    for ids in rows:
        for e in ids:
            crowding[e] += 1
    rows.sort(key=lambda ids: sum(crowding[e] for e in ids))
    tri_mask, cheapest, edge_tri_mask = [], [], [0] * g.m
    for p, ids in enumerate(rows):
        ids = sorted(ids, key=weights.__getitem__)
        tri_mask.append(sum(1 << e for e in ids))
        cheapest.append(tuple((1 << e, weights[e]) for e in ids))
        for e in ids:
            edge_tri_mask[e] |= 1 << p
    full = (1 << len(rows)) - 1

    def pack(covered: int, excluded: int):
        """(bound, branching edge, forced), or None if a triangle has no
        open edge; one walk over the uncovered triangles in position order,
        then one over the triangles it set aside.

        The chosen triangle is the first with one open edge, or else the
        one with the fewest open edges (ties: lowest open edge, then
        position).  The branching edge is its open edge in the most
        uncovered triangles (ties: lowest id); it is forced when it is the
        only one."""
        bound = used = 0
        keep = ~excluded
        uncovered = remaining = full & ~covered
        # ``below`` masks the edges under the chosen triangle's lowest
        # open edge, so a triangle with as many open edges wins the tie
        # when it has an open edge there
        best_count, best_open, below = 4, 0, 0
        # positions of the triangles with two and with three open edges
        loose = ([], [])
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            p = low.bit_length() - 1
            open_edges = tri_mask[p] & keep
            if not open_edges:
                return None
            count = open_edges.bit_count()
            if count > 1:
                if count < best_count or (count == best_count and open_edges & below):
                    best_count, best_open = count, open_edges
                    below = (open_edges & -open_edges) - 1
                loose[count - 2].append(p)
                continue
            if best_count > 1:
                best_count, best_open = 1, open_edges
            if not open_edges & used:
                used |= open_edges
                bound += weights[open_edges.bit_length() - 1]
        for group in loose:
            for p in group:
                open_edges = tri_mask[p] & keep
                if not open_edges & used:
                    used |= open_edges
                    for bit, w in cheapest[p]:
                        if bit & open_edges:
                            bound += w
                            break
        branch, most = -1, -1
        while best_open:
            e = best_open.bit_length() - 1
            best_open ^= 1 << e
            hits = (edge_tri_mask[e] & uncovered).bit_count()
            if hits >= most:
                branch, most = e, hits
        return bound, branch, best_count == 1

    nodes, truncated, trail, optima, included = 0, False, [], [], []
    best = best_cover = None
    if enumerate_cap is None:
        # Costs are totalled in sorted-id order, so float weights give the
        # witness's cost to the last bit.
        best_cover = [e for e in range(g.m) if seed >> e & 1]
        best = total(weights[e] for e in best_cover)
        trail.append((0, best))
        greedy = _greedy_cover(rows, weights)
        value = total(weights[e] for e in greedy)
        if value < best:
            best, best_cover = value, greedy
            trail.append((0, best))

    def dfs(covered: int, excluded: int, cost, depth: int) -> None:
        nonlocal nodes, best, best_cover, truncated
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(
                f"cover search exceeded its budget of {node_budget} nodes "
                f"for {len(rows)} bad triangles", (root_bound, best))
        if depth > MAX_BTT_DEPTH:
            raise CapacityError(f"cover search deeper than {MAX_BTT_DEPTH} branchings")
        packed = pack(covered, excluded)
        if packed is None:
            return
        bound, branch, forced = packed
        if enumerate_cap is None:
            if cost + bound >= best:
                return
        elif cost + bound > enumerate_cap:
            return
        if covered == full:
            if enumerate_cap is None:
                best_cover = sorted(included)
                best = total(weights[e] for e in best_cover)
                trail.append((nodes, best))
            else:
                seen = twice = 0
                for e in included:
                    twice |= seen & edge_tri_mask[e]
                    seen |= edge_tri_mask[e]
                if all(edge_tri_mask[e] & ~twice for e in included):
                    if len(optima) < max_optima:
                        optima.append(frozenset(included))
                    else:
                        truncated = True
            return
        included.append(branch)
        dfs(covered | edge_tri_mask[branch], excluded, cost + weights[branch], depth + 1)
        included.pop()
        if not forced:
            dfs(covered, excluded | 1 << branch, cost, depth + 1)

    dfs(0, 0, 0, 0)
    if enumerate_cap is not None:
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
    found = _btt_search(
        g, allowed, enumerate_cap=sum(map(Fraction, g.edge_columns().weight[
            sorted(res.witness.edge_ids)].tolist())),
        max_optima=enumerate_optima)
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
    the leaves, the witness, the trail's values and the early exit below
    are those of the search without the bound, and only node counts fall.
    (With float weights this holds up to rounding, as it does for the
    incumbent prune.)

    ``lower_bound`` (for instance a known minimum cover cost) allows early
    exit once matched.  ``root_lower_bound``, and the lower bound that
    BudgetExceededError carries, is the larger of ``lower_bound`` and the
    packing bound of the whole graph.  Graphs above ``DEFAULT_CC_NODE_CAP``
    nodes are refused with CapacityError before any search, and a search
    past ``DEFAULT_CC_NODE_BUDGET`` nodes raises BudgetExceededError; both
    constants are read at call time.
    """
    _check_cc_node_cap(g.n)
    node_budget = DEFAULT_CC_NODE_BUDGET
    if g.n == 0:
        return ExactResult(0, Clustering((), 0), 0, 0, ((0, 0),))
    n = g.n
    cols = g.edge_columns()
    weights = cols.weight.tolist()
    # gain[j] and shift[j] list, for each node u > j in turn, what placing
    # j in a cluster adds to u's positive weight towards placed nodes and
    # to u's pull (negative minus positive weight) towards that cluster
    gain = [[0] * (n - 1 - j) for j in range(n)]
    shift = [[0] * (n - 1 - j) for j in range(n)]
    for u, v, positive, w in zip(cols.u.tolist(), cols.v.tolist(),
                                 cols.positive.tolist(), weights):
        if positive:
            gain[u][v - u - 1] = w
            shift[u][v - u - 1] = -w
        else:
            shift[u][v - u - 1] = w
    tail = _tail_packing(g, weights)
    root_bound = tail[0] if lower_bound is None else max(lower_bound, tail[0])
    singletons = Clustering.from_labels(list(range(n)))
    one_cluster = Clustering.from_labels([0] * n)
    # cc_cost of the seeds: every positive edge crosses singletons and
    # every negative edge lies inside one cluster
    seeds = [(total(cols.weight[cols.positive]), singletons),
             (total(cols.weight[~cols.positive]), one_cluster)]
    best, witness = min(seeds, key=lambda s: s[0])
    trail = [(0, best)]
    labels = [0] * n
    nodes = 0
    done = best == lower_bound

    def assign(i: int, cost, pos: list, pull: list):
        # pos[u - i]: node u's positive weight towards the placed nodes;
        # pull[c][u - i]: its negative minus positive weight towards
        # cluster c, so u joins c at pos[u - i] + pull[c][u - i].  The last
        # row is zero: it stands for a fresh cluster.
        nonlocal nodes, best, witness, done
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
                witness = Clustering.from_labels(labels)
                trail.append((nodes, price))
                if lower_bound is not None and price == lower_bound:
                    done = True
            return
        own = pos[0]
        next_pos = [p + q for p, q in zip(pos[1:], gain[i])]
        kept = [row[1:] for row in pull]
        fresh = len(pull) - 1
        # each later node joins its cheapest cluster, and the pairs among
        # the later nodes are the packing's; ``floor`` leaves out the
        # pairs (i, u), so it is one test for every choice of c
        floor = total(map(add, pos[1:], map(min, *kept))) + tail[i + 1]
        for c, row in enumerate(pull):
            new_cost = cost + (own + row[0])
            if new_cost + floor >= best:
                continue
            rows = kept.copy()
            rows[c] = [p + q for p, q in zip(kept[c], shift[i])]
            if c == fresh:
                rows.append([0] * (n - 1 - i))
            rest = total(map(add, next_pos, map(min, *rows))) + tail[i + 1]
            if new_cost + rest >= best:
                continue
            labels[i] = c
            assign(i + 1, new_cost, next_pos, rows)
        labels[i] = 0

    # node 0 opens cluster 0
    assign(1, 0, gain[0], [shift[0], [0] * (n - 1)])
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

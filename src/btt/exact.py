"""Exact oracles: minimum bad-triangle covers, minimum-disagreement
clusterings, and the cover-versus-clustering ratio survey.

The cover search is a branch-and-bound over edges: pick the uncovered bad
triangle with the fewest open edges, branch on its open edge that lies in
the most uncovered triangles (include it or forbid it; a triangle's last
open edge is forced in), and prune with a greedy edge-disjoint packing
bound.  The triangles are the rows of ``g.bad_triangle_index()``, the
package's one triangle form.  Each triangle is one bitmask of its allowed
edges and each edge one bitmask of its triangles, so the bound and the
branching choice are integer operations.  The incumbent starts as the
edges of the root packing, which is maximal and so covers every triangle;
recursion deeper than ``MAX_BTT_DEPTH`` is refused as a CapacityError.

The clustering search enumerates set partitions as restricted growth
strings with incremental cost and incumbent pruning.  Both are desk-scale
tools; budgets guard against runaway instances and witnesses are
re-validated through the graph evaluators rather than trusted from the
search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import (BudgetExceededError, CapacityError, InputError,
                     VerificationError)
from .graphs import (Clustering, EdgeCover, SignedGraph, cc_cost,
                     disagreement_cost, format_edge_list, is_feasible_cover,
                     total)
from .rng import spawn_seeds

DEFAULT_BTT_TRIANGLE_BUDGET = 5000
DEFAULT_BTT_NODE_BUDGET = 5_000_000
DEFAULT_CC_NODE_CAP = 12
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


def _btt_search(g: SignedGraph, allowed: list[int], *,
                triangle_budget: int, node_budget: int,
                enumerate_cap=None, max_optima: int = 10_000) -> ExactResult:
    """Shared branch-and-bound core over bitmasks.

    ``tri_mask[ti]`` holds triangle ti's allowed edges and
    ``edge_tri_mask[e]`` edge e's triangles; a node is (covered triangles,
    excluded edges).  The bound packs uncovered triangles greedily in index
    order and adds each packed one's cheapest open edge.  The search picks
    the uncovered triangle with the fewest open edges (ties: lowest open
    edge, then index) and branches on its busiest open edge, the one in
    the most uncovered triangles (ties: lowest id): include it, then
    exclude it.  When that triangle has one open edge, the edge is forced:
    it is included and no exclude child is made, since that child would
    leave the triangle with no open edge.

    Any open edge of an uncovered triangle splits the covers that extend a
    node into those that contain it and those that do not, and each part is
    exactly one child's covers.  So the choice of edge changes only the
    order and number of nodes, never which covers are reachable: the
    optimum, the completeness of enumeration, the node budget and the
    depth guard mean what they meant under any other open edge.

    Optimisation mode (enumerate_cap None) seeds the incumbent with the
    root packing's edges, a feasible cover: the packing is maximal, so
    every triangle left out shares an allowed edge with a packed one.  With
    every edge allowed that is the standard 3-approximation.  Enumeration
    mode collects in ``optima`` every feasible cover of cost exactly
    ``enumerate_cap``, the exact sum of an optimal witness's weights;
    weights are Fractions there, so the prune does not depend on the order
    edges are added in.  The witness returned is a frozenset of edge ids.
    """
    index = g.bad_triangle_index()
    if len(index) > triangle_budget:
        raise CapacityError(
            f"{len(index)} bad triangles exceed the search budget {triangle_budget}")
    allowed_set = frozenset(allowed)
    weights = g.edge_columns().weight.tolist()
    if enumerate_cap is not None:
        weights = [Fraction(w) for w in weights]
    tri_mask, cheapest, edge_tri_mask = [], [], [0] * g.m
    for ti, t in enumerate(index.tolist()):
        ids = sorted((e for e in t if e in allowed_set), key=weights.__getitem__)
        tri_mask.append(sum(1 << e for e in ids))
        cheapest.append(tuple((1 << e, weights[e]) for e in ids))
        for e in ids:
            edge_tri_mask[e] |= 1 << ti
    full = (1 << len(index)) - 1

    def pack(covered: int, excluded: int):
        """(bound, packed edges, branching edge, forced), or None if a
        triangle has no open edge; one walk over the uncovered triangles in
        index order.

        The chosen triangle is the first with one open edge, or else the
        one with the fewest open edges (ties: lowest open edge, then
        index).  The branching edge is its open edge in the most uncovered
        triangles (ties: lowest id); it is forced when it is the only one."""
        bound = 0
        used = 0
        keep = ~excluded
        uncovered = remaining = full & ~covered
        best_count, best_bit, best_open = 4, 0, 0
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            ti = low.bit_length() - 1
            open_edges = tri_mask[ti] & keep
            if not open_edges:
                return None
            if best_count > 1:
                count = open_edges.bit_count()
                lowest = open_edges & -open_edges
                if count < best_count or (count == best_count and lowest < best_bit):
                    best_count, best_bit, best_open = count, lowest, open_edges
            if not open_edges & used:
                used |= open_edges
                for bit, w in cheapest[ti]:
                    if bit & keep:
                        bound += w
                        break
        branch, most = -1, -1
        while best_open:
            e = best_open.bit_length() - 1
            best_open ^= 1 << e
            hits = (edge_tri_mask[e] & uncovered).bit_count()
            if hits >= most:
                branch, most = e, hits
        return bound, used, branch, best_count == 1

    root_bound, seed, _, _ = pack(0, 0)
    nodes, truncated, trail, optima, included = 0, False, [], [], []
    best = best_cover = None
    if enumerate_cap is None:
        # Costs are totalled in sorted-id order, so float weights give the
        # witness's cost to the last bit.
        best_cover = [e for e in range(g.m) if seed >> e & 1]
        best = total(weights[e] for e in best_cover)
        trail.append((0, best))

    def dfs(covered: int, excluded: int, cost, depth: int) -> None:
        nonlocal nodes, best, best_cover, truncated
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(
                f"cover search exceeded {node_budget} nodes", (root_bound, best))
        if depth > MAX_BTT_DEPTH:
            raise CapacityError(f"cover search deeper than {MAX_BTT_DEPTH} branchings")
        packed = pack(covered, excluded)
        if packed is None:
            return
        bound, _, branch, forced = packed
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
            elif len(optima) < max_optima:
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


def _min_cover(g: SignedGraph, allowed: list[int], search: str, *,
               triangle_budget: int, node_budget: int) -> ExactResult:
    """Minimum cover drawn from ``allowed``, its witness re-validated."""
    if min(triangle_budget, node_budget) < 0:
        raise InputError(f"search budgets must be nonnegative: triangle budget "
                         f"{triangle_budget}, node budget {node_budget}")
    if not len(g.bad_triangle_index()):
        return ExactResult(0, EdgeCover(frozenset(), 0), 0, 0, ((0, 0),))
    res = _btt_search(
        g, allowed, triangle_budget=triangle_budget, node_budget=node_budget)
    cover = EdgeCover.from_ids(g, res.witness)
    if not is_feasible_cover(g, cover) or cover.cost != res.value:
        raise VerificationError(f"{search} returned an invalid witness")
    return replace(res, witness=cover)


def exact_btt(g: SignedGraph, *,
              triangle_budget: int = DEFAULT_BTT_TRIANGLE_BUDGET,
              node_budget: int = DEFAULT_BTT_NODE_BUDGET) -> ExactResult:
    """Minimum-weight feasible bad-triangle cover, branch-and-bound.

    Raises CapacityError when the triangle count exceeds the budget and
    BudgetExceededError (with best bounds) when the node budget runs out.
    """
    return _min_cover(g, list(range(g.m)), "cover search",
                      triangle_budget=triangle_budget, node_budget=node_budget)


def exact_btt_positive_only(g: SignedGraph, *,
                            triangle_budget: int = DEFAULT_BTT_TRIANGLE_BUDGET,
                            node_budget: int = DEFAULT_BTT_NODE_BUDGET,
                            enumerate_optima: int | None = None) -> ExactResult:
    """Minimum cover drawn from positive edges only.

    Always feasible: every bad triangle has two positive edges.  With
    ``enumerate_optima`` set, a second pass collects all optimal covers up
    to that count cap (exact search, so the list is complete unless the
    ``optima_truncated`` flag is set).
    """
    allowed = g.positive_edge_ids()
    res = _min_cover(g, allowed, "positive-only search",
                     triangle_budget=triangle_budget, node_budget=node_budget)
    if enumerate_optima is None:
        return res
    found = _btt_search(
        g, allowed, triangle_budget=triangle_budget, node_budget=node_budget,
        enumerate_cap=sum(map(Fraction, g.edge_columns().weight[
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


def exact_cc(g: SignedGraph, *,
             node_budget: int = DEFAULT_CC_NODE_BUDGET,
             lower_bound=None) -> ExactResult:
    """Minimum-disagreement clustering by restricted-growth enumeration.

    Assigns nodes in id order to an existing cluster or a fresh one,
    carrying the cost of finalised pairs and pruning on the incumbent.
    ``lower_bound`` (for instance a known minimum cover cost) allows early
    exit once matched.  Graphs above ``DEFAULT_CC_NODE_CAP`` nodes are
    refused with CapacityError before any search; a negative
    ``node_budget`` is an InputError.
    """
    if node_budget < 0:
        raise InputError(
            f"clustering node budget must be nonnegative, got {node_budget}")
    _check_cc_node_cap(g.n)
    if g.n == 0:
        return ExactResult(0, Clustering((), 0), 0, 0, ((0, 0),))
    # Adjacency of finalised pairs: for node i, its weighted signed edges
    # to nodes j < i.
    cols = g.edge_columns()
    back_edges: list[list[tuple[int, bool, object]]] = [[] for _ in range(g.n)]
    for u, v, positive, w in zip(*(c.tolist() for c in cols)):
        back_edges[v].append((u, positive, w))
    singletons = Clustering.from_labels(list(range(g.n)))
    one_cluster = Clustering.from_labels([0] * g.n)
    # cc_cost of the seeds: every positive edge crosses singletons and
    # every negative edge lies inside one cluster
    seeds = [(total(cols.weight[cols.positive]), singletons),
             (total(cols.weight[~cols.positive]), one_cluster)]
    best, witness = min(seeds, key=lambda s: s[0])
    trail = [(0, best)]
    labels = [0] * g.n
    nodes = 0
    done = best == lower_bound

    def assign(i: int, k: int, cost):
        nonlocal nodes, best, witness, done
        if done:
            return
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(
                f"clustering search exceeded {node_budget} nodes",
                (lower_bound if lower_bound is not None else 0, best))
        if i == g.n:
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
        # cost of putting node i into cluster c: negative edges inside,
        # positive edges towards every other existing cluster
        pos_to = [0] * (k + 1)
        neg_to = [0] * (k + 1)
        pos_total = 0
        for j, positive, w in back_edges[i]:
            c = labels[j]
            if positive:
                pos_to[c] += w
                pos_total += w
            else:
                neg_to[c] += w
        for c in range(k + 1):
            added = (pos_total - pos_to[c]) + neg_to[c]
            new_cost = cost + added
            if new_cost >= best:
                continue
            labels[i] = c
            assign(i + 1, max(k, c + 1), new_cost)
        labels[i] = 0

    labels[0] = 0
    assign(1, 1, 0)
    if cc_cost(g, witness) != best:
        raise VerificationError("clustering search returned an invalid witness")
    return ExactResult(best, witness, nodes,
                       lower_bound if lower_bound is not None else 0,
                       tuple(trail))


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

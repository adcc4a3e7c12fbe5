"""Shared independent oracles and instance suites.

Every oracle here deliberately avoids the code path it checks: triangle
enumeration by scanning all node triples, minimum covers by subset
enumeration and by the branch-and-bound that ``exact_btt`` ran before it
reordered its packing bound and seeded a greedy incumbent, that greedy
cover by the per-edge triangle lists it kept before it read the search's
bitmasks, minimum
clusterings by unpruned partition recursion and by the restricted-growth
search that ``exact_cc`` ran before it bounded the unpriced pairs, LP values through scipy, vertex covers by subset search,
graph construction and edge-list parsing by the per-edge and per-line
loops that ``SignedGraph`` and ``parse_edge_list`` ran before they read
columns.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from btt import Clustering, SignedGraph, cc_cost, gen_random, lp
from btt.errors import (BudgetExceededError, CapacityError, InputError,
                        VerificationError)
from btt.exact import (DEFAULT_BTT_TRIANGLE_BUDGET, DEFAULT_CC_NODE_BUDGET,
                       MAX_BTT_DEPTH, ExactResult, _check_cc_node_cap)
from btt.graphs import (MAX_NODES, MAX_WEIGHT_DIGITS, NEGATIVE, POSITIVE, Edge,
                        _parse_weight, disagreement_cost, total)
from btt.rng import spawn_seeds


def brute_force_bad_triples(g: SignedGraph) -> list[tuple[int, int, int]]:
    """All bad triangles by scanning every node triple a < b < c, as
    edge-id triples (ab, ac, bc)."""
    out = []
    for a, b, c in combinations(range(g.n), 3):
        ids = (g.edge_id(a, b), g.edge_id(a, c), g.edge_id(b, c))
        if None in ids:
            continue
        if sum(1 for eid in ids if g.edges[eid].sign != POSITIVE) == 1:
            out.append(ids)
    return out


def reference_edges(n: int, edges, complete: bool = False) -> tuple[Edge, ...]:
    """The ``Edge`` tuples ``SignedGraph(n, edges, complete)`` held when its
    constructor checked and built one edge at a time, keeping each field
    as given; raises what that loop raised, naming the first faulty edge."""
    if n < 0:
        raise InputError(f"node count must be nonnegative, got {n}")
    if n > MAX_NODES:
        raise CapacityError(f"graphs are capped at {MAX_NODES} nodes (asked {n})")
    canonical = []
    seen = set()
    denominators = set()
    for item in edges:
        if len(item) == 3:
            u, v, sign = item
            weight = 1
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
        if (u, v) in seen:
            raise InputError(f"duplicate edge {(u, v)}")
        seen.add((u, v))
        canonical.append(Edge(u, v, sign, weight))
    common = 1
    for d in denominators:
        common = math.lcm(common, d)
        if common >= 10 ** MAX_WEIGHT_DIGITS:
            raise InputError(f"the weights' common denominator exceeds "
                             f"{MAX_WEIGHT_DIGITS} digits")
    if complete and len(canonical) != n * (n - 1) // 2:
        raise InputError(
            f"complete graph on {n} nodes needs {n * (n - 1) // 2} edges, "
            f"got {len(canonical)}")
    return tuple(canonical)


def reference_parse(text: str) -> tuple[int, tuple[Edge, ...], bool]:
    """``(n, edges, complete)`` of an edge-list text read one line at a
    time, the edges built by ``reference_edges``; raises what that reading
    raised, naming the first faulty line."""
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
    return n, reference_edges(n, tuples, complete), complete


def index_rows(g: SignedGraph) -> list[tuple[int, int, int]]:
    """The rows of ``g.bad_triangle_index()`` as edge-id triples."""
    return [tuple(t) for t in g.bad_triangle_index().tolist()]


def triangle_nodes(g: SignedGraph, t: tuple[int, int, int]) -> tuple[int, int, int]:
    """Nodes a < b < c of the edge-id triple ``t = (ab, ac, bc)``."""
    ab, ac, _ = t
    return g.edges[ab].u, g.edges[ab].v, g.edges[ac].v


def reference_cc_cost(g: SignedGraph, clustering: Clustering):
    """Disagreement weight by the edge loop ``cc_cost`` ran before its
    numpy path: added in edge-id order, starting from int 0."""
    labels = clustering.labels
    total = 0
    for e in g.edges:
        same = labels[e.u] == labels[e.v]
        if (e.sign == POSITIVE and not same) or (e.sign == NEGATIVE and same):
            total += e.weight
    return total


def brute_force_min_cover(g: SignedGraph):
    """Minimum-weight cover by enumerating edge subsets (tiny m only)."""
    tris = g.bad_triangle_index().tolist()
    if not tris:
        return 0
    unit = all(e.weight == 1 for e in g.edges)
    best = None
    for k in range(g.m + 1):
        for ids in combinations(range(g.m), k):
            chosen = set(ids)
            if all(any(e in chosen for e in t) for t in tris):
                cost = sum(g.edges[i].weight for i in ids)
                if best is None or cost < best:
                    best = cost
        if best is not None and unit:
            return best
    return best


def reference_greedy_cover(rows: list, weights: list) -> list[int]:
    """The greedy cover that seeds the cover search, as it ran on per-edge
    triangle lists: a cover drawn from the edges in ``rows`` (each
    triangle's allowed edge ids), in sorted id order.

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


def reference_btt_search(g: SignedGraph, allowed: list[int], *,
                         triangle_budget: int = DEFAULT_BTT_TRIANGLE_BUDGET,
                         node_budget: int = 5_000_000,
                         enumerate_cap=None, max_optima: int = 10_000) -> ExactResult:
    """The cover search behind ``exact_btt`` as it ran before it packed the
    tightest triangles first and seeded the incumbent with a greedy cover:
    the bound packs the uncovered triangles in index order, and the
    incumbent starts as the root packing's edges.  It branches on the
    busiest open edge of the triangle with the fewest open edges, as the
    search does now, so the two reach the same covers and the same
    optimum value; the witness, the trail and the node counts may
    differ."""
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


def brute_force_min_cc(g: SignedGraph):
    """Minimum disagreements by unpruned partition recursion (n <= 8)."""
    best = [None]
    labels = [0] * g.n

    def rec(i: int, k: int):
        if i == g.n:
            cost = cc_cost(g, Clustering.from_labels(labels))
            if best[0] is None or cost < best[0]:
                best[0] = cost
            return
        for c in range(k + 1):
            labels[i] = c
            rec(i + 1, max(k, c + 1))

    if g.n == 0:
        return 0
    rec(0, 0)
    return best[0]


def reference_exact_cc(g: SignedGraph, *,
                       node_budget: int = DEFAULT_CC_NODE_BUDGET,
                       lower_bound=None) -> ExactResult:
    """``exact_cc`` as it ran before it bounded the pairs not yet priced:
    restricted-growth enumeration in node-id order that prunes on the
    incumbent alone.  It visits every leaf the bounded search visits, in
    the same order, so the two give the same value, witness and trail
    values (the node counts differ)."""
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


def expected_rounding_cost(g: SignedGraph, x: lp.FractionalCover):
    """Exact expectation of the randomized-rounding cover cost: each
    negative edge is taken with probability x_e and each positive one with
    min(1, 2 x_e)."""
    x = x.clamped(g)
    cols = g.edge_columns()
    return total(w * (min(1, 2 * v) if positive else v) for w, positive, v
                 in zip(cols.weight.tolist(), cols.positive.tolist(), x.values))


def brute_force_vertex_cover(n: int, edges: list[tuple[int, int]]) -> int:
    """Minimum vertex cover size by subset enumeration."""
    if not edges:
        return 0
    for k in range(n + 1):
        for chosen in combinations(range(n), k):
            s = set(chosen)
            if all(u in s or v in s for u, v in edges):
                return k
    raise AssertionError("unreachable")


def brute_force_max_packing(g: SignedGraph) -> int:
    """Maximum edge-disjoint bad-triangle packing by subset enumeration."""
    tris = g.bad_triangle_index().tolist()
    best = 0
    for k in range(len(tris), 0, -1):
        if k <= best:
            break
        for subset in combinations(tris, k):
            used = set()
            ok = True
            for t in subset:
                if any(e in used for e in t):
                    ok = False
                    break
                used.update(t)
            if ok:
                best = max(best, k)
                break
    return best


def scipy_cover_lp_value(g: SignedGraph) -> float:
    """Cover LP optimum via an independent dense float solver."""
    from scipy.optimize import linprog

    tris = g.bad_triangle_index().tolist()
    if not tris:
        return 0.0
    rows = np.zeros((len(tris), g.m))
    for r, t in enumerate(tris):
        for e in t:
            rows[r, e] = 1.0
    cost = np.array([float(e.weight) for e in g.edges])
    res = linprog(cost, A_ub=-rows, b_ub=-np.ones(len(tris)),
                  bounds=(0, None), method="highs")
    assert res.status == 0
    return float(res.fun)


def mixed_instance(index: int, seed: int) -> SignedGraph:
    """Instance suite cycling sparse/complete/weighted shapes, n in 4..9."""
    n = 4 + index % 6
    kind = index % 4
    if kind == 0:
        return gen_random(n, positive_prob=0.5, complete=True, seed=seed)
    if kind == 1:
        return gen_random(n, positive_prob=0.6, complete=False, density=0.7,
                          seed=seed)
    if kind == 2:
        return gen_random(n, positive_prob=0.5, complete=True,
                          weights=("rational", 4, 3), seed=seed)
    return gen_random(n, positive_prob=0.4, complete=False, density=0.8,
                      weights=("rational", 3, 2), seed=seed)


def instance_suite(count: int, seed: int) -> list[SignedGraph]:
    return [mixed_instance(i, s) for i, s in enumerate(spawn_seeds(seed, count))]


def patch_simplex_run(monkeypatch, kind, run):
    """Route each run of the simplex behind ``solve_exact`` whose weights
    are of number kind ``kind`` (float or Fraction) to
    ``run(simplex, triangles, weights)``, where ``simplex`` is the function
    replaced; runs of the other kind pass through.  ``run`` returns what
    the simplex does: ``((x, y, value), pivots)``, or ``(None, pivots)``
    when it finds no optimum."""
    simplex = lp._packing_simplex

    def routed(triangles, weights):
        if isinstance(weights[0], kind):
            return run(simplex, triangles, weights)
        return simplex(triangles, weights)

    monkeypatch.setattr(lp, "_packing_simplex", routed)


def patch_fraction_simplex(monkeypatch, *, offset=0):
    """Wrap the Fraction run of the simplex behind ``solve_exact`` so that
    each run is recorded and ``offset`` is added to the value it reports;
    returns the list of runs."""
    runs = []

    def counted(simplex, *args):
        runs.append(args)
        (x, y, value), pivots = simplex(*args)
        return (x, y, value + offset), pivots

    patch_simplex_run(monkeypatch, Fraction, counted)
    return runs


def stall_float_simplex(monkeypatch):
    """Make the float run of the simplex behind ``solve_exact`` find no
    optimum, so every solve takes the Fraction run."""
    patch_simplex_run(monkeypatch, float, lambda *args: (None, 0))

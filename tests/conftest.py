"""Shared independent oracles and instance suites.

Every oracle here deliberately avoids the code path it checks: triangle
enumeration by scanning all node triples, minimum covers by subset
enumeration, minimum clusterings by unpruned partition recursion, LP
values through scipy, vertex covers by subset search.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

from btt import Clustering, SignedGraph, cc_cost, gen_random, lp
from btt.graphs import NEGATIVE, POSITIVE
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
    replaced; runs of the other kind pass through."""
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
        x, y, value = simplex(*args)
        return x, y, value + offset

    patch_simplex_run(monkeypatch, Fraction, counted)
    return runs


def stall_float_simplex(monkeypatch):
    """Make the float run of the simplex behind ``solve_exact`` find no
    optimum, so every solve takes the Fraction run."""
    patch_simplex_run(monkeypatch, float, lambda *args: None)

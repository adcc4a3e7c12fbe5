"""Output checks that do not trust the library, run after the timed region.

Each check re-reads the instance text with its own parser, finds the bad
triangles by scanning every node triple, and tests the recorded outputs
against that: cover feasibility and cost, LP values against
``scipy.optimize.linprog``, MWU bounds against the same LP value,
disagreement counts recounted from the clustering, survey ratios inside
[1, 3/2].  A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

#: Relative slack for comparisons involving floating-point values.
REL_TOL = 1e-9


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(a, b) -> bool:
    a, b = float(a), float(b)
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


class Graph:
    """The instance as the check sees it: edges in file order (= edge ids)."""

    def __init__(self, text: str):
        self.n = 0
        edges = []
        for raw in text.splitlines():
            fields = raw.split("#", 1)[0].split()
            if not fields:
                continue
            if fields[0] == "n":
                self.n = int(fields[1])
                continue
            u, v = sorted((int(fields[0]), int(fields[1])))
            sign = -1 if fields[2] == "-1" else 1
            weight = Fraction(fields[3]) if len(fields) == 4 else Fraction(1)
            edges.append((u, v, sign, weight))
        self.edges = edges
        self.u = np.array([e[0] for e in edges], dtype=np.int64)
        self.v = np.array([e[1] for e in edges], dtype=np.int64)
        self.sign = np.array([e[2] for e in edges], dtype=np.int8)
        self.weight = np.array([float(e[3]) for e in edges])
        self._triangles = None

    def pair_matrix(self, values, dtype=float) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=dtype)
        out[self.u, self.v] = values
        out[self.v, self.u] = values
        return out

    def bad_triangles(self) -> np.ndarray:
        """Every triple i < j < k with all three pairs present and exactly
        one negative, as rows of edge ids (ij, ik, jk)."""
        if self._triangles is None:
            signs = self.pair_matrix(self.sign, np.int8)
            ids = self.pair_matrix(np.arange(len(self.edges)), np.int64)
            rows = []
            for i in range(self.n - 2):
                a = signs[i, i + 1:]
                block = signs[i + 1:, i + 1:]
                present = (a != 0)[:, None] & (a != 0)[None, :] & (block != 0)
                negatives = ((a < 0)[:, None].astype(np.int8) + (a < 0)[None, :]
                             + (block < 0))
                j, k = np.nonzero(np.triu(present & (negatives == 1), 1))
                j += i + 1
                k += i + 1
                rows.append(np.column_stack([ids[i, j], ids[i, k], ids[j, k]]))
            self._triangles = (np.concatenate(rows) if rows
                               else np.zeros((0, 3), dtype=np.int64))
        return self._triangles

    def cover_cost(self, ids):
        return sum((self.edges[i][3] for i in ids), Fraction(0))

    def disagreements(self, labels):
        labels = np.asarray(labels)
        same = labels[self.u] == labels[self.v]
        wrong = np.flatnonzero(((self.sign > 0) & ~same) | ((self.sign < 0) & same))
        return wrong

    def lp_value(self) -> float:
        """Optimum of min w.x s.t. x >= 0 and every bad triangle sums to >= 1."""
        from scipy.optimize import linprog
        from scipy.sparse import csr_matrix

        tris = self.bad_triangles()
        if len(tris) == 0:
            return 0.0
        rows = np.repeat(np.arange(len(tris)), 3)
        a = csr_matrix((-np.ones(rows.size), (rows, tris.ravel())),
                       shape=(len(tris), len(self.edges)))
        res = linprog(self.weight, A_ub=a, b_ub=-np.ones(len(tris)),
                      bounds=(0, None), method="highs-ds",
                      options={"primal_feasibility_tolerance": 1e-10,
                               "dual_feasibility_tolerance": 1e-10})
        require(res.status == 0, f"scipy linprog failed: {res.message}")
        return float(res.fun)


def check_cover(graph: Graph, cover: dict, name: str) -> None:
    ids = cover["ids"]
    chosen = np.zeros(len(graph.edges), dtype=bool)
    chosen[ids] = True
    tris = graph.bad_triangles()
    uncovered = int((~chosen[tris].any(axis=1)).sum())
    require(uncovered == 0, f"{name} cover misses {uncovered} bad triangles")
    cost = graph.cover_cost(ids)
    require(cost == cover["cost"] or _close(cost, cover["cost"]),
            f"{name} cover cost {cover['cost']} != recomputed {cost}")


def check_disagreements(graph: Graph, labels, reported, exact: bool) -> None:
    require(len(labels) == graph.n, "clustering does not label every node")
    wrong = graph.disagreements(labels)
    if exact:
        recount = sum((graph.edges[i][3] for i in wrong), Fraction(0))
        require(recount == reported,
                f"pivot reported {reported} disagreements, recount {recount}")
    else:
        recount = float(graph.weight[wrong].sum())
        require(_close(recount, reported),
                f"pivot reported {reported} disagreements, recount {recount}")


def check_encoded(encoded: str) -> dict:
    payload = json.loads(encoded)
    require(payload.get("schema") == "btt.result/1", "encoded result has no schema")
    return payload


def check_exact_lp(text: str, rec: dict) -> None:
    graph = Graph(text)
    reference = graph.lp_value()
    value = rec["lp_value"]
    require(_close(value, reference),
            f"solve_exact value {value} != scipy {reference!r}")
    require(rec["dual_value"] == value, "exact primal and dual values differ")
    for name, cover in rec["covers"].items():
        check_cover(graph, cover, name)
        require(cover["cost"] >= value, f"{name} cover costs less than the LP")
    for name in ("det2", "sweep2"):
        require(rec["covers"][name]["cost"] <= 2 * value,
                f"{name} cover exceeds twice the LP optimum")
    check_disagreements(graph, rec["labels"], rec["disagreements"], exact=True)
    payload = check_encoded(rec["encoded"])
    require(payload["lp"]["objective"] == str(value), "encoded LP objective differs")


def check_mwu_bounds(graph: Graph, bounds, eps: float | None) -> float:
    """Bounds must bracket the LP optimum; returns that optimum."""
    lower, upper = bounds
    reference = graph.lp_value()
    slack = REL_TOL * max(1.0, reference)
    require(lower <= reference + slack,
            f"MWU lower bound {lower} above the LP optimum {reference}")
    if upper != float("inf"):
        require(upper >= reference - slack,
                f"MWU upper bound {upper} below the LP optimum {reference}")
    if eps is not None:
        require(upper <= (1 + eps) * lower + REL_TOL * max(1.0, upper),
                f"MWU bounds {bounds} not within 1+{eps}")
    return reference


def check_mwu_lp(text: str, rec: dict, eps: float) -> None:
    graph = Graph(text)
    reference = check_mwu_bounds(graph, rec["bounds"], eps)
    x = np.asarray(rec["x"], dtype=float)
    tris = graph.bad_triangles()
    if len(tris):
        worst = float(x[tris].sum(axis=1).min())
        require(worst >= 1 - REL_TOL, f"MWU primal leaves a triangle at {worst}")
    require(_close(float(graph.weight @ x), rec["bounds"][1]),
            "MWU primal cost differs from its upper bound")
    cover = rec["covers"]["det2"]
    check_cover(graph, cover, "det2")
    require(float(cover["cost"]) >= reference * (1 - REL_TOL),
            "det2 cover costs less than the LP optimum")
    check_disagreements(graph, rec["labels"], rec["disagreements"], exact=False)
    check_encoded(rec["encoded"])


def check_pivot_trials(text: str, rec: dict, trials: int, rerun: tuple) -> None:
    """``rerun`` is (algorithm, labels, disagreements) of that algorithm's
    trial 0, re-run through its single-run function with the same seed."""
    graph = Graph(text)
    cover = rec["covers"]["3approx"]
    check_cover(graph, cover, "3approx")
    require(len(cover["ids"]) <= 3 * cover["lower_bound"],
            "3-approximation larger than three times its packing")
    for alg, costs in rec["trials"].items():
        require(len(costs) == trials, f"{alg}: {len(costs)} trials, expected {trials}")
        require(_close(sum(costs) / trials, rec["means"][alg]), f"{alg}: mean differs")
    alg, labels, reported = rerun
    first = rec["trials"][alg][0]
    require(float(reported) == first,
            f"{alg}: trial 0 re-run gives {reported}, batch gave {first}")
    check_disagreements(graph, labels, first, exact=False)
    check_encoded(rec["encoded"])


def check_survey(text: str, rec: dict) -> None:
    graph = Graph(text)
    cover = rec["cover"]
    check_cover(graph, cover, "exact_btt")
    require(cover["lower_bound"] <= cover["cost"], "root bound above the optimum")
    require(cover["cost"] >= graph.lp_value() * (1 - REL_TOL),
            "minimum cover costs less than the LP optimum")
    clustering = rec["clustering_value"]
    check_disagreements(graph, rec["labels"], clustering, exact=True)
    ratio = Fraction(1) if cover["cost"] == 0 else Fraction(clustering) / Fraction(cover["cost"])
    require(ratio == rec["ratio"], f"survey ratio {rec['ratio']} != recomputed {ratio}")
    require(1 <= ratio <= Fraction(3, 2), f"survey ratio {ratio} outside [1, 3/2]")
    check_encoded(rec["encoded"])

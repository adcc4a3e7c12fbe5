import hashlib
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from btt import (CapacityError, ConvergenceError, InputError, SignedGraph,
                 VerificationError, check_fractional_feasibility,
                 check_packing_feasibility, gen_figure2, gen_hexagram,
                 gen_integrality_gap, gen_random, greedy_maximal_packing,
                 solve_exact, solve_mwu)
from btt import lp
from btt.graphs import POSITIVE, complete_graph
from btt.lp import (FractionalCover, FractionalPacking, STATUS_EPS, STATUS_EXACT,
                    lp_solution_to_json, x_raw_to_feasible)
from btt.rng import spawn_seeds
from conftest import (brute_force_max_packing, instance_suite,
                      patch_fraction_simplex, patch_simplex_run,
                      scipy_cover_lp_value, stall_float_simplex,
                      triangle_nodes)


def half_on_positives(g):
    vals = [Fraction(1, 2) if e.sign == POSITIVE else Fraction(0)
            for e in g.edges]
    return FractionalCover.from_values(g, vals)


def certified_graphs():
    """Rational instances whose float solve certifies: the mixed suite,
    gap instances, fig2, hexagram and complete graphs up to n = 12."""
    graphs = instance_suite(12, seed=41)
    graphs += [gen_integrality_gap(n) for n in range(3, 11)]
    graphs += [gen_figure2(), gen_hexagram()[0]]
    for n, seed in zip(range(4, 13), spawn_seeds(43, 9)):
        graphs.append(gen_random(n, complete=True, seed=seed))
        graphs.append(gen_random(n, complete=True, weights=("rational", 4, 3),
                                 seed=seed))
    return graphs


def fraction_simplex_pair(g):
    """(x, y) as the exact-rational simplex alone returns them."""
    x, y, _ = lp._packing_simplex(g.bad_triangles(),
                                  [Fraction(e.weight) for e in g.edges])
    return FractionalCover.from_values(g, x).clamped(g).values, tuple(y)


def float_weighted(n, seed):
    return gen_random(n, weights=("uniform", 0.5, 2), seed=seed)


#: sha256 of the exact-rational simplex's x, y and value on
#: ``float_weighted(n, seed=3)``: each part's values as str() joined by
#: spaces, the parts joined by "|".  The exact run must keep this vertex.
EXACT_RUN_FROZEN = {
    8: "787c53633c7bec96477d38f6b66bca07dd043d83e8cc0b57d4bb0b90357cf7c0",
    10: "ff666f6415bac5b0e0d1bfa63fa8591a059fa22425d3e5efab5a5457b9216629",
    12: "7fc1fa7a1128d27109f936f1ab4dce6c5b31331c4f7beaa5596ceb93db423e9a",
}


class TestFeasibilityCheck:
    def test_uniform_thirds_feasible_anywhere(self):
        g = gen_figure2()
        x = FractionalCover.from_values(g, [Fraction(1, 3)] * g.m)
        assert check_fractional_feasibility(g, x)

    def test_zero_vector_infeasible_on_figure2(self):
        g = gen_figure2()
        x = FractionalCover.from_values(g, [Fraction(0)] * g.m)
        assert not check_fractional_feasibility(g, x)

    def test_gap_half_positives_feasible(self):
        g = gen_integrality_gap(4)
        assert check_fractional_feasibility(g, half_on_positives(g))

    def test_negative_values_rejected(self):
        g = gen_figure2()
        vals = [Fraction(1)] * g.m
        vals[0] = Fraction(-1, 100)
        assert not check_fractional_feasibility(
            g, FractionalCover.from_values(g, vals))

    def test_size_mismatch_raises(self):
        g = gen_figure2()
        with pytest.raises(InputError):
            check_fractional_feasibility(
                g, FractionalCover((Fraction(1),), Fraction(1)))

    def test_tolerance_in_float_mode(self):
        g = gen_figure2()
        x = FractionalCover.from_values(g, [1 / 3 - 1e-12] * g.m)
        assert check_fractional_feasibility(g, x, tol=1e-9)
        assert not check_fractional_feasibility(g, x, tol=0)


def reference_cover_check(g, values, tol=0):
    """The cover check as a scalar loop over the triangle triples, in
    Python's arithmetic for the values' own number kinds."""
    if any(v < -tol for v in values):
        return False
    return all(values[a] + values[b] + values[c] >= 1 - tol
               for a, b, c in g.bad_triangles())


def reference_packing_check(g, values, tol=0):
    """The packing check as a scalar loop: each triangle adds its value to
    its three edges' loads, in triangle order, from int 0."""
    if any(v < -tol for v in values):
        return False
    load = [0] * g.m
    for t, yt in zip(g.bad_triangles(), values):
        for eid in t:
            load[eid] += yt
    return all(load[i] <= g.edges[i].weight + tol for i in range(g.m))


#: A denominator past 2**63, so numerators over it need Python ints.
BIG = 2**64 + 13


def check_graphs():
    """Unit, rational and float weights, plus a triangle-free and an empty
    graph (T = 0, and m = 0)."""
    yield gen_figure2()
    yield gen_integrality_gap(5)
    yield gen_random(7, complete=True, weights=("rational", 4, 3), seed=5)
    yield gen_random(7, complete=True, weights=("uniform", 0.5, 2.0), seed=5)
    yield gen_random(8, complete=False, density=0.6, weights=("rational", 7, 5), seed=2)
    yield SignedGraph(3, [(0, 1, 1), (1, 2, -1)])
    yield SignedGraph(0, [])


def random_values(rng, count, kind):
    """``count`` values of number kind 'int', 'numpy' (numpy int64),
    'fraction', 'big' (denominator BIG), 'float' or 'mixed', drawn near 0,
    1/3, 1/2 and 1."""
    out = []
    for _ in range(count):
        k = rng.choice(["int", "fraction", "big", "float"]) if kind == "mixed" else kind
        base = Fraction(rng.choice([0, 1, 1, 2, 3]), rng.choice([1, 2, 3]))
        if k in ("int", "numpy"):
            v = rng.choice([0, 1, 1, -1, 2])
            out.append(np.int64(v) if k == "numpy" else v)
        elif k == "fraction":
            out.append(base + Fraction(rng.choice([-1, 0, 0, 1]), rng.choice([6, 7, 100])))
        elif k == "big":
            out.append(base + Fraction(rng.choice([-1, 0, 1]), BIG))
        else:
            v = float(base)
            out.append(float(rng.choice([v, v, np.nextafter(v, -1.0), np.nextafter(v, 2.0)])))
    return out


class TestChecksAgainstScalarLoop:
    @pytest.mark.parametrize("kind", ["int", "numpy", "fraction", "big", "float", "mixed"])
    @pytest.mark.parametrize("tol", [0, 1e-9, Fraction(1, 10), 0.0])
    def test_random_values(self, kind, tol):
        rng = random.Random(f"{kind}-{tol}")
        for g in check_graphs():
            tris = len(g.bad_triangles())
            for _ in range(40):
                x = FractionalCover(tuple(random_values(rng, g.m, kind)), 0)
                assert check_fractional_feasibility(g, x, tol) == \
                    reference_cover_check(g, x.values, tol)
                scale = rng.choice([1, Fraction(1, 4), 0.25, Fraction(1, 8)])
                y = FractionalPacking(
                    tuple(v * scale for v in random_values(rng, tris, kind)), 0)
                assert check_packing_feasibility(g, y, tol) == \
                    reference_packing_check(g, y.values, tol)

    @pytest.mark.parametrize("den", [10**6, BIG])
    def test_cover_sums_at_one_and_just_below(self, den):
        g = SignedGraph(3, [(0, 1, 1), (0, 2, 1), (1, 2, -1)])
        exact = [Fraction(1, 3), Fraction(1, 3) + Fraction(1, den), Fraction(1, 3) - Fraction(1, den)]
        cases = [exact, exact[:2] + [exact[2] - Fraction(1, den)],
                 [1 / 3] * 3, [1 / 3, 1 / 3, float(np.nextafter(1 / 3, 0.0))],
                 [Fraction(-1, den), Fraction(1, 2), Fraction(1, 2) + Fraction(1, den)]]
        expected = [True, False, True, False, False]
        for values, feasible in zip(cases, expected):
            x = FractionalCover(tuple(values), 0)
            assert reference_cover_check(g, values) == feasible
            assert check_fractional_feasibility(g, x) == feasible
        # a tolerance lets the sums fall short by up to tol
        x = FractionalCover(tuple(cases[1]), 0)
        assert check_fractional_feasibility(g, x, tol=1e-9) == (den == BIG)
        assert check_fractional_feasibility(g, x, tol=Fraction(1, den))
        assert not check_fractional_feasibility(g, x, tol=Fraction(1, 2 * den))

    @pytest.mark.parametrize("den", [10**6, BIG])
    def test_loads_at_the_weight_and_just_above(self, den):
        # two bad triangles share edge (0, 1) of weight 1
        g = SignedGraph(4, [(0, 1, 1), (0, 2, 1), (1, 2, -1), (0, 3, 1), (1, 3, -1)])
        half = Fraction(1, 2)
        cases = [([half, half], True), ([half, half + Fraction(1, den)], False),
                 ([half + Fraction(1, den), half - Fraction(1, den)], True),
                 ([-Fraction(1, den), 1], False), ([0.5, 0.5], True),
                 ([0.5, 0.5 + 2**-52], False)]
        for values, feasible in cases:
            y = FractionalPacking(tuple(values), 0)
            assert reference_packing_check(g, values) == feasible
            assert check_packing_feasibility(g, y) == feasible
        y = FractionalPacking((half, half + Fraction(1, den)), 0)
        assert check_packing_feasibility(g, y, tol=Fraction(1, den))
        assert check_packing_feasibility(g, y, tol=1e-9) == (den == BIG)

    def test_float_loads_add_in_triangle_order(self):
        # edge (1, 2) of weight 0.6 is the last edge of triangle 012 and the
        # first of 123 and 124; (0.1 + 0.2) + 0.3 rounds above 0.6, while
        # (0.3 + 0.2) + 0.1 does not, so adding by triangle side would differ
        g = SignedGraph(5, [(0, 1, 1), (0, 2, -1), (1, 2, 1, 0.6), (1, 3, 1),
                            (2, 3, -1), (1, 4, 1), (2, 4, -1)])
        assert len(g.bad_triangles()) == 3
        for values, feasible in (([0.1, 0.2, 0.3], False), ([0.3, 0.2, 0.1], True)):
            y = FractionalPacking(tuple(values), 0)
            assert reference_packing_check(g, values) == feasible
            assert check_packing_feasibility(g, y) == feasible

    def test_solver_certificates_agree(self):
        for g in certified_graphs()[:12]:
            sol = solve_exact(g)
            assert reference_cover_check(g, sol.primal.values)
            assert reference_packing_check(g, sol.dual.values)
            assert check_fractional_feasibility(g, sol.primal)
            assert check_packing_feasibility(g, sol.dual)

    def test_value_counts_must_match(self):
        g = gen_figure2()
        with pytest.raises(InputError, match="triangle values"):
            check_packing_feasibility(g, FractionalPacking((Fraction(1),), 1))

class TestExactSolver:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_gap_instances_have_value_half_n(self, n):
        sol = solve_exact(gen_integrality_gap(n))
        assert sol.value == Fraction(n, 2)
        assert sol.status == STATUS_EXACT
        assert sol.bounds == (sol.value, sol.value)

    def test_no_bad_triangles_solves_to_zero(self):
        g = complete_graph(4, lambda u, v: 1)
        sol = solve_exact(g)
        assert sol.value == 0 and all(v == 0 for v in sol.primal.values)

    def test_figure2_matches_independent_solver(self):
        g = gen_figure2()
        sol = solve_exact(g)
        assert sol.value == 4
        assert abs(float(sol.value) - scipy_cover_lp_value(g)) < 1e-7

    def test_random_suite_matches_independent_solver(self):
        for g in instance_suite(12, seed=31):
            sol = solve_exact(g)
            assert abs(float(sol.value) - scipy_cover_lp_value(g)) < 1e-7

    def test_strong_duality_and_complementary_slackness(self):
        for g in instance_suite(16, seed=5):
            sol = solve_exact(g)
            x, y = sol.primal, sol.dual
            assert check_fractional_feasibility(g, x)
            assert check_packing_feasibility(g, y)
            assert x.objective == y.objective
            tris = g.bad_triangles()
            load = [Fraction(0)] * g.m
            for t, yt in zip(tris, y.values):
                for eid in t:
                    load[eid] += yt
            for eid in range(g.m):
                if x.values[eid] > 0:
                    assert load[eid] == Fraction(g.edges[eid].weight)
            for t, yt in zip(tris, y.values):
                if yt > 0:
                    assert sum(x.values[e] for e in t) == 1

    def test_deterministic_output(self):
        g = gen_figure2()
        assert solve_exact(g).primal.values == solve_exact(g).primal.values

    def test_capacity_error_advises_mwu(self):
        with pytest.raises(CapacityError, match="solve_mwu"):
            solve_exact(gen_figure2(), max_triangles=3)

    def test_zero_weight_edges(self):
        g = SignedGraph(3, [(0, 1, 1), (0, 2, 1), (1, 2, -1, 0)])
        sol = solve_exact(g)
        assert sol.value == 0


class TestGreedyPacking:
    def test_single_bad_triangle(self):
        g = SignedGraph(3, [(0, 1, 1), (0, 2, 1), (1, 2, -1)])
        packing = greedy_maximal_packing(g)
        assert len(packing) == 1 and triangle_nodes(g, packing[0]) == (0, 1, 2)

    def test_gap4_packs_two(self):
        g = gen_integrality_gap(4)
        assert len(greedy_maximal_packing(g)) == 2
        assert brute_force_max_packing(g) == 2

    def test_figure2_weak_duality(self):
        g = gen_figure2()
        assert len(greedy_maximal_packing(g)) <= solve_exact(g).value

    def test_disjoint_maximal_and_dual_feasible(self):
        for g in instance_suite(12, seed=77):
            packing = greedy_maximal_packing(g)
            used = set()
            for t in packing:
                assert not used & set(t)
                used.update(t)
            chosen = {triangle_nodes(g, t) for t in packing}
            for t in g.bad_triangles():
                if triangle_nodes(g, t) not in chosen:
                    assert used & set(t), "packing not maximal"
            if all(e.weight == 1 for e in g.edges):
                assert len(packing) <= solve_exact(g).value


class TestMwuSolver:
    def test_gap10_within_band(self):
        sol = solve_mwu(gen_integrality_gap(10), 0.05)
        assert sol.status == STATUS_EPS and sol.eps == 0.05
        assert 5 <= sol.value <= 5 * 1.05
        assert sol.bounds[0] <= sol.bounds[1] <= (1 + 0.05) * sol.bounds[0]

    def test_empty_instance_returns_zero(self):
        g = complete_graph(4, lambda u, v: 1)
        sol = solve_mwu(g, 0.1)
        assert sol.value == 0 and sol.bounds == (0.0, 0.0)

    def test_random_suite_certified_against_exact(self):
        for i, s in enumerate(spawn_seeds(99, 10)):
            g = gen_random(9, positive_prob=0.5, complete=True, seed=s)
            exact = float(solve_exact(g).value)
            sol = solve_mwu(g, 0.1)
            assert check_fractional_feasibility(g, sol.primal, tol=1e-9)
            assert sol.value <= 1.1 * exact + 1e-9
            assert sol.bounds[0] <= exact + 1e-9 <= 1.1 * (sol.bounds[0] + 1e-9)
            assert check_packing_feasibility(g, sol.dual, tol=1e-12)

    def test_sandwich_dual_below_exact_below_primal(self):
        for g in instance_suite(8, seed=13):
            exact = float(solve_exact(g).value)
            sol = solve_mwu(g, 0.2)
            assert sol.bounds[0] <= exact + 1e-9
            assert float(sol.value) + 1e-9 >= exact

    def test_bad_eps_rejected(self):
        g = gen_figure2()
        for eps in (0, 1, -0.5, 2):
            with pytest.raises(InputError):
                solve_mwu(g, eps)

    def test_iteration_cap_raises_with_bounds(self):
        g = gen_random(12, positive_prob=0.5, complete=True, seed=3)
        with pytest.raises(ConvergenceError) as err:
            solve_mwu(g, 0.01, max_iterations=2)
        lower, upper = err.value.bounds
        assert lower <= float(solve_exact(g).value)

    def test_zero_weight_edges_are_free(self):
        g = SignedGraph(3, [(0, 1, 1), (0, 2, 1), (1, 2, -1, 0)])
        sol = solve_mwu(g, 0.1)
        assert sol.value == 0
        assert check_fractional_feasibility(g, sol.primal, tol=1e-9)


def baseline_failures():
    """Float graphs of the shapes on which the one-edge MWU step hit its
    iteration cap at eps = 0.1."""
    weights = ("uniform", 0.5, 2.0)
    graphs = [gen_random(n, positive_prob=0.5, complete=True, weights=weights,
                         seed=1) for n in (20, 25, 30)]
    graphs += [gen_random(n, positive_prob=0.5, complete=False, density=0.2,
                          weights=weights, seed=1) for n in (60, 120)]
    return graphs


on_baseline_failures = pytest.mark.parametrize(
    "g", baseline_failures(), ids=lambda g: f"n{g.n}-m{g.m}")


class TestPhasedMwu:
    @on_baseline_failures
    def test_certifies_and_brackets_the_optimum(self, g):
        sol = solve_mwu(g, 0.1)
        lower, upper = sol.bounds
        optimum = scipy_cover_lp_value(g)
        assert lower <= optimum * (1 + 1e-9)
        assert optimum <= upper * (1 + 1e-9)
        assert upper <= 1.1 * lower
        assert upper == float(sol.primal.objective)
        assert check_fractional_feasibility(g, sol.primal)
        assert check_packing_feasibility(g, sol.dual)

    @on_baseline_failures
    def test_primal_is_minimal(self, g):
        x = solve_mwu(g, 0.1).primal.values
        tight = set()
        for t in g.bad_triangles():
            if abs(sum(x[e] for e in t) - 1) <= 1e-9:
                tight.update(t)
        assert all(e in tight for e in range(g.m) if x[e] > 0)


class TestFractionalCover:
    def test_objective_recomputed(self):
        g = SignedGraph(2, [(0, 1, 1, Fraction(3, 2))])
        x = FractionalCover.from_values(g, [Fraction(1, 3)])
        assert x.objective == Fraction(1, 2)

    def test_clamp(self):
        g = SignedGraph(2, [(0, 1, 1, 0)])
        x = FractionalCover.from_values(g, [Fraction(5, 2)])
        assert x.clamped(g).values == (Fraction(1),)

    def test_clamped_in_range_is_same_object(self):
        g = gen_figure2()
        x = FractionalCover.from_values(g, [Fraction(1, 2)] * (g.m - 1) + [1])
        assert x.clamped(g) is x

    @pytest.mark.parametrize("out_of_range", [Fraction(-1, 4), Fraction(5, 2), -0.5, 1.5])
    def test_clamped_rebuilds_objective_over_clamped_values(self, out_of_range):
        g = SignedGraph(3, [(0, 1, 1, 2), (0, 2, 1, 3), (1, 2, -1, Fraction(1, 2))])
        x = FractionalCover.from_values(g, [out_of_range, Fraction(1, 3), Fraction(1, 2)])
        c = x.clamped(g)
        clamped_first = min(max(out_of_range, 0), 1)
        assert c is not x
        assert c.values == (clamped_first, Fraction(1, 3), Fraction(1, 2))
        assert c.objective == 2 * clamped_first + 1 + Fraction(1, 4)

    def test_solver_primals_are_already_clamped(self):
        for g in instance_suite(6, seed=79) + [gen_integrality_gap(6)]:
            x = solve_exact(g).primal
            assert x.clamped(g) is x
        for n in (12, 20):
            g = gen_random(n, complete=True, weights=("uniform", 0.5, 2.0), seed=3)
            x = solve_mwu(g, 0.1).primal
            assert x.clamped(g) is x

    def test_json_serialises_fractions_as_strings(self):
        g = gen_integrality_gap(4)
        obj = lp_solution_to_json(g, solve_exact(g))
        assert obj["objective"] == "2"
        assert all(isinstance(v, (str, int)) for v in obj["edge_values"])


class TestCertifiedFloatSolve:
    def test_matches_fraction_simplex(self):
        for g in certified_graphs():
            if not g.bad_triangles():
                continue
            sol = solve_exact(g)
            assert (sol.primal.values, sol.dual.values) == fraction_simplex_pair(g)

    def test_fallback_never_runs_on_rational_instances(self, monkeypatch):
        def refuse(*args):
            raise RuntimeError("fallback ran")

        patch_simplex_run(monkeypatch, Fraction, refuse)
        for g in certified_graphs():
            sol = solve_exact(g)
            assert check_fractional_feasibility(g, sol.primal)
            assert check_packing_feasibility(g, sol.dual)
            assert sol.primal.objective == sol.dual.objective == sol.value

    @pytest.mark.parametrize("corrupt", ["x", "y", "stall"])
    def test_corrupted_candidate_falls_back_to_exact_optimum(self, corrupt,
                                                             monkeypatch):
        g = gen_figure2()

        def corrupted(simplex, triangles, weights):
            if corrupt == "stall":
                return None
            x, y, value = simplex(triangles, weights)
            if corrupt == "x":
                x[x.index(max(x))] -= 0.25
            else:
                y[y.index(max(y))] += 0.25
            return x, y, value

        patch_simplex_run(monkeypatch, float, corrupted)
        fallbacks = patch_fraction_simplex(monkeypatch)
        sol = solve_exact(g)
        assert len(fallbacks) == 1
        monkeypatch.undo()
        assert (sol.primal.values, sol.dual.values) == fraction_simplex_pair(g)
        assert sol.value == solve_exact(g).value == 4


    def test_pivot_cap_fails_fast(self, monkeypatch):
        # a float simplex that stalls at its cap raises instead of handing
        # the instance to the Fraction simplex, which would not finish;
        # a cap of 0 stalls every instance with a bad triangle
        monkeypatch.setattr(lp, "_FLOAT_PIVOT_CAP_PER_COLUMN", 0)
        fallbacks = patch_fraction_simplex(monkeypatch)
        g = gen_random(12, positive_prob=0.5, complete=True, seed=3)
        started = time.process_time()
        with pytest.raises(CapacityError, match="lp-mwu"):
            solve_exact(g)
        assert time.process_time() - started < 1.0
        assert fallbacks == []


class TestFloatWeightedExactSolve:
    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_exact_run_vertex_is_frozen(self, n):
        g = float_weighted(n, seed=3)
        x, y, value = lp._packing_simplex(g.bad_triangles(),
                                          [Fraction(e.weight) for e in g.edges])
        assert all(isinstance(v, Fraction) for v in x + y + [value])
        text = "|".join(" ".join(map(str, part)) for part in (x, y, [value]))
        assert hashlib.sha256(text.encode()).hexdigest() == EXACT_RUN_FROZEN[n]

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_strong_duality_holds_in_fractions(self, n):
        g = float_weighted(n, seed=3)
        sol = solve_exact(g)
        assert isinstance(sol.value, Fraction)
        assert isinstance(sol.dual.objective, Fraction)
        assert sol.value == sol.dual.objective
        assert check_fractional_feasibility(g, sol.primal)
        assert check_packing_feasibility(g, sol.dual)
        assert abs(float(sol.value) - scipy_cover_lp_value(g)) < 1e-7

    def test_takes_the_fallback_path(self, monkeypatch):
        fallbacks = patch_fraction_simplex(monkeypatch)
        solve_exact(float_weighted(8, seed=3))
        assert len(fallbacks) == 1


class TestVerificationErrors:
    def test_lost_strong_duality(self, monkeypatch):
        stall_float_simplex(monkeypatch)
        patch_fraction_simplex(monkeypatch, offset=1)
        with pytest.raises(VerificationError, match="strong duality"):
            solve_exact(gen_figure2())

    def test_exact_run_without_optimum(self, monkeypatch):
        # the packing LP is bounded, so an exact run finding none is a bug
        stall_float_simplex(monkeypatch)
        patch_simplex_run(monkeypatch, Fraction, lambda *args: None)
        with pytest.raises(VerificationError, match="certificate"):
            solve_exact(gen_figure2())

    def test_fallback_primal_must_be_feasible(self, monkeypatch):
        # swapping a positive and a zero value keeps fig2's unit-weight
        # objective but uncovers a bad triangle
        stall_float_simplex(monkeypatch)

        def swapped(simplex, *args):
            x, y, value = simplex(*args)
            i, j = x.index(max(x)), x.index(0)
            x[i], x[j] = x[j], x[i]
            return x, y, value

        patch_simplex_run(monkeypatch, Fraction, swapped)
        with pytest.raises(VerificationError, match="certificate"):
            solve_exact(gen_figure2())

    def test_rescaling_that_never_reaches_feasibility(self):
        tri_edges = np.array([[0, 1, 2]])
        with np.errstate(invalid="ignore"):
            with pytest.raises(VerificationError, match="rescaling"):
                x_raw_to_feasible(np.zeros(3), tri_edges)

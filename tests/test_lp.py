import hashlib
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from conftest import (brute_force_max_packing, index_rows, instance_suite,
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
    (x, y, _), _ = lp._packing_simplex(g.bad_triangle_index(),
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

#: sha256 of the float simplex's x and y over ``certified_graphs()`` (those
#: with a bad triangle): per graph ``repr(x) + repr(y)``, graphs joined by
#: newlines.  Frozen before the tableau became one array: the float pass
#: must keep doing the same arithmetic.
FLOAT_RUN_FROZEN = "ae88af23b6f1e4289257ebfd3809ee5a9a3d3696b152e8ce28fb9b99b0a09681"

#: Float-pass pivots of ``solve_exact``, frozen before the tableau became
#: one array.
FLOAT_PIVOTS_FROZEN = {
    "fig2": (gen_figure2, 9),
    "hexagram": (lambda: gen_hexagram()[0], 26),
    "gap10": (lambda: gen_integrality_gap(10), 94),
    "random12": (lambda: gen_random(12, complete=True, seed=1), 191),
}


def huge_weight_graph():
    """One bad triangle whose positive edge (0, 1) weighs 10**400, past
    float64's range; the LP optimum is 1, on the other two edges."""
    return SignedGraph(3, [(0, 1, 1, Fraction(10) ** 400), (0, 2, 1), (1, 2, -1)])


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
               for a, b, c in g.bad_triangle_index().tolist())


def reference_packing_check(g, values, tol=0):
    """The packing check as a scalar loop: each triangle adds its value to
    its three edges' loads, in triangle order, from int 0."""
    if any(v < -tol for v in values):
        return False
    load = [0] * g.m
    for t, yt in zip(g.bad_triangle_index().tolist(), values):
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
            tris = len(g.bad_triangle_index())
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
        # (0.3 + 0.2) + 0.1 does not, so adding by triangle side would differ;
        # a Fraction among the floats keeps the order too
        g = SignedGraph(5, [(0, 1, 1), (0, 2, -1), (1, 2, 1, 0.6), (1, 3, 1),
                            (2, 3, -1), (1, 4, 1), (2, 4, -1)])
        assert len(g.bad_triangle_index()) == 3
        tenth = Fraction(1, 10)
        for values, feasible in (([0.1, 0.2, 0.3], False), ([0.3, 0.2, 0.1], True),
                                 ([tenth, 0.2, 0.3], False), ([0.3, 0.2, tenth], True)):
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
            tris = g.bad_triangle_index().tolist()
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

    def test_capacity_error_advises_mwu(self, monkeypatch):
        monkeypatch.setattr(lp, "DEFAULT_EXACT_TRIANGLE_BOUND", 3)
        with pytest.raises(CapacityError, match="solve_mwu"):
            solve_exact(gen_figure2())

    def test_zero_weight_edges(self):
        g = SignedGraph(3, [(0, 1, 1), (0, 2, 1), (1, 2, -1, 0)])
        sol = solve_exact(g)
        assert sol.value == 0


class TestGreedyPacking:
    @pytest.mark.parametrize("block", [1, 2, 7, 8192])
    def test_any_block_size_gives_the_scalar_greedy(self, block, monkeypatch):
        monkeypatch.setattr(lp, "_PACKING_BLOCK", block)
        for g in instance_suite(6, seed=77) + [gen_random(30, complete=True, seed=2)]:
            used, expected = set(), []
            for t in index_rows(g):
                if used.isdisjoint(t):
                    expected.append(t)
                    used.update(t)
            packing = greedy_maximal_packing(g)
            assert packing == expected
            assert all(type(e) is int for t in packing for e in t)

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
            for t in g.bad_triangle_index().tolist():
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

    def test_iteration_cap_raises_with_bounds(self, monkeypatch):
        g = gen_random(12, positive_prob=0.5, complete=True, seed=3)
        monkeypatch.setattr(lp, "_mwu_iteration_cap", lambda *args: 2)
        with pytest.raises(ConvergenceError) as err:
            solve_mwu(g, 0.01)
        lower, upper = err.value.bounds
        assert lower <= float(solve_exact(g).value)

    def test_zero_weight_edges_are_free(self):
        g = SignedGraph(3, [(0, 1, 1), (0, 2, 1), (1, 2, -1, 0)])
        sol = solve_mwu(g, 0.1)
        assert sol.value == 0
        assert check_fractional_feasibility(g, sol.primal, tol=1e-9)

    def test_rounds_are_recorded(self, monkeypatch):
        g = gen_random(12, positive_prob=0.5, complete=True, seed=3)
        assert solve_exact(g).rounds is None
        assert solve_mwu(complete_graph(4, lambda u, v: 1), 0.1).rounds == 0
        assert 1 <= solve_mwu(g, 0.1).rounds
        monkeypatch.setattr(lp, "_mwu_iteration_cap", lambda *args: 2)
        with pytest.raises(ConvergenceError) as err:
            solve_mwu(g, 0.01)
        assert err.value.rounds == 2


def scaled_weights(g, k):
    """``g`` with every weight multiplied by 2**k, as floats."""
    return SignedGraph(g.n, [(e.u, e.v, e.sign, math.ldexp(float(e.weight), k))
                             for e in g.edges])


class TestMwuWeightScale:
    """Rescaling every weight by a power of two commutes with float
    rounding, so it gives the same x and scaled bounds; solve_mwu scales
    weights below 1 up by one, so that tiny weights solve too."""

    def test_tiny_weights_give_the_unit_solution(self):
        # at 2**-1070 a load ratio deg / w overflowed to inf; the objectives
        # are totalled over the scaled weights, so the bounds scale exactly
        # too (summed as subnormals, fig2's dual came out above its primal)
        two_triangles = complete_graph(4, lambda u, v: -1 if (u, v) in ((1, 2), (1, 3)) else 1)
        graphs = (two_triangles, gen_figure2(),
                  gen_random(12, positive_prob=0.5, complete=True, seed=3))
        for g in graphs:
            unit, tiny = solve_mwu(g, 0.1), solve_mwu(scaled_weights(g, -1070), 0.1)
            assert tiny.primal.values == unit.primal.values
            assert tiny.dual.values == tuple(math.ldexp(v, -1070) for v in unit.dual.values)
            assert tiny.rounds == unit.rounds
            if g is two_triangles:
                assert unit.primal.values == (1.0,) + (0.0,) * 5
            assert tiny.bounds == tuple(math.ldexp(b, -1070) for b in unit.bounds)
            assert tiny.bounds[0] <= tiny.bounds[1]

    @pytest.mark.parametrize("k", [-10, 1000])
    def test_power_of_two_rescaling_is_exact(self, k, monkeypatch):
        g = gen_random(30, positive_prob=0.5, complete=True, seed=1)
        unit, scaled = solve_mwu(g, 0.1), solve_mwu(scaled_weights(g, k), 0.1)
        assert scaled.primal.values == unit.primal.values
        assert scaled.bounds == tuple(math.ldexp(b, k) for b in unit.bounds)
        monkeypatch.setattr(lp, "_mwu_iteration_cap", lambda *args: 3)
        with pytest.raises(ConvergenceError) as unit_err:
            solve_mwu(g, 0.01)
        with pytest.raises(ConvergenceError) as scaled_err:
            solve_mwu(scaled_weights(g, k), 0.01)
        assert scaled_err.value.bounds == tuple(math.ldexp(b, k)
                                                for b in unit_err.value.bounds)

    def test_load_ratio_past_the_limit_is_refused(self):
        def spread(bits):
            return SignedGraph(3, [(0, 1, 1, 1.0), (0, 2, 1, 1.0),
                                   (1, 2, -1, math.ldexp(1.0, -bits))])

        # the one triangle's load ratio is 2**bits
        assert solve_mwu(spread(999), 0.1).value == 2.0**-999
        with pytest.raises(CapacityError, match="spread too widely"):
            solve_mwu(spread(1000), 0.1)


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
        for t in g.bad_triangle_index().tolist():
            if abs(sum(x[e] for e in t) - 1) <= 1e-9:
                tight.update(t)
        assert all(e in tight for e in range(g.m) if x[e] > 0)


def mwu_states(g, rng):
    """The arrays one round of ``solve_mwu`` scales, for a few integer
    raw primals: (x_raw, cover_sums, p, ratios) over candidate edges
    renumbered as the solver does, with the triangle sides, the edge
    incidence and the weights.  The first raw primal is zero; the others
    put one unit on an edge of each triangle they leave uncovered."""
    tri = g.bad_triangle_index()
    weights = np.array([float(e.weight) for e in g.edges])
    tri = tri[(weights[tri] > 0).all(axis=1)]
    cand, local = np.unique(tri, return_inverse=True)
    tri_edges = local.reshape(-1, 3)
    sides = tri_edges.T.copy()
    k, wc = len(cand), weights[cand]
    tri_of, starts = lp._edge_incidence(tri_edges, k)
    raws = [rng.integers(0, 6, k).astype(float) for _ in range(3)]
    for x_raw in raws:
        x_raw[sides[0][x_raw[sides].sum(axis=0) == 0]] = 1.0
    for x_raw in [np.zeros(k)] + raws:
        cover_sums = x_raw[sides].sum(axis=0)
        p = np.exp(0.025 * (cover_sums.min() - cover_sums))
        ratios = sum(np.bincount(side, p, k) for side in sides) / wc
        yield x_raw, cover_sums, p, ratios, sides, tri_of, starts, wc


def candidate_graphs():
    graphs = [g for g in instance_suite(16, seed=61) if len(g.bad_triangle_index())]
    return graphs + baseline_failures()


#: Rounds of ``solve_mwu(g, 0.1)`` on ``baseline_failures()`` with the
#: global candidates x_raw / min_cov and p / mu, and with the local ones.
GLOBAL_CANDIDATE_ROUNDS = (593, 457, 489, 495, 586)
LOCAL_CANDIDATE_ROUNDS = (263, 212, 215, 83, 170)


class TestLocalCandidates:
    def test_feasible_and_dominate_the_global_candidates(self):
        rng = np.random.default_rng(7)
        for g in candidate_graphs():
            for x_raw, sums, p, ratios, sides, tri_of, starts, wc in mwu_states(g, rng):
                triangles = list(zip(*sides.tolist()))
                y = lp._dual_candidate(p, ratios, sides)
                assert (y >= p / ratios.max()).all()
                load = [0.0] * len(wc)
                for (a, b, c), y_t in zip(triangles, y.tolist()):
                    load[a] += y_t
                    load[b] += y_t
                    load[c] += y_t
                assert all(l <= w * (1 + 1e-12) for l, w in zip(load, wc.tolist()))
                if sums.min() == 0:
                    continue
                x = lp._primal_candidate(x_raw, sums, tri_of, starts)
                assert (x <= x_raw / sums.min()).all()
                for a, b, c in triangles:
                    assert x[a] + x[b] + x[c] >= 1 - 1e-12

    def test_candidates_scale_by_their_own_triangles_and_edges(self):
        rng = np.random.default_rng(11)
        for g in candidate_graphs():
            for x_raw, sums, p, ratios, sides, tri_of, starts, wc in mwu_states(g, rng):
                triangles = list(zip(*sides.tolist()))
                least = [math.inf] * len(wc)
                for t, (a, b, c) in enumerate(triangles):
                    for e in (a, b, c):
                        least[e] = min(least[e], sums[t])
                y = lp._dual_candidate(p, ratios, sides)
                assert y.tolist() == [p[t] / max(ratios[a], ratios[b], ratios[c])
                                      for t, (a, b, c) in enumerate(triangles)]
                if sums.min() > 0:
                    x = lp._primal_candidate(x_raw, sums, tri_of, starts)
                    assert x.tolist() == (x_raw / least).tolist()

    def test_fewer_rounds_than_the_global_candidates(self, monkeypatch):
        graphs = baseline_failures()
        local = tuple(solve_mwu(g, 0.1).rounds for g in graphs)
        monkeypatch.setattr(lp, "_primal_candidate",
                            lambda x_raw, sums, tri_of, starts: x_raw / sums.min())
        monkeypatch.setattr(lp, "_dual_candidate",
                            lambda p, ratios, sides: p / ratios.max())
        global_ = tuple(solve_mwu(g, 0.1).rounds for g in graphs)
        assert local == LOCAL_CANDIDATE_ROUNDS
        assert global_ == GLOBAL_CANDIDATE_ROUNDS
        assert all(a < b for a, b in zip(local, global_))


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
            if not len(g.bad_triangle_index()):
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
                return None, 0
            (x, y, value), pivots = simplex(triangles, weights)
            if corrupt == "x":
                x[x.index(max(x))] -= 0.25
            else:
                y[y.index(max(y))] += 0.25
            return (x, y, value), pivots

        patch_simplex_run(monkeypatch, float, corrupted)
        fallbacks = patch_fraction_simplex(monkeypatch)
        sol = solve_exact(g)
        assert len(fallbacks) == 1
        assert len(sol.pivots) == 2
        monkeypatch.undo()
        assert (sol.primal.values, sol.dual.values) == fraction_simplex_pair(g)
        assert sol.value == solve_exact(g).value == 4

    @pytest.mark.parametrize("cells", [1, 500, lp._UPDATE_BLOCK_CELLS])
    def test_float_run_is_frozen(self, cells, monkeypatch):
        # any row block of the update gives the same bits; a cell count of 1
        # updates one row at a time
        monkeypatch.setattr(lp, "_UPDATE_BLOCK_CELLS", cells)
        texts = []
        for g in certified_graphs():
            index = g.bad_triangle_index()
            if len(index):
                (x, y, _), _ = lp._packing_simplex(index, [float(e.weight) for e in g.edges])
                texts.append(repr(x) + repr(y))
        digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
        assert digest == FLOAT_RUN_FROZEN

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


class TestPivotCounter:
    @pytest.mark.parametrize("name", sorted(FLOAT_PIVOTS_FROZEN))
    def test_float_pass_pivots_are_frozen(self, name):
        make, pivots = FLOAT_PIVOTS_FROZEN[name]
        assert solve_exact(make()).pivots == (pivots,)

    def test_fallback_records_both_passes(self, monkeypatch):
        fallbacks = patch_fraction_simplex(monkeypatch)
        sol = solve_exact(float_weighted(8, seed=3))
        assert len(fallbacks) == 1
        assert len(sol.pivots) == 2 and all(p > 0 for p in sol.pivots)

    def test_no_pass_without_triangles(self):
        g = SignedGraph(3, [(0, 1, 1), (1, 2, -1)])
        assert solve_exact(g).pivots == ()

    def test_mwu_records_no_pivots(self):
        assert solve_mwu(gen_figure2(), 0.1).pivots is None
        assert solve_exact(gen_figure2()).rounds is None

    def test_pivots_stay_out_of_the_json(self):
        g = gen_figure2()
        obj = lp_solution_to_json(g, solve_exact(g))
        assert not any("pivot" in key for key in obj)


def nearest_fraction(v):
    return Fraction(v).limit_denominator(10**6)


def farey_right_neighbour(p, q, bound=10**6):
    """The fraction after p/q among those of denominator <= bound: r/s with
    r q - p s = 1 and s as large as the bound allows."""
    s = -pow(p, -1, q) % q if q > 1 else 0
    s += (bound - s) // q * q
    return Fraction((1 + p * s) // q, s)


class TestLimitDenominator:
    @settings(max_examples=2000, deadline=None)
    @given(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.floats(min_value=-2.0, max_value=2.0)))
    def test_equals_limit_denominator(self, v):
        got = lp._limit_denominator(v)
        assert isinstance(got, Fraction)
        assert got == nearest_fraction(v)

    def test_fixed_values(self):
        values = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
                  2.2250738585072014e-308, 1.7976931348623157e308, -1e300,
                  0.5, -0.375, 3.0, -7.0, 1 / 1024, 2.0**-19, 2.0**-20, 1e-6, -1e-6,
                  5e-7, 1 / 3, -2 / 3, 0.1, -0.7, 1 - 2**-53, 1 + 2**-52,
                  np.nextafter(1 / 3, 1.0), 0.4999995, 999999.5]
        for v in values:
            assert lp._limit_denominator(float(v)) == nearest_fraction(float(v)), v
        # the float nearest a fraction of denominator at most the bound
        # gives that fraction back
        for p, q in ((1, 999_999), (-3, 1_000_000), (7, 640), (-999_983, 524_288)):
            assert lp._limit_denominator(p / q) == nearest_fraction(p / q) == Fraction(p, q)

    def test_near_ties_between_the_candidates(self):
        # floats at and beside the midpoint of two neighbours in the Farey
        # sequence of order 10**6, the two candidates the rule picks from
        rng = random.Random(17)
        pairs = [(0, 1), (1, 1), (1, 2), (1, 3), (2, 7), (-1, 3), (999_999, 1_000_000)]
        pairs += [(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**6)) for _ in range(400)]
        picked = set()
        for p, q in pairs:
            left = Fraction(p, q)
            right = farey_right_neighbour(left.numerator, left.denominator)
            mid = float((left + right) / 2)
            for v in (mid, np.nextafter(mid, -math.inf), np.nextafter(mid, math.inf),
                      np.nextafter(np.nextafter(mid, math.inf), math.inf)):
                got = lp._limit_denominator(float(v))
                assert got == nearest_fraction(float(v)), (p, q, v)
                assert got in (left, right)
                picked.add(got == left)
        assert picked == {True, False}


class TestHugeWeights:
    def test_exact_solve_skips_the_float_pass(self, monkeypatch):
        fallbacks = patch_fraction_simplex(monkeypatch)
        g = huge_weight_graph()
        sol = solve_exact(g)
        assert len(fallbacks) == 1 and len(sol.pivots) == 1
        assert sol.value == sol.dual.objective == 1
        assert sol.primal.values[0] == 0
        assert check_fractional_feasibility(g, sol.primal)
        assert check_packing_feasibility(g, sol.dual)

    def test_mwu_refuses(self):
        with pytest.raises(CapacityError, match="float64"):
            solve_mwu(huge_weight_graph(), 0.1)


class TestFloatWeightedExactSolve:
    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_exact_run_vertex_is_frozen(self, n):
        g = float_weighted(n, seed=3)
        (x, y, value), _ = lp._packing_simplex(g.bad_triangle_index(),
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
        patch_simplex_run(monkeypatch, Fraction, lambda *args: (None, 0))
        with pytest.raises(VerificationError, match="certificate"):
            solve_exact(gen_figure2())

    def test_fallback_primal_must_be_feasible(self, monkeypatch):
        # swapping a positive and a zero value keeps fig2's unit-weight
        # objective but uncovers a bad triangle
        stall_float_simplex(monkeypatch)

        def swapped(simplex, *args):
            (x, y, value), pivots = simplex(*args)
            i, j = x.index(max(x)), x.index(0)
            x[i], x[j] = x[j], x[i]
            return (x, y, value), pivots

        patch_simplex_run(monkeypatch, Fraction, swapped)
        with pytest.raises(VerificationError, match="certificate"):
            solve_exact(gen_figure2())

    def test_rescaling_that_never_reaches_feasibility(self):
        tri_edges = np.array([[0, 1, 2]])
        with np.errstate(invalid="ignore"):
            with pytest.raises(VerificationError, match="rescaling"):
                x_raw_to_feasible(np.zeros(3), tri_edges)

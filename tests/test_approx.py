import dataclasses
from fractions import Fraction

import pytest

from btt import approx, lp
from btt import (InputError, SignedGraph, VerificationError,
                 derandomized_sweep, gen_figure2, gen_hexagram,
                 gen_integrality_gap,
                 gen_random, is_feasible_cover, krivelevich,
                 round_deterministic,
                 round_fixed_threshold, round_randomized, solve_exact,
                 solve_mwu, standard_three_approx)
from btt.approx import (RoundingOutcome, expected_rounding_cost,
                        outcome_to_json)
from btt.graphs import EdgeCover, POSITIVE, complete_graph
from btt.lp import FractionalCover
from btt.rng import spawn_seeds
from conftest import instance_suite

SINGLE_BAD_TRIANGLE = [(0, 1, 1), (0, 2, 1), (1, 2, -1)]


def optimal_half_positives(g):
    return FractionalCover.from_values(
        g, [Fraction(1, 2) if e.sign == POSITIVE else Fraction(0)
            for e in g.edges])


def kriv_frozen_instances():
    """fig2, hexagram, the n=6 gap graph, then per seed a complete n=9
    graph and a sparse n=12 graph with rational weights, then a float-weight
    graph, whose LPs take the Fraction fallback."""
    yield gen_figure2()
    yield gen_hexagram()[0]
    yield gen_integrality_gap(6)
    for s in spawn_seeds(7, 12):
        yield gen_random(9, complete=True, seed=s)
        yield gen_random(12, complete=False, weights=("rational", 4, 3), seed=s)
    yield gen_random(8, weights=("uniform", 0.5, 2), seed=3)


#: JSON cover edge ids, cost, LP lower bound and certified ratio of
#: ``krivelevich`` on ``kriv_frozen_instances``; the cover must not move.
KRIV_FROZEN = [
    ([5, 7, 9, 12], 4, "4", "1"),
    ([0, 5, 15, 21, 26, 34, 38, 43, 49], 9, "9", "1"),
    ([5, 10, 14, 17, 19, 20], 6, "3", "2"),
    ([0, 1, 7, 10, 11, 13, 15, 17, 18, 19, 20, 23, 24, 27, 29, 31, 35], 17, "17/2", "2"),
    ([0, 4, 5, 9], "13/3", "13/3", "1"),
    ([0, 2, 3, 9, 18, 24, 33, 34, 35], 9, "9", "1"),
    ([1, 4, 16, 23, 28], "13/2", "13/2", "1"),
    ([6, 7, 8, 10, 13, 18, 19, 28, 32], 9, "9", "1"),
    ([3, 6, 7, 15, 16, 20, 25, 31], "35/6", "35/6", "1"),
    ([4, 12, 15, 16, 17, 20, 22, 24], 8, "8", "1"),
    ([4, 7, 11, 13, 20, 24, 32], "11/2", "11/2", "1"),
    ([2, 4, 9, 12, 14, 15, 17, 18, 28], 9, "13/2", "18/13"),
    ([10, 12, 17, 22], "13/6", "13/6", "1"),
    ([0, 2, 4, 15, 19, 20, 21, 23, 27, 31, 34], 11, "11", "1"),
    ([1, 4, 10, 12, 14, 15, 19, 20, 21, 23, 37], "15/2", "37/6", "45/37"),
    ([1, 2, 5, 6, 7, 8, 9, 12, 16, 21, 22, 24, 25, 27, 28, 33, 34], 17, "17/2", "2"),
    ([0, 5, 6, 10, 15, 21, 26], "6", "6", "1"),
    ([2, 9, 11, 12, 16, 18, 22, 23, 31], 9, "9", "1"),
    ([6, 12, 22], "13/6", "13/6", "1"),
    ([5, 12, 14, 16, 21], 5, "5", "1"),
    ([0, 3, 4, 10, 19], "4", "4", "1"),
    ([5, 9, 10, 13, 18, 21, 22, 27, 28, 32], 10, "10", "1"),
    ([0, 2, 8, 10, 11, 19, 24, 26, 31], "55/6", "55/6", "1"),
    ([1, 3, 4, 6, 8, 9, 10, 11, 12, 15, 20, 23, 24, 29, 30, 31, 32], 17, "9", "17/9"),
    ([0, 1, 6, 8, 16, 22, 23, 25], "16/3", "16/3", "1"),
    ([1, 3, 6, 9, 11, 15, 17, 18, 20, 21, 24, 25, 26, 27], 14, "17/2", "28/17"),
    ([2, 8, 9, 20], "8/3", "8/3", "1"),
    ([0, 1, 2, 7, 10, 12, 13, 14, 15, 16, 19, 20, 21, 22, 26], 19.910989113558408,
     "89671123152399631/9007199254740992", "2"),
]


class TestThreeApprox:
    def test_single_bad_triangle_takes_its_edges(self):
        g = SignedGraph(3, SINGLE_BAD_TRIANGLE)
        out = standard_three_approx(g)
        assert out.cover.edge_ids == frozenset(range(3))

    def test_no_bad_triangles_empty_cover(self):
        g = complete_graph(4, lambda u, v: 1)
        out = standard_three_approx(g)
        assert out.cover.size == 0 and out.certified_ratio == 1

    def test_gap4_six_edges_vs_integral_optimum_three(self):
        from btt import exact_btt
        g = gen_integrality_gap(4)
        out = standard_three_approx(g)
        assert out.cover.size == 6 and out.lower_bound == 2
        assert exact_btt(g).value == 3

    def test_size_exactly_three_times_packing(self):
        for g in instance_suite(20, seed=3):
            out = standard_three_approx(g)
            assert is_feasible_cover(g, out.cover)
            assert out.cover.size == 3 * out.lower_bound
            assert out.certified_ratio <= 3


class TestKrivelevich:
    def test_no_bad_triangles_empty_cover(self):
        g = complete_graph(4, lambda u, v: 1)
        assert krivelevich(g).cover.size == 0

    def test_gap4_within_twice_lp(self):
        g = gen_integrality_gap(4)
        out = krivelevich(g)
        assert is_feasible_cover(g, out.cover)
        assert out.cover.cost <= 2 * out.lower_bound == 4

    def test_outputs_frozen(self):
        graphs = list(kriv_frozen_instances())
        assert len(graphs) == len(KRIV_FROZEN)
        for g, (ids, cost, lower, ratio) in zip(graphs, KRIV_FROZEN):
            assert outcome_to_json(g, krivelevich(g)) == {
                "schema": approx.OUTCOME_SCHEMA, "algorithm": "kriv",
                "seed": None, "threshold": None, "threshold_side": None,
                "cover_edge_ids": ids,
                "cover_pairs": [list(g.edges[i].pair) for i in ids],
                "cost": cost, "size": len(ids), "lp_lower_bound": lower,
                "certified_ratio": ratio}

    def test_random_suite_two_approximation(self):
        for g in instance_suite(20, seed=23):
            out = krivelevich(g)
            assert is_feasible_cover(g, out.cover)
            assert out.cover.cost <= 2 * out.lower_bound
            assert out.lower_bound == solve_exact(g).value

    def test_z_vanishes_on_every_bad_triangle(self):
        # z = 2 on negative and -1 on positive edges is orthogonal to every
        # triangle row, so those rows cannot span all m dimensions
        for g in instance_suite(20, seed=29):
            z = [-1 if e.sign == POSITIVE else 2 for e in g.edges]
            assert all(z[a] + z[b] + z[c] == 0 for a, b, c in g.bad_triangles())

    @pytest.mark.parametrize("path", ["certified", "fraction"])
    def test_every_lp_pass_has_a_zero(self, path, monkeypatch):
        if path == "fraction":
            monkeypatch.setattr(lp, "_float_packing_simplex", lambda *args: None)
        solves = []

        def recorded(g):
            sol = solve_exact(g)
            solves.append((g.m, sol.primal.values))
            return sol

        monkeypatch.setattr(approx, "solve_exact", recorded)
        # two graphs whose first LP leaves edges strictly inside (0, 1/2),
        # so krivelevich also solves a subgraph
        graphs = instance_suite(20, seed=29) + [
            gen_random(9, seed=5), gen_random(10, weights=("rational", 4, 3), seed=16)]
        for g in graphs:
            krivelevich(g)
        assert len(solves) == len(graphs) + 2
        assert all(0 in values for m, values in solves if m)

    def test_pass_without_a_zero_raises(self, monkeypatch):
        g = gen_figure2()
        sol = solve_exact(g)
        no_zero = FractionalCover.from_values(g, [Fraction(1, 2)] * g.m)
        monkeypatch.setattr(approx, "solve_exact",
                            lambda g: dataclasses.replace(sol, primal=no_zero))
        with pytest.raises(VerificationError, match="without a zero"):
            krivelevich(g)


class TestRoundDeterministic:
    def test_gap4_optimal_half_takes_all_positives(self):
        g = gen_integrality_gap(4)
        out = round_deterministic(g, optimal_half_positives(g), lower_bound=2)
        assert out.cover.edge_ids == frozenset(g.positive_edge_ids())
        assert out.cover.size == 4 and out.certified_ratio == 2

    def test_uniform_thirds_takes_negative_edge(self):
        g = SignedGraph(3, SINGLE_BAD_TRIANGLE)
        x = FractionalCover.from_values(g, [Fraction(1, 3)] * 3)
        out = round_deterministic(g, x)
        assert out.cover.edge_ids == {g.edge_id(1, 2)}

    def test_infeasible_input_rejected(self):
        g = gen_figure2()
        with pytest.raises(InputError, match="infeasible"):
            round_deterministic(
                g, FractionalCover.from_values(g, [Fraction(0)] * g.m))

    def test_random_suite_two_approximation_with_exact_optimum(self):
        for g in instance_suite(20, seed=29):
            sol = solve_exact(g)
            out = round_deterministic(g, sol.primal, lower_bound=sol.value)
            assert is_feasible_cover(g, out.cover)
            assert out.cover.cost <= 2 * sol.value


class TestThresholdRounding:
    def test_r_one_matches_deterministic_rule_without_tau(self):
        for g in instance_suite(10, seed=41):
            x = solve_exact(g).primal
            out = round_fixed_threshold(g, x, 1)
            expected = {i for i, e in enumerate(g.edges)
                        if (e.sign == POSITIVE and x.values[i] >= Fraction(1, 2))
                        or (e.sign != POSITIVE and x.values[i] > 0)}
            assert out.cover.edge_ids == expected

    def test_r_zero_takes_all_positive_edges(self):
        g = gen_figure2()
        out = round_fixed_threshold(g, solve_exact(g).primal, 0)
        assert out.cover.edge_ids == frozenset(g.positive_edge_ids())

    def test_out_of_range_threshold_rejected(self):
        g = gen_figure2()
        with pytest.raises(InputError):
            round_fixed_threshold(g, solve_exact(g).primal, Fraction(3, 2))

    def test_seeded_determinism(self):
        g = gen_figure2()
        x = solve_exact(g).primal
        a = round_randomized(g, x, seed=7)
        b = round_randomized(g, x, seed=7)
        assert a.threshold == b.threshold and a.cover.edge_ids == b.cover.edge_ids
        assert a.seed == 7 and 0 <= a.threshold <= 1

    def test_inclusion_probability_formulas(self):
        # measure of {r : x >= r/2} is min(1, 2x); of {r : x > 1-r} is x
        for x in (Fraction(0), Fraction(1, 5), Fraction(1, 2), Fraction(7, 10), Fraction(1)):
            positive_measure = min(Fraction(1), 2 * x)
            negative_measure = x
            assert positive_measure == min(1, 2 * x)
            assert negative_measure == x

    @staticmethod
    def _integrated_threshold_cost(g, x):
        """Integral over r in [0, 1] of the fixed-threshold cover cost.

        The cover is constant between consecutive breakpoints (2 x_e for
        positive edges, 1 - x_e for negative ones), so the midpoint cost
        times the interval length sums to the exact integral.
        """
        breaks = {Fraction(0), Fraction(1)}
        for e, v in zip(g.edges, x.values):
            b = 2 * v if e.sign == POSITIVE else 1 - v
            if 0 < b < 1:
                breaks.add(b)
        breaks = sorted(breaks)
        return sum((b - a) * round_fixed_threshold(g, x, (a + b) / 2).cover.cost
                   for a, b in zip(breaks, breaks[1:]))

    def _check_expectation(self, g, x):
        integral = self._integrated_threshold_cost(g, x)
        expectation = expected_rounding_cost(g, x)
        weighted_bound = sum(e.weight * v * (2 if e.sign == POSITIVE else 1)
                             for e, v in zip(g.edges, x.values))
        assert integral == expectation <= weighted_bound  # 2 x LP bound
        return expectation, weighted_bound

    def test_expectation_integrates_threshold_costs_gap6(self):
        # x = 1/3 everywhere: thresholds below 2/3 take the 6 apex edges,
        # thresholds above it the 15 negative ones
        g = gen_integrality_gap(6)
        x = FractionalCover.from_values(g, [Fraction(1, 3)] * g.m)
        assert self._check_expectation(g, x) == (9, 9)

    def test_expectation_integrates_threshold_costs_on_optima(self):
        for g in instance_suite(20, seed=73):
            self._check_expectation(g, solve_exact(g).primal)


class TestDerandomizedSweep:
    def test_gap4_optimal_half_costs_four(self):
        g = gen_integrality_gap(4)
        out = derandomized_sweep(g, optimal_half_positives(g), lower_bound=2)
        assert out.cover.cost == 4

    def test_indicator_of_integral_cover_not_beaten(self):
        g = gen_figure2()
        ids = {g.edge_id(1, 2), g.edge_id(2, 3), g.edge_id(3, 4), g.edge_id(1, 4)}
        x = FractionalCover.from_values(
            g, [Fraction(1) if i in ids else Fraction(0) for i in range(g.m)])
        out = derandomized_sweep(g, x)
        assert out.cover.cost <= 4

    def test_dominates_every_breakpoint_threshold(self):
        for g in instance_suite(12, seed=53):
            x = solve_exact(g).primal
            sweep = derandomized_sweep(g, x)
            values = [Fraction(0), Fraction(1)]
            for e, v in zip(g.edges, x.values):
                values.append(min(Fraction(1), 2 * v) if e.sign == POSITIVE
                              else 1 - v)
            for r in values:
                if 0 <= r <= 1:
                    fixed = round_fixed_threshold(g, x, r)
                    assert sweep.cover.cost <= fixed.cover.cost

    def test_never_exceeds_expectation(self):
        for g in instance_suite(12, seed=59):
            x = solve_exact(g).primal
            assert derandomized_sweep(g, x).cover.cost <= \
                expected_rounding_cost(g, x)

    def test_weighted_two_approximation(self):
        for i, s in enumerate(spawn_seeds(61, 10)):
            g = gen_random(4 + i % 5, positive_prob=0.5, complete=True,
                           weights=("rational", 5, 4), seed=s)
            sol = solve_exact(g)
            out = derandomized_sweep(g, sol.primal, lower_bound=sol.value)
            assert is_feasible_cover(g, out.cover)
            assert out.cover.cost <= 2 * sol.primal.objective

    def test_beats_two_hundred_seeded_trials(self):
        for i, s in enumerate(spawn_seeds(67, 10)):
            g = gen_random(5 + i % 5, positive_prob=0.5, complete=True, seed=s)
            x = solve_exact(g).primal
            sweep = derandomized_sweep(g, x)
            best = min(round_randomized(g, x, seed=t).cover.cost
                       for t in spawn_seeds(s, 200))
            assert sweep.cover.cost <= best

    def test_infeasible_input_rejected(self):
        g = gen_figure2()
        with pytest.raises(InputError):
            derandomized_sweep(
                g, FractionalCover.from_values(g, [Fraction(0)] * g.m))


class TestRoundingOutcome:
    def test_infeasible_cover_is_a_bug(self):
        g = gen_figure2()
        with pytest.raises(VerificationError):
            RoundingOutcome.create(g, [], "det2")

    def test_failed_feasibility_recheck_is_verification_error(self, monkeypatch):
        monkeypatch.setattr(approx, "is_feasible_cover", lambda g, cover: False)
        with pytest.raises(VerificationError, match="3approx"):
            standard_three_approx(gen_figure2())

    def test_ratio_at_least_one_with_valid_bound(self):
        for g in instance_suite(10, seed=71):
            sol = solve_exact(g)
            out = derandomized_sweep(g, sol.primal, lower_bound=sol.value)
            assert out.certified_ratio >= 1

    def test_ratio_exact_on_float_weights(self):
        # float cover costs over an exact LP bound: the ratio is taken from
        # the exact weight sum, so float rounding cannot push it past 2
        g = gen_random(8, weights=("uniform", 0.5, 2.0), seed=3)
        out = krivelevich(g)
        exact_cost = sum(Fraction(g.edges[i].weight) for i in out.cover.edge_ids)
        assert isinstance(out.certified_ratio, Fraction)
        assert out.certified_ratio == exact_cost / out.lower_bound
        assert out.certified_ratio <= 2
        assert out.cover.cost / out.lower_bound > 2  # the float ratio overshoots

    def test_json_fields(self):
        g = gen_figure2()
        sol = solve_exact(g)
        out = round_randomized(g, sol.primal, seed=11, lower_bound=sol.value)
        obj = outcome_to_json(g, out)
        assert obj["algorithm"] == "rand2" and obj["seed"] == 11
        assert obj["size"] == len(obj["cover_edge_ids"])
        assert obj["lp_lower_bound"] == "4"


class TestFloatMode:
    def test_rounding_float_values(self):
        g = gen_figure2()
        exact = solve_exact(g).primal
        floats = FractionalCover.from_values(g, [float(v) for v in exact.values])
        for out in (round_deterministic(g, floats),
                    derandomized_sweep(g, floats),
                    round_fixed_threshold(g, floats, 0.37)):
            assert is_feasible_cover(g, out.cover)

    def test_tolerance_feasible_floats_round_to_covers(self):
        # the triangle sums to 1 - 2e-10, inside the 1e-9 input tolerance;
        # only the tau slack lets each rounding still cover it
        g = SignedGraph(3, SINGLE_BAD_TRIANGLE)
        x = FractionalCover.from_values(g, [0.5 - 1e-10, 0.5 - 1e-10, 0.0])
        for out in (round_deterministic(g, x), derandomized_sweep(g, x),
                    round_fixed_threshold(g, x, 1.0)):
            assert is_feasible_cover(g, out.cover)

    def test_sweep_on_float_mwu_covers(self):
        # float weights and values: the sweep's running cost and the cost
        # of the cover it rebuilds must agree exactly
        for seed in range(4):
            g = gen_random(30, positive_prob=0.5, complete=False, density=0.3,
                           weights=("uniform", 0.5, 2.0), seed=seed)
            x = solve_mwu(g, 0.2).primal
            sweep = derandomized_sweep(g, x)
            assert is_feasible_cover(g, sweep.cover)
            cost = sum(Fraction(g.edges[i].weight) for i in sweep.cover.edge_ids)
            for r in (0.0, 0.25, 0.5, 0.75, 1.0):
                fixed = round_fixed_threshold(g, x, r).cover
                assert cost <= sum(Fraction(g.edges[i].weight) for i in fixed.edge_ids)

import os
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from btt import exact
from btt import (CapacityError, EdgeCover, InputError, SignedGraph,
                 VerificationError, cc_cost, exact_btt, exact_btt_positive_only,
                 exact_cc, gen_figure2, gen_hexagram, gen_integrality_gap,
                 gen_random, gen_vc_reduction, is_feasible_cover, ratio_survey,
                 solve_exact, standard_three_approx)
from btt.errors import BudgetExceededError
from btt.exact import survey_rows_to_csv
from btt.graphs import complete_graph, format_edge_list
from btt.lp import greedy_maximal_packing
from btt.rng import spawn_seeds
from conftest import (brute_force_min_cc, brute_force_min_cover,
                      brute_force_vertex_cover, instance_suite)


class TestExactBtt:
    def test_figure2_optimum_four(self):
        g = gen_figure2()
        res = exact_btt(g)
        assert res.value == 4
        assert is_feasible_cover(g, res.witness)
        assert res.witness.cost == 4

    def test_figure2_known_optima_are_optimal(self):
        g = gen_figure2()
        published = EdgeCover.from_pairs(g, [(0, 2), (0, 4), (1, 5), (3, 5)])
        all_negative = EdgeCover.from_ids(
            g, [i for i, e in enumerate(g.edges) if e.sign == -1])
        assert is_feasible_cover(g, published) and published.cost == 4
        assert is_feasible_cover(g, all_negative) and all_negative.cost == 4

    def test_gap5_optimum_is_n_minus_one(self):
        assert exact_btt(gen_integrality_gap(5)).value == 4

    def test_empty_triangle_set(self):
        g = complete_graph(4, lambda u, v: 1)
        res = exact_btt(g)
        assert res.value == 0 and res.witness.size == 0

    def test_matches_brute_force_on_random_suite(self):
        for g in instance_suite(14, seed=2024):
            if g.m > 16:
                continue
            assert exact_btt(g).value == brute_force_min_cover(g)

    def test_weighted_optimum(self):
        g = SignedGraph(3, [(0, 1, 1, Fraction(1, 3)), (0, 2, 1, 5),
                            (1, 2, -1, 2)])
        res = exact_btt(g)
        assert res.value == Fraction(1, 3)

    def test_triangle_budget(self):
        with pytest.raises(CapacityError):
            exact_btt(gen_figure2(), triangle_budget=2)

    def test_node_budget_carries_bounds(self):
        g = gen_random(9, positive_prob=0.5, complete=True, seed=1)
        with pytest.raises(BudgetExceededError) as err:
            exact_btt(g, node_budget=3)
        lower, upper = err.value.bounds
        assert lower <= exact_btt(g).value <= upper

    def test_incumbent_trail_is_decreasing(self):
        res = exact_btt(gen_figure2())
        values = [v for _, v in res.trail]
        assert values == sorted(values, reverse=True)
        assert res.root_lower_bound <= res.value


F = Fraction
RATIONAL = ("rational", 4, 3)

#: exact_btt's (graph, value, nodes_explored, witness ids, trail), frozen
#: from the search before it moved to bitmasks.  The node count and the
#: trail depend on the branching rule and the seed, so any change to
#: either shows here.
PINNED = {
    "fig2": (
        gen_figure2,
        4, 49,
        [0, 2, 8, 13],
        [(0, 12), (8, 7), (13, 6), (22, 5), (43, 4)]),
    "gap6": (
        lambda: gen_integrality_gap(6),
        5, 203,
        [0, 14, 17, 19, 20],
        [(0, 9), (55, 8), (102, 7), (147, 6), (180, 5)]),
    "hexagram": (
        lambda: gen_hexagram()[0],
        9, 179,
        [0, 5, 15, 21, 26, 34, 38, 43, 49],
        [(0, 27), (14, 13), (21, 12), (40, 11), (139, 10), (170, 9)]),
    "unit9": (
        lambda: gen_random(9, complete=True, seed=1),
        10, 295,
        [0, 3, 6, 11, 12, 16, 17, 19, 22, 24],
        [(0, 24), (22, 21), (25, 20), (30, 19), (39, 18), (50, 17), (81, 16),
         (102, 15), (125, 14), (166, 13), (195, 12), (232, 11), (285, 10)]),
    "unit10": (
        lambda: gen_random(10, complete=True, seed=2),
        12, 1713,
        [4, 6, 8, 9, 14, 16, 17, 19, 27, 35, 37, 42],
        [(0, 27), (26, 25), (31, 24), (40, 23), (55, 22), (74, 21), (101, 20),
         (166, 19), (229, 18), (306, 17), (353, 16), (494, 15), (789, 14),
         (1194, 13), (1493, 12)]),
    "rational9": (
        lambda: gen_random(9, complete=True, weights=RATIONAL, seed=3),
        F(73, 6), 411,
        [1, 2, 6, 10, 12, 17, 19, 20],
        [(0, 38), (11, F(121, 6)), (16, F(115, 6)), (40, F(97, 6)),
         (45, F(91, 6)), (76, F(79, 6)), (104, F(77, 6)), (374, F(38, 3)),
         (397, F(73, 6))]),
    "rational10": (
        lambda: gen_random(10, complete=True, weights=RATIONAL, seed=3),
        F(34, 3), 1951,
        [0, 1, 5, 10, 14, 15, 19, 20, 21, 27, 28, 35, 41],
        [(0, F(92, 3)), (18, F(49, 2)), (20, F(47, 2)), (29, F(137, 6)),
         (31, F(131, 6)), (38, F(125, 6)), (47, F(41, 2)), (56, F(119, 6)),
         (58, F(113, 6)), (61, F(107, 6)), (98, F(103, 6)), (122, F(101, 6)),
         (186, F(33, 2)), (223, F(95, 6)), (247, F(31, 2)), (309, 15),
         (346, F(43, 3)), (370, 14), (557, F(27, 2)), (599, 13),
         (872, F(25, 2)), (914, 12), (1090, F(71, 6)), (1132, F(34, 3))]),
}


class TestPinnedSearch:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_search_is_unchanged(self, name):
        build, value, nodes, witness, trail = PINNED[name]
        res = exact_btt(build())
        assert res.value == value
        assert sorted(res.witness.edge_ids) == witness
        assert res.nodes_explored == nodes
        assert list(res.trail) == trail

    def test_incumbent_starts_at_the_three_approximation(self):
        graphs = [build() for build, *_ in PINNED.values()]
        for g in graphs + instance_suite(12, seed=31):
            assert exact_btt(g).trail[0] == (0, standard_three_approx(g).cover.cost)

    def test_shuffled_edge_order_keeps_the_optimum(self):
        rng = random.Random(7)
        for seed in range(4):
            g = gen_random(8, complete=True, weights=RATIONAL, seed=seed)
            edges = [(e.u, e.v, e.sign, e.weight) for e in g.edges]
            rng.shuffle(edges)
            shuffled = SignedGraph(g.n, edges, complete=True)
            for solver in (exact_btt, exact_btt_positive_only):
                assert solver(shuffled).value == solver(g).value

    def test_deep_search_fails_fast(self):
        # covering the reduction of an 800-cycle takes more branchings than
        # the recursion may nest; this used to end in RecursionError
        n = 800
        g = gen_vc_reduction(n, [(i, (i + 1) % n) for i in range(n)])
        with pytest.raises(CapacityError, match=f"deeper than {exact.MAX_BTT_DEPTH}"):
            exact_btt(g)

    @pytest.mark.parametrize("budget", ["triangle_budget", "node_budget"])
    def test_negative_budget_is_input_error(self, budget):
        for g in (gen_figure2(), complete_graph(4, lambda u, v: 1)):
            for solver in (exact_btt, exact_btt_positive_only):
                with pytest.raises(InputError, match="must be nonnegative"):
                    solver(g, **{budget: -1})


class TestPositiveOnly:
    def test_single_bad_triangle_uses_one_positive_edge(self):
        g = SignedGraph(3, [(0, 1, 1), (0, 2, 1), (1, 2, -1)])
        res = exact_btt_positive_only(g)
        assert res.value == 1
        (eid,) = res.witness.edge_ids
        assert g.edges[eid].sign == 1

    def test_hexagram_has_exactly_two_optima(self):
        g, gmap = gen_hexagram()
        res = exact_btt_positive_only(g, enumerate_optima=64)
        assert res.value == 9
        assert not res.optima_truncated
        hexa = gmap.hexagrams[0]
        expected = {
            frozenset(g.edge_id(u, v) for u, v in hexa.teeth_pairs("even")),
            frozenset(g.edge_id(u, v) for u, v in hexa.teeth_pairs("odd")),
        }
        assert set(res.optima) == expected

    def test_cycle_reduction_matches_vertex_cover(self):
        edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
        g = gen_vc_reduction(4, edges)
        res = exact_btt_positive_only(g)
        assert res.value == brute_force_vertex_cover(4, edges) == 2

    def test_coincides_with_unrestricted_on_reduction_graphs(self):
        for s in spawn_seeds(88, 6):
            base = gen_random(6, positive_prob=0.4, complete=False,
                              density=0.6, seed=s)
            edges = [(e.u, e.v) for e in base.edges]
            g = gen_vc_reduction(6, edges)
            assert exact_btt(g).value == exact_btt_positive_only(g).value
        g, _ = gen_hexagram()
        assert exact_btt(g).value == exact_btt_positive_only(g).value == 9

    def test_enumeration_cap_flag(self):
        g = gen_integrality_gap(4)  # several optimal covers exist
        res = exact_btt_positive_only(g, enumerate_optima=1)
        assert res.optima_truncated and len(res.optima) == 1


class TestExactCc:
    def test_figure2(self):
        g = gen_figure2()
        res = exact_cc(g)
        assert res.value == 4
        assert cc_cost(g, res.witness) == 4

    def test_all_positive_single_cluster(self):
        g = complete_graph(5, lambda u, v: 1)
        res = exact_cc(g)
        assert res.value == 0 and res.witness.num_clusters == 1

    def test_gap5(self):
        res = exact_cc(gen_integrality_gap(5))
        assert res.value == 4

    def test_matches_brute_force_on_random_suite(self):
        for g in instance_suite(10, seed=404):
            if g.n > 7:
                continue
            assert exact_cc(g).value == brute_force_min_cc(g)

    def test_lower_bound_early_exit_same_value(self):
        g = gen_figure2()
        plain = exact_cc(g)
        primed = exact_cc(g, lower_bound=4)
        assert plain.value == primed.value == 4
        assert primed.nodes_explored <= plain.nodes_explored

    def test_node_cap(self):
        g = complete_graph(13, lambda u, v: 1)
        with pytest.raises(CapacityError):
            exact_cc(g)

    def test_node_budget(self):
        g = gen_random(9, positive_prob=0.5, complete=True, seed=2)
        with pytest.raises(BudgetExceededError):
            exact_cc(g, node_budget=3)

    def test_negative_node_budget_is_input_error(self):
        with pytest.raises(InputError, match="must be nonnegative"):
            exact_cc(gen_figure2(), node_budget=-1)


class TestSandwich:
    """The paper's chain, from the public solvers: packing <= LP <= cover
    <= clustering, cover <= 3 x packing, and clustering <= 3/2 x cover."""

    def test_complete_unit_instances_have_no_violations(self):
        for s in spawn_seeds(55, 10):
            g = gen_random(7, positive_prob=0.5, complete=True, seed=s)
            packing = len(greedy_maximal_packing(g))
            lp_value = solve_exact(g).value
            cover = exact_btt(g).value
            clustering = exact_cc(g, lower_bound=cover).value
            assert packing <= lp_value <= cover <= clustering
            assert cover <= 3 * packing
            assert 2 * clustering <= 3 * cover

    def test_weighted_instances_check_applicable_subset(self):
        # packing counts and the 3/2 clustering bound are statements about
        # unit weights; LP <= cover <= clustering holds for any weights
        g = gen_random(6, positive_prob=0.5, complete=True,
                       weights=("rational", 4, 3), seed=9)
        cover = exact_btt(g).value
        assert solve_exact(g).value <= cover <= exact_cc(g, lower_bound=cover).value


class TestRatioSurvey:
    @staticmethod
    def make_complete(n):
        def make(seed):
            return gen_random(n, positive_prob=0.5, complete=True, seed=seed)
        return make

    def test_ratios_within_bounds_on_complete_suite(self):
        report = ratio_survey(self.make_complete(6), 15, seed=10)
        assert report["violations"] == []
        for row in report["rows"]:
            assert row["error"] is None
            assert 1 <= row["ratio"] <= Fraction(3, 2)

    def test_triangle_free_instance_reports_ratio_one(self):
        def make(seed):
            return gen_random(6, positive_prob=1.0, complete=True, seed=seed)
        report = ratio_survey(make, 3, seed=1)
        assert all(row["ratio"] == 1 for row in report["rows"])

    def test_budget_error_recorded_and_survey_continues(self):
        calls = []

        def make(seed):
            calls.append(seed)
            if len(calls) == 2:
                return complete_graph(14, lambda u, v: 1 if (u + v) % 2 else -1)
            return gen_random(5, positive_prob=0.5, complete=True, seed=seed)

        report = ratio_survey(make, 4, seed=3)
        errors = [row for row in report["rows"] if row["error"]]
        assert len(errors) == 1
        assert sum(1 for row in report["rows"] if row["error"] is None) == 3

    def test_oversized_instance_rejected_before_any_search(self, monkeypatch):
        import btt.exact as exact_mod

        def refuse(g, **kwargs):
            raise AssertionError(f"search started on n={g.n}")

        big = complete_graph(14, lambda u, v: 1 if (u + v) % 2 else -1)
        monkeypatch.setattr(exact_mod, "exact_btt", refuse)
        report = ratio_survey(lambda seed: big, 1, seed=0)
        (row,) = report["rows"]
        assert "capped at 12 nodes" in row["error"]

    def test_out_of_band_ratio_flagged_and_serialised(self):
        # a bad triangle plus a disjoint bad four-cycle: minimum cover 1,
        # minimum clustering 2, ratio 2 (outside [1, 3/2]; such graphs are
        # not complete, which is the point)
        def make(seed):
            return SignedGraph(7, [
                (0, 1, 1), (0, 2, 1), (1, 2, -1),
                (3, 4, 1), (4, 5, 1), (5, 6, 1), (3, 6, -1)])

        report = ratio_survey(make, 1, seed=0)
        assert report["violations"] == [0]
        (candidate,) = report["equality_counterexample_candidates"]
        assert candidate["ratio"] == 2
        assert candidate["edge_list"] == format_edge_list(make(0))

    def test_worker_fanout_matches_serial(self):
        serial = ratio_survey(self.make_complete(5), 6, seed=12, workers=1)
        parallel = ratio_survey(self.make_complete(5), 6, seed=12, workers=2)
        strip = lambda rows: [(r["instance"], r["opt_cover"], r["opt_clustering"],
                               r["ratio"]) for r in rows]
        assert strip(serial["rows"]) == strip(parallel["rows"])

    def test_fanout_width_capped_by_count_and_cpus(self, monkeypatch):
        # records the width a pool would start with; no process is started
        import concurrent.futures
        widths = []

        class Recorder:
            def __init__(self, max_workers):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(exact.os, "cpu_count", lambda: 4)
        make = self.make_complete(5)
        ratio_survey(make, 3, seed=1, workers=5000)
        ratio_survey(make, 6, seed=1, workers=5000)
        monkeypatch.setenv("BTT_WORKERS", "5000")
        ratio_survey(make, 2, seed=1)
        assert widths == [3, 4, 2]
        monkeypatch.setattr(exact.os, "cpu_count", lambda: None)
        report = ratio_survey(make, 3, seed=1)
        assert widths == [3, 4, 2] and len(report["rows"]) == 3

    def test_workers_env_variable(self, monkeypatch):
        from btt.exact import workers_from_env
        monkeypatch.setenv("BTT_WORKERS", "3")
        assert workers_from_env() == 3
        monkeypatch.setenv("BTT_WORKERS", "junk")
        assert workers_from_env() == 1

    def test_csv_rendering(self):
        report = ratio_survey(self.make_complete(5), 3, seed=6)
        csv = survey_rows_to_csv(report["rows"])
        lines = csv.strip().splitlines()
        assert lines[0].startswith("instance,seed,n,")
        assert len(lines) == 4


class TestFloatWeights:
    def test_value_equals_witness_cost(self):
        # incumbents are summed in the witness's sorted-id order, so float
        # weights give the same cost to the last bit
        for n in (7, 8, 9):
            for seed in range(10):
                g = gen_random(n, weights=("uniform", 0.5, 2.0), seed=seed)
                for solver in (exact_btt, exact_btt_positive_only):
                    res = solver(g)
                    assert res.value == res.witness.cost
                    assert res.trail[-1][1] == res.value

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_enumeration_lists_the_witness(self, n):
        # the enumeration prune compares exact sums, so an optimum whose
        # float sum in search order exceeds the cap by an ulp is kept
        for seed in range(60):
            g = gen_random(n, weights=("uniform", 0.5, 2.0), seed=seed)
            res = exact_btt_positive_only(g, enumerate_optima=50)
            assert res.witness.edge_ids in res.optima


class TestWitnessIntegrity:
    def test_witnesses_revalidated_through_graph_evaluators(self):
        for g in instance_suite(8, seed=777):
            res = exact_btt(g)
            assert is_feasible_cover(g, res.witness)
            assert sum(g.edges[i].weight for i in res.witness.edge_ids) == res.value
            cc = exact_cc(g)
            assert cc_cost(g, cc.witness) == cc.value
            assert len(cc.witness.labels) == g.n

    def test_every_cover_cost_at_least_lp(self):
        for g in instance_suite(8, seed=101):
            lp = solve_exact(g).value
            assert exact_btt(g).value >= lp
            assert len(greedy_maximal_packing(g)) <= 3 * max(1, exact_btt(g).value)


class TestWitnessRevalidationFailures:
    def test_invalid_cover_witnesses_raise_verification_error(self, monkeypatch):
        monkeypatch.setattr(exact, "is_feasible_cover", lambda g, cover: False)
        g = gen_figure2()
        with pytest.raises(VerificationError, match="invalid witness"):
            exact_btt(g)
        with pytest.raises(VerificationError, match="invalid witness"):
            exact_btt_positive_only(g)

    def test_witness_cost_mismatch_raises_verification_error(self, monkeypatch):
        search = exact._btt_search

        def off_by_one(*args, **kwargs):
            res = search(*args, **kwargs)
            return replace(res, value=res.value + 1)

        monkeypatch.setattr(exact, "_btt_search", off_by_one)
        for solver in (exact_btt, exact_btt_positive_only):
            with pytest.raises(VerificationError, match="invalid witness"):
                solver(gen_figure2())

    def test_invalid_clustering_witness_raises_verification_error(self, monkeypatch):
        calls = []

        def off_after_seeding(g, clustering):
            # the two seed clusterings are priced first; the re-check is third
            calls.append(clustering)
            return cc_cost(g, clustering) + (1 if len(calls) > 2 else 0)

        monkeypatch.setattr(exact, "cc_cost", off_after_seeding)
        with pytest.raises(VerificationError, match="invalid witness"):
            exact_cc(gen_figure2())

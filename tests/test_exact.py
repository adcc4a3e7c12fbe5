import hashlib
import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from btt import exact
from btt import (CapacityError, Clustering, EdgeCover, InputError, SignedGraph,
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
                      brute_force_vertex_cover, instance_suite,
                      reference_btt_search, reference_exact_cc,
                      reference_greedy_cover)


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
        g = gen_random(11, positive_prob=0.5, complete=True, seed=0)
        with pytest.raises(BudgetExceededError) as err:
            exact_btt(g, node_budget=30)
        lower, upper = err.value.bounds
        assert lower <= exact_btt(g).value <= upper

    def test_default_node_budget_scales_with_the_triangle_count(self, monkeypatch):
        # 71 bad triangles, solved in 348 nodes; the default budget is the
        # work allowance over the triangle count, rounded down
        g = gen_random(11, positive_prob=0.5, complete=True, seed=0)
        assert len(g.bad_triangle_index()) == 71
        monkeypatch.setattr(exact, "BTT_NODE_WORK", 71 * 30 + 70)
        with pytest.raises(BudgetExceededError,
                           match="^cover search exceeded its budget of 30 nodes "
                                 "for 71 bad triangles$"):
            exact_btt(g)
        assert exact_btt(g, node_budget=348).value == 17

    def test_incumbent_trail_is_decreasing(self):
        res = exact_btt(gen_figure2())
        values = [v for _, v in res.trail]
        assert values == sorted(values, reverse=True)
        assert res.root_lower_bound <= res.value


F = Fraction
RATIONAL = ("rational", 4, 3)

#: exact_btt's (graph, value, nodes_explored, witness ids, trail), frozen
#: from the search that branches on the busiest open edge of the triangle
#: with the fewest open edges, packs the tightest triangles first and
#: starts from the cheaper of the 3-approximation and the greedy cover.
#: The node count and the trail depend on the branching rule, the packing
#: order and the seeds, so any change to one of them shows here.
PINNED = {
    "fig2": (
        gen_figure2,
        4, 1,
        [0, 2, 8, 13],
        [(0, 12), (0, 4)]),
    "gap6": (
        lambda: gen_integrality_gap(6),
        5, 9,
        [5, 10, 14, 17, 18],
        [(0, 9), (0, 5)]),
    "hexagram": (
        lambda: gen_hexagram()[0],
        9, 43,
        [0, 5, 15, 21, 26, 34, 38, 43, 49],
        [(0, 27), (0, 11), (15, 10), (34, 9)]),
    "unit9": (
        lambda: gen_random(9, complete=True, seed=1),
        10, 1,
        [0, 3, 6, 11, 12, 16, 17, 19, 22, 24],
        [(0, 24), (0, 10)]),
    "unit10": (
        lambda: gen_random(10, complete=True, seed=2),
        12, 21,
        [6, 8, 9, 14, 16, 17, 19, 25, 27, 35, 37, 42],
        [(0, 27), (0, 12)]),
    "rational9": (
        lambda: gen_random(9, complete=True, weights=RATIONAL, seed=3),
        F(73, 6), 213,
        [1, 2, 6, 10, 12, 17, 19, 20],
        [(0, 38), (0, F(83, 6)), (63, 13), (90, F(77, 6)), (200, F(73, 6))]),
    "rational10": (
        lambda: gen_random(10, complete=True, weights=RATIONAL, seed=3),
        F(34, 3), 638,
        [0, 1, 5, 10, 14, 15, 19, 20, 21, 27, 28, 35, 41],
        [(0, F(92, 3)), (0, F(34, 3))]),
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

    @staticmethod
    def cycle_reduction(n):
        return gen_vc_reduction(n, [(i, (i + 1) % n) for i in range(n)])

    def test_long_cycle_reduction_is_solved(self):
        # the lowest-edge rule ran past the depth guard here, and branching
        # on the busiest edge took one node per triangle plus the root; the
        # greedy cover meets the root bound, so the root closes the search
        res = exact_btt(self.cycle_reduction(800))
        assert (res.value, res.nodes_explored) == (400, 1)

    def test_deep_search_fails_fast(self):
        # 210 disjoint copies of the integrality-gap graph on 5 + 1 nodes
        # (2,100 triangles, under the default triangle budget): the bound
        # stays below the incumbent along the first dive, which takes more
        # branchings than the recursion may nest; this used to end in
        # RecursionError
        gap = gen_integrality_gap(5)
        edges = [(e.u + gap.n * k, e.v + gap.n * k, e.sign, e.weight)
                 for k in range(210) for e in gap.edges]
        with pytest.raises(CapacityError, match=f"deeper than {exact.MAX_BTT_DEPTH}"):
            exact_btt(SignedGraph(gap.n * 210, edges))

    @pytest.mark.parametrize("seed, value", zip(range(100, 106), (21, 24, 28, 23, 28, 21)))
    def test_complete_unit_fourteen_scales(self, seed, value):
        # the lowest-edge rule took up to 354,853 nodes on these graphs, and
        # the index-order packing from the 3-approximation up to 5,218
        res = exact_btt(gen_random(14, complete=True, seed=seed), node_budget=2_000)
        assert res.value == value

    @pytest.mark.parametrize("budget", ["triangle_budget", "node_budget"])
    def test_negative_budget_is_input_error(self, budget):
        for g in (gen_figure2(), complete_graph(4, lambda u, v: 1)):
            with pytest.raises(InputError, match="must be nonnegative"):
                exact_btt(g, **{budget: -1})


class TestAgainstTheIndexOrderSearch:
    @staticmethod
    def graphs():
        for n in range(6, 12):
            for complete in (True, False):
                for weights in ("unit", RATIONAL, ("uniform", 0.5, 2.0), "zero"):
                    for seed in range(2):
                        g = gen_random(n, complete=complete, density=0.5,
                                       weights=RATIONAL if weights == "zero" else weights,
                                       seed=seed)
                        if weights == "zero":
                            g = SignedGraph(g.n, [(e.u, e.v, e.sign, e.weight if i % 2 else 0)
                                                  for i, e in enumerate(g.edges)])
                        yield g

    @staticmethod
    def irredundant(g, covers):
        """The covers each of whose edges is the only cover edge of some
        bad triangle."""
        rows = [set(t) for t in g.bad_triangle_index().tolist()]
        return {c for c in covers
                if all(any(t & c == {e} for t in rows if e in t) for e in c)}

    def test_same_optima(self):
        # the search before the packing order and the greedy incumbent
        # changed is the oracle: the same optimum values, unrestricted and
        # positive-only, and the same optimal positive-only covers.  With
        # zero weights the oracle may also list a cover that keeps a
        # zero-weight edge made redundant by later edges, which depends on
        # its branching order; the search lists exactly the irredundant
        # optima.
        for g in self.graphs():
            assert exact_btt(g).value == reference_btt_search(g, list(range(g.m))).value
            positive = g.positive_edge_ids()
            want = reference_btt_search(g, positive)
            got = exact_btt_positive_only(g, enumerate_optima=10_000)
            assert got.value == want.value
            cap = sum(Fraction(g.edges[e].weight) for e in want.witness)
            listed = reference_btt_search(g, positive, enumerate_cap=cap)
            assert not (got.optima_truncated or listed.optima_truncated)
            if all(e.weight for e in g.edges):
                assert set(got.optima) == set(listed.optima)
            else:
                assert set(got.optima) == self.irredundant(g, listed.optima)


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


#: exact_cc's (value, nodes_explored, witness labels) without a lower
#: bound, frozen from the search that prunes on the incumbent plus a
#: bound on the unpriced pairs.  The search order must not change, so the
#: values and labels are those of the search without the bound; the node
#: counts are what the bound cuts.
CC_PINNED = {
    "fig2": (4, 2, [0, 0, 0, 0, 0, 0]),
    "gap6": (5, 37, [0, 0, 1, 2, 3, 4, 0]),
    "unit9": (10, 35, [0, 1, 0, 0, 0, 0, 0, 1, 0]),
    "unit10": (12, 123, [0, 1, 1, 0, 1, 0, 2, 1, 0, 0]),
    "rational9": (F(73, 6), 57, [0, 0, 1, 1, 1, 1, 2, 0, 0]),
}


def trail_values(res) -> list:
    return [v for _, v in res.trail]


def met_bound_trail(unprimed) -> list:
    """The trail values of a primed search that meets its bound: the seed,
    then the optimum unless the seed is it."""
    values = trail_values(unprimed)
    return values[:1] + values[1:][-1:]


class TestExactCc:
    @pytest.mark.parametrize("name", sorted(CC_PINNED))
    def test_search_is_unchanged(self, name):
        res = exact_cc(PINNED[name][0]())
        value, nodes, labels = CC_PINNED[name]
        assert (res.value, res.nodes_explored, list(res.witness.labels)) == \
            (value, nodes, labels)

    def test_matches_the_search_without_the_bound(self):
        # same value and witness as the incumbent-only search, with and
        # without the cover optimum as lower bound; the sparse graphs
        # include bad cycles with no bad triangle, where OPT_CC > OPT_BTT
        # and the early exit never fires.  A primed search that meets its
        # bound records only the seed and the optimum; otherwise its trail
        # values are the reference's
        above = 0
        for n in range(6, 11):
            for complete in (True, False):
                for weights in ("unit", RATIONAL, ("uniform", 0.5, 2.0)):
                    for seed in range(3):
                        g = gen_random(n, complete=complete, density=0.5,
                                       weights=weights, seed=seed)
                        cover = exact_btt(g).value
                        for bound in (None, cover):
                            want = reference_exact_cc(g, lower_bound=bound)
                            got = exact_cc(g, lower_bound=bound)
                            assert got.value == want.value
                            assert got.witness.labels == want.witness.labels
                            if bound is not None and got.value == bound:
                                assert trail_values(got) == met_bound_trail(want)
                            else:
                                assert trail_values(got) == trail_values(want)
                            assert got.nodes_explored <= want.nodes_explored
                        above += want.value > cover
        assert above >= 10

    def test_every_k5_sign_pattern(self):
        # the cover optimum as bound leaves value and witness alone and
        # never adds nodes; where it is met, the trail is the seed and the
        # optimum
        pairs = list(itertools.combinations(range(5), 2))
        for pattern in range(1 << len(pairs)):
            g = SignedGraph(5, [(u, v, 1 if pattern >> k & 1 else -1)
                                for k, (u, v) in enumerate(pairs)])
            cover = exact_btt(g).value
            plain = exact_cc(g)
            primed = exact_cc(g, lower_bound=cover)
            assert (primed.value, primed.witness) == (plain.value, plain.witness)
            assert primed.nodes_explored <= plain.nodes_explored
            if primed.value == cover:
                assert trail_values(primed) == met_bound_trail(plain)

    def test_bound_below_the_optimum_falls_back(self):
        # sparse graphs with bad cycles and no bad triangle on them, where
        # OPT_CC > OPT_BTT: the choices set aside above the bound are
        # searched in order, so the primed search visits exactly the nodes
        # of the unprimed one and records the same incumbents
        fallbacks = 0
        for n in range(6, 10):
            for weights in ("unit", RATIONAL):
                for seed in range(6):
                    g = gen_random(n, complete=False, density=0.5,
                                   weights=weights, seed=seed)
                    cover = exact_btt(g).value
                    plain = exact_cc(g)
                    if plain.value == cover:
                        continue
                    fallbacks += 1
                    primed = exact_cc(g, lower_bound=cover)
                    assert (primed.value, primed.witness) == (plain.value, plain.witness)
                    assert trail_values(primed) == trail_values(plain)
                    assert primed.nodes_explored == plain.nodes_explored
        assert fallbacks >= 10

    def test_float_weights_keep_value_and_witness(self):
        for n in range(6, 10):
            for complete in (True, False):
                for seed in range(8):
                    g = gen_random(n, complete=complete, density=0.5,
                                   weights=("uniform", 0.5, 2.0), seed=seed)
                    cover = exact_btt(g).value
                    plain = exact_cc(g)
                    primed = exact_cc(g, lower_bound=cover)
                    assert (primed.value, primed.witness) == (plain.value, plain.witness)
                    if primed.value == cover:
                        assert trail_values(primed) == met_bound_trail(plain)

    @pytest.mark.parametrize("seed", range(6))
    def test_complete_unit_twelve_scales(self, seed, monkeypatch):
        # the search without the bound takes 2,490-16,856 nodes here, over
        # the budget on every one of these graphs
        g = gen_random(12, positive_count=33, complete=True, seed=seed)
        cover = exact_btt(g).value
        monkeypatch.setattr(exact, "DEFAULT_CC_NODE_BUDGET", 2_000)
        res = exact_cc(g, lower_bound=cover)
        assert res.value == reference_exact_cc(g, lower_bound=cover).value

    def test_reports_the_packing_bound(self, monkeypatch):
        # with no lower bound passed, the budget error and the result carry
        # the search's own root bound; the incumbent is the cheaper seed
        g = gen_integrality_gap(5)
        with monkeypatch.context() as patch:
            patch.setattr(exact, "DEFAULT_CC_NODE_BUDGET", 0)
            with pytest.raises(BudgetExceededError) as caught:
                exact_cc(g)
        low, best = caught.value.bounds
        res = exact_cc(g)
        assert 0 < low <= res.value == 4
        assert best == 5
        assert res.root_lower_bound == low
        assert exact_cc(g, lower_bound=1).root_lower_bound == low
        assert exact_cc(g, lower_bound=4).root_lower_bound == 4

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

    def test_float_weights_price_the_witness_in_edge_order(self):
        # the search adds its incumbent's cost in search order; the witness
        # must cost what cc_cost adds in edge-id order (48 of these 120
        # graphs failed the re-check when the search-order sum was kept)
        for n in (6, 7, 8):
            for seed in range(40):
                g = gen_random(n, complete=True, weights=("uniform", 0.5, 2.0), seed=seed)
                res = exact_cc(g)
                assert res.value == cc_cost(g, res.witness)
                assert res.trail[-1][1] == res.value
                if n < 8:
                    assert math.isclose(res.value, brute_force_min_cc(g), rel_tol=1e-12)

    def test_lower_bound_early_exit_same_value(self):
        g = gen_figure2()
        plain = exact_cc(g)
        primed = exact_cc(g, lower_bound=4)
        assert plain.value == primed.value == 4
        assert primed.nodes_explored <= plain.nodes_explored

    def test_empty_graph(self):
        res = exact_cc(SignedGraph(0, []))
        assert (res.value, res.witness, res.nodes_explored) == (0, Clustering((), 0), 0)

    def test_node_cap(self):
        cap = exact.DEFAULT_CC_NODE_CAP
        exact_cc(complete_graph(cap, lambda u, v: 1))
        with pytest.raises(CapacityError, match=f"capped at {cap} nodes"):
            exact_cc(complete_graph(cap + 1, lambda u, v: 1))

    def test_node_budget(self, monkeypatch):
        g = gen_random(9, positive_prob=0.5, complete=True, seed=2)
        monkeypatch.setattr(exact, "DEFAULT_CC_NODE_BUDGET", 3)
        with pytest.raises(BudgetExceededError, match="exceeded 3 nodes"):
            exact_cc(g)

    def test_seeds_are_priced_as_cc_cost(self, monkeypatch):
        # with no search nodes the budget error carries the cheaper seed:
        # singletons pay the positive weights, one cluster the negative ones,
        # each totalled in edge-id order as cc_cost totals them
        third = Fraction(1, 3)
        for sign in (1, -1):
            g = SignedGraph(4, [(0, 1, 1, 0.1), (0, 2, -sign, 0.2), (1, 2, sign, 0.3),
                                (2, 3, -1, 0.7), (1, 3, sign, third), (0, 3, 1, 0.6)])
            seeds = (Clustering.from_labels(range(4)), Clustering.from_labels([0] * 4))
            monkeypatch.setattr(exact, "DEFAULT_CC_NODE_BUDGET", 0)
            with pytest.raises(BudgetExceededError) as caught:
                exact_cc(g)
            best = caught.value.bounds[1]
            assert best == min(cc_cost(g, c) for c in seeds)
            assert type(best) is float


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
        past_cap = exact.DEFAULT_CC_NODE_CAP + 1

        def make(seed):
            calls.append(seed)
            if len(calls) == 2:
                return complete_graph(past_cap, lambda u, v: 1 if (u + v) % 2 else -1)
            return gen_random(5, positive_prob=0.5, complete=True, seed=seed)

        report = ratio_survey(make, 4, seed=3)
        errors = [row for row in report["rows"] if row["error"]]
        assert len(errors) == 1
        assert sum(1 for row in report["rows"] if row["error"] is None) == 3

    def test_oversized_instance_rejected_before_any_search(self, monkeypatch):
        import btt.exact as exact_mod

        def refuse(g, **kwargs):
            raise AssertionError(f"search started on n={g.n}")

        cap = exact.DEFAULT_CC_NODE_CAP
        big = complete_graph(cap + 1, lambda u, v: 1 if (u + v) % 2 else -1)
        monkeypatch.setattr(exact_mod, "exact_btt", refuse)
        report = ratio_survey(lambda seed: big, 1, seed=0)
        (row,) = report["rows"]
        assert f"capped at {cap} nodes" in row["error"]

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

    def test_bad_cycle_without_bad_triangle_has_no_ratio(self):
        # a four-cycle with one negative edge: no bad triangle, so the cover
        # optimum is 0, while every clustering disagrees on one edge
        def make(seed):
            return SignedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, -1)])

        report = ratio_survey(make, 1, seed=0)
        (row,) = report["rows"]
        assert (row["opt_cover"], row["opt_clustering"], row["ratio"]) == (0, 1, None)
        assert row["error"] == "ratio undefined: cover optimum 0, clustering optimum > 0"
        assert report["violations"] == []
        assert report["equality_counterexample_candidates"] == []

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


#: SHA-256 digests of the exact oracles' results on a seeded suite, one per
#: oracle family.  Each result enters as the ``repr`` of its value, witness,
#: node count, root bound, trail and optima, so a digest pins number kinds
#: as well as values.  The cover oracles (``exact_btt`` and positive-only
#: enumeration) and the clustering search without a bound are frozen from
#: the searches that added Fraction weights and walked every uncovered
#: triangle at each node; the clustering search primed with the cover
#: optimum is frozen from the bound-first search, whose trail leaves out
#: the incumbents above a bound it meets and whose node counts fall.
FROZEN_DIGESTS = {
    "covers": "b4b9fe6c23eeae4f56c53ffee0f2c9425841562978abd2c30756cda20c81b12c",
    "clustering": "ad626071dbff3ac2c3df4b53e8a87fc707ab650317d0dfd52ebac09bb64fb5b4",
    "primed clustering": "1348e2a433034321b0267d08fffee298dc5b49af8d78d449bfa6fb3968534494",
}


def greedy_inputs(g: SignedGraph, allowed=None) -> tuple[list, list]:
    """The bad triangles' allowed edge ids, in index order, and each edge's
    bitmask of those triangles, as the cover search sets them up."""
    rows = g.bad_triangle_index().tolist()
    if allowed is not None:
        rows = [[e for e in t if e in allowed] for t in rows]
    masks = [0] * g.m
    for p, ids in enumerate(rows):
        for e in ids:
            masks[e] |= 1 << p
    return rows, masks


class TestGreedyCover:
    def assert_matches_list_greedy(self, g: SignedGraph) -> None:
        weights = g.edge_columns().weight.tolist()
        for allowed in (None, frozenset(g.positive_edge_ids())):
            rows, masks = greedy_inputs(g, allowed)
            cover = exact._greedy_cover(masks, weights)
            assert cover == reference_greedy_cover(rows, weights)
            assert all(any(e in cover for e in ids) for ids in rows)

    def test_every_k5_sign_pattern(self):
        # unit weights, and weights 0, 1, 2 in turn, so zero-weight edges
        # and ties of the per-weight hit rate both occur
        pairs = list(itertools.combinations(range(5), 2))
        for pattern in range(1 << len(pairs)):
            signs = [1 if pattern >> k & 1 else -1 for k in range(len(pairs))]
            for weigh in (lambda k: 1, lambda k: k % 3):
                self.assert_matches_list_greedy(SignedGraph(
                    5, [(u, v, s, weigh(k)) for k, ((u, v), s) in enumerate(zip(pairs, signs))]))

    @pytest.mark.parametrize("weights", ["unit", RATIONAL, ("uniform", 0.5, 2.0)],
                             ids=["unit", "rational", "float"])
    def test_seeded_random_graphs(self, weights):
        for n in range(6, 13):
            for complete in (True, False):
                for seed in range(4):
                    self.assert_matches_list_greedy(gen_random(
                        n, complete=complete, density=0.5, weights=weights, seed=seed))


class TestFrozenOutputs:
    @staticmethod
    def summary(res) -> str:
        w = res.witness
        witness = sorted(w.edge_ids) if isinstance(w, EdgeCover) else list(w.labels)
        optima = None if res.optima is None else [sorted(o) for o in res.optima]
        return repr((res.value, witness, res.nodes_explored, res.root_lower_bound,
                     res.trail, optima, res.optima_truncated))

    def test_digest_is_unchanged(self):
        digests = {name: hashlib.sha256() for name in FROZEN_DIGESTS}
        for n in range(6, 12):
            for complete in (True, False):
                for weights in ("unit", RATIONAL, ("uniform", 0.5, 2.0)):
                    for seed in range(3):
                        g = gen_random(n, complete=complete, density=0.5,
                                       weights=weights, seed=seed)
                        cover = exact_btt(g)
                        for name, res in (
                                ("covers", cover),
                                ("covers", exact_btt_positive_only(g, enumerate_optima=16)),
                                ("clustering", exact_cc(g)),
                                ("primed clustering", exact_cc(g, lower_bound=cover.value))):
                            digests[name].update(self.summary(res).encode() + b"\n")
        assert {name: d.hexdigest() for name, d in digests.items()} == FROZEN_DIGESTS

    def test_reported_numbers_keep_the_weights_kind(self):
        # the searches compare integer numerators, but an int-weight cover
        # still costs an int, and a JSON output writes 1 rather than "1"
        g = SignedGraph(3, [(0, 1, 1, 2), (1, 2, 1, F(3, 2)), (0, 2, -1, 1)])
        res = exact_btt(g)
        assert repr((res.value, res.root_lower_bound, res.trail)) == \
            "(1, 1, ((0, Fraction(9, 2)), (0, 1)))"
        cc = exact_cc(g, lower_bound=1)
        assert repr((cc.value, cc.root_lower_bound, cc.trail)) == "(1, 1, ((0, 1),))"
        with pytest.raises(BudgetExceededError) as caught:
            exact_btt(g, node_budget=0)
        assert repr(caught.value.bounds) == "(1, 1)"


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
        def off_by_one(g, clustering):
            # the seeds are priced from the weight column, so cc_cost only
            # re-checks the search's witness
            return cc_cost(g, clustering) + 1

        monkeypatch.setattr(exact, "cc_cost", off_by_one)
        with pytest.raises(VerificationError, match="invalid witness"):
            exact_cc(gen_figure2())

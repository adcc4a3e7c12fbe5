import hashlib
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial

import numpy as np
import pytest

from btt import (CapacityError, EdgeCover, InputError, SignedGraph,
                 VerificationError, cover_pivot, exact_btt,
                 exhaustive_expected_disagreements,
                 gen_figure2, gen_random, inclusion_probability,
                 match_flip_pivot, solve_exact, standard_pivot, triplet_sums,
                 verify_charging_tables)
from btt import pivot
from btt.approx import round_deterministic, standard_three_approx
from btt.graphs import cc_cost, complete_graph, flip_edges, is_feasible_cover
from btt.pivot import (ALG_COVER_PIVOT, ALG_FLIP_PIVOT, ALG_STANDARD_PIVOT,
                       MEMBER_COLUMNS, SIGN_ROWS, TRIALS_SCHEMA, TripletConfig,
                       _PivotSampler,
                       join_probabilities, pivot_trials, run_pivot,
                       trials_to_json)
from btt.rng import spawn_seeds

FIG2_COVER_PAIRS = [(0, 2), (0, 4), (1, 5), (3, 5)]

# Exact expectations on the six-node instance, frozen from the exhaustive
# oracle (cross-checked against 20k Monte Carlo trials within 3 stderr).
FIG2_COVER_PIVOT_EXPECTATION = Fraction(37, 8)
FIG2_FLIP_PIVOT_EXPECTATION = Fraction(14, 3)
FIG2_STANDARD_PIVOT_EXPECTATION = Fraction(4)


def fig2_with_cover():
    g = gen_figure2()
    return g, EdgeCover.from_pairs(g, FIG2_COVER_PAIRS)


def balanced_complete_graph():
    """Two positive cliques joined by negative edges: no bad triangles."""
    def sign(u, v):
        return 1 if (u < 3) == (v < 3) else -1
    return complete_graph(6, sign)


class TestInclusionProbability:
    @pytest.mark.parametrize("sign,in_cover,expected", [
        (1, False, Fraction(1)),
        (1, True, Fraction(1, 4)),
        (-1, True, Fraction(3, 4)),
        (-1, False, Fraction(0)),
    ])
    def test_values(self, sign, in_cover, expected):
        assert inclusion_probability(sign, in_cover) == expected


class TestTripletSums:
    def test_all_negative_all_in_cover(self):
        d, b, ratio = triplet_sums(TripletConfig((-1, -1, -1), (True, True, True)))
        assert (d, b, ratio) == (Fraction(27, 16), Fraction(45, 16), Fraction(3, 5))

    def test_all_positive_all_in_cover(self):
        d, b, ratio = triplet_sums(TripletConfig((1, 1, 1), (True, True, True)))
        assert (d, b, ratio) == (Fraction(9, 8), Fraction(21, 16), Fraction(6, 7))

    def test_all_negative_none_in_cover_is_zero_over_zero(self):
        d, b, ratio = triplet_sums(TripletConfig((-1, -1, -1), (False, False, False)))
        assert d == 0 and b == 0 and ratio is None

    def test_maximal_ratio_cell(self):
        d, b, ratio = triplet_sums(TripletConfig((-1, -1, 1), (False, True, False)))
        assert ratio == Fraction(3, 2)

    def test_covered_or_good_configs_never_exceed_three_halves(self):
        for signs in SIGN_ROWS:
            for member in MEMBER_COLUMNS:
                config = TripletConfig(signs, member)
                if config.is_uncovered_bad_triangle():
                    continue
                d, b, ratio = triplet_sums(config)
                assert 2 * d <= 3 * b

    def test_single_excluded_configuration(self):
        excluded = [(signs, member)
                    for signs in SIGN_ROWS for member in MEMBER_COLUMNS
                    if TripletConfig(signs, member).is_uncovered_bad_triangle()]
        assert excluded == [((-1, 1, 1), (False, False, False))]


class TestChargingTables:
    def test_full_verification_passes(self):
        report = verify_charging_tables()
        assert report["defined_cells"] == 31
        assert report["max_defined_ratio"] == "3/2"

    def test_exact_fraction_cells(self):
        report = verify_charging_tables()
        assert report["disagreement"][0][7] == "27/16"
        assert report["budget"][0][7] == "45/16"
        assert report["budget"][1][7] == "41/16"
        assert report["budget"][2][7] == "33/16"
        assert report["ratio"][1][7] == "12/41"
        assert report["ratio"][2][7] == "7/11"

    def test_wrong_reference_cell_is_named(self, monkeypatch):
        budget = [list(row) for row in pivot._REF_BUDGET]
        budget[1][7] = Fraction(5, 2)
        monkeypatch.setattr(pivot, "_REF_BUDGET", tuple(map(tuple, budget)))
        with pytest.raises(VerificationError,
                           match=r"^row --\+ column \+\+\+: budget sum 41/16 != reference 5/2$"):
            verify_charging_tables()

    def test_changed_join_cell_is_named(self, monkeypatch):
        # a positive cover edge joining with 1/2 instead of 1/4
        monkeypatch.setitem(pivot._JOIN_TABLES[ALG_COVER_PIVOT], (True, True),
                            Fraction(1, 2))
        with pytest.raises(VerificationError,
                           match=r"^row --\+ column -\+\+: disagreement sum 9/8 "
                                 r"!= reference 15/16$"):
            verify_charging_tables()

    def test_pivot_endpoint_edge_never_out_charges_budget(self):
        # the edge into the pivot is removed with certainty; its
        # disagreement probability must not exceed its budget
        for sign in (1, -1):
            for in_cover in (True, False):
                p = inclusion_probability(sign, in_cover)
                d_self = 1 - p if sign == 1 else p
                b_self = 1 if in_cover else 0
                assert d_self <= b_self


class TestCoverPivot:
    def test_requires_feasible_cover(self):
        g = gen_figure2()
        with pytest.raises(InputError, match="infeasible"):
            cover_pivot(g, EdgeCover(frozenset(), 0), seed=0)

    def test_bad_triangle_free_graph_clusters_perfectly(self):
        g = balanced_complete_graph()
        for seed in (0, 1, 2):
            trace = cover_pivot(g, EdgeCover(frozenset(), 0), seed=seed)
            assert trace.disagreements == 0
            assert trace.clustering.labels == (0, 0, 0, 1, 1, 1)

    def test_single_bad_triangle_exact_expectation(self):
        g = SignedGraph(3, [(0, 1, 1), (0, 2, 1), (1, 2, -1)])
        f = EdgeCover.from_pairs(g, [(1, 2)])
        expectation = exhaustive_expected_disagreements(g, f)
        assert expectation == 1
        assert expectation <= Fraction(3, 2) * f.size

    def test_figure2_exact_expectation(self):
        g, f = fig2_with_cover()
        expectation = exhaustive_expected_disagreements(g, f)
        assert expectation == FIG2_COVER_PIVOT_EXPECTATION
        assert expectation <= Fraction(3, 2) * f.size

    def test_figure2_monte_carlo_matches_oracle(self):
        g, f = fig2_with_cover()
        report = pivot_trials(g, "cover-pivot", 4000, seed=99, cover=f)
        exact = float(FIG2_COVER_PIVOT_EXPECTATION)
        assert abs(report["mean"] - exact) <= 3 * report["stderr"]
        assert report["mean"] <= 1.5 * f.size + 3 * report["stderr"]

    def test_trace_bookkeeping(self):
        g, f = fig2_with_cover()
        trace = cover_pivot(g, f, seed=3)
        assert sorted(trace.clustering.labels) == sorted(trace.clustering.labels)
        assert len(trace.clustering.labels) == g.n
        assert sum(trace.removed_per_round) == f.size
        assert len(set(trace.pivot_order)) == len(trace.pivot_order)
        assert trace.disagreements == cc_cost(g, trace.clustering)

    def test_seeded_determinism(self):
        g, f = fig2_with_cover()
        a, b = cover_pivot(g, f, seed=5), cover_pivot(g, f, seed=5)
        assert a.clustering == b.clustering and a.pivot_order == b.pivot_order


class TestStandardPivot:
    def test_all_positive_single_cluster(self):
        g = complete_graph(5, lambda u, v: 1)
        trace = standard_pivot(g, seed=0)
        assert trace.clustering.num_clusters == 1
        assert trace.disagreements == 0

    def test_all_negative_singletons(self):
        g = complete_graph(5, lambda u, v: -1)
        trace = standard_pivot(g, seed=0)
        assert trace.clustering.num_clusters == 5
        assert trace.disagreements == 0

    def test_figure2_expectation_within_three_times_lp(self):
        g = gen_figure2()
        expectation = exhaustive_expected_disagreements(
            g, algorithm=ALG_STANDARD_PIVOT)
        assert expectation == FIG2_STANDARD_PIVOT_EXPECTATION
        assert expectation <= 3 * solve_exact(g).value


class TestMatchFlipPivot:
    def test_empty_cover_on_triangle_free_graph(self):
        g = balanced_complete_graph()
        trace = match_flip_pivot(g, EdgeCover(frozenset(), 0), seed=1)
        assert trace.disagreements == 0

    def test_requires_feasible_cover(self):
        g = gen_figure2()
        with pytest.raises(InputError):
            match_flip_pivot(g, EdgeCover(frozenset(), 0), seed=0)

    def test_figure2_exact_expectation_within_twice_cover(self):
        g, f = fig2_with_cover()
        expectation = exhaustive_expected_disagreements(
            g, f, algorithm=ALG_FLIP_PIVOT)
        assert expectation == FIG2_FLIP_PIVOT_EXPECTATION
        assert expectation <= 2 * f.size

    def test_figure2_monte_carlo(self):
        g, f = fig2_with_cover()
        report = pivot_trials(g, "flip-pivot", 4000, seed=17, cover=f)
        assert report["mean"] <= 2 * f.size + 3 * report["stderr"]

    def test_disagreements_scored_on_original_graph(self):
        g, f = fig2_with_cover()
        trace = match_flip_pivot(g, f, seed=23)
        assert trace.disagreements == cc_cost(g, trace.clustering)

    def test_comparative_report(self, capsys):
        # softened probabilities vs sign flipping: reported, not asserted
        e_cover = float(FIG2_COVER_PIVOT_EXPECTATION)
        e_flip = float(FIG2_FLIP_PIVOT_EXPECTATION)
        print(f"six-node instance: cover-pivot expectation {e_cover:.4f}, "
              f"flip-pivot expectation {e_flip:.4f}")


class TestPivotTrials:
    def test_reproducible(self):
        g, f = fig2_with_cover()
        a = pivot_trials(g, "cover-pivot", 50, seed=4, cover=f)
        b = pivot_trials(g, "cover-pivot", 50, seed=4, cover=f)
        assert a["disagreements"] == b["disagreements"]

    def test_unknown_algorithm(self):
        g = gen_figure2()
        with pytest.raises(InputError):
            pivot_trials(g, "nope", 5, seed=0)

    def test_cover_required(self):
        g = gen_figure2()
        with pytest.raises(InputError, match="needs a cover"):
            pivot_trials(g, "cover-pivot", 5, seed=0)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_empty_batch_rejected(self, trials):
        g = gen_figure2()
        with pytest.raises(InputError, match="trials"):
            pivot_trials(g, "pivot", trials, seed=0)


PIVOT_ALGS = (ALG_STANDARD_PIVOT, ALG_COVER_PIVOT, ALG_FLIP_PIVOT)

# (pivot_order, removed_per_round) for seeds 0..4, frozen so that any
# change in the order of pivot choices or coin draws shows up.
FIG2_FROZEN = {
    ALG_COVER_PIVOT: [((4, 0), (4, 0)), ((0, 4), (4, 0)), ((2, 3), (4, 0)),
                      ((1, 2), (4, 0)), ((1, 2), (4, 0))],
    ALG_FLIP_PIVOT: [((4, 0), (4, 0)), ((0, 4), (4, 0)), ((2, 3), (4, 0)),
                     ((1, 2), (4, 0)), ((1, 2), (4, 0))],
}
# The same on a complete n=12 graph with its 3-approximate cover, where
# removals spread over several rounds.
RANDOM12_FROZEN = {
    ALG_COVER_PIVOT: [((3, 7, 9), (32, 4, 0)),
                      ((11, 2, 6, 9, 5), (11, 18, 7, 0, 0)),
                      ((11, 5, 2, 6, 8, 9), (11, 20, 3, 2, 0, 0)),
                      ((5, 0, 7, 9, 2, 11), (25, 7, 3, 1, 0, 0)),
                      ((4, 8, 2, 11, 9, 0, 5), (27, 2, 4, 1, 1, 1, 0))],
    ALG_FLIP_PIVOT: [((3, 7, 0, 10, 9), (27, 8, 1, 0, 0)),
                     ((11, 2, 6, 8, 9, 5), (11, 14, 10, 1, 0, 0)),
                     ((11, 5, 0, 2, 8, 9), (11, 16, 7, 2, 0, 0)),
                     ((5, 0, 8, 1, 9, 11), (26, 7, 1, 1, 1, 0)),
                     ((4, 8, 1, 11, 0), (28, 2, 6, 0, 0))],
}


# trials_to_json of an 8-trial batch (seed 5) per algorithm on a sparse
# float graph, and removed_per_round of its first trial run with the
# cover given, frozen when runs took the permutation form.
FLOAT150_FROZEN = {
    ALG_STANDARD_PIVOT: (
        [1081.9901319811177, 1098.3065958561704, 1072.2698578542038,
         1060.6133795371, 1092.0209517598419, 1077.7669983223682,
         1075.620233722462, 1083.2963912077817],
        1080.2355675301305, 4.126963637741578,
        (177, 152, 120, 163, 70, 109, 144, 18, 49, 48, 31, 35, 21, 9, 9, 16, 4,
         5, 1, 8, 0, 3, 3, 0, 0, 5, 0, 0, 0, 0)),
    ALG_COVER_PIVOT: (
        [1160.2479619073174, 1210.405387316857, 1187.1744414975294,
         1205.7140677472075, 1182.1244604621684, 1172.0381209844952,
         1206.4242259399534, 1197.2952904694682],
        1190.1779945406245, 6.358143728044339,
        (130, 90, 173, 110, 79, 108, 86, 47, 53, 53, 56, 9, 29, 13, 19, 18, 32,
         18, 10, 2, 4, 4, 11, 2, 1, 7, 8, 9, 4, 8, 0, 2, 2, 0, 0, 0, 3, 0, 0,
         0, 0, 0, 0)),
    ALG_FLIP_PIVOT: (
        [1262.7781601770967, 1264.7895937337887, 1246.3444480494575,
         1264.5009689255808, 1273.8604441572754, 1250.1670502116976,
         1277.0091507007094, 1269.0826822528215],
        1263.5665622760534, 3.7707364971604735,
        (105, 49, 154, 86, 69, 95, 44, 52, 105, 51, 25, 54, 21, 6, 35, 7, 19,
         10, 21, 19, 14, 17, 13, 4, 20, 11, 9, 11, 13, 3, 15, 18, 2, 2, 2, 5,
         0, 2, 2, 5, 0, 1, 1, 1, 1, 1, 0, 0, 0)),
}


# pivot_trials disagreements (4 trials, seed 9), then pivot_order,
# removed_per_round, cluster count and a SHA-256 prefix of the labels'
# repr for run_pivot with seed 3 and the cover given, per algorithm on two
# larger float graphs, frozen when runs took the permutation form.
WIDE_FROZEN = {
    "sparse150": {
        ALG_STANDARD_PIVOT: (
            [1941.9502363154488, 1969.2617811614818, 1986.52986293512,
             1994.042725968416],
            (73, 32, 65, 70, 57, 60, 117, 44, 139, 11, 112, 76, 127, 101, 114,
             100, 10, 5, 131),
            (785, 412, 214, 313, 159, 132, 66, 48, 48, 26, 15, 6, 2, 8, 0, 0,
             1, 0, 0),
            "950f9df32d85e8cb"),
        ALG_COVER_PIVOT: (
            [2122.320224211051, 2139.491333417878, 2102.8790310646514,
             2166.790771195762],
            (73, 32, 65, 36, 7, 68, 60, 117, 144, 25, 139, 53, 105, 86, 46, 96,
             84, 72, 127, 141, 47, 108, 115, 134),
            (527, 430, 182, 155, 329, 91, 129, 99, 72, 57, 35, 27, 16, 29, 12,
             12, 15, 2, 4, 10, 2, 0, 0, 0),
            "378e3822797be498"),
        ALG_FLIP_PIVOT: (
            [2247.377084130818, 2261.6700885902583, 2228.131405969871,
             2230.3226372906984],
            (73, 32, 65, 36, 7, 68, 60, 117, 144, 25, 139, 102, 105, 86, 46,
             85, 84, 136, 72, 33, 127, 114, 141, 47, 108, 1, 74, 115, 106, 75,
             79, 147),
            (483, 377, 167, 234, 350, 152, 104, 71, 55, 60, 26, 7, 31, 25, 12,
             19, 22, 2, 8, 2, 13, 3, 1, 4, 1, 2, 1, 0, 2, 0, 1, 0),
            "4b5246936975939d"),
    },
    "complete40": {
        ALG_STANDARD_PIVOT: (
            [415.6297442925594, 425.8555169199359, 439.0150522535222,
             435.2806551230295],
            (28, 16, 21, 34, 38),
            (477, 66, 5, 1, 0),
            "e651018486e9a9c3"),
        ALG_COVER_PIVOT: (
            [463.50426813699966, 457.1617511986622, 469.86202673400845,
             464.166284194966],
            (28, 16, 37, 20, 33, 7, 0, 25),
            (322, 140, 31, 24, 21, 10, 1, 0),
            "dd0af809d2bc9ed2"),
        ALG_FLIP_PIVOT: (
            [480.8289248720337, 520.2483989006549, 506.41812432559794,
             507.29909447479844],
            (28, 16, 37, 20, 33, 9, 38, 25, 29, 39),
            (196, 237, 16, 60, 15, 22, 2, 1, 0, 0),
            "9e1e1346bdb8751d"),
    },
}
WIDE_GRAPHS = {
    "sparse150": lambda: gen_random(150, complete=False, density=0.3,
                                    weights=("uniform", 0.5, 2.0), seed=1),
    "complete40": lambda: gen_random(40, complete=True,
                                     weights=("uniform", 0.5, 2.0), seed=1),
}


def random12_with_cover():
    g = gen_random(12, positive_prob=0.5, complete=True, seed=7)
    return g, standard_three_approx(g).cover


def sparse_float_with_cover():
    g = gen_random(40, positive_prob=0.4, complete=False, density=0.3,
                   weights=("uniform", 0.5, 2.0), seed=12)
    return g, standard_three_approx(g).cover


class TestPivotKernel:
    @pytest.mark.parametrize("make", [fig2_with_cover, random12_with_cover,
                                      sparse_float_with_cover])
    @pytest.mark.parametrize("algorithm", PIVOT_ALGS)
    def test_every_trial_equals_its_single_run(self, make, algorithm):
        g, f = make()
        trials, seed = 6, 31
        report = pivot_trials(g, algorithm, trials, seed, cover=f)
        for k, s in enumerate(spawn_seeds(seed, trials)):
            single = run_pivot(g, algorithm, s, cover=f)
            assert report["disagreements"][k] == float(single.disagreements)

    @pytest.mark.parametrize("make", [fig2_with_cover, random12_with_cover,
                                      sparse_float_with_cover])
    def test_flip_pivot_is_standard_pivot_on_flipped_graph(self, make):
        g, f = make()
        flipped = flip_edges(g, f.edge_ids)
        for seed in range(8):
            trace = match_flip_pivot(g, f, seed)
            reference = standard_pivot(flipped, seed)
            assert trace.clustering == reference.clustering
            assert trace.pivot_order == reference.pivot_order
            assert trace.disagreements == cc_cost(g, reference.clustering)

    @pytest.mark.parametrize("make,frozen", [(fig2_with_cover, FIG2_FROZEN),
                                             (random12_with_cover, RANDOM12_FROZEN)],
                             ids=["fig2", "random12"])
    def test_rounds_match_frozen_values(self, make, frozen):
        g, f = make()
        for algorithm, expected in frozen.items():
            for seed, (order, removed) in enumerate(expected):
                trace = run_pivot(g, algorithm, seed, cover=f)
                assert trace.pivot_order == order
                assert trace.removed_per_round == removed
                assert sum(trace.removed_per_round) == f.size

    @pytest.mark.parametrize("algorithm", PIVOT_ALGS)
    def test_float_batches_match_frozen_values(self, algorithm):
        g = gen_random(150, positive_prob=0.3, complete=False, density=0.3,
                       weights=("uniform", 0.5, 2.0), seed=4)
        f = standard_three_approx(g).cover
        costs, mean, stderr, removed = FLOAT150_FROZEN[algorithm]
        report = pivot_trials(g, algorithm, 8, 5,
                              cover=None if algorithm == ALG_STANDARD_PIVOT else f)
        assert trials_to_json(report) == {
            "schema": TRIALS_SCHEMA, "algorithm": algorithm, "trials": 8,
            "seed": 5, "disagreements": costs, "mean": mean, "stderr": stderr}
        trace = run_pivot(g, algorithm, spawn_seeds(5, 8)[0], cover=f)
        assert trace.disagreements == costs[0]
        assert trace.removed_per_round == removed
        assert sum(removed) == f.size

    @pytest.mark.parametrize("graph", sorted(WIDE_GRAPHS))
    def test_wide_runs_match_frozen_values(self, graph):
        g = WIDE_GRAPHS[graph]()
        f = standard_three_approx(g).cover
        for algorithm, (costs, order, removed, labels) in WIDE_FROZEN[graph].items():
            report = pivot_trials(g, algorithm, 4, 9,
                                  cover=None if algorithm == ALG_STANDARD_PIVOT else f)
            assert report["disagreements"] == costs
            trace = run_pivot(g, algorithm, 3, cover=f)
            assert trace.pivot_order == order
            assert trace.removed_per_round == removed
            assert trace.clustering.num_clusters == len(order)
            digest = hashlib.sha256(repr(trace.clustering.labels).encode())
            assert digest.hexdigest()[:16] == labels

    @pytest.mark.parametrize("algorithm", PIVOT_ALGS)
    def test_join_lists_follow_join_probabilities(self, algorithm):
        g, f = sparse_float_with_cover()
        probs = join_probabilities(g, algorithm, f)
        for p, (i, e) in zip(probs, enumerate(g.edges)):
            in_cover = algorithm != ALG_STANDARD_PIVOT and i in f.edge_ids
            if algorithm == ALG_COVER_PIVOT:
                assert p == inclusion_probability(e.sign, in_cover)
            else:
                assert p == int((e.sign == 1) != in_cover)
        expected = [[] for _ in range(g.n)]
        for e, p in zip(g.edges, probs):
            if p:
                expected[e.u].append((e.v, float(p)))
                expected[e.v].append((e.u, float(p)))
        sampler = _PivotSampler(g, algorithm, f)
        assert sampler.coin_p.tolist() == [float(p) for p in probs if 0 < p < 1]
        coin_p = sampler.coin_p.tolist() + [1.0]  # slot -1: probability 1
        bounds = sampler.bounds
        joins = [sorted(zip(sampler.neighbours[lo:hi],
                            [coin_p[s] for s in sampler.slots[lo:hi]]))
                 for lo, hi in zip(bounds, bounds[1:])]
        assert joins == [sorted(x) for x in expected]

    def test_standard_pivot_removes_no_cover_edges(self):
        trace = standard_pivot(gen_figure2(), seed=2)
        assert trace.removed_per_round == (0,) * len(trace.pivot_order)

    def test_cover_checked_once_per_batch(self, monkeypatch):
        calls = []

        def counting(g, cover):
            calls.append(1)
            return is_feasible_cover(g, cover)

        monkeypatch.setattr(pivot, "is_feasible_cover", counting)
        g, f = fig2_with_cover()
        for algorithm in (ALG_COVER_PIVOT, ALG_FLIP_PIVOT):
            calls.clear()
            pivot_trials(g, algorithm, 20, seed=1, cover=f)
            assert len(calls) == 1


def enumerated_expectation(g, algorithm, cover):
    """E[disagreements] of a pivot run in exact rationals, by walking every
    permutation under every coin vector, each weighted by its probability;
    asserts that every run's ``removed_per_round`` sums to the cover size."""
    sampler = _PivotSampler(g, algorithm, cover)
    probs = [p for p in join_probabilities(g, algorithm, cover) if 0 < p < 1]
    assert sampler.coin_p.tolist() == [float(p) for p in probs]
    orders = [np.array(order) for order in permutations(range(g.n))]
    expected = Fraction(0)
    for coins in product((False, True), repeat=len(probs)):
        weight = Fraction(1)
        for p, coin in zip(probs, coins):
            weight *= p if coin else 1 - p
        drawn = np.array(coins, dtype=bool)
        runs = Counter()
        for order in orders:
            pivots, rounds = sampler.walk(order, drawn)
            runs[tuple(pivots), tuple(rounds)] += 1
        for (pivots, rounds), count in runs.items():
            trace = sampler.trace(None, pivots, rounds)
            assert sum(trace.removed_per_round) == cover.size
            expected += weight * count * trace.disagreements
    return expected / factorial(g.n)


def k4_sign_patterns():
    """Every sign pattern of K4 that has a bad triangle."""
    pairs = list(combinations(range(4), 2))
    for bits in range(1 << len(pairs)):
        signs = {pair: 1 if bits >> k & 1 else -1 for k, pair in enumerate(pairs)}
        g = complete_graph(4, lambda u, v: signs[u, v])
        if len(g.bad_triangle_index()):
            yield g


class TestPermutationForm:
    """A run is a draw (permutation, coins) followed by a deterministic
    walk; over the exact law of the draw, the walk's expected
    disagreements equal the exhaustive oracle's."""

    @pytest.mark.parametrize("algorithm", PIVOT_ALGS)
    def test_fig2(self, algorithm):
        g, f = fig2_with_cover()
        assert enumerated_expectation(g, algorithm, f) == \
            exhaustive_expected_disagreements(g, f, algorithm)

    def test_every_k4_with_a_bad_triangle(self):
        checked = 0
        for g in k4_sign_patterns():
            for f in (exact_btt(g).witness, standard_three_approx(g).cover):
                for algorithm in PIVOT_ALGS:
                    assert enumerated_expectation(g, algorithm, f) == \
                        exhaustive_expected_disagreements(g, f, algorithm)
                    checked += 1
        assert checked == 49 * 2 * 3  # 64 sign patterns, 15 of them clusterable

    @pytest.mark.parametrize("make", [
        lambda: gen_random(6, complete=True, seed=3),
        lambda: gen_random(6, complete=False, density=0.7,
                           weights=("rational", 4, 3), seed=1),
    ], ids=["complete-unit", "density0.7-rational"])
    @pytest.mark.parametrize("algorithm", PIVOT_ALGS)
    def test_six_nodes(self, make, algorithm):
        g = make()
        f = exact_btt(g).witness
        assert enumerated_expectation(g, algorithm, f) == \
            exhaustive_expected_disagreements(g, f, algorithm)

    def test_draw_then_walk_is_the_run(self):
        g, f = sparse_float_with_cover()
        for algorithm in PIVOT_ALGS:
            sampler = _PivotSampler(g, algorithm, f)
            for seed in range(4):
                order, coins = sampler.draw(seed)
                assert sorted(order.tolist()) == list(range(g.n))
                assert len(coins) == len(sampler.coin_p)
                trace = sampler.trace(seed, *sampler.walk(order, coins))
                assert trace == run_pivot(g, algorithm, seed, cover=f)


class TestExhaustiveOracle:
    def test_node_cap(self):
        g = complete_graph(12, lambda u, v: 1)
        with pytest.raises(CapacityError):
            exhaustive_expected_disagreements(g, algorithm=ALG_STANDARD_PIVOT)

    def test_suite_of_approx_covers_meets_three_halves_bound(self):
        checked = 0
        for i, s in enumerate(spawn_seeds(2025, 12)):
            g = gen_random(4 + i % 3, positive_prob=0.5, complete=True, seed=s)
            sol = solve_exact(g)
            cover = round_deterministic(g, sol.primal).cover
            expectation = exhaustive_expected_disagreements(
                g, EdgeCover.from_ids(g, cover.edge_ids))
            assert expectation <= Fraction(3, 2) * cover.size
            checked += 1
        assert checked == 12

    def test_monte_carlo_cross_validation(self):
        g = gen_random(5, positive_prob=0.5, complete=True, seed=321)
        sol = solve_exact(g)
        f = round_deterministic(g, sol.primal).cover
        exact = float(exhaustive_expected_disagreements(g, f))
        report = pivot_trials(g, "cover-pivot", 4000, seed=8, cover=f)
        assert abs(report["mean"] - exact) <= 3.5 * report["stderr"]

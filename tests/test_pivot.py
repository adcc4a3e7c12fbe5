import hashlib
from fractions import Fraction

import pytest

from btt import (CapacityError, EdgeCover, InputError, SignedGraph,
                 VerificationError, cover_pivot, exhaustive_expected_disagreements,
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

    def test_rendered_tables_match_published_form(self):
        report = verify_charging_tables()
        assert report["disagreement_sig4"] == [
            ["0", "0", "0", "0", "0.5625", "0.5625", "0.5625", "1.688"],
            ["0", "0", "1.5", "1.5", "0.9375", "1.875", "0.9375", "0.75"],
            ["x", "1.5", "1.5", "1.5", "0.5625", "1.125", "1.125", "1.312"],
            ["0", "1.5", "1.5", "1.5", "1.875", "1.875", "1.875", "1.125"],
        ]
        assert report["budget_sig4"] == [
            ["0", "0", "0", "0", "1.5", "1.5", "1.5", "2.812"],
            ["0", "0", "1", "1", "1", "2", "1", "2.562"],
            ["x", "1", "1", "1", "0.5", "2", "2", "2.062"],
            ["0", "1", "1", "1", "2", "2", "2", "1.312"],
        ]
        assert report["ratio_sig4"] == [
            ["0/0", "0/0", "0/0", "0/0", "0.375", "0.375", "0.375", "0.6"],
            ["0/0", "0/0", "1.5", "1.5", "0.9375", "0.9375", "0.9375", "0.2927"],
            ["x", "1.5", "1.5", "1.5", "1.125", "0.5625", "0.5625", "0.6364"],
            ["0/0", "1.5", "1.5", "1.5", "0.9375", "0.9375", "0.9375", "0.8571"],
        ]

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
    ALG_COVER_PIVOT: [((0, 2), (4, 0)), ((2, 1), (4, 0)), ((4, 3), (4, 0)),
                      ((3, 2), (4, 0)), ((5, 1), (4, 0))],
    ALG_FLIP_PIVOT: [((0, 2), (4, 0)), ((2, 0), (4, 0)), ((4, 3), (4, 0)),
                     ((3, 2), (4, 0)), ((5, 1), (4, 0))],
}
# The same on a complete n=12 graph with its 3-approximate cover, where
# removals spread over several rounds.
RANDOM12_FROZEN = {
    ALG_COVER_PIVOT: [((1, 0, 5, 11), (25, 9, 1, 1)),
                      ((5, 2, 6, 9, 8), (30, 0, 5, 1, 0)),
                      ((9, 7, 6, 10, 0), (4, 19, 12, 1, 0)),
                      ((7, 2, 8, 11, 9, 6), (22, 1, 5, 5, 3, 0)),
                      ((11, 5, 2, 4, 0, 8), (11, 10, 7, 8, 0, 0))],
    ALG_FLIP_PIVOT: [((1, 0, 11, 5, 8, 9), (15, 9, 8, 4, 0, 0)),
                     ((5, 0, 1, 8, 9, 11), (26, 7, 2, 0, 1, 0)),
                     ((9, 7, 10, 11, 6), (13, 15, 4, 3, 1)),
                     ((7, 0, 4, 8, 11), (19, 8, 9, 0, 0)),
                     ((11, 5, 9, 6, 8, 2), (11, 16, 2, 5, 1, 1))],
}


# trials_to_json of an 8-trial batch (seed 5) per algorithm on a sparse
# float graph, and removed_per_round of its first trial run with the
# cover given, frozen before the pivot kernel read edge columns.
FLOAT150_FROZEN = {
    ALG_STANDARD_PIVOT: (
        [1087.3504186382957, 1074.2997064389776, 1081.4608144573492,
         1062.7265752924318, 1082.1795993135336, 1082.8886823172506,
         1108.8333515093893, 1078.4573459156368],
        1082.2745617353582, 4.614563924082379,
        (160, 224, 135, 121, 151, 42, 56, 9, 55, 48, 54, 39, 23, 17, 15, 5,
         9, 17, 7, 7, 0, 0, 1, 4, 1, 0, 0, 0, 0, 0, 0, 0)),
    ALG_COVER_PIVOT: (
        [1175.3513272047487, 1165.9983943034467, 1183.9050860971174,
         1206.473953197801, 1178.8419478127703, 1195.3698117522597,
         1197.025107317387, 1193.5738921808138],
        1187.067439983293, 4.7167300626861905,
        (190, 82, 134, 163, 62, 89, 48, 48, 69, 64, 53, 16, 11, 20, 17, 14,
         11, 12, 18, 23, 4, 6, 12, 2, 1, 4, 6, 12, 4, 3, 0, 1, 0, 0, 0, 0,
         0, 0, 1)),
    ALG_FLIP_PIVOT: (
        [1269.2702004194723, 1252.4274737326173, 1267.0288585039496,
         1270.844789862161, 1262.1877195960085, 1265.208116960702,
         1251.3044640942367, 1273.6199912829793],
        1263.9864518065158, 2.916047996521441,
        (193, 203, 81, 67, 50, 20, 23, 35, 52, 74, 58, 26, 57, 34, 20, 35, 13,
         4, 22, 6, 11, 4, 35, 12, 3, 30, 8, 5, 1, 3, 0, 0, 0, 7, 3, 1, 0, 0,
         1, 2, 0, 1, 0, 0, 0, 0)),
}


# pivot_trials disagreements (4 trials, seed 9), then pivot_order,
# removed_per_round, cluster count and a SHA-256 prefix of the labels'
# repr for run_pivot with seed 3 and the cover given, per algorithm on two
# larger float graphs, frozen before the sampler read edge columns.
WIDE_FROZEN = {
    "sparse150": {
        ALG_STANDARD_PIVOT: (
            [1952.8226077789639, 1974.1393383236762, 1971.6873727938334,
             1990.561697017447],
            (98, 6, 39, 19, 83, 26, 68, 141, 134, 148, 20, 97, 77, 126, 8, 28,
             96, 79),
            (858, 507, 238, 188, 127, 104, 59, 64, 20, 11, 24, 13, 5, 10, 5, 2,
             0, 0),
            "99db01404b7172ed"),
        ALG_COVER_PIVOT: (
            [2120.1100743819197, 2125.8243111233246, 2113.5818800578395,
             2084.3430274277353],
            (98, 8, 124, 85, 117, 15, 129, 61, 64, 139, 27, 23, 136, 49, 65,
             106, 77, 134, 127, 43, 143, 99, 22, 142, 145, 66, 16),
            (485, 495, 206, 258, 57, 82, 113, 130, 125, 26, 69, 73, 29, 27, 1,
             6, 12, 2, 7, 21, 5, 2, 1, 2, 1, 0, 0),
            "46ec5a7a84cf4d74"),
        ALG_FLIP_PIVOT: (
            [2211.512945828326, 2216.8505904818644, 2219.06531617042,
             2220.277168687568],
            (98, 6, 43, 25, 91, 34, 78, 146, 136, 143, 54, 115, 92, 129, 32,
             79, 84, 134, 131, 117, 80, 38, 107, 112, 82, 56, 109, 35),
            (447, 618, 255, 194, 157, 84, 69, 61, 35, 38, 63, 20, 32, 36, 38,
             27, 14, 13, 16, 8, 1, 2, 3, 3, 1, 0, 0, 0),
            "121b675ac8cb4bbd"),
    },
    "complete40": {
        ALG_STANDARD_PIVOT: (
            [393.06283156905425, 439.67791024063933, 428.8912777438368,
             444.29676664598924],
            (26, 2, 14, 11), (462, 47, 24, 16), "0bd9b3d890e40a39"),
        ALG_COVER_PIVOT: (
            [479.1740103125301, 466.1512152281519, 461.7488059662003,
             482.84603494515244],
            (26, 3, 2, 25, 27, 24, 23, 38, 4), (234, 215, 70, 13, 4, 4, 1, 5, 3),
            "abaedbec443a2e6a"),
        ALG_FLIP_PIVOT: (
            [500.15486454154524, 492.63639946421506, 489.2783945701944,
             497.1252843820741],
            (26, 1, 13, 4, 35, 27, 30, 39, 36, 17),
            (176, 276, 61, 20, 8, 3, 2, 0, 3, 0), "079793029e80eb81"),
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
        assert _PivotSampler(g, algorithm, f).joins == [sorted(x) for x in expected]

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

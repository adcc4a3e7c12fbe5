import time
from itertools import product

import pytest

from btt import (CapacityError, InputError, VerificationError, consistent_cover,
                 exact_btt, gen_hardness_reduction, gen_random, is_feasible_cover)
from btt.generators import TwoCnfFormula, parse_2cnf
from btt.graphs import COMPLETE_NODE_BOUND

# (DIMACS text, validity mode); the relaxed formulas leave a clause
# unsatisfied under every assignment
FORMULAS = [
    ("p cnf 1 2\n1 1 0\n1 -1 0\n", "theorem"),
    ("p cnf 2 4\n1 2 0\n-1 -2 0\n1 -2 0\n-1 2 0\n", "relaxed"),
    ("p cnf 2 3\n1 1 0\n-1 -1 0\n2 -1 0\n", "relaxed"),
]


class TestHardnessReduction:
    @pytest.mark.parametrize("text, mode", FORMULAS)
    def test_consistent_cover_prices_unsatisfied_clauses(self, text, mode):
        f = parse_2cnf(text)
        g, gmap = gen_hardness_reduction(f, mode=mode)
        base = 9 * f.num_vars + len(f.clauses)
        for assignment in product([False, True], repeat=f.num_vars):
            cover = consistent_cover(g, gmap, list(assignment))
            assert is_feasible_cover(g, cover)
            assert cover.cost == base + f.unsatisfied_count(list(assignment))

    @pytest.mark.parametrize("text, mode", FORMULAS)
    def test_minimum_cover_encodes_deletion_optimum(self, text, mode):
        f = parse_2cnf(text)
        g, _ = gen_hardness_reduction(f, mode=mode)
        unsat, _ = f.min_unsatisfied()
        assert exact_btt(g).value == 9 * f.num_vars + len(f.clauses) + unsat

    def test_exhausted_crown_pool_is_verification_error(self, monkeypatch):
        f = parse_2cnf("p cnf 1 2\n1 1 0\n1 1 0\n")  # 4 plain literals, 3 even crowns
        with pytest.raises(InputError, match="3 of each"):
            gen_hardness_reduction(f, mode="relaxed")
        monkeypatch.setattr(TwoCnfFormula, "validate_relaxed_mode", lambda self: None)
        with pytest.raises(VerificationError, match="crown pool exhausted"):
            gen_hardness_reduction(f, mode="relaxed")


class TestRandom:
    @pytest.mark.parametrize("complete", [True, False])
    def test_node_bound_refused_before_the_pairs(self, complete):
        started = time.process_time()
        with pytest.raises(CapacityError, match=f"capped at {COMPLETE_NODE_BOUND}"):
            gen_random(20000, complete=complete)
        assert time.process_time() - started < 1.0

    @pytest.mark.parametrize("complete", [True, False])
    def test_positive_count_is_exact(self, complete):
        for seed in range(5):
            g = gen_random(10, positive_count=12, complete=complete, seed=seed)
            assert len(g.positive_edge_ids()) == 12

    def test_positive_count_is_deterministic_per_seed(self):
        def draw(seed):
            return gen_random(10, positive_count=22, weights=("rational", 4, 3),
                              seed=seed).edges

        assert draw(7) == draw(7)
        assert draw(7) != draw(8)

    @pytest.mark.parametrize("count", [-1, 46])
    def test_positive_count_out_of_range(self, count):
        # a complete graph on 10 nodes has 45 pairs
        with pytest.raises(InputError, match=f"positive_count {count} out of range for 45"):
            gen_random(10, positive_count=count)

    def test_positive_prob_and_count_are_exclusive(self):
        with pytest.raises(InputError, match="not both"):
            gen_random(10, positive_prob=0.5, positive_count=5)

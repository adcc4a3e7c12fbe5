import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btt import (Clustering, EdgeCover, InputError, SignedGraph, cc_cost,
                 flip_edges, gen_figure2, gen_integrality_gap, gen_random,
                 is_feasible_cover)
from btt import graphs
from btt.errors import CapacityError
from btt.graphs import (COMPLETE_NODE_BOUND, COVER_SCHEMA, MAX_NODES,
                        MAX_WEIGHT_DIGITS, clustering_to_json, complete_graph, cover_from_json,
                        format_edge_list, graph_to_json, parse_edge_list,
                        _parse_weight)
from conftest import (brute_force_bad_triples, index_rows, reference_cc_cost,
                      reference_edges, reference_parse, triangle_nodes)

FIG2_COVER_PAIRS = [(0, 2), (0, 4), (1, 5), (3, 5)]  # ac, ae, bf, df


@st.composite
def signed_graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    tuples = []
    for u in range(n):
        for v in range(u + 1, n):
            present = draw(st.booleans())
            if present:
                sign = draw(st.sampled_from([1, -1]))
                tuples.append((u, v, sign))
    return SignedGraph(n, tuples)


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(InputError, match="self-loop"):
            SignedGraph(3, [(1, 1, 1)])

    def test_rejects_duplicate_pair(self):
        with pytest.raises(InputError, match="duplicate"):
            SignedGraph(3, [(0, 1, 1), (1, 0, -1)])

    def test_rejects_bad_sign(self):
        with pytest.raises(InputError, match="sign"):
            SignedGraph(3, [(0, 1, 2)])

    def test_rejects_negative_weight(self):
        with pytest.raises(InputError, match="weight"):
            SignedGraph(3, [(0, 1, 1, -2)])

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_float_weight(self, weight):
        with pytest.raises(InputError, match=r"non-finite weight on edge \(0,1\)"):
            SignedGraph(3, [(0, 1, 1, weight)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError, match="out of range"):
            SignedGraph(2, [(0, 2, 1)])

    def test_complete_flag_checks_edge_count(self):
        with pytest.raises(InputError, match="complete"):
            SignedGraph(3, [(0, 1, 1)], complete=True)

    def test_common_denominator_bound(self):
        # each denominator is below the bound, their product is far above
        dens = [2**3300, 3**2090, 5**1420, 7**1180, 11**955, 13**895]
        assert max(dens) < 10 ** MAX_WEIGHT_DIGITS
        pairs = [(0, 1, 1), (0, 2, 1), (1, 2, -1), (3, 4, 1), (3, 5, 1), (4, 5, -1)]
        with pytest.raises(InputError, match="common denominator"):
            SignedGraph(6, [(*p, Fraction(1, d)) for p, d in zip(pairs, dens)])
        shared = SignedGraph(6, [(*p, Fraction(k, dens[0])) for k, p in enumerate(pairs, 1)])
        assert shared.m == 6

    @pytest.mark.parametrize("edges,message", [
        ([(0, 1, 1), (0, 9, 1), (2, 2, 1)], r"edge \(0,9\) out of range"),
        ([(0, 1, 1), (2, 2, 1), (0, 9, 1)], "self-loop at node 2"),
        ([(0, 1, 0), (0, 9, 1)], "sign must be"),
        ([(0, 1, 1, float("nan")), (1, 2, 2)], r"non-finite weight on edge \(0,1\)"),
        ([(0, 1, 1, Fraction(-1, 2)), (1, 2, 1, float("inf"))],
         r"negative weight on edge \(0,1\): -1/2"),
        ([(0, 1, 1, -3), (0, 1, 1)], r"negative weight on edge \(0,1\): -3"),
        ([(0, 1, 1), (1, 0, -1), (3, 3, 1)], r"duplicate edge \(0, 1\)"),
        ([(2, 1, 1), (0, 1, 1, 2.5), (1, 2, 1, Fraction(-1))],
         r"negative weight on edge \(1,2\): -1"),
        ([(0, 1, 9, -1.0)], "sign must be"),
        ([(0, 1, 1, 2), (0, 2)], "3 or 4 fields"),
    ])
    def test_first_faulty_edge_in_input_order_is_named(self, edges, message):
        with pytest.raises(InputError, match=message):
            SignedGraph(4, edges)

    def test_mixed_weight_kinds_accepted(self):
        g = SignedGraph(4, [(1, 0, 1), (0, 2, -1, Fraction(3, 2)),
                            (3, 0, 1, 0.25), (1, 2, -1, 0), (2, 3, 1, Fraction(0))])
        assert [e.weight for e in g.edges] == [1, Fraction(3, 2), 0.25, 0, 0]
        assert [type(e.weight) for e in g.edges] == [int, Fraction, float, int, Fraction]
        assert [e.pair for e in g.edges] == [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]
        assert not g.is_exact()
        assert g.edge_id(3, 0) == 2
        assert g.edge_id(1, 3) is None
        assert g.edge_id(0, 0) is None

    def test_canonical_endpoint_order_and_dense_ids(self):
        g = SignedGraph(3, [(2, 0, 1), (1, 2, -1)])
        assert g.edges[0].pair == (0, 2)
        assert g.edge_id(2, 1) == 1
        assert g.edge_id(0, 1) is None

    def test_complete_graph_node_bound(self):
        calls = []

        def sign(u, v):
            calls.append((u, v))
            return 1

        with pytest.raises(CapacityError, match=f"capped at {COMPLETE_NODE_BOUND}"):
            complete_graph(COMPLETE_NODE_BOUND + 1, sign)
        assert calls == []  # refused before any pair is built
        assert complete_graph(3, sign).m == 3


def outcome(build):
    """``build()``, or the type and message of the error it raised."""
    try:
        return build()
    except (InputError, CapacityError) as exc:
        return type(exc), str(exc)


def assert_built_as_the_loop(g, edges):
    """``g`` holds ``edges``, the oracle's ``Edge`` tuples, in the columns
    the per-edge constructor gave: same values and weight objects, intp
    endpoints, a bool sign mask, a float64 weight column exactly when
    every weight is a Python float, and the same ``is_exact()``."""
    assert g.edges == edges
    assert [type(e.weight) for e in g.edges] == [type(e.weight) for e in edges]
    cols = g.edge_columns()
    assert cols.u.dtype == cols.v.dtype == np.intp
    assert cols.positive.dtype == bool
    floats = {type(e.weight) for e in edges} <= {float}
    assert cols.weight.dtype == (np.float64 if floats else object)
    assert g.is_exact() == all(isinstance(e.weight, (int, Fraction)) for e in edges)


VALID_WEIGHTS = st.one_of(
    st.just(None),  # a 3-tuple, weighing 1
    st.integers(0, 9),
    st.floats(0, 9),
    st.fractions(0, 9, max_denominator=12),
    st.booleans(),
    st.integers(0, 9).map(np.int64),
    st.floats(0, 9).map(np.float64))

#: Faults injected into a valid edge list, each replacing one edge.
FAULTS = ("self-loop", "duplicate", "reversed duplicate", "sign", "negative",
          "nan", "inf", "out of range", "negative id", "loop out of range", "fields")


@st.composite
def edge_inputs(draw):
    """``(n, edge tuples, complete)``: a valid graph of mixed weight kinds,
    with at most two faults injected and a ``complete`` flag that may not
    match its edge count."""
    n = draw(st.integers(2, 7))
    pairs = [p for p in combinations(range(n), 2) if draw(st.booleans())]
    pairs = draw(st.permutations(pairs))
    edges = []
    for u, v in pairs:
        if draw(st.booleans()):
            u, v = v, u
        sign = draw(st.sampled_from([1, -1]))
        weight = draw(VALID_WEIGHTS)
        edges.append((u, v, sign) if weight is None else (u, v, sign, weight))
    for _ in range(draw(st.integers(0, 2))):
        if not edges:
            break
        at = draw(st.integers(0, len(edges) - 1))
        if len(edges[at]) < 3:
            continue
        u, v, sign, *rest = edges[at]
        fault = draw(st.sampled_from(FAULTS))
        edges[at] = {
            "self-loop": (u, u, sign, *rest),
            "duplicate": edges[0][:2] + (sign, *rest),
            "reversed duplicate": edges[0][1::-1] + (sign, *rest),
            "sign": (u, v, draw(st.sampled_from([0, 2, -2, 1.5, "+1"])), *rest),
            "negative": (u, v, sign, draw(st.sampled_from(
                [-1, -0.5, Fraction(-1, 3), np.int64(-2), np.float64(-1.5)]))),
            "nan": (u, v, sign, draw(st.sampled_from([math.nan, np.float64("nan")]))),
            "inf": (u, v, sign, draw(st.sampled_from([math.inf, -math.inf]))),
            "out of range": (u, n, sign, *rest),
            "negative id": (-1, v, sign, *rest),
            "loop out of range": (n, n, sign, *rest),
            "fields": draw(st.sampled_from([(u, v), (u, v, sign, 1, 1)])),
        }[fault]
    complete = draw(st.booleans())
    return n, edges, complete


class TestColumnarConstruction:
    """The columnar constructor against the per-edge loop it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(edge_inputs(), st.sampled_from([list, tuple, iter]))
    def test_matches_the_loop(self, case, form):
        n, edges, complete = case
        want = outcome(lambda: reference_edges(n, edges, complete))
        got = outcome(lambda: SignedGraph(n, form(edges), complete=complete))
        if isinstance(want, tuple) and want and isinstance(want[0], type):
            assert got == want
        else:
            assert_built_as_the_loop(got, want)

    def test_generator_input(self):
        edges = ((u, v, 1 if (u + v) % 2 else -1, Fraction(u + 1, v + 2))
                 for u, v in combinations(range(5), 2))
        assert_built_as_the_loop(SignedGraph(5, edges, complete=True), reference_edges(
            5, [(u, v, 1 if (u + v) % 2 else -1, Fraction(u + 1, v + 2))
                for u, v in combinations(range(5), 2)], True))

    @pytest.mark.parametrize("weights", [
        [1, 2, 3], [0.5, 1.0, 2.0], [Fraction(1, 2), Fraction(3), Fraction(5, 7)],
        [1, 0.5, Fraction(1, 3)], [True, False, True],
        [np.int64(2), np.float64(0.5), 1], [-0.0, 0.0, 1.5]])
    def test_weight_kinds(self, weights):
        edges = [(0, 1, 1, weights[0]), (2, 1, -1, weights[1]), (0, 2, 1, weights[2])]
        assert_built_as_the_loop(SignedGraph(3, edges, complete=True),
                                 reference_edges(3, edges, True))

    @pytest.mark.parametrize("n,edges,complete", [
        (3, [(0, 1, 1), (1, 1, 1)], False),  # self-loop
        (3, [(0, 1, 1), (0, 1, -1)], False),  # duplicate
        (3, [(0, 2, 1), (1, 0, 1), (2, 0, -1)], False),  # reversed duplicate
        (3, [(0, 1, 1), (1, 2, 0)], False),  # bad sign
        (3, [(0, 1, 1), (1, 2, "-1")], False),  # a sign that is not a number
        (3, [(0, 1, 1, 2), (1, 2, 1, Fraction(-1, 2))], False),  # negative
        (3, [(0, 1, 1, math.nan)], False),  # NaN
        (3, [(0, 1, 1, 1.0), (0, 2, -1, math.inf)], False),  # inf
        (3, [(0, 1, 1), (1, 3, 1)], False),  # out of range
        (3, [(0, 1, 1), (-1, 2, 1)], False),  # negative id
        (3, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (0, 1)], False),  # fields
        (3, [(0, 1, 1), (0, 2, 1)], True),  # complete mismatch
        (6, [(0, 1, 1, Fraction(1, 2**3300)), (2, 3, 1, Fraction(1, 3**2090)),
             (4, 5, -1, Fraction(1, 5**1420)), (0, 2, 1, Fraction(1, 7**1180))],
         False),  # common denominator
        (MAX_NODES + 1, [], False),  # capacity
        (-1, [], False),
        (3, [(0, 9, 1), (2, 2, 1), (0, 1, 7)], False),  # the first of several
        (3, [(0, 1, 1), (1, 0, 1, -1.0)], False),  # negative before duplicate
        (3, [(2, 2, 5, math.nan)], False),  # self-loop before sign and weight
        (3, [(0, 1, 1), (5, 5, 0)], False),  # range before self-loop
    ])
    def test_each_fault_names_the_first_faulty_edge(self, n, edges, complete):
        want = outcome(lambda: reference_edges(n, edges, complete))
        assert isinstance(want[0], type)
        assert outcome(lambda: SignedGraph(n, edges, complete=complete)) == want

    def test_columns_input_is_checked_as_tuples(self):
        cols = graphs.EdgeColumns([0, 2, 1], [1, 1, 0], [True, False, True], [1, 2.5, 3])
        want = outcome(lambda: reference_edges(3, [(0, 1, 1, 1), (2, 1, -1, 2.5),
                                                   (1, 0, 1, 3)]))
        assert outcome(lambda: SignedGraph(3, cols)) == want
        mask = np.array([True, False])
        g = SignedGraph(3, graphs.EdgeColumns([0, 2], [1, 1], mask, [1, 2]))
        mask[:] = False  # the graph keeps a copy of the caller's array
        assert [e.sign for e in g.edges] == [1, -1]

    def test_library_readers_leave_the_edges_view_unbuilt(self):
        from btt import (derandomized_sweep, exact_btt, exact_cc, krivelevich,
                         round_deterministic, solve_exact, solve_mwu,
                         standard_three_approx)
        from btt.approx import outcome_to_json
        from btt.lp import lp_solution_to_json
        from btt.pivot import pivot_trials

        g = gen_random(40, density=0.3, complete=False, weights=("uniform", 0.5, 2.0),
                       seed=2)
        three = standard_three_approx(g)
        for alg in ("pivot", "cover-pivot", "flip-pivot"):
            pivot_trials(g, alg, 2, 1, cover=three.cover)
        outcome_to_json(g, three)
        sol = solve_mwu(g, 0.2)
        lp_solution_to_json(g, sol)
        round_deterministic(g, sol.primal)
        format_edge_list(g), graph_to_json(g), g.is_exact(), g.edge_id(0, 1)
        flip_edges(g, three.cover.edge_ids)
        assert g._edges is None
        h = gen_random(8, weights=("rational", 4, 3), seed=3)
        derandomized_sweep(h, solve_exact(h).primal)
        krivelevich(h), exact_btt(h), exact_cc(h)
        assert h._edges is None

    def test_edges_view_is_built_once(self):
        g = gen_random(6, weights=("uniform", 0.5, 2.0), seed=1)
        assert g.edges is g.edges
        assert g.edges[0] == (g.edge_columns().u[0], g.edge_columns().v[0],
                              g.edges[0].sign, g.edge_columns().weight[0])


def path_graph(weights: list) -> SignedGraph:
    """A path whose edge i joins nodes i and i + 1 and weighs ``weights[i]``."""
    return SignedGraph(len(weights) + 1, [(i, i + 1, 1 if i % 2 else -1, w)
                                          for i, w in enumerate(weights)])


class TestWeightNumerators:
    @pytest.mark.parametrize("weights", [
        [3, 1, 0, 7],
        [Fraction(1, 3), Fraction(5, 2), Fraction(4), Fraction(0)],
        [0.5, 1.25, 3.0, 0.1, 5e-324],
        [2, Fraction(2, 3), 0.75, True],
        [],
    ], ids=["int", "fraction", "float", "mixed", "empty"])
    def test_numerators_over_den_are_the_weights(self, weights):
        g = path_graph(weights)
        num, den = g.weight_numerators()
        assert len(num) == g.m
        assert [Fraction(k, den) for k in num.tolist()] == list(map(Fraction, weights))
        assert math.gcd(den, *num.tolist()) == 1

    def test_an_int_graph_is_its_own_numerators(self):
        g = gen_figure2()
        num, den = g.weight_numerators()
        assert den == 1 and num.dtype == np.int64
        assert num.tolist() == g.edge_columns().weight.tolist()
        assert path_graph([]).weight_numerators()[1] == 1

    def test_column_leaves_int64_when_a_sum_of_m_weights_could_overflow(self):
        # headroom m: den * m reaches 2**63 at the second weight
        tiny = Fraction(1, 2**62)
        num, den = path_graph([tiny]).weight_numerators()
        assert (num.dtype, den) == (np.int64, 2**62)
        num, den = path_graph([tiny, tiny]).weight_numerators()
        assert num.dtype == object and num.tolist() == [1, 1] and den == 2**62
        # and so does m * |num| for int weights
        assert path_graph([2**62]).weight_numerators()[0].dtype == np.int64
        assert path_graph([2**62, 1]).weight_numerators()[0].dtype == object
        assert path_graph([2**62 - 1, 1]).weight_numerators()[0].dtype == np.int64

    def test_built_once_on_first_use(self):
        g = parse_edge_list("n 3\n0 1 +1 1/2\n1 2 +1\n0 2 -1 0.25\n")
        assert g._numerators is None  # parsing builds no scale
        first = g.weight_numerators()
        assert g.weight_numerators() is first
        assert first[1] == 4 and first[0].tolist() == [2, 4, 1]
        assert not first[0].flags.writeable  # shared by every caller


class TestBadTriangles:
    def test_figure2_list_matches_brute_force(self):
        g = gen_figure2()
        tris = index_rows(g)
        assert tris == brute_force_bad_triples(g)
        assert [triangle_nodes(g, t) for t in tris] == [
            (0, 1, 2), (0, 1, 4), (0, 2, 3), (0, 3, 4),
            (1, 2, 5), (1, 4, 5), (2, 3, 5), (3, 4, 5)]

    def test_all_positive_complete_graph_has_none(self):
        g = complete_graph(4, lambda u, v: 1)
        assert g.bad_triangle_index().shape == (0, 3)

    def test_gap_instance_n3_one_triangle_per_negative_edge(self):
        g = gen_integrality_gap(3)
        tris = g.bad_triangle_index().tolist()
        assert len(tris) == 3
        negatives = {e for t in tris for e in t if g.edges[e].sign == -1}
        assert negatives == {i for i, e in enumerate(g.edges) if e.sign == -1}

    def test_triangle_fields_consistent(self):
        g = gen_figure2()
        for t in index_rows(g):
            u, v, w = triangle_nodes(g, t)
            assert u < v < w
            assert t == (g.edge_id(u, v), g.edge_id(u, w), g.edge_id(v, w))
            assert sorted(g.edges[e].sign for e in t) == [-1, 1, 1]

    @settings(max_examples=60, deadline=None)
    @given(signed_graphs())
    def test_enumeration_matches_brute_force(self, g):
        assert index_rows(g) == brute_force_bad_triples(g)

    @pytest.mark.parametrize("make", [
        lambda: gen_random(60, complete=True, seed=3),
        lambda: gen_random(60, positive_prob=0.9, complete=True, seed=4),
        lambda: gen_random(60, positive_prob=0.0, complete=True, seed=5),
        lambda: gen_random(60, positive_prob=1.0, complete=True, seed=6),
        lambda: SignedGraph(9, [(7, 2, 1), (2, 5, 1), (5, 7, -1), (5, 3, 1),
                                (3, 7, 1)]),
        lambda: SignedGraph(5, []),
        lambda: gen_random(80, complete=False, density=0.2, seed=7),
    ], ids=["complete60", "complete60-p0.9", "no-positive", "no-negative",
            "isolated-nodes", "edgeless", "sparse80"])
    def test_larger_graphs_match_brute_force(self, make):
        g = make()
        assert index_rows(g) == brute_force_bad_triples(g)

    @pytest.mark.parametrize("block", [1, 2, 7, 64])
    def test_any_wedge_block_size_gives_the_same_triangles(self, block, monkeypatch):
        # blocks smaller than a centre's wedge run, and empty ones, included
        monkeypatch.setattr(graphs, "_WEDGE_BLOCK", block)
        for g in (gen_random(25, complete=True, seed=block),
                  gen_random(40, positive_prob=0.8, complete=False, density=0.4,
                             seed=block),
                  SignedGraph(6, [(0, 5, 1), (1, 5, 1), (2, 5, 1), (3, 5, 1),
                                  (0, 1, -1), (2, 3, -1), (1, 3, -1)])):
            assert index_rows(g) == brute_force_bad_triples(g)

    def test_index_rows_are_the_tuple(self):
        g = gen_random(60, complete=True, seed=3)
        index = g.bad_triangle_index()
        assert index.dtype == np.intp and index.ndim == 2 and index.shape[1] == 3
        assert not index.flags.writeable
        assert SignedGraph(3, [(0, 1, 1)]).bad_triangle_index().shape == (0, 3)
        # the view kept for callers outside the package: the rows as a
        # tuple of Python int triples
        tris = g.bad_triangles()
        assert type(tris) is tuple and tris == tuple(index_rows(g))
        assert all(type(t) is tuple and set(map(type, t)) == {int} for t in tris)

    def test_top_node_ids_beyond_two_to_the_21(self):
        # a key (a*n + b)*n + c would pass 2**63 on these node ids
        n = 2**21 + 3
        small = [(0, 1, 1), (1, 2, 1), (0, 2, -1), (2, 3, 1), (1, 3, -1),
                 (3, 4, 1), (2, 4, 1), (1, 4, 1), (0, 4, 1), (0, 3, 1),
                 (4, 5, 1), (3, 5, -1)]

        def relabel(v):
            return v if v == 0 else n - 6 + v

        g = SignedGraph(n, [(relabel(u), relabel(v), s) for u, v, s in small])
        expected = brute_force_bad_triples(SignedGraph(6, small))
        assert len(expected) > 4
        assert index_rows(g) == expected

    def test_node_count_past_the_pair_keys_is_refused(self):
        # no bad triangle: the wedge at n - 1000 closes on the absent pair
        # (n - 3, n - 1), and the one negative edge is (n - 3, n - 2)
        def wedge(n):
            return [(n - 1000, n - 3, 1), (n - 1000, n - 1, 1), (n - 3, n - 2, -1)]

        assert MAX_NODES == 3_037_000_499
        assert MAX_NODES**2 < 2**63 <= (MAX_NODES + 1) ** 2
        # past the bound the keys a * n + b left int64 and two of them met
        with pytest.raises(CapacityError, match=f"capped at {MAX_NODES} nodes"):
            SignedGraph(4_000_000_000, wedge(4_000_000_000))
        with pytest.raises(CapacityError):
            SignedGraph(MAX_NODES + 1, [])
        assert SignedGraph(MAX_NODES, wedge(MAX_NODES)).bad_triangle_index().shape == (0, 3)

    def test_cached_and_sorted(self):
        g = gen_figure2()
        assert g.bad_triangle_index() is g.bad_triangle_index()
        tris = index_rows(g)
        assert tris == sorted(tris, key=lambda t: triangle_nodes(g, t))


class TestFeasibleCover:
    def test_figure2_published_cover(self):
        g = gen_figure2()
        cover = EdgeCover.from_pairs(g, FIG2_COVER_PAIRS)
        assert is_feasible_cover(g, cover)

    def test_absent_pair_is_input_error(self):
        g = SignedGraph(4, [(0, 1, 1), (1, 2, -1)])
        with pytest.raises(InputError, match=r"no edge \(1, 3\) in graph"):
            EdgeCover.from_pairs(g, [(1, 0), (3, 1)])

    def test_empty_cover_infeasible_when_triangles_exist(self):
        g = gen_figure2()
        assert not is_feasible_cover(g, EdgeCover(frozenset(), 0))

    def test_all_edges_always_feasible(self):
        g = gen_figure2()
        assert is_feasible_cover(g, EdgeCover.from_ids(g, range(g.m)))

    def test_invalid_edge_id_raises(self):
        g = gen_figure2()
        with pytest.raises(InputError, match="invalid edge id"):
            is_feasible_cover(g, [999])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=14))
    def test_monotone_under_edge_addition(self, extra):
        g = gen_figure2()
        base = {g.edge_id(u, v) for u, v in FIG2_COVER_PAIRS}
        assert is_feasible_cover(g, base | {extra})


    @pytest.mark.parametrize("seed", range(4))
    def test_random_covers_match_a_triple_scan(self, seed):
        g = gen_random(30, complete=False, density=0.6, seed=seed)
        triples = brute_force_bad_triples(g)
        rng = np.random.default_rng(seed)
        seen = set()
        for share in (0.2, 0.5, 0.8, 0.95, 1.0):
            for _ in range(5):
                ids = np.flatnonzero(rng.random(g.m) < share).tolist()
                expected = all(set(t) & set(ids) for t in triples)
                seen.add(expected)
                assert is_feasible_cover(g, ids) is expected
                assert is_feasible_cover(g, EdgeCover.from_ids(g, ids)) is expected
        assert seen == {True, False}


class TestCcCost:
    def test_figure2_single_cluster_costs_four(self):
        g = gen_figure2()
        assert cc_cost(g, Clustering.from_labels([0] * 6)) == 4

    def test_figure2_split_abc_def_direct_count(self):
        # direct count: 7 positive pairs cross the split, 2 negative
        # pairs (bc, de) stay inside
        g = gen_figure2()
        split = Clustering.from_labels([0, 0, 0, 1, 1, 1])
        crossing = sum(e.weight for e in g.edges if e.sign == 1
                       and (e.u < 3) != (e.v < 3))
        inside = sum(e.weight for e in g.edges if e.sign == -1
                     and (e.u < 3) == (e.v < 3))
        assert crossing == 7 and inside == 2
        assert cc_cost(g, split) == 9

    def test_singletons_on_all_negative(self):
        g = complete_graph(5, lambda u, v: -1)
        assert cc_cost(g, Clustering.from_labels(range(5))) == 0

    def test_one_cluster_on_all_positive(self):
        g = complete_graph(5, lambda u, v: 1)
        assert cc_cost(g, Clustering.from_labels([0] * 5)) == 0

    def test_size_mismatch_raises(self):
        g = gen_figure2()
        with pytest.raises(InputError):
            cc_cost(g, Clustering.from_labels([0, 0]))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_float_graphs_match_the_loop(self, data):
        g = data.draw(signed_graphs(max_n=8))
        weights = data.draw(st.lists(
            st.floats(min_value=0, max_value=1e6, allow_subnormal=True),
            min_size=g.m, max_size=g.m))
        g = SignedGraph(g.n, [(e.u, e.v, e.sign, w)
                              for e, w in zip(g.edges, weights)])
        labels = data.draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n))
        clustering = Clustering.from_labels(labels)
        got, want = cc_cost(g, clustering), reference_cc_cost(g, clustering)
        assert got == want and type(got) is type(want)

    def test_float_graph_with_no_disagreement_costs_int_zero(self):
        g = SignedGraph(3, [(0, 1, 1, 0.5), (1, 2, -1, 2.25)])
        cost = cc_cost(g, Clustering.from_labels([0, 0, 1]))
        assert cost == 0 and type(cost) is int

    def test_negative_zero_weight_sums_as_the_loop(self):
        g = SignedGraph(2, [(0, 1, 1, -0.0)])
        clustering = Clustering.from_labels([0, 1])
        assert str(cc_cost(g, clustering)) == str(reference_cc_cost(g, clustering)) == "0.0"

    def test_float_sum_keeps_edge_order(self):
        # 1e16 then sixteen 1.0s: added in order every 1.0 is lost, while a
        # pairwise (np.sum) or compensated (sum() on 3.12) sum keeps them
        weights = [1e16] + [1.0] * 16
        g = SignedGraph(18, [(0, k + 1, 1, w) for k, w in enumerate(weights)])
        clustering = Clustering.from_labels(range(18))
        assert cc_cost(g, clustering) == reference_cc_cost(g, clustering) == 1e16

    @pytest.mark.parametrize("weights", [(1, 0.5, Fraction(1, 3)), (2, 0.5, 0.25),
                                         (Fraction(1, 2), 0.5, 0.25)])
    def test_mixed_weights_take_the_loop(self, weights):
        g = SignedGraph(3, [(0, 1, 1, weights[0]), (0, 2, 1, weights[1]),
                            (1, 2, -1, weights[2])])
        # int, Fraction and mixed weights keep an object column, whose
        # total adds in Python arithmetic
        assert g.edge_columns().weight.dtype == object
        clustering = Clustering.from_labels([0, 1, 1])
        got, want = cc_cost(g, clustering), reference_cc_cost(g, clustering)
        assert got == want and type(got) is type(want)

    @settings(max_examples=40, deadline=None)
    @given(signed_graphs(max_n=6), st.permutations(list(range(6))))
    def test_invariant_under_relabeling(self, g, perm):
        labels = [i % 3 for i in range(g.n)]
        relabeled = [perm[l] for l in labels]
        assert cc_cost(g, Clustering.from_labels(labels)) == \
            cc_cost(g, Clustering.from_labels(relabeled))


class TestFlipEdges:
    def test_empty_flip_is_identity(self):
        g = gen_figure2()
        h = flip_edges(g, [])
        assert [e for e in h.edges] == [e for e in g.edges]

    def test_double_flip_is_identity(self):
        g = gen_figure2()
        ids = [0, 3, 7]
        assert [e for e in flip_edges(flip_edges(g, ids), ids).edges] == \
            [e for e in g.edges]

    def test_flip_bc_reenumerates_to_brute_force(self):
        g = gen_figure2()
        flipped = flip_edges(g, [g.edge_id(1, 2)])
        tris = index_rows(flipped)
        assert tris == brute_force_bad_triples(flipped)
        assert {triangle_nodes(flipped, t) for t in tris} != \
            {triangle_nodes(g, t) for t in index_rows(g)}

    def test_invalid_id_raises(self):
        with pytest.raises(InputError):
            flip_edges(gen_figure2(), [99])

    def test_weights_preserved(self):
        g = SignedGraph(3, [(0, 1, 1, Fraction(3, 2)), (1, 2, -1, 2)])
        h = flip_edges(g, [0])
        assert h.edges[0].sign == -1 and h.edges[0].weight == Fraction(3, 2)


class TestClustering:
    def test_labels_normalised_dense(self):
        c = Clustering.from_labels([5, 5, 2, 7])
        assert c.labels == (0, 0, 1, 2)
        assert c.num_clusters == 3

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-3, 400), max_size=60))
    def test_matches_the_remap_loop(self, labels):
        remap = {}
        normal = []
        for lab in labels:
            if lab not in remap:
                remap[lab] = len(remap)
            normal.append(remap[lab])
        assert Clustering.from_labels(labels) == Clustering(tuple(normal), len(remap))


class TestEdgeListFormat:
    def test_roundtrip_with_weights_and_comments(self):
        text = "\n".join([
            "# a comment",
            "n 4",
            "0 1 +1",
            "1 2 -1 3/2  # inline",
            "2 3 -1 1.5",
        ]) + "\n"
        g = parse_edge_list(text)
        assert g.n == 4 and g.m == 3
        assert g.edges[1].weight == Fraction(3, 2)
        assert g.edges[2].weight == Fraction(3, 2)  # decimals parse exactly
        again = parse_edge_list(format_edge_list(g))
        assert [e for e in again.edges] == [e for e in g.edges]

    def test_complete_header(self):
        g = parse_edge_list(format_edge_list(gen_figure2()))
        assert g.complete and g.m == 15

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.from_regex(r"\A[0-9]{1,25}\.[0-9]{1,25}\Z"),
        st.from_regex(r"\A[0-9]*\.?[0-9]*([eE][+-]?[0-9]{1,3})?\Z"),
        st.text(alphabet="0123456789._e-+/١٣²", max_size=8),
        st.floats(allow_nan=False, allow_infinity=False).map(repr)))
    def test_weight_tokens_parse_as_fraction_does(self, token):
        try:
            want = int(token)
        except ValueError:
            try:
                want = Fraction(token)
            except (ValueError, ZeroDivisionError):
                want = None
        if want is None:
            with pytest.raises(InputError, match="cannot parse weight"):
                _parse_weight(token)
        elif max(abs(want.numerator), want.denominator) >= 10 ** MAX_WEIGHT_DIGITS:
            with pytest.raises(InputError, match="exceeds 1000 digits"):
                _parse_weight(token)
        else:
            got = _parse_weight(token)
            assert got == want and type(got) is type(want)

    @pytest.mark.parametrize("token,value", [
        ("1.5", Fraction(3, 2)), ("0.10", Fraction(1, 10)), ("1.", Fraction(1)),
        (".5", Fraction(1, 2)), ("1_0.5", Fraction(21, 2)), ("1e-3", Fraction(1, 1000)),
        ("3/4", Fraction(3, 4)), ("١.٥", Fraction(3, 2)),
        ("0e99999999", Fraction(0)), (".01e1001", Fraction(10 ** 999))])
    def test_weight_token_values(self, token, value):
        assert _parse_weight(token) == value

    @pytest.mark.parametrize("token", ["1.2.3", "1.-5", "1._5", "e", "1/0.5", "-", "1/0",
                                       "1.\u00b2", "\u00b2.5", "e1001", "1/2e1001",
                                       "1e\u00b2"])
    def test_bad_weight_tokens(self, token):
        with pytest.raises(InputError, match="cannot parse weight"):
            _parse_weight(token)

    @pytest.mark.parametrize("text,fragment", [
        ("0 1 +1\n", "header"),
        ("n 3\n0 1 0\n", "sign"),
        ("n 3\n0 1\n", "edge line"),
        ("n 3 full\n", "flag"),
        ("n 3\nn 3\n", "duplicate header"),
        ("n 3\n0 1 +1 x\n", "weight"),
        # the earlier line's fault wins: a bad weight before a bad sign,
        # then a bad sign before a bad weight
        ("n 3\n0 1 +1 x\n1 2 +2\n", r"^cannot parse weight 'x'$"),
        ("n 3\n0 1 +2\n1 2 +1 x\n", r"^line 2: sign must be \+1 or -1, got '\+2'$"),
    ])
    def test_parse_errors(self, text, fragment):
        with pytest.raises(InputError, match=fragment):
            parse_edge_list(text)


@st.composite
def edge_list_texts(draw):
    """Edge-list texts with comments, blank lines, 3- and 4-field lines,
    the sign tokens 1, +1 and -1, header faults, huge-exponent weights and
    a few faulty lines; the header is usually first.  Each odd choice is
    made with a fixed small probability."""
    rnd = draw(st.randoms(use_true_random=True))

    def pick(usual, odd=(), p=0.05):
        return rnd.choice(odd if odd and rnd.random() < p else usual)

    def edge_line(u, v):
        fields = [pick([str(x)], ["x", "1.5", "+2", "-1", "0_1", "\u0663", "-0", "6"])
                  for x in (u, v)]
        fields.append(pick(["+1", "-1", "1"], ["0", "+2", "x", "--1", "+1.0"]))
        if rnd.random() < 0.5:
            fields.append(pick(["1", "2", "0", "1.5", "3/2", "0.25", ".5", "1e-3",
                                "0e99999999", "1.5193988476144449"],
                               ["-1", "-0.5", "x", "1/0", "1e400", "1e99999999",
                                "1e-99999999"]))
        if rnd.random() < 0.03:  # a field too few or too many
            fields = fields[:2] if rnd.random() < 0.5 else fields + ["7"]
        comment = pick([""], ["  # note", "#", "# n 3", "\t#x y"], p=0.1)
        return pick([" ", "\t", "  "]).join(fields) + comment

    pairs = rnd.sample(list(combinations(range(6), 2)), rnd.randint(0, 12))
    if rnd.random() < 0.1:  # a duplicate pair
        pairs.insert(rnd.randint(0, len(pairs)), pick(pairs or [(0, 1)]))
    lines = [edge_line(*(p if rnd.random() < 0.5 else p[::-1])) for p in pairs]
    for _ in range(rnd.randint(0, 3)):
        lines.insert(rnd.randint(0, len(lines)), pick(["", "   ", "# comment"]))
    headers = (["n 6", "n 6", "n 6 complete", "n 7", "  n 6  ", "n 6 # header"],
               ["n", "n x", "n 3 full", "n 3 complete extra", "n -1", "n 3",
                "n 4 complete"])
    if rnd.random() < 0.95:
        at = 0 if rnd.random() < 0.9 else rnd.randint(0, len(lines))
        lines.insert(at, pick(*headers, p=0.15))
    if rnd.random() < 0.03:
        lines.insert(rnd.randint(0, len(lines)), pick(headers[0]))
    end = pick(["\n", "\r\n", "\n", "\x0b"])
    return end.join(lines) + pick(["", end])


class TestEdgeListOracle:
    """``parse_edge_list`` against the line-by-line parser it replaced."""

    @settings(max_examples=500, deadline=None)
    @given(edge_list_texts())
    def test_matches_the_line_parser(self, text):
        want = outcome(lambda: reference_parse(text))
        got = outcome(lambda: parse_edge_list(text))
        if isinstance(want[0], type):
            assert got == want
        else:
            n, edges, complete = want
            assert (got.n, got.complete) == (n, complete)
            assert_built_as_the_loop(got, edges)

    @pytest.mark.parametrize("text", [
        "", "# only a comment\n\n", "n 3\n0 1 +1\n1 2 -1 2\n0 2 1 3/2\n",
        "n 3\n\n0 1 +1 # c\n   \n1 2 -1 1.5#c\n", "0 1 +1\nn 3\n", "n 3\nn 3\n",
        "n 3 full\n", "n\n", "n x\n", "n 3\n0 1\n", "n 3\n0 1 +1 2 2\n",
        "n 3\n0 x +1\n", "n 3\n0 1 +2\n", "n 3\n0 1 +1 x\n",
        "n 3\n0 1 +1 1e99999999\n", "n 3\n0 1 +1 x\n1 2 +2\n",
        "n 3\n0 1 +2\n1 2 +1 x\n", "n 3\n0 1 +1\n1 0 -1\n", "n 3\n0 3 +1\n",
        "n 3 complete\n0 1 +1\n", "n 3\n1 1 +1 x\n", "n 3\n0 1 -1 -2\n",
        "n 2\r\n0 1 -1 0.5\r\n", "n 3\x0b0 1 +1\x1c1 2 -1\u2028",
        "n 3\n0 1 +1\nn 4\n0 x\n", "  \n\n n 2 \n"])
    def test_texts(self, text):
        want = outcome(lambda: reference_parse(text))
        got = outcome(lambda: parse_edge_list(text))
        if isinstance(want[0], type):
            assert got == want
        else:
            assert (got.n, got.complete) == (want[0], want[2])
            assert_built_as_the_loop(got, want[1])


class TestJson:
    def test_graph_roundtrip(self):
        g = SignedGraph(3, [(0, 1, 1, Fraction(1, 3)), (1, 2, -1, 2)])
        obj = graph_to_json(g)
        assert obj["edges"] == [[0, 1, 1, "1/3"], [1, 2, -1, 2]]
        h = SignedGraph(obj["n"], [(u, v, s, Fraction(w)) for u, v, s, w in obj["edges"]])
        assert [e for e in h.edges] == [e for e in g.edges]

    def test_cover_and_clustering_roundtrip(self):
        g = gen_figure2()
        cover = EdgeCover.from_pairs(g, FIG2_COVER_PAIRS)
        obj = {"schema": COVER_SCHEMA, "edge_ids": sorted(cover.edge_ids)}
        assert cover_from_json(g, obj) == cover
        c = Clustering.from_labels([0, 1, 0, 2, 1, 2])
        obj = clustering_to_json(c)
        assert Clustering.from_labels(obj["labels"]) == c
        assert obj["num_clusters"] == c.num_clusters

    def test_schema_guard(self):
        with pytest.raises(InputError, match="schema"):
            cover_from_json(gen_figure2(), {"schema": "nope", "edge_ids": []})

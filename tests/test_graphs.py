from fractions import Fraction

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
                      triangle_nodes)

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
    ])
    def test_parse_errors(self, text, fragment):
        with pytest.raises(InputError, match=fragment):
            parse_edge_list(text)


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

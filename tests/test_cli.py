import hashlib
import json
import time
from fractions import Fraction

import numpy as np
import pytest

from btt import (EdgeCover, exact, gen_figure2, gen_hardness_reduction,
                 gen_random, gen_vc_reduction, lp, solve_exact)
from btt.cli import RunConfig, _json_default, _load_graph, build_instance, main
from btt.errors import InputError
from btt.generators import parse_2cnf
from btt.graphs import format_edge_list, parse_edge_list
from btt.pivot import pivot_trials, run_pivot
from conftest import patch_fraction_simplex, stall_float_simplex

FIG2_SEED = 3


def run_cli(argv, out_path):
    code = main(argv + ["--out", str(out_path)])
    assert code == 0
    return json.loads(out_path.read_text())


@pytest.fixture
def fig2_cover_file(tmp_path):
    """A det2 solve result on the six-node instance, usable as --cover."""
    path = tmp_path / "solve.json"
    result = run_cli(["solve", "--gen", "fig2", "--alg", "det2"], path)
    g = gen_figure2()
    return path, EdgeCover.from_ids(g, result["outcome"]["cover_edge_ids"])


class TestCluster:
    @pytest.mark.parametrize("alg", ["pivot", "cover-pivot", "flip-pivot"])
    def test_single_run_matches_library(self, alg, fig2_cover_file, tmp_path):
        cover_path, cover = fig2_cover_file
        argv = ["cluster", "--gen", "fig2", "--alg", alg, "--seed", str(FIG2_SEED)]
        if alg != "pivot":
            argv += ["--cover", str(cover_path)]
        body = run_cli(argv, tmp_path / "cluster.json")
        trace = run_pivot(gen_figure2(), alg, FIG2_SEED,
                          cover=None if alg == "pivot" else cover)
        assert body["clustering"]["labels"] == list(trace.clustering.labels)
        assert body["pivot_order"] == list(trace.pivot_order)
        assert body["disagreements"] == trace.disagreements
        assert body["cover_edges_removed_per_round"] == list(trace.removed_per_round)
        assert body["cover_size"] == (None if alg == "pivot" else cover.size)

    @pytest.mark.parametrize("alg", ["pivot", "cover-pivot", "flip-pivot"])
    def test_three_trials_match_library(self, alg, fig2_cover_file, tmp_path):
        cover_path, cover = fig2_cover_file
        csv_path = tmp_path / "trials.csv"
        argv = ["cluster", "--gen", "fig2", "--alg", alg, "--seed", "5",
                "--trials", "3", "--csv", str(csv_path)]
        if alg != "pivot":
            argv += ["--cover", str(cover_path)]
        body = run_cli(argv, tmp_path / "cluster.json")
        report = pivot_trials(gen_figure2(), alg, 3, 5,
                              cover=None if alg == "pivot" else cover)
        assert body["trials"]["count"] == 3
        assert body["trials"]["disagreements"] == report["disagreements"]
        assert body["trials"]["mean"] == report["mean"]
        assert len(csv_path.read_text().splitlines()) == 4

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_empty_batch_is_input_error(self, trials, capsys):
        argv = ["cluster", "--gen", "fig2", "--alg", "pivot", "--trials", trials]
        assert main(argv) == 2
        assert "trials must be at least 1" in capsys.readouterr().err

    def test_cover_pivot_without_cover_is_input_error(self, capsys):
        assert main(["cluster", "--gen", "fig2", "--alg", "cover-pivot"]) == 2
        assert "needs --cover" in capsys.readouterr().err


class TestSolve:
    def test_sweep_on_float_graph(self, tmp_path):
        spec = "random:n=30,complete=0,density=0.3,weights=uniform:0.5:2,seed=1"
        body = run_cli(["solve", "--gen", spec, "--alg", "sweep2",
                        "--mode", "float", "--eps", "0.2"], tmp_path / "solve.json")
        g = gen_random(30, complete=False, density=0.3,
                       weights=("uniform", 0.5, 2.0), seed=1)
        assert body["outcome"]["algorithm"] == "sweep2"
        assert body["n"] == g.n and body["m"] == g.m

    @pytest.mark.parametrize("alg", ["lp-exact", "kriv"])
    def test_exact_lp_on_float_weights(self, alg, tmp_path):
        spec = "random:n=8,weights=uniform:0.5:2,seed=3"
        body = run_cli(["solve", "--gen", spec, "--alg", alg], tmp_path / "solve.json")
        sol = solve_exact(gen_random(8, weights=("uniform", 0.5, 2.0), seed=3))
        if alg == "lp-exact":
            assert body["lp"]["objective"] == body["lp"]["dual_objective"]
            assert Fraction(body["lp"]["objective"]) == sol.value
        else:
            assert Fraction(body["outcome"]["lp_lower_bound"]) == sol.value
            assert Fraction(body["outcome"]["certified_ratio"]) <= 2

    @pytest.mark.parametrize("text", ["n 2\n", "n 2\n0 1 +1\n"])
    def test_zero_lp_value_is_a_fraction_string(self, text, tmp_path):
        # the edgeless graph summed its objective to int 0, a JSON number
        path = tmp_path / "graph.txt"
        path.write_text(text)
        argv = ["solve", "--input", str(path), "--alg"]
        body = run_cli(argv + ["lp-exact"], tmp_path / "lp.json")
        assert body["lp"]["objective"] == body["lp"]["dual_objective"] == "0"
        body = run_cli(argv + ["kriv"], tmp_path / "kriv.json")
        assert body["outcome"]["lp_lower_bound"] == "0"

    @pytest.mark.parametrize("text", ["n 2\n", "n 2\n0 1 +1\n"])
    def test_mwu_zero_dual_is_a_float(self, text, tmp_path):
        # a triangle-free graph summed its empty packing to int 0
        path = tmp_path / "graph.txt"
        path.write_text(text)
        body = run_cli(["solve", "--input", str(path), "--alg", "lp-mwu"],
                       tmp_path / "lp.json")
        lp = body["lp"]
        assert lp["bounds"] == [0.0, 0.0]
        assert lp["dual_objective"] == 0.0 and type(lp["dual_objective"]) is float
        assert lp["triangle_values"] == []

    def test_exact_on_float_weights(self, tmp_path):
        spec = "random:n=8,weights=uniform:0.5:2,seed=1"
        body = run_cli(["solve", "--gen", spec, "--alg", "exact"], tmp_path / "solve.json")
        g = gen_random(8, weights=("uniform", 0.5, 2.0), seed=1)
        witness = EdgeCover.from_ids(g, body["exact"]["cover_edge_ids"])
        assert body["exact"]["value"] == witness.cost

    def test_det2_on_mwu_path_certifies(self, tmp_path):
        # n > 50 sends det2 to solve_mwu; the one-edge step exited 3 here
        spec = "random:n=60,seed=1"
        body = run_cli(["solve", "--gen", spec, "--alg", "det2"], tmp_path / "solve.json")
        assert body["lp_status"] == "eps-approximate"
        assert body["outcome"]["algorithm"] == "det2"

    @pytest.mark.parametrize("alg", ["lp-mwu", "det2"])
    def test_tiny_float_weights(self, alg, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("n 4\n0 1 +1 1e-320\n0 2 +1 1e-320\n1 2 -1 1e-320\n"
                        "0 3 +1 1e-320\n1 3 -1 1e-320\n")
        body = run_cli(["solve", "--alg", alg, "--mode", "float", "--input", str(path)],
                       tmp_path / "out.json")
        if alg == "lp-mwu":
            assert body["lp"]["edge_values"] == [1.0, 0.0, 0.0, 0.0, 0.0]
            assert body["lp"]["bounds"] == [1e-320, 1e-320]
        else:
            assert body["outcome"]["certified_ratio"] == 1.0

    @pytest.mark.parametrize("alg", ["lp-exact", "det2", "sweep2", "rand2", "kriv", "lp-mwu"])
    def test_weight_past_float_range(self, alg, tmp_path, capsys):
        # float(1e400) raised OverflowError (exit 1) on every LP path
        path = tmp_path / "graph.txt"
        path.write_text("n 3\n0 1 +1 1e400\n0 2 +1 1\n1 2 -1 1\n")
        argv = ["solve", "--alg", alg, "--input", str(path)]
        if alg == "lp-mwu":
            assert main(argv) == 3
            assert "float64" in capsys.readouterr().err
            return
        body = run_cli(argv, tmp_path / "out.json")
        if alg == "lp-exact":
            assert body["lp"]["objective"] == body["lp"]["dual_objective"] == "1"
        else:
            assert body["outcome"]["lp_lower_bound"] == "1"
            assert body["outcome"]["cost"] == 1

    def test_float_simplex_pivot_cap_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(lp, "_FLOAT_PIVOT_CAP_PER_COLUMN", 0)
        assert main(["solve", "--gen", "fig2", "--alg", "lp-exact"]) == 3
        assert "lp-mwu" in capsys.readouterr().err

    def test_verification_failure_exits_4(self, monkeypatch, capsys):
        stall_float_simplex(monkeypatch)
        patch_fraction_simplex(monkeypatch, offset=1)
        assert main(["solve", "--gen", "fig2", "--alg", "lp-exact"]) == 4
        assert "strong duality" in capsys.readouterr().err


class TestInputErrors:
    def test_density_gives_a_sparse_graph(self, tmp_path):
        spec = "random:n=60,density=0.2,seed=1"
        body = run_cli(["solve", "--gen", spec, "--alg", "3approx"], tmp_path / "solve.json")
        assert body["m"] == 373
        assert body["m"] == gen_random(60, complete=False, density=0.2, seed=1).m

    @pytest.mark.parametrize("argv", [
        ["cluster", "--alg", "pivot", "--gen", "fig2", "--seed", "-1"],
        ["solve", "--alg", "rand2", "--gen", "fig2", "--seed", "-3"],
        ["verify", "--survey", "--count", "-1"],
        ["generate", "--gen", "random:n=5,weights=uniform:a"],
        ["generate", "--gen", "random:n=5,weights=uniform:2:1"],
        ["generate", "--gen", "random:n=5,weights=rational:0:1"],
        ["generate", "--gen", f"random:n=5,weights=rational:1:{10 ** 23}"],
        ["solve", "--alg", "3approx",
         "--gen", "random:n=50,weights=rational:1:4000000000000000000,seed=1"],
        ["generate", "--gen", "random:n=5,p=x"],
        ["generate", "--gen", "random:n=5,complete=1,density=0.2"],
    ])
    def test_malformed_numbers_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("spec,fragment", [
        ("random:n=5,sed=3", "unknown option 'sed' for generator 'random'"),
        ("fig2:n=9", "unknown option 'n' for generator 'fig2'"),
        ("random:n=5,seed=3,seed=4", "option 'seed' repeated for generator 'random'"),
        ("gap:n=4,n=5", "option 'n' repeated for generator 'gap'"),
    ])
    def test_unknown_or_repeated_spec_key_exits_2(self, spec, fragment, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert main(["generate", "--gen", spec, "--out", str(out)]) == 2
        assert fragment in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec,fragment", [
        # any value but 0 or false used to build the complete graph
        ("random:n=5,complete=no", "option 'complete' must be 0 or 1, got 'no'"),
        ("random:n=5,complete=x", "option 'complete' must be 0 or 1, got 'x'"),
        # kind and n used to be ignored next to a file
        ("vc:kind=star,n=30,file={file}", "vc takes file= alone"),
        ("vc:n=30,file={file}", "vc takes file= alone"),
    ])
    def test_ignored_spec_value_exits_2(self, spec, fragment, tmp_path, capsys):
        path = tmp_path / "graph.txt"
        path.write_text("n 3\n0 1\n1 2\n")
        out = tmp_path / "g.txt"
        argv = ["generate", "--gen", spec.format(file=path), "--out", str(out)]
        assert main(argv) == 2
        assert fragment in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec,complete", [
        ("random:n=5,complete=0", False), ("random:n=5,complete=false", False),
        ("random:n=5,complete=1", True), ("random:n=5,complete=true", True)])
    def test_complete_takes_0_1_false_true(self, spec, complete):
        g, _ = build_instance(spec)
        assert g.edges == gen_random(5, complete=complete).edges

    @pytest.mark.parametrize("argv,fragment", [
        (["--count", "0"], "--count must be at least 1, got 0"),
        (["--n", "2", "--count", "2"], "--n must be at least 3, got 2"),
        (["--n", "0", "--count", "2"], "--n must be at least 3, got 0"),
    ])
    def test_vacuous_survey_exits_2(self, argv, fragment, capsys):
        # no graph, or graphs too small for a bad triangle, used to PASS
        assert main(["verify", "--survey"] + argv) == 2
        captured = capsys.readouterr()
        assert fragment in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("alg", ["lp-exact", "lp-mwu", "det2"])
    @pytest.mark.parametrize("eps",["2", "1", "0", "-0.5", "nan"])
    def test_eps_outside_unit_interval_exits_2(self, alg, eps, tmp_path, capsys):
        # lp-exact never runs the MWU solver, so only the argument check
        # can catch its eps
        out = tmp_path / "solve.json"
        argv = ["solve", "--alg", alg, "--gen", "fig2", "--eps", eps, "--out", str(out)]
        assert main(argv) == 2
        assert "--eps must lie in (0,1)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--node-budget", "--triangle-budget"])
    def test_negative_budget_exits_2(self, flag, capsys):
        assert main(["solve", "--alg", "exact", "--gen", "fig2", flag, "-1"]) == 2
        assert "must be nonnegative" in capsys.readouterr().err

    def test_weight_too_large_for_float_mode_exits_2(self, tmp_path, capsys):
        path = tmp_path / "graph.txt"
        path.write_text("n 3\n0 1 +1 2\n1 2 -1 1e400\n")
        argv = ["solve", "--alg", "3approx", "--input", str(path)]
        assert main(argv + ["--mode", "float"]) == 2
        assert "edge (1,2) is too large for --mode float" in capsys.readouterr().err
        assert main(argv + ["--mode", "rational", "--out", str(tmp_path / "r.json")]) == 0

    # 2**1024 - 2**970 is the least magnitude that float() rounds to inf
    @pytest.mark.parametrize("weight,fits", [
        (str(2**1024 - 2**970 - 1), True), (str(2**1024 - 2**970), False),
        (f"{2**1025 - 2**971 - 1}/2", True), (f"{2**1025 - 2**971 + 1}/2", False)])
    def test_float_mode_casts_the_weight_column(self, weight, fits, tmp_path, capsys):
        path = tmp_path / "graph.txt"
        path.write_text(f"n 4\n0 1 +1 1/3\n2 0 -1 0.1\n1 2 +1 {weight}\n"
                        f"0 3 +1 {2**1100}\n")
        cfg = RunConfig(command="solve", input=str(path), mode="float")
        if not fits:
            with pytest.raises(InputError, match=r"edge \(1,2\) is too large"):
                _load_graph(cfg)
            return
        with pytest.raises(InputError, match=r"edge \(0,3\) is too large"):
            _load_graph(cfg)
        path.write_text(path.read_text().rsplit("0 3", 1)[0])
        g = _load_graph(cfg)
        exact = parse_edge_list(path.read_text())
        assert g.edge_columns().weight.dtype == np.float64
        assert g.edges == tuple(e._replace(weight=float(e.weight)) for e in exact.edges)
        assert g.edges[2].weight == 1.7976931348623157e308

    def test_mixed_layout_input(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("# a triangle and a pendant edge\n\nn 4\n"
                        "0 1 +1\n  1 2 -1 2  # weighted\n\n0 2 1\n2 3 -1 1.5\n")
        out = run_cli(["solve", "--alg", "3approx", "--input", str(path)],
                      tmp_path / "s.json")
        assert (out["n"], out["m"], out["outcome"]["size"]) == (4, 4, 3)

    @pytest.mark.parametrize("weight", [
        "1/0", "nan", "inf", "1e99999999", "1e-1001", "2e1000",
        pytest.param("9" * 1001 + ".5", id="long-decimal"),
        pytest.param("1/1" + "0" * 1000, id="denominator")])
    def test_unusable_weight_exits_2(self, weight, tmp_path, capsys):
        path = tmp_path / "graph.txt"
        path.write_text(f"n 2\n0 1 +1 {weight}\n")
        assert main(["solve", "--alg", "3approx", "--input", str(path)]) == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["n x\n0 1\n", "n 3\n0 a\n", "n\n", "0 1\n"])
    def test_malformed_vc_file_exits_2(self, text, tmp_path, capsys):
        path = tmp_path / "graph.txt"
        path.write_text(text)
        assert main(["generate", "--gen", f"vc:file={path}"]) == 2
        assert "input error" in capsys.readouterr().err

    def test_unreadable_input_exits_2(self, tmp_path, capsys):
        binary = tmp_path / "graph.bin"
        binary.write_bytes(b"n 2\n0 1 +1 \xff\n")
        for path in (tmp_path, binary):
            assert main(["solve", "--alg", "3approx", "--input", str(path)]) == 2
            assert f"cannot read {path}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["solve", "--alg", "3approx", "--gen", "fig2", "--out", "{dir}"],
        ["cluster", "--alg", "pivot", "--gen", "fig2", "--trials", "3", "--csv", "{dir}"],
        ["generate", "--gen", "hexagram", "--out", "{dir}/g.txt", "--map", "{dir}"],
        ["generate", "--gen", "hexagram", "--out", "{dir}/g.txt", "--json-graph",
         "--map", "{dir}/g.map"],
        ["verify", "--survey", "--n", "6", "--count", "2", "--csv", "{dir}"],
        ["cluster", "--alg", "pivot", "--gen", "fig2", "--trials", "3",
         "--csv", "{dir}/t.csv", "--out", "{dir}"],
        ["verify", "--survey", "--n", "6", "--count", "2", "--csv", "{dir}/rows.csv",
         "--out", "{dir}"],
    ])
    def test_unwritable_output_exits_2(self, argv, tmp_path, capsys):
        (tmp_path / "g.txt.json").mkdir()
        assert main([a.format(dir=tmp_path) for a in argv]) == 2
        captured = capsys.readouterr()
        assert f"cannot write {tmp_path}" in captured.err
        # outputs written before the failing one are removed again
        assert [p.name for p in tmp_path.iterdir()] == ["g.txt.json"]
        assert captured.out == ""

    def test_survey_past_the_clustering_node_cap_exits_3(self, capsys):
        cap = exact.DEFAULT_CC_NODE_CAP
        started = time.process_time()
        assert main(["verify", "--survey", "--n", str(cap + 1), "--count", "2"]) == 3
        assert time.process_time() - started < 0.1
        assert f"capped at {cap} nodes" in capsys.readouterr().err

    def test_survey_at_fourteen_nodes_passes(self, capsys):
        assert main(["verify", "--survey", "--n", "14", "--count", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"]

    def test_node_count_past_the_pair_keys_exits_3(self, tmp_path, capsys):
        path = tmp_path / "graph.txt"
        path.write_text("n 4000000000\n3999999000 3999999997 +1\n"
                        "3999999000 3999999999 +1\n3999999997 3999999998 -1\n")
        for alg in ("exact", "lp-mwu"):
            assert main(["solve", "--alg", alg, "--input", str(path)]) == 3
            assert "graphs are capped at 3037000499 nodes" in capsys.readouterr().err

    def test_common_denominator_past_the_bound_exits_2(self, tmp_path, capsys):
        dens = [2**3300, 3**2090, 5**1420, 7**1180, 11**955, 13**895]
        pairs = ["0 1 +1", "0 2 +1", "1 2 -1", "3 4 +1", "3 5 +1", "4 5 -1"]
        path = tmp_path / "graph.txt"
        path.write_text("n 6\n" + "".join(f"{p} 1/{d}\n" for p, d in zip(pairs, dens)))
        assert main(["solve", "--alg", "3approx", "--input", str(path)]) == 2
        assert "common denominator" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["vc", "hardness"])
    def test_generator_file_that_is_a_directory_exits_2(self, name, tmp_path, capsys):
        assert main(["generate", "--gen", f"{name}:file={tmp_path}"]) == 2
        assert f"cannot read {tmp_path}" in capsys.readouterr().err

    @pytest.mark.parametrize("text,fragment", [
        ("p cnf x 2\n", "line 1: header counts must be integers"),
        ("p cnf 2 1\n1 y 0\n", "line 2: bad literal y"),
    ])
    def test_malformed_2cnf_file_exits_2(self, text, fragment, tmp_path, capsys):
        path = tmp_path / "formula.cnf"
        path.write_text(text)
        assert main(["generate", "--gen", f"hardness:file={path}"]) == 2
        assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize("text,fragment", [
        ("{", "is not valid JSON"),
        ("[]", "must hold a JSON object"),
        ('{"exact": {}}', "expected schema"),
        ('{"cover_edge_ids": [1.5]}', "list of integers"),
        ('{"cover_edge_ids": "ab"}', "list of integers"),
        ('{"cover_edge_ids": [true]}', "list of integers"),
        ('{"schema": "btt.cover/1"}', "list of integers"),
    ])
    def test_malformed_cover_file_exits_2(self, text, fragment, tmp_path, capsys):
        path = tmp_path / "cover.json"
        path.write_text(text)
        argv = ["cluster", "--alg", "cover-pivot", "--gen", "fig2", "--cover", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and fragment in err


#: sha256 of ``btt verify --tables --hexagram``'s stdout.
TABLES_HEXAGRAM_SHA256 = "90e41ae534f8c14755eacddd4b7db91c8c636809a66013dd29b6a956aee69f2d"


class TestVerifyAndGenerators:
    def test_tables_and_hexagram_report_is_pinned(self, capsys):
        assert main(["verify", "--tables", "--hexagram"]) == 0
        out, err = capsys.readouterr()
        assert hashlib.sha256(out.encode()).hexdigest() == TABLES_HEXAGRAM_SHA256
        assert err == "[PASS] tables\n[PASS] hexagram\n"

    @pytest.mark.parametrize("kind,nodes,edges,cover", [
        ("cycle", 4, [(0, 1), (1, 2), (2, 3), (0, 3)], 2),
        ("path", 4, [(0, 1), (1, 2), (2, 3)], 2),
        ("star", 5, [(0, 1), (0, 2), (0, 3), (0, 4)], 1),
        ("complete", 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 3),
    ])
    def test_vertex_cover_families(self, kind, nodes, edges, cover, tmp_path, capsys):
        spec = f"vc:kind={kind},n=4"
        assert main(["generate", "--gen", spec]) == 0
        g = gen_vc_reduction(nodes, edges)
        assert capsys.readouterr().out == format_edge_list(g)
        body = run_cli(["solve", "--gen", spec, "--alg", "exact"], tmp_path / "vc.json")
        assert body["exact"]["value"] == cover  # the minimum vertex cover

    def test_gap_family(self, tmp_path):
        body = run_cli(["solve", "--gen", "gap:n=5", "--alg", "lp-exact"], tmp_path / "lp.json")
        assert body["n"] == 6 and body["m"] == 15
        assert body["lp"]["objective"] == "5/2"  # n/2, against the integral n - 1
        body = run_cli(["solve", "--gen", "gap:n=5", "--alg", "exact"], tmp_path / "exact.json")
        assert body["exact"]["value"] == 4

    def test_hardness_reduction_from_file(self, tmp_path):
        text = "p cnf 1 2\n1 1 0\n1 -1 0\n"  # theorem mode: 4 occurrences
        formula = tmp_path / "formula.cnf"
        formula.write_text(text)
        out = tmp_path / "g.txt"
        spec = f"hardness:file={formula}"
        assert main(["generate", "--gen", spec, "--out", str(out)]) == 0
        g, gmap = gen_hardness_reduction(parse_2cnf(text))
        assert out.read_text() == format_edge_list(g)
        assert json.loads((tmp_path / "g.txt.map.json").read_text()) == \
            json.loads(json.dumps(gmap.to_json()))
        body = run_cli(["solve", "--gen", spec, "--alg", "exact"], tmp_path / "exact.json")
        # 9 per variable plus one per clause; x1 = true satisfies both
        assert body["exact"]["value"] == 9 * 1 + 2

    @pytest.mark.parametrize("argv", [
        ["solve", "--gen", "fig2", "--alg", "det2"],
        ["cluster", "--gen", "fig2", "--alg", "pivot", "--trials", "3"],
    ], ids=["solve", "cluster"])
    def test_timing_adds_wall_time_only(self, argv, tmp_path):
        path = tmp_path / "out.json"  # the config records the --out path
        plain = run_cli(argv, path)
        first = path.read_bytes()
        run_cli(argv, path)
        assert path.read_bytes() == first
        assert "wall_time_s" not in plain
        timed = run_cli(argv + ["--timing"], path)
        assert timed.pop("wall_time_s") >= 0
        assert timed == plain


class TestJsonEncoding:
    def test_fractions_become_strings(self):
        assert _json_default(Fraction(3, 4)) == "3/4"

    def test_unknown_types_are_refused(self):
        with pytest.raises(TypeError, match="not JSON serialisable"):
            _json_default(object())

import hashlib
import json
import time
from fractions import Fraction

import numpy as np
import pytest

from btt import (EdgeCover, exact, gen_figure2, gen_hardness_reduction,
                 gen_random, gen_vc_reduction, lp, solve_exact)
from btt.cli import (CLUSTER_ALGS, SOLVE_ALGS, RunConfig, _json_default, _load_graph,
                     build_instance, main)
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

    @pytest.mark.parametrize("argv", [
        ["cluster", "--alg", "pivot", "--gen", "fig2", "--trials", "1"],
        ["verify", "--tables"],
        ["verify", "--hexagram", "--tables"],
    ], ids=["one-trial", "tables", "tables-hexagram"])
    def test_csv_without_csv_output_is_input_error(self, argv, tmp_path, capsys):
        # a command that makes no CSV refuses --csv rather than ignore it
        csv, out = tmp_path / "rows.csv", tmp_path / "out.json"
        assert main(argv + ["--csv", str(csv), "--out", str(out)]) == 2
        assert "--csv" in capsys.readouterr().err
        assert not csv.exists() and not out.exists()

    @pytest.mark.parametrize("exists", [True, False], ids=["valid", "missing"])
    def test_pivot_with_cover_is_input_error(self, exists, fig2_cover_file,
                                             tmp_path, capsys):
        # plain pivot reads no cover, so it refuses one rather than ignore it
        cover_path = fig2_cover_file[0] if exists else tmp_path / "none.json"
        out = tmp_path / "out.json"
        assert main(["cluster", "--gen", "fig2", "--alg", "pivot", "--cover",
                     str(cover_path), "--out", str(out)]) == 2
        assert "--cover" in capsys.readouterr().err
        assert not out.exists()

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


#: The generator specs every ``solve --alg`` runs on in the golden matrix.
GOLDEN_GRAPHS = ("fig2", "gap:n=5", "random:n=10,weights=rational:4:3,seed=1")
#: A float graph for the algorithms that take ``--mode float``; lp-exact,
#: kriv and exact are left off, since the Fraction simplex and the cover
#: search cannot finish on it.
GOLDEN_FLOAT_GRAPH = "random:n=30,weights=uniform:0.5:2,seed=1"
GOLDEN_FLOAT_ALGS = ("3approx", "det2", "rand2", "sweep2", "lp-mwu")
GOLDEN_GENERATE = ("fig2", "hexagram --json-graph", "gap:n=5",
                   "random:n=10,weights=rational:4:3,seed=1",
                   "random:n=12,density=0.3,weights=uniform:0.5:2,seed=2",
                   "vc:kind=cycle,n=5", "hardness:file=../formula.cnf")


def golden_commands() -> list[str]:
    """The golden matrix: every command runs in an empty directory below
    the one holding its inputs, ``cover-<i>.json`` (a det2 solve result
    on the i-th graph the cluster commands run on) and ``formula.cnf``,
    and writes its outputs there."""
    commands = [f"solve --alg {alg} --gen {spec}"
                for spec in GOLDEN_GRAPHS for alg in SOLVE_ALGS]
    commands += [f"solve --alg {alg} --mode float --gen {GOLDEN_FLOAT_GRAPH}"
                 for alg in GOLDEN_FLOAT_ALGS]
    for i, spec in enumerate(GOLDEN_GRAPHS[::2]):
        for alg in CLUSTER_ALGS:
            cover = "" if alg == "pivot" else f" --cover ../cover-{i}.json"
            commands.append(f"cluster --alg {alg} --gen {spec} --trials 2 "
                            f"--seed 4 --csv trials.csv{cover}")
    commands += ["verify --tables --hexagram", "verify --survey --n 8 --count 4"]
    commands += [f"generate --gen {spec}" for spec in GOLDEN_GENERATE]
    return commands


#: SHA-256 of each golden command's outputs, frozen when the matrix was
#: added; a change that alters an output on purpose re-freezes only that
#: command.
GOLDEN_DIGESTS = {
    "solve --alg 3approx --gen fig2":
        "4670ea75ca9ee3303b242aec53bff06873d4c5692f1701b6dc93e576ebe844f0",
    "solve --alg kriv --gen fig2":
        "20143473fdf2e2551cb809b2a18919f064872da7253e97a1c464d565ba587dd2",
    "solve --alg det2 --gen fig2":
        "079d6d8da44ffec0d7432b75af56facf9025c550428fd6447015117c4c92689d",
    "solve --alg rand2 --gen fig2":
        "650b5fb1e498292ab2a3a6a375b9e606605a0aae88ee4e237aa37a4f1a3a1a14",
    "solve --alg sweep2 --gen fig2":
        "4ec12bf7ca9504a908757127513947539093e732842174a2525ee3d63f477e37",
    "solve --alg exact --gen fig2":
        "cd8e1ea25e51aa8d6a227c7e9ea1220b9f6663f991618e8159f0a0fe74b3171a",
    "solve --alg lp-exact --gen fig2":
        "7bcb6027f84ea39f2ae583194a8ed8d5a1b614ca5c66194f7a5b13bb5fc3ab7f",
    "solve --alg lp-mwu --gen fig2":
        "56cb44de4c76a43a4a73afe41bbd5f912e121887af86b1a1b54eb70e14ae9d3f",
    "solve --alg 3approx --gen gap:n=5":
        "33bc7dc00473bb82cce0e43a2e0b665e9567c41f1c8ce4e344cc658311e88e1c",
    "solve --alg kriv --gen gap:n=5":
        "acb5e15bdb0298c2a941c3aa93d22ba9cb9be0765d29e0599ada46b1ba9c4601",
    "solve --alg det2 --gen gap:n=5":
        "49b0cfaf06f4d22a6b0403f216ffac15be939b7a965dfb6d0de7ac35382b1026",
    "solve --alg rand2 --gen gap:n=5":
        "32555c1599842644ceda9a5fcaa3c5e1a156f9d05a3b9f2b99dcee2690205449",
    "solve --alg sweep2 --gen gap:n=5":
        "d692207d8c1fec713b938bc24f1a434af3af47c807b9cc734e0690574f279fa8",
    "solve --alg exact --gen gap:n=5":
        "50eb7592568bc9677f4256befdffd9bc802f267e5937e787e8de69747afc11a7",
    "solve --alg lp-exact --gen gap:n=5":
        "9e9ccf1bc5ce5c7e1d9430900366edbf2d7e7e0e30270d5cab99253b3c55e26c",
    "solve --alg lp-mwu --gen gap:n=5":
        "e99cdd0b80100baf7be3e62798447e035b56f9f01d54ed261486241e5b2e444f",
    "solve --alg 3approx --gen random:n=10,weights=rational:4:3,seed=1":
        "f3f2f68ad82ccf26506bc15071f78895a707c2f7a62440755bef348b8762d864",
    "solve --alg kriv --gen random:n=10,weights=rational:4:3,seed=1":
        "f5dfc7045997048f6a5e8dd897ee3fc23148d9ebdb860d68fb8e263fb85d1f04",
    "solve --alg det2 --gen random:n=10,weights=rational:4:3,seed=1":
        "2faf126a6eff285e24cdfbb4914f0091cf3704c30eb3b17c87210b72ef5a41d2",
    "solve --alg rand2 --gen random:n=10,weights=rational:4:3,seed=1":
        "4ceb5cfb3740aff8f991b89413717665e0818f5f15a0e886a6d56da34ee856ca",
    "solve --alg sweep2 --gen random:n=10,weights=rational:4:3,seed=1":
        "0e11a3d6eaea08351c0511d353158fe8f69339389b0cf6cdec3faad041fed7fd",
    "solve --alg exact --gen random:n=10,weights=rational:4:3,seed=1":
        "e6f7f73e81f293629d94c4799151723dc47347af3c979db4940ebc77ed9ef8f0",
    "solve --alg lp-exact --gen random:n=10,weights=rational:4:3,seed=1":
        "274900c9d73bf52a4b28d03b2375525a4d319cb256f3f764c7aa016d0fe11e87",
    "solve --alg lp-mwu --gen random:n=10,weights=rational:4:3,seed=1":
        "07301756ebf889e6cc393edd153f73e8f76f1330a7b12f2875e6432fb4e758d4",
    "solve --alg 3approx --mode float --gen random:n=30,weights=uniform:0.5:2,seed=1":
        "cd22d2dc2fb95573979506fb8a66629c4feb544ef5ebc522c4d434b1e227a513",
    "solve --alg det2 --mode float --gen random:n=30,weights=uniform:0.5:2,seed=1":
        "36f1a77a363b8436d1f17a079fde6cd6ee1ba608868cc55b9276654739741b36",
    "solve --alg rand2 --mode float --gen random:n=30,weights=uniform:0.5:2,seed=1":
        "b20db56f4b495c6f460aed1875a6a7ace6a6d3590111c7fdd71e2272577cd4de",
    "solve --alg sweep2 --mode float --gen random:n=30,weights=uniform:0.5:2,seed=1":
        "993d3ca7932533d9f745224e89e1f3fb2d76697d7f566bcb15fd335c8aa2e046",
    "solve --alg lp-mwu --mode float --gen random:n=30,weights=uniform:0.5:2,seed=1":
        "a7a7245b0e4cda95a6d15c6c4e53e1ece82507a483f406431d18ef6c23efc0ee",
    "cluster --alg pivot --gen fig2 --trials 2 --seed 4 --csv trials.csv":
        "fe2ced18a9336430f9a891235065435e7dcdd7e465eaa5b87a7a80fe8e2c392c",
    "cluster --alg cover-pivot --gen fig2 --trials 2 --seed 4 --csv trials.csv --cover ../cover-0.json":
        "7d57a4edf88e9949766b0e0aa6d9cdf218f411e8f007a305b8a0f83cfacad799",
    "cluster --alg flip-pivot --gen fig2 --trials 2 --seed 4 --csv trials.csv --cover ../cover-0.json":
        "d6e82a60ba5e2e2eb6a95f95cdf7b46f1df58149b8e0abc1d99523a4b57054ba",
    "cluster --alg pivot --gen random:n=10,weights=rational:4:3,seed=1 --trials 2 --seed 4 --csv trials.csv":
        "efcd0e3f99de24608312fbccf8e0be6248415cb74c51bfc3c81173885b76ddef",
    "cluster --alg cover-pivot --gen random:n=10,weights=rational:4:3,seed=1 --trials 2 --seed 4 --csv trials.csv --cover ../cover-1.json":
        "a7147a7321949f8bb8cd1ab5e4b3707bfeb48d6294b5fd04fa5a2bfbf19a73bc",
    "cluster --alg flip-pivot --gen random:n=10,weights=rational:4:3,seed=1 --trials 2 --seed 4 --csv trials.csv --cover ../cover-1.json":
        "134c247413b32962e761d111ce8a1100132d9b03d12de0dd02a907ba0cd42088",
    "verify --tables --hexagram":
        "96917b1608a864b0f6796e1152388dcd5ab5d9ca892c7f349f7e6837624f88fd",
    "verify --survey --n 8 --count 4":
        "4c3b315713778b7f04cac14ca94695890054817ba196829117262869c7b67d4a",
    "generate --gen fig2":
        "46e91a511adbb58d3648111af52c075b3a0cf1a13a1fc35694b7733e07b3c6b0",
    "generate --gen hexagram --json-graph":
        "770caf8dd5094439b573aca7900ad8ebf6e1be2d39ccdfe25f9c8a61270271b5",
    "generate --gen gap:n=5":
        "ef9f2e777bbe39a314270380e9badc6fe9918b07e63098537a7b9f7888b7ee7d",
    "generate --gen random:n=10,weights=rational:4:3,seed=1":
        "6ce2aaf309999439a415989d5830d7d76b6d7e69de981132ff93b7855912fbd1",
    "generate --gen random:n=12,density=0.3,weights=uniform:0.5:2,seed=2":
        "736b3943badc931bc952de550e13a50f099dd560c20cf2b31b5087eb50c89f2d",
    "generate --gen vc:kind=cycle,n=5":
        "36574adc290eacc8f031495e3b4e516df0c8685afdae0356bf1f74bcb2a29011",
    "generate --gen hardness:file=../formula.cnf":
        "063a037bf068c59a3e122cf6fe410acbedc0143e7a1194d842c21269957eb9f8",
}


class TestGoldenOutputs:
    def test_every_command_output_is_unchanged(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for i, spec in enumerate(GOLDEN_GRAPHS[::2]):
            assert main(["solve", "--alg", "det2", "--gen", spec,
                         "--out", f"cover-{i}.json"]) == 0
        (tmp_path / "formula.cnf").write_text("p cnf 1 2\n1 1 0\n1 -1 0\n")
        work = tmp_path / "run"
        work.mkdir()
        monkeypatch.chdir(work)
        digests = {}
        for command in golden_commands():
            assert main(command.split() + ["--out", "out"]) == 0, command
            digest = hashlib.sha256()
            for path in sorted(work.iterdir()):
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
                path.unlink()
            digests[command] = digest.hexdigest()
        assert digests == GOLDEN_DIGESTS

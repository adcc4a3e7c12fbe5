import json
from fractions import Fraction

import pytest

from btt import EdgeCover, gen_figure2, gen_random, lp, solve_exact
from btt.cli import _json_default, main
from btt.pivot import pivot_trials, run_pivot
from conftest import patch_fraction_simplex

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

    def test_float_simplex_pivot_cap_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(lp, "_FLOAT_PIVOT_CAP_PER_COLUMN", 0)
        assert main(["solve", "--gen", "fig2", "--alg", "lp-exact"]) == 3
        assert "lp-mwu" in capsys.readouterr().err

    def test_verification_failure_exits_4(self, monkeypatch, capsys):
        monkeypatch.setattr(lp, "_float_packing_simplex", lambda *args: None)
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
    ])
    def test_unwritable_output_exits_2(self, argv, tmp_path, capsys):
        (tmp_path / "g.txt.json").mkdir()
        assert main([a.format(dir=tmp_path) for a in argv]) == 2
        assert f"cannot write {tmp_path}" in capsys.readouterr().err

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


class TestJsonEncoding:
    def test_fractions_become_strings(self):
        assert _json_default(Fraction(3, 4)) == "3/4"

    def test_unknown_types_are_refused(self):
        with pytest.raises(TypeError, match="not JSON serialisable"):
            _json_default(object())

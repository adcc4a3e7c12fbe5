"""Batch command-line front end.

Four subcommands: ``generate`` emits instances as edge-list files,
``solve`` runs cover algorithms or LP solvers, ``cluster`` runs pivot
transformations (single runs or seeded trial batches), ``verify`` runs
the certificate suites.  Pipelines chain subcommands over files: a solve
result is a valid ``--cover`` input for cluster.

Result files are deterministic for a fixed config (seed included): JSON
is written with sorted keys and wall time is only embedded when
``--timing`` is requested.  Exit codes: 0 ok, 2 input error, 3 capacity
or convergence error, 4 verification failure.

Environment: ``BTT_WORKERS`` sets the survey fan-out width, capped at the
instance count and the CPU count.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass

from . import __version__
from .approx import (ALG_DETERMINISTIC, ALG_KRIVELEVICH, ALG_RANDOMIZED,
                     ALG_SWEEP, ALG_THREE_APPROX, derandomized_sweep,
                     krivelevich, outcome_to_json, round_deterministic,
                     round_randomized, standard_three_approx)
from .errors import (BttError, CapacityError, ConvergenceError, InputError,
                     VerificationError)
from .exact import (exact_btt, exact_btt_positive_only, ratio_survey,
                    survey_rows_to_csv)
from .generators import (gen_figure2, gen_hardness_reduction, gen_hexagram,
                         gen_integrality_gap, gen_random, gen_vc_reduction,
                         parse_2cnf)
from .graphs import (COVER_SCHEMA, EdgeCover, SignedGraph,
                     clustering_to_json, cover_from_json, format_edge_list,
                     graph_to_json, json_value, parse_edge_list)
from .lp import lp_solution_to_json, solve_exact, solve_mwu
from .pivot import (ALG_COVER_PIVOT, ALG_FLIP_PIVOT, ALG_STANDARD_PIVOT,
                    pivot_trials, run_pivot, verify_charging_tables)

SOLVE_ALGS = (ALG_THREE_APPROX, ALG_KRIVELEVICH, ALG_DETERMINISTIC,
              ALG_RANDOMIZED, ALG_SWEEP, "exact", "lp-exact", "lp-mwu")
CLUSTER_ALGS = (ALG_STANDARD_PIVOT, ALG_COVER_PIVOT, ALG_FLIP_PIVOT)

RESULT_SCHEMA = "btt.result/1"

#: Above this node count the default number mode switches from exact
#: rationals to floats.
RATIONAL_MODE_NODE_LIMIT = 50


@dataclass(frozen=True)
class RunConfig:
    """Normalised invocation record embedded into every result file."""

    command: str
    alg: str | None = None
    input: str | None = None
    gen: str | None = None
    eps: float | None = None
    seed: int = 0
    trials: int = 1
    mode: str = "auto"
    out: str | None = None
    cover: str | None = None
    triangle_budget: int | None = None
    node_budget: int | None = None

    def to_json(self) -> dict:
        return {"version": __version__, **asdict(self)}


GEN_SPEC_HELP = (
    "generator spec NAME[:KEY=VALUE,...]; NAME and its keys: fig2, hexagram, "
    "gap (n), random (n, p or count, complete=0|1 or density for a sparse "
    "graph, seed, weights=unit|uniform:LO:HI|rational:NUM:DEN), vc "
    "(kind=cycle|path|star|complete and n, or file), hardness (file, "
    "mode=theorem|relaxed)")


def _parse_gen_spec(spec: str):
    """Split ``name[:key=value,...]`` into the name and its options.

    The specs ``build_instance`` knows:

    * ``fig2``, the six-node bad-cycle example, and ``hexagram``;
    * ``gap:n=K``, the all-negative K-clique plus a positive apex;
    * ``random:n=K`` with optional ``p=P`` or ``count=C`` (positive
      edges), ``density=D`` (a sparse graph keeping each pair with
      probability D; ``complete=0`` alone means D = 0.5, and ``complete=1``
      with ``density`` is an error), ``seed=S``, and ``weights=unit``,
      ``uniform:LO:HI`` (floats) or ``rational:NUM:DEN``;
    * ``vc:kind=cycle|path|star|complete,n=K`` or ``vc:file=PATH`` (an
      ``n <count>`` line, then ``u v`` lines), the vertex-cover reduction;
    * ``hardness:file=PATH[,mode=theorem|relaxed]``, the 2CNF-deletion
      reduction of a DIMACS-style 2CNF file.
    """
    name, _, rest = spec.partition(":")
    kwargs: dict[str, str] = {}
    if rest:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise InputError(f"bad generator option {item!r} in {spec!r}")
            kwargs[key] = value
    return name, kwargs


def _int_opt(kwargs: dict, key: str, default=None) -> int | None:
    if key not in kwargs:
        if default is None:
            raise InputError(f"generator option {key!r} is required")
        return default
    try:
        return int(kwargs[key])
    except ValueError as exc:
        raise InputError(f"option {key!r} must be an integer") from exc


def _float_opt(kwargs: dict, key: str, default=None) -> float | None:
    if key not in kwargs:
        if default is None:
            raise InputError(f"generator option {key!r} is required")
        return default
    try:
        return float(kwargs[key])
    except ValueError as exc:
        raise InputError(f"option {key!r} must be a number") from exc


def _read_text(path: str) -> str:
    """The UTF-8 text of an input file; InputError naming the path when it
    cannot be read or decoded."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise InputError(f"cannot read {path}: {reason}") from None


def _write_text(path: str, text: str) -> None:
    """Write an output file; InputError naming the path when it cannot be
    written."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None


def _unsigned_from_file(path: str) -> tuple[int, list[tuple[int, int]]]:
    """Unsigned graph file: header ``n <count>`` then ``u v`` lines."""
    n = None
    edges = []
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2 or (n is None and fields[0] != "n"):
            raise InputError(f"{path}:{lineno}: expected 'n <count>', then 'u v' lines")
        try:
            if fields[0] == "n":
                n = int(fields[1])
            else:
                edges.append((int(fields[0]), int(fields[1])))
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: expected integers, got {line!r}") from exc
    if n is None:
        raise InputError(f"{path}: missing 'n <count>' header")
    return n, edges


def _unsigned_family(kind: str, n: int) -> tuple[int, list[tuple[int, int]]]:
    if n < 1:
        raise InputError(f"unsigned family size must be positive, got {n}")
    if kind == "cycle":
        return n, [(i, (i + 1) % n) for i in range(n)]
    if kind == "path":
        return n, [(i, i + 1) for i in range(n - 1)]
    if kind == "star":
        return n + 1, [(0, i) for i in range(1, n + 1)]
    if kind == "complete":
        return n, [(u, v) for u in range(n) for v in range(u + 1, n)]
    raise InputError(f"unknown unsigned family {kind!r}")


def build_instance(spec: str):
    """Build (graph, gadget_map_or_None) from a generator spec string."""
    name, kwargs = _parse_gen_spec(spec)
    if name == "fig2":
        return gen_figure2(), None
    if name == "gap":
        return gen_integrality_gap(_int_opt(kwargs, "n")), None
    if name == "hexagram":
        g, gmap = gen_hexagram()
        return g, gmap
    if name == "random":
        weights = kwargs.get("weights", "unit")
        if weights != "unit":
            kind, *numbers = weights.split(":")
            parse = {"uniform": _float_opt, "rational": _int_opt}.get(kind)
            if parse is None or len(numbers) != 2:
                raise InputError(f"unknown weight spec {weights!r}")
            names = ("LO", "HI") if kind == "uniform" else ("NUM", "DEN")
            fields = dict(zip(names, numbers))
            weights = (kind, *(parse(fields, name) for name in names))
        sparse = "density" in kwargs
        complete = kwargs.get("complete", "0" if sparse else "1") not in ("0", "false")
        if complete and sparse:
            raise InputError("density applies to sparse graphs; drop complete=1")
        return gen_random(
            _int_opt(kwargs, "n"),
            positive_prob=_float_opt(kwargs, "p") if "p" in kwargs else None,
            positive_count=_int_opt(kwargs, "count", -1) if "count" in kwargs else None,
            complete=complete,
            density=_float_opt(kwargs, "density", 0.5),
            weights=weights,
            seed=_int_opt(kwargs, "seed", 0)), None
    if name == "vc":
        if "file" in kwargs:
            n, edges = _unsigned_from_file(kwargs["file"])
        else:
            n, edges = _unsigned_family(kwargs.get("kind", "cycle"),
                                        _int_opt(kwargs, "n"))
        return gen_vc_reduction(n, edges), None
    if name == "hardness":
        if "file" not in kwargs:
            raise InputError("hardness spec needs file=<2cnf path>")
        formula = parse_2cnf(_read_text(kwargs["file"]))
        g, gmap = gen_hardness_reduction(formula, mode=kwargs.get("mode", "theorem"))
        return g, gmap
    raise InputError(f"unknown generator {name!r}")


def _load_graph(cfg: RunConfig) -> SignedGraph:
    if (cfg.input is None) == (cfg.gen is None):
        raise InputError("exactly one input source: give --input or --gen")
    if cfg.input is not None:
        g = parse_edge_list(_read_text(cfg.input))
    else:
        g, _ = build_instance(cfg.gen)
    mode = cfg.mode
    if mode == "auto":
        mode = "rational" if g.n <= RATIONAL_MODE_NODE_LIMIT else "float"
    if mode == "float":
        tuples = []
        for e in g.edges:
            try:
                tuples.append((e.u, e.v, e.sign, float(e.weight)))
            except OverflowError:
                raise InputError(f"weight on edge ({e.u},{e.v}) is too large "
                                 f"for --mode float") from None
        g = SignedGraph(g.n, tuples, complete=g.complete)
    elif mode != "rational":
        raise InputError(f"mode must be rational, float or auto, got {mode!r}")
    return g


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    if out in (None, "-"):
        print(text)
    else:
        _write_text(out, text + "\n")


def _json_default(value):
    encoded = json_value(value)
    if encoded is value:
        raise TypeError(f"not JSON serialisable: {value!r}")
    return encoded


def _result(cfg: RunConfig, body: dict, started: float | None) -> dict:
    payload = {"schema": RESULT_SCHEMA, "config": cfg.to_json(), **body}
    if started is not None:
        payload["wall_time_s"] = time.perf_counter() - started
    return payload


# -- solve -------------------------------------------------------------------


def _fractional_solution(g: SignedGraph, cfg: RunConfig):
    """LP solution used as rounding input, per number mode."""
    if g.is_exact():
        return solve_exact(g)
    return solve_mwu(g, cfg.eps if cfg.eps is not None else 0.1)


def cmd_solve(cfg: RunConfig, timing: bool) -> dict:
    started = time.perf_counter() if timing else None
    g = _load_graph(cfg)
    body: dict = {"kind": "solve", "n": g.n, "m": g.m}
    if cfg.alg == "lp-exact":
        body["lp"] = lp_solution_to_json(g, solve_exact(g))
    elif cfg.alg == "lp-mwu":
        body["lp"] = lp_solution_to_json(
            g, solve_mwu(g, cfg.eps if cfg.eps is not None else 0.1))
    elif cfg.alg == "exact":
        budgets = {}
        if cfg.triangle_budget is not None:
            budgets["triangle_budget"] = cfg.triangle_budget
        if cfg.node_budget is not None:
            budgets["node_budget"] = cfg.node_budget
        res = exact_btt(g, **budgets)
        body["exact"] = {
            "value": json_value(res.value),
            "cover_edge_ids": sorted(res.witness.edge_ids),
            "cover_pairs": [list(p) for p in res.witness.pairs(g)],
            "nodes_explored": res.nodes_explored,
            "root_lower_bound": json_value(res.root_lower_bound),
            "incumbent_trail": [[n, json_value(v)] for n, v in res.trail],
        }
    elif cfg.alg == ALG_THREE_APPROX:
        body["outcome"] = outcome_to_json(g, standard_three_approx(g))
    elif cfg.alg == ALG_KRIVELEVICH:
        body["outcome"] = outcome_to_json(g, krivelevich(g))
    elif cfg.alg in (ALG_DETERMINISTIC, ALG_RANDOMIZED, ALG_SWEEP):
        sol = _fractional_solution(g, cfg)
        lower = sol.bounds[0]
        if cfg.alg == ALG_DETERMINISTIC:
            outcome = round_deterministic(g, sol.primal, lower_bound=lower)
        elif cfg.alg == ALG_SWEEP:
            outcome = derandomized_sweep(g, sol.primal, lower_bound=lower)
        else:
            outcome = round_randomized(g, sol.primal, cfg.seed, lower_bound=lower)
        body["lp_status"] = sol.status
        body["outcome"] = outcome_to_json(g, outcome)
    else:
        raise InputError(f"unknown solve algorithm {cfg.alg!r}")
    return _result(cfg, body, started)


# -- cluster -----------------------------------------------------------------


def _load_cover(g: SignedGraph, path: str) -> EdgeCover:
    """Accept a cover JSON, a solve result JSON, or '-' for stdin."""
    text = sys.stdin.read() if path == "-" else _read_text(path)
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise InputError(f"cover {path} is not valid JSON: {exc}") from None
    for key in ("outcome", "exact"):  # a solve result
        if isinstance(obj, dict) and key in obj:
            obj = obj[key]
    if not isinstance(obj, dict):
        raise InputError(f"cover {path} must hold a JSON object: a solve "
                         f"result or a {COVER_SCHEMA} cover")
    if "cover_edge_ids" in obj:
        obj = {"schema": COVER_SCHEMA, "edge_ids": obj["cover_edge_ids"]}
    return cover_from_json(g, obj)


def cmd_cluster(cfg: RunConfig, timing: bool, csv_out: str | None = None) -> dict:
    started = time.perf_counter() if timing else None
    g = _load_graph(cfg)
    cover = None
    if cfg.alg in (ALG_COVER_PIVOT, ALG_FLIP_PIVOT):
        if cfg.cover is None:
            raise InputError(f"{cfg.alg} needs --cover (a solve result or cover file)")
        cover = _load_cover(g, cfg.cover)
    body: dict = {"kind": "cluster", "n": g.n, "m": g.m,
                  "cover_size": None if cover is None else cover.size}
    if cfg.trials == 1:
        trace = run_pivot(g, cfg.alg, cfg.seed, cover)
        body["clustering"] = clustering_to_json(trace.clustering)
        body["disagreements"] = json_value(trace.disagreements)
        body["pivot_order"] = list(trace.pivot_order)
        body["cover_edges_removed_per_round"] = list(trace.removed_per_round)
    else:
        report = pivot_trials(g, cfg.alg, cfg.trials, cfg.seed, cover=cover)
        body["trials"] = {
            "count": report["trials"],
            "mean": report["mean"],
            "stderr": report["stderr"],
            "disagreements": report["disagreements"],
        }
        if csv_out:
            _write_text(csv_out, "trial,disagreements\n" + "".join(
                f"{i},{c}\n" for i, c in enumerate(report["disagreements"])))
    return _result(cfg, body, started)


# -- verify ------------------------------------------------------------------


def _verify_tables() -> dict:
    try:
        report = verify_charging_tables()
        return {"check": "tables", "passed": True,
                "defined_cells": report["defined_cells"],
                "max_defined_ratio": report["max_defined_ratio"],
                "tables": {k: report[k] for k in
                           ("rows", "columns", "disagreement", "budget", "ratio")}}
    except VerificationError as exc:
        return {"check": "tables", "passed": False, "error": str(exc)}


def _verify_hexagram() -> dict:
    g, gmap = gen_hexagram()
    res = exact_btt_positive_only(g, enumerate_optima=64)
    hexa = gmap.hexagrams[0]
    expected = {
        frozenset(g.edge_id(u, v) for u, v in hexa.teeth_pairs("even")),
        frozenset(g.edge_id(u, v) for u, v in hexa.teeth_pairs("odd")),
    }
    passed = (res.value == 9 and res.optima is not None
              and not res.optima_truncated and set(res.optima) == expected)
    return {"check": "hexagram", "passed": passed,
            "optimum": json_value(res.value),
            "optima_count": None if res.optima is None else len(res.optima)}


def _verify_survey(n: int, count: int, seed: int) -> dict:
    def make(instance_seed: int) -> SignedGraph:
        return gen_random(n, positive_prob=0.5, complete=True, seed=instance_seed)

    report = ratio_survey(make, count, seed)
    errors = [r["instance"] for r in report["rows"] if r["error"]]
    passed = not report["violations"] and not errors
    return {"check": "survey", "passed": passed, "count": count, "n": n,
            "seed": seed, "violations": report["violations"],
            "errors": errors,
            "candidates": len(report["equality_counterexample_candidates"]),
            "rows": report["rows"]}


def cmd_verify(args) -> tuple[dict, bool]:
    checks = []
    if args.tables:
        checks.append(_verify_tables())
    if args.hexagram:
        checks.append(_verify_hexagram())
    if args.survey:
        checks.append(_verify_survey(args.n, args.count, args.seed))
    if not checks:
        raise InputError("choose at least one of --tables, --hexagram, --survey")
    all_passed = all(c["passed"] for c in checks)
    payload = {"schema": RESULT_SCHEMA, "kind": "verify",
               "version": __version__,
               "passed": all_passed, "checks": checks}
    return payload, all_passed


# -- generate ----------------------------------------------------------------


def cmd_generate(args) -> None:
    g, gmap = build_instance(args.gen)
    text = format_edge_list(g)
    if args.out in (None, "-"):
        sys.stdout.write(text)
    else:
        _write_text(args.out, text)
    if gmap is not None:
        map_path = args.map
        if map_path is None and args.out not in (None, "-"):
            map_path = args.out + ".map.json"
        if map_path is not None:
            _write_text(map_path, json.dumps(gmap.to_json(), indent=2,
                                             sort_keys=True) + "\n")
    if args.json_graph and args.out not in (None, "-"):
        _write_text(args.out + ".json",
                    json.dumps(graph_to_json(g), indent=2, sort_keys=True) + "\n")


# -- argument parsing --------------------------------------------------------


def _add_common(sub, with_alg: tuple | None):
    sub.add_argument("--input", help="edge-list file")
    sub.add_argument("--gen", help=GEN_SPEC_HELP)
    if with_alg:
        sub.add_argument("--alg", required=True, choices=with_alg)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--mode", choices=("rational", "float", "auto"), default="auto")
    sub.add_argument("--out", help="result file (default stdout)")
    sub.add_argument("--timing", action="store_true",
                     help="embed wall time (breaks byte-identical reruns)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="btt",
        description="Bad-triangle transversal toolkit: generate, solve, "
                    "cluster, verify.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="run a cover algorithm or LP solver")
    _add_common(solve, SOLVE_ALGS)
    solve.add_argument("--eps", type=float, help="accuracy for lp-mwu and float-mode rounding")
    solve.add_argument("--triangle-budget", type=int)
    solve.add_argument("--node-budget", type=int)

    cluster = subs.add_parser("cluster", help="run a pivot transformation")
    _add_common(cluster, CLUSTER_ALGS)
    cluster.add_argument("--cover", help="cover file or solve result ('-' for stdin)")
    cluster.add_argument("--trials", type=int, default=1)
    cluster.add_argument("--csv", help="write per-trial CSV here")

    verify = subs.add_parser("verify", help="run certificate suites")
    verify.add_argument("--tables", action="store_true",
                        help="recompute the pivot charging tables")
    verify.add_argument("--hexagram", action="store_true",
                        help="check the hexagram optimum and its two optima")
    verify.add_argument("--survey", action="store_true",
                        help="cover-vs-clustering ratio survey on random instances")
    verify.add_argument("--n", type=int, default=8)
    verify.add_argument("--count", type=int, default=50)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--csv", help="write survey rows as CSV here")
    verify.add_argument("--out", help="report file (default stdout)")

    gen = subs.add_parser("generate", help="emit an instance as an edge list")
    gen.add_argument("--gen", required=True, help=GEN_SPEC_HELP)
    gen.add_argument("--out", help="edge-list file (default stdout)")
    gen.add_argument("--map", help="gadget-map sidecar path")
    gen.add_argument("--json-graph", action="store_true",
                     help="also write <out>.json with the graph JSON export")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            cfg = RunConfig(
                command="solve", alg=args.alg, input=args.input, gen=args.gen,
                eps=args.eps, seed=args.seed, mode=args.mode, out=args.out,
                triangle_budget=args.triangle_budget, node_budget=args.node_budget)
            _emit(cmd_solve(cfg, args.timing), args.out)
        elif args.command == "cluster":
            cfg = RunConfig(
                command="cluster", alg=args.alg, input=args.input, gen=args.gen,
                seed=args.seed, trials=args.trials, mode=args.mode,
                out=args.out, cover=args.cover)
            _emit(cmd_cluster(cfg, args.timing, csv_out=args.csv), args.out)
        elif args.command == "verify":
            payload, passed = cmd_verify(args)
            if args.csv and args.survey:
                for check in payload["checks"]:
                    if check["check"] == "survey":
                        _write_text(args.csv, survey_rows_to_csv(check["rows"]))
            for check in payload["checks"]:
                check.pop("rows", None)
                status = "PASS" if check["passed"] else "FAIL"
                print(f"[{status}] {check['check']}", file=sys.stderr)
            _emit(payload, args.out)
            if not passed:
                return 4
        elif args.command == "generate":
            cmd_generate(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, ConvergenceError) as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 4
    except BttError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

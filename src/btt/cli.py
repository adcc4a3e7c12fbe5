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

``--gen`` takes a generator spec ``NAME[:KEY=VALUE,...]``; ``GEN_SPEC_KEYS``
is the one table of the generators and the keys each takes, and an
unknown or repeated key is an input error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .approx import (ALG_DETERMINISTIC, ALG_KRIVELEVICH, ALG_RANDOMIZED,
                     ALG_SWEEP, ALG_THREE_APPROX, derandomized_sweep,
                     krivelevich, outcome_to_json, round_deterministic,
                     round_randomized, standard_three_approx)
from .errors import (BttError, CapacityError, ConvergenceError, InputError,
                     VerificationError)
from .exact import (_check_cc_node_cap, exact_btt, exact_btt_positive_only,
                    ratio_survey, survey_rows_to_csv)
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

#: Accuracy of solve_mwu when --eps is not given.
DEFAULT_EPS = 0.1

#: Least magnitude that ``float()`` rounds past float64's range: halfway
#: between the largest float, 2**1024 - 2**971, and 2**1024, where rounding
#: half to even goes up.
_FLOAT_OVERFLOW = 2**1024 - 2**970


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
        return {"version": __version__, **vars(self)}


def _run_config(args: argparse.Namespace) -> RunConfig:
    """The ``RunConfig`` of a parsed command: each field its flag sets."""
    return RunConfig(**{f.name: getattr(args, f.name)
                        for f in fields(RunConfig) if hasattr(args, f.name)})


#: The generators of ``--gen`` and the keys each takes, with their values.
GEN_SPEC_KEYS = {
    "fig2": {},
    "hexagram": {},
    "gap": {"n": "K"},
    "random": {"n": "K", "p": "P", "count": "C", "complete": "0|1", "density": "D",
               "seed": "S", "weights": "unit|uniform:LO:HI|rational:NUM:DEN"},
    "vc": {"kind": "cycle|path|star|complete", "n": "K", "file": "PATH"},
    "hardness": {"file": "PATH", "mode": "theorem|relaxed"},
}

GEN_SPEC_HELP = "generator spec NAME[:KEY=VALUE,...], one of: " + "; ".join(
    f"{name}:{','.join(f'{k}={v}' for k, v in keys.items())}" if keys else name
    for name, keys in GEN_SPEC_KEYS.items())


def _parse_gen_spec(spec: str):
    """Split ``name[:key=value,...]`` into the name and its options.

    The name must be a generator of ``GEN_SPEC_KEYS`` and each key one of
    its keys, given once; anything else is an InputError.  What
    ``build_instance`` makes of them:

    * ``fig2`` is the six-node bad-cycle example;
    * ``gap`` is the all-negative K-clique plus a positive apex;
    * ``random`` needs ``n``; ``p`` or ``count`` fix the positive edges,
      ``density`` asks for a sparse graph keeping each pair with that
      probability (``complete=0`` alone means 0.5, and ``complete=1`` with
      ``density`` is an error), ``complete`` is 0 or 1 (or false or true),
      and ``uniform`` weights are floats;
    * ``vc`` is the vertex-cover reduction of a ``kind`` family of size
      ``n``, or of a ``file`` alone (an ``n <count>`` line, then ``u v``
      lines);
    * ``hardness`` is the 2CNF-deletion reduction of a DIMACS-style 2CNF
      ``file``, in ``mode`` theorem (the default) or relaxed.
    """
    name, _, rest = spec.partition(":")
    if name not in GEN_SPEC_KEYS:
        raise InputError(f"unknown generator {name!r}")
    kwargs: dict[str, str] = {}
    for item in rest.split(",") if rest else ():
        key, eq, value = item.partition("=")
        if not eq:
            raise InputError(f"bad generator option {item!r} in {spec!r}")
        if key not in GEN_SPEC_KEYS[name]:
            raise InputError(f"unknown option {key!r} for generator {name!r}")
        if key in kwargs:
            raise InputError(f"option {key!r} repeated for generator {name!r}")
        kwargs[key] = value
    return name, kwargs


def _number_opt(kwargs: dict, key: str, kind: type, default=None):
    """Option ``key`` read as ``kind`` (int or float), else ``default``;
    InputError when it does not parse, or is absent with no default."""
    if key not in kwargs:
        if default is None:
            raise InputError(f"generator option {key!r} is required")
        return default
    try:
        return kind(kwargs[key])
    except ValueError as exc:
        what = "an integer" if kind is int else "a number"
        raise InputError(f"option {key!r} must be {what}") from exc


def _read_text(path: str) -> str:
    """The UTF-8 text of an input file; InputError naming the path when it
    cannot be read or decoded."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise InputError(f"cannot read {path}: {reason}") from None


def _write_outputs(outputs: list[tuple[str | None, str]]) -> None:
    """Write every rendered (path, text) output of a command, a path of
    None or '-' meaning stdout.  Files go first and stdout last.  When a
    file cannot be written, the files already written are removed and
    InputError names the path, so a failed command leaves no output."""
    written = []
    for path, text in outputs:
        if path in (None, "-"):
            continue
        try:
            with open(path, "w", encoding="utf-8") as fh:
                written.append(path)
                fh.write(text)
        except OSError as exc:
            for done in written:
                with contextlib.suppress(OSError):
                    os.remove(done)
            raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None
    for path, text in outputs:
        if path in (None, "-"):
            sys.stdout.write(text)


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
        return gen_integrality_gap(_number_opt(kwargs, "n", int)), None
    if name == "hexagram":
        g, gmap = gen_hexagram()
        return g, gmap
    if name == "random":
        weights = kwargs.get("weights", "unit")
        if weights != "unit":
            kind, *numbers = weights.split(":")
            number = {"uniform": float, "rational": int}.get(kind)
            if number is None or len(numbers) != 2:
                raise InputError(f"unknown weight spec {weights!r}")
            names = ("LO", "HI") if kind == "uniform" else ("NUM", "DEN")
            values = dict(zip(names, numbers))
            weights = (kind, *(_number_opt(values, name, number) for name in names))
        sparse = "density" in kwargs
        complete = {"0": False, "false": False, "1": True, "true": True}.get(
            kwargs.get("complete", "0" if sparse else "1"))
        if complete is None:
            raise InputError(f"option 'complete' must be 0 or 1, got {kwargs['complete']!r}")
        if complete and sparse:
            raise InputError("density applies to sparse graphs; drop complete=1")
        return gen_random(
            _number_opt(kwargs, "n", int),
            positive_prob=_number_opt(kwargs, "p", float) if "p" in kwargs else None,
            positive_count=_number_opt(kwargs, "count", int) if "count" in kwargs else None,
            complete=complete,
            density=_number_opt(kwargs, "density", float, 0.5),
            weights=weights,
            seed=_number_opt(kwargs, "seed", int, 0)), None
    if name == "vc":
        if "file" in kwargs:
            if len(kwargs) > 1:
                raise InputError("vc takes file= alone, or kind= and n=")
            n, edges = _unsigned_from_file(kwargs["file"])
        else:
            n, edges = _unsigned_family(kwargs.get("kind", "cycle"),
                                        _number_opt(kwargs, "n", int))
        return gen_vc_reduction(n, edges), None
    # hardness, the last generator of GEN_SPEC_KEYS
    if "file" not in kwargs:
        raise InputError("hardness spec needs file=<2cnf path>")
    formula = parse_2cnf(_read_text(kwargs["file"]))
    g, gmap = gen_hardness_reduction(formula, mode=kwargs.get("mode", "theorem"))
    return g, gmap


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
        cols = g.edge_columns()
        try:
            weight = cols.weight.astype(np.float64)
        except OverflowError:
            i = int(np.argmax(abs(cols.weight) >= _FLOAT_OVERFLOW))
            raise InputError(f"weight on edge ({cols.u[i]},{cols.v[i]}) is too large "
                             f"for --mode float") from None
        g = SignedGraph(g.n, cols._replace(weight=weight), complete=g.complete)
    elif mode != "rational":
        raise InputError(f"mode must be rational, float or auto, got {mode!r}")
    return g


def _render(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"


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


def _solve_mwu(g: SignedGraph, cfg: RunConfig):
    return solve_mwu(g, DEFAULT_EPS if cfg.eps is None else cfg.eps)


def _fractional_solution(g: SignedGraph, cfg: RunConfig):
    """LP solution used as rounding input, per number mode."""
    return solve_exact(g) if g.is_exact() else _solve_mwu(g, cfg)


def cmd_solve(cfg: RunConfig, timing: bool) -> dict:
    started = time.perf_counter() if timing else None
    g = _load_graph(cfg)
    body: dict = {"kind": "solve", "n": g.n, "m": g.m}
    if cfg.alg == "lp-exact":
        body["lp"] = lp_solution_to_json(g, solve_exact(g))
    elif cfg.alg == "lp-mwu":
        body["lp"] = lp_solution_to_json(g, _solve_mwu(g, cfg))
    elif cfg.alg == "exact":
        res = exact_btt(g, triangle_budget=cfg.triangle_budget,
                        node_budget=cfg.node_budget)
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


def cmd_cluster(cfg: RunConfig, timing: bool) -> tuple[dict, str | None]:
    """The result payload and, for a trial batch, the per-trial CSV."""
    started = time.perf_counter() if timing else None
    if cfg.alg == ALG_STANDARD_PIVOT and cfg.cover is not None:
        raise InputError(f"{cfg.alg} uses no cover: drop --cover")
    g = _load_graph(cfg)
    cover = csv = None
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
        csv = "trial,disagreements\n" + "".join(
            f"{i},{c}\n" for i, c in enumerate(report["disagreements"]))
    return _result(cfg, body, started), csv


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
    # a survey of no graph, or of graphs too small for a bad triangle,
    # would pass without checking anything
    if count < 1:
        raise InputError(f"--count must be at least 1, got {count}")
    if n < 3:
        raise InputError(f"--n must be at least 3, got {n}")
    _check_cc_node_cap(n)  # every row would be refused

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


def cmd_generate(args) -> list[tuple[str | None, str]]:
    """The rendered outputs: the edge list, then its sidecars."""
    g, gmap = build_instance(args.gen)
    outputs = [(args.out, format_edge_list(g))]
    to_file = args.out not in (None, "-")
    if gmap is not None:
        map_path = args.map
        if map_path is None and to_file:
            map_path = args.out + ".map.json"
        if map_path is not None:
            outputs.append((map_path, json.dumps(gmap.to_json(), indent=2,
                                                 sort_keys=True) + "\n"))
    if args.json_graph and to_file:
        outputs.append((args.out + ".json",
                        json.dumps(graph_to_json(g), indent=2, sort_keys=True) + "\n"))
    return outputs


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
    solve.add_argument("--node-budget", type=int,
                       help="default: derived from the bad-triangle count")

    cluster = subs.add_parser("cluster", help="run a pivot transformation")
    _add_common(cluster, CLUSTER_ALGS)
    cluster.add_argument("--cover", help="cover file or solve result ('-' for stdin); "
                         "cover-pivot and flip-pivot only")
    cluster.add_argument("--trials", type=int, default=1)
    cluster.add_argument("--csv", help="write per-trial CSV here (needs --trials > 1)")

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
    verify.add_argument("--csv", help="write survey rows as CSV here (needs --survey)")
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
            if args.eps is not None and not 0 < args.eps < 1:
                raise InputError(f"--eps must lie in (0,1), got {args.eps}")
            payload = cmd_solve(_run_config(args), args.timing)
            _write_outputs([(args.out, _render(payload))])
        elif args.command == "cluster":
            payload, csv = cmd_cluster(_run_config(args), args.timing)
            if args.csv and csv is None:
                raise InputError("--csv writes per-trial rows: it needs --trials 2 or more")
            outputs = [(args.csv, csv)] if args.csv else []
            _write_outputs(outputs + [(args.out, _render(payload))])
        elif args.command == "verify":
            if args.csv and not args.survey:
                raise InputError("--csv writes survey rows: it needs --survey")
            payload, passed = cmd_verify(args)
            outputs = []
            for check in payload["checks"]:
                rows = check.pop("rows", None)
                if args.csv and rows is not None:
                    outputs.append((args.csv, survey_rows_to_csv(rows)))
                status = "PASS" if check["passed"] else "FAIL"
                print(f"[{status}] {check['check']}", file=sys.stderr)
            _write_outputs(outputs + [(args.out, _render(payload))])
            if not passed:
                return 4
        elif args.command == "generate":
            _write_outputs(cmd_generate(args))
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

"""Benchmark for the btt library: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact-lp --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root.  The library is imported from ``src/`` in
the same checkout.  One process, one thread: BLAS/OpenMP pools are
pinned to one thread and ``BTT_WORKERS`` is removed before anything is
imported.

A run sets up (builds the seeded input pool and warms up with one
request) three times and reports the median as ``setup_s``.  It then
sends requests one after another, each only once the previous one has
finished (a closed loop with one client), in whole passes over the pool
for about ``--seconds``.  Failed operations (ConvergenceError,
CapacityError, BudgetExceededError) are counted and the loop goes on.
Times are CPU times scaled to the host's speed (hostspeed.py).  After
the timed region every distinct request's output goes through the
checks in checks.py; a wrong output fails the run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs an
untraced loop and then a traced loop of half of ``--seconds`` each,
prints the per-layer metrics, and writes spans plus a per-layer summary
(with self time and tracing overhead) under ``.bench_out/``.  The last
line of standard output is always the JSON result.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("BTT_WORKERS", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
WAIT_NOTE = ("no wait metric: one thread, and the program has no queue, "
             "lock or pool on these paths")

END_TO_END = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "success_rate": "share",
    "peak_rss_mb": "MB",
    "cover_ratio": "ratio",
    "cluster_ratio": "ratio",
}

STAT_UNITS = {"calls": "count", "busy_s": "s", "triangles": "count",
              "tableau_cells": "count", "failed": "count", "gap": "ratio",
              "trials": "count", "nodes_explored": "count", "bytes": "B"}

#: Per-layer metrics: <module>.<function>.<stat>.  Work sizes (triangles,
#: tableau_cells, nodes_explored, bytes) are means per call; calls,
#: failed, trials and busy_s are totals over the traced pass.
PER_LAYER_STATS = (
    ("graphs.parse_edge_list", ("calls", "busy_s")),
    ("graphs.SignedGraph", ("calls", "busy_s")),
    ("graphs.bad_triangles", ("calls", "busy_s", "triangles")),
    ("graphs.is_feasible_cover", ("calls", "busy_s")),
    ("graphs.flip_edges", ("calls", "busy_s")),
    ("graphs.cc_cost", ("calls", "busy_s")),
    ("lp.solve_exact", ("calls", "busy_s", "triangles", "tableau_cells")),
    ("lp.solve_mwu", ("calls", "busy_s", "failed", "gap")),
    ("approx.round_deterministic", ("busy_s",)),
    ("approx.derandomized_sweep", ("busy_s",)),
    ("approx.round_randomized", ("busy_s",)),
    ("approx.standard_three_approx", ("busy_s",)),
    ("pivot.cover_pivot", ("calls", "busy_s")),
    ("pivot.pivot_trials.pivot", ("calls", "busy_s", "trials")),
    ("pivot.pivot_trials.cover-pivot", ("calls", "busy_s", "trials")),
    ("pivot.pivot_trials.flip-pivot", ("calls", "busy_s", "trials")),
    ("exact.exact_btt", ("calls", "busy_s", "nodes_explored", "failed")),
    ("exact.exact_cc", ("calls", "busy_s", "nodes_explored", "failed")),
    ("cli.encode", ("calls", "busy_s", "bytes")),
)
PER_CALL_STATS = ("triangles", "tableau_cells", "nodes_explored", "bytes")
BENCH_STATS = {"bench.requests": "count", "bench.tracing_overhead": "share"}


def per_layer_names() -> dict:
    names = {f"{layer}.{stat}": STAT_UNITS[stat]
             for layer, stats in PER_LAYER_STATS for stat in stats}
    names.update(BENCH_STATS)
    return names


def import_library():
    """Import btt from this checkout's src/; exit 2 when it is not there."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import btt
    except ImportError as exc:
        print(f"cannot import the library from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(btt.__file__).resolve().parent.parent != SRC:
        print(f"btt imported from {btt.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return btt


# -- environment record --------------------------------------------------------


def _git_commit() -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "btt").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(btt) -> dict:
    import numpy

    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "btt_version": btt.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "threads_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "btt_workers": os.environ.get("BTT_WORKERS"),
    }


# -- timed passes --------------------------------------------------------------


@dataclass
class Pass:
    """One timed loop.  A request's time is the CPU time of this process,
    scaled to the host's speed (hostspeed.py): the program is
    single-threaded and never waits, so CPU time is the time it needs,
    while wall time also counts time the host gives to other processes."""
    attempted: int = 0  # requests sent, over all passes
    failed: int = 0
    passes: int = 0
    cpu_s: float = 0.0
    wall_s: float = 0.0
    #: pool index -> scaled CPU seconds of each run of that request
    runs: dict = field(default_factory=dict)
    #: CPU seconds of the reference work before the first request and
    #: after each request
    reference_s: list = field(default_factory=list)
    #: pool index -> record of its first run (dict, or the raised error)
    records: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    mismatches: list = field(default_factory=list)

    @property
    def good(self) -> list:
        return [idx for idx, rec in self.records.items() if not isinstance(rec, Exception)]

    @property
    def request_s(self) -> dict:
        """Each distinct request's median over its runs."""
        return {idx: statistics.median(times) for idx, times in self.runs.items()}

    @property
    def latencies(self) -> list:
        request_s = self.request_s
        return [request_s[idx] for idx in self.good]

    @property
    def instances_per_s(self) -> float:
        """Completed requests per second that one pass over the pool
        needs, failed requests included."""
        return len(self.good) / sum(self.request_s.values())


def _digest(out) -> str:
    if isinstance(out, Exception):
        text = f"{type(out).__name__}:{getattr(out, 'bounds', None)!r}"
    else:
        text = out["encoded"]
    return hashlib.sha256(text.encode()).hexdigest()


def timed_pass(workload, pool, tracer, seconds: float, failures,
               max_requests: int | None = None) -> Pass:
    """Closed loop over the pool in whole passes for about ``seconds``.

    Stopping only at the end of a pass keeps the timed set of requests the
    same in every run, so a slower or faster machine scales the metrics
    instead of changing which requests they cover.  The loop stops after
    the pass that brings the wall time closest to ``seconds``.
    """
    result = Pass()
    gc.collect()
    start, cpu_start = time.perf_counter(), time.process_time()
    result.reference_s.append(hostspeed.reference_s())
    i = 0
    while True:
        idx = i % len(pool)
        c0 = time.process_time()
        with tracer.request(i):
            try:
                out = workload.request(pool[idx], tracer)
            except failures as exc:
                out = exc
        c1 = time.process_time()
        result.reference_s.append(hostspeed.reference_s())
        result.runs.setdefault(idx, []).append(
            hostspeed.scale(c1 - c0, *result.reference_s[-2:]))
        i += 1
        result.attempted += 1
        result.failed += isinstance(out, Exception)
        digest = _digest(out)
        if idx not in result.digests:
            result.digests[idx] = digest
            result.records[idx] = out
        elif result.digests[idx] != digest:
            result.mismatches.append(idx)
        if i == max_requests:
            break
        if i % len(pool) == 0:
            result.passes += 1
            wall = time.perf_counter() - start
            if wall + wall / result.passes / 2 >= seconds:
                break
    result.cpu_s = time.process_time() - cpu_start
    result.wall_s = time.perf_counter() - start
    return result


def set_up(workloads_mod, workload, seed: int, tracer, failures):
    """Build the input pool and warm up with one request."""
    pool = workloads_mod.build_pool(workload, seed)
    try:
        workload.request(pool[0], tracer)
    except failures:
        pass
    return pool


# -- checks ----------------------------------------------------------------------


def run_checks(workloads_mod, checks_mod, workload, pool, passes) -> dict:
    """Check every distinct output; returns counts, raises CheckFailed."""
    from btt.errors import ConvergenceError

    records, digests = {}, {}
    for p in passes:
        checks_mod.require(not p.mismatches,
                           f"outputs changed between runs of pool entries {p.mismatches[:5]}")
        for idx, rec in p.records.items():
            checks_mod.require(digests.setdefault(idx, p.digests[idx]) == p.digests[idx],
                               f"pool entry {idx} differs between passes")
            records.setdefault(idx, rec)
    checked = bounds_checked = 0
    for idx, rec in sorted(records.items()):
        inst = pool[idx]
        try:
            if isinstance(rec, ConvergenceError):
                checks_mod.check_mwu_bounds(checks_mod.Graph(inst.text), rec.bounds, None)
                bounds_checked += 1
            if isinstance(rec, Exception):
                continue
            if workload.name == "exact-lp":
                checks_mod.check_exact_lp(inst.text, rec)
            elif workload.name == "mwu-lp":
                checks_mod.check_mwu_lp(inst.text, rec, workloads_mod.MWU_EPS)
            elif workload.name == "pivot-trials":
                # one algorithm per request, in turn, keeps the re-runs short
                alg = workloads_mod.PIVOT_ALGS[idx % len(workloads_mod.PIVOT_ALGS)]
                checks_mod.check_pivot_trials(
                    inst.text, rec, workloads_mod.PIVOT_TRIALS,
                    (alg, *workloads_mod.rerun_first_trial(inst, rec, alg)))
            else:
                checks_mod.check_survey(inst.text, rec)
        except checks_mod.CheckFailed as exc:
            raise checks_mod.CheckFailed(f"pool entry {idx} ({inst.shape}): {exc}") from None
        checked += 1
    return {"outputs_checked": checked, "failure_bounds_checked": bounds_checked}


# -- metrics -----------------------------------------------------------------------


def _tail(latencies: list) -> dict:
    """Highest percentile with at least 10 samples beyond it."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= 10:
        return {"value": ordered[-1], "percentile": 100.0,
                "samples_beyond": 0, "samples": count}
    return {"value": ordered[count - 11], "percentile": 100.0 * (count - 10) / count,
            "samples_beyond": 10, "samples": count}


def _ratio(p: Pass, name: str) -> float:
    """Sum of numerators over sum of denominators, over completed requests."""
    pairs = [p.records[idx][name] for idx in p.good]
    return sum(n for n, _ in pairs) / sum(d for _, d in pairs)


def end_to_end(p: Pass, setup_times: list, peak_rss_mb: float) -> tuple[dict, dict]:
    tail = _tail(p.latencies)
    distinct = len(p.records)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "instances_per_s": p.instances_per_s,
        "latency_p50_ms": 1000 * statistics.median(p.latencies),
        "latency_tail_ms": 1000 * tail["value"],
        "success_rate": len(p.good) / distinct,
        "peak_rss_mb": peak_rss_mb,
        "cover_ratio": _ratio(p, "cover_ratio"),
        "cluster_ratio": _ratio(p, "cluster_ratio"),
    }
    detail = {"error_rate": (distinct - len(p.good)) / distinct,
              "requests_sent": p.attempted, "requests_failed": p.failed,
              "passes": p.passes, "timed_cpu_s": p.cpu_s, "timed_wall_s": p.wall_s,
              "unscaled": {"completed_per_cpu_s": (p.attempted - p.failed) / p.cpu_s,
                           "completed_per_wall_s": (p.attempted - p.failed) / p.wall_s},
              "reference_ms": {"median": 1000 * statistics.median(p.reference_s),
                               "min": 1000 * min(p.reference_s),
                               "max": 1000 * max(p.reference_s),
                               "nominal": 1000 * hostspeed.NOMINAL_S},
              "setup_runs_s": setup_times,
              "latency_tail": {k: v for k, v in tail.items() if k != "value"}}
    return metrics, detail


def per_layer(tracer, traced: Pass, untraced: Pass) -> tuple[dict, dict]:
    summary = tracer.layer_summary()
    metrics = {}
    for layer, stats in PER_LAYER_STATS:
        entry = summary.get(layer, {})
        calls = entry.get("calls", 0)
        for stat in stats:
            if stat == "gap":
                n = entry.get("gap_n", 0)
                value = entry.get("gap_sum", 0.0) / n if n else 0.0
            elif stat in PER_CALL_STATS:
                value = entry.get(stat, 0) / calls if calls else 0.0
            else:
                value = entry.get(stat, 0)
            metrics[f"{layer}.{stat}"] = value
    ips_untraced = untraced.instances_per_s
    ips_traced = traced.instances_per_s
    overhead = (ips_untraced - ips_traced) / ips_untraced if ips_untraced else 0.0
    metrics["bench.requests"] = traced.attempted
    metrics["bench.tracing_overhead"] = overhead
    summary_out = {
        "layers": summary,
        "tracing_overhead": {"instances_per_s_untraced": ips_untraced,
                             "instances_per_s_traced": ips_traced,
                             "share": overhead},
        "wait": WAIT_NOTE,
    }
    return metrics, summary_out


# -- one run ----------------------------------------------------------------------


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        max_requests: int | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, detail)."""
    btt = import_library()
    import checks
    import tracing
    import workloads

    from btt.errors import CapacityError, ConvergenceError

    failures = (ConvergenceError, CapacityError)  # BudgetExceededError is a CapacityError
    workload = workloads.WORKLOADS[workload_name]
    direct = tracing.NoTracer()

    setup_times = []
    for _ in range(1 if trace else SETUP_REPEATS):
        before = hostspeed.reference_s()
        t0 = time.process_time()
        pool = set_up(workloads, workload, seed, direct, failures)
        cpu = time.process_time() - t0
        setup_times.append(hostspeed.scale(cpu, before, hostspeed.reference_s()))

    # a traced run splits its time between an untraced and a traced loop
    loop_seconds = seconds / 2 if trace else seconds
    untraced = timed_pass(workload, pool, direct, loop_seconds, failures, max_requests)
    passes = [untraced]
    if trace:
        tracer = tracing.Tracer()
        with tracer.inner_calls():
            traced = timed_pass(workload, pool, tracer, loop_seconds, failures, max_requests)
        passes.append(traced)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    check_started = time.perf_counter()
    try:
        check_counts = run_checks(workloads, checks, workload, pool, passes)
        correct, check_error = True, None
    except checks.CheckFailed as exc:
        check_counts, correct, check_error = {}, False, str(exc)
    check_counts["check_s"] = time.perf_counter() - check_started

    detail = {"workload": workload_name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": environment(btt),
              "checks": check_counts, "check_error": check_error, "wait": WAIT_NOTE}
    if trace:
        metrics, summary = per_layer(tracer, traced, untraced)
        units = per_layer_names()
        shown = traced
        detail["tracing_overhead"] = summary["tracing_overhead"]
        detail["trace_file"] = write_json(
            f"trace-{workload_name}-seed{seed}.json",
            {"detail": detail, "summary": summary, "spans": tracer.span_records()})
    else:
        metrics, extra = end_to_end(untraced, setup_times, peak_rss_mb)
        units = END_TO_END
        shown = untraced
        detail.update(extra)
    # attempted and failed count the distinct requests of the pool: every
    # pass repeats them with the same outcome (checked), so they do not
    # depend on how many passes the machine's speed allowed.
    line = {"correct": correct, "attempted": len(shown.records),
            "failed": len(shown.records) - len(shown.good),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}
    return line, detail


def write_json(name: str, obj) -> str:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, default=str)
    return str(path.relative_to(ROOT))


# -- smoke mode ---------------------------------------------------------------------


def smoke() -> int:
    """A few requests per workload in both modes; metric names must match
    BENCHMARK.json and every output check must pass."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    declared = {w["name"] for w in spec["workloads"]}
    import_library()
    import workloads

    ok = declared == set(workloads.WORKLOADS)
    if not ok:
        print(f"workloads differ: BENCHMARK.json {sorted(declared)}, "
              f"benchmark {sorted(workloads.WORKLOADS)}")
    for name in sorted(declared):
        for trace in (0, 1):
            line, _ = run(name, seed=1, seconds=0.0, trace=bool(trace), max_requests=3)
            printed = {k: v["unit"] for k, v in line["metrics"].items()}
            same = printed == expected[trace]
            ok = ok and same and line["correct"]
            print(f"{name} trace={trace}: correct={line['correct']} "
                  f"names {'match' if same else 'DIFFER'}")
            if not same:
                print(f"  missing: {sorted(set(expected[trace].items()) - set(printed.items()))}")
                print(f"  extra:   {sorted(set(printed.items()) - set(expected[trace].items()))}")
    print("smoke " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="few requests per workload; check metric names")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    line, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    detail["report_file"] = write_json(
        f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json", detail)
    for name, metric in line["metrics"].items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    if detail.get("check_error"):
        print(f"CHECK FAILED: {detail['check_error']}", file=sys.stderr)
    print(json.dumps(detail, default=str))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""f5gb benchmark: time to basis per variant, and a traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload katsura-6 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload cyclic-6 --trace 1
    python3 perfbench/run.py --pin        # rewrite perfbench/reference.json

The library is imported from ``src/`` next to this directory.  Every run
prints its metrics one per line (name, value, unit) and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 120


def _import_library():
    if not (SRC / "f5gb" / "__init__.py").is_file():
        raise SystemExit(f"error: no f5gb package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _commit() -> str:
    if not (ROOT / ".git").exists():  # a plain checkout; do not search parent directories
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _spawn(cmd):
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    # wait() with a timeout polls in steps of up to 50 ms, which would
    # quantize the measurement; a timer kills a hung child instead
    killer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)


def _setup_seconds(workload: str, seed: int) -> list:
    """Scaled wall time of fresh processes that import f5gb and build the inputs."""
    from hostspeed import HostSpeed

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    intervals = []
    with HostSpeed() as host:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            _spawn(cmd)
            intervals.append((t0, time.perf_counter()))
        host.settle(intervals[-1][1])
    return [host.scale(t0, t1) for t0, t1 in intervals]


def _untraced(ctx, seconds: float):
    """Passes until `seconds` have gone by; the last pass runs to its end."""
    from workloads import counter_drift, mismatches, run_pass

    # set-up first, while this process is still small, so spawning is cheap
    setup = statistics.median(_setup_seconds(ctx.workload.name, ctx.seed))
    base_rss = _peak_rss_mb()
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ctx))
        if len(passes) == 1:
            # later passes only add allocator noise to the peak
            work_rss = _peak_rss_mb() - base_rss
        if time.perf_counter() - start >= seconds:
            break
    problems = [m for res in passes[1:] for m in mismatches(passes[0], res)]
    metrics = {}
    for name in ("f5_s", "f5r_s", "f5c_s", "oracle_s", "verify_s"):
        samples = [t for res in passes for t in res.times.get(name, ())]
        if samples:
            metrics[name] = (statistics.median(samples), "s")
    metrics["wall_s"] = (statistics.median(res.wall for res in passes), "s")
    metrics["work_rss_mb"] = (work_rss, "MB")
    metrics["setup_s"] = (setup, "s")
    return passes, problems, counter_drift(ctx, passes[0]), metrics


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _traced(ctx, spans_path: Path):
    """An untraced pass, a timed traced pass and a counting pass, one round each."""
    from tracer import Tracer
    from workloads import mismatches, run_pass

    # one round, so span and RunStats counts both cover each call once
    ctx = replace(ctx, workload=replace(ctx.workload, rounds=1))
    plain = run_pass(ctx)
    with Tracer() as tr:
        traced = run_pass(ctx, tr)
    with Tracer(counting=True) as cn:
        counted = run_pass(ctx, cn)
    problems = mismatches(plain, traced) + mismatches(plain, counted)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tr.write(spans_path)
    return [plain, traced, counted], problems, per_layer_metrics(plain, traced, tr, cn)


def _non_coprime_pairs(basis) -> int:
    heads = [g.lt() for g in basis if g]
    return sum(
        1
        for i in range(len(heads))
        for j in range(i + 1, len(heads))
        if any(a and b for a, b in zip(heads[i], heads[j]))
    )


def per_layer_metrics(plain, traced, tr, cn) -> dict:
    """The per-layer metrics of one traced pass and one counting pass."""
    from workloads import VARIANTS

    layers = tr.layer_summary()

    def calls(name):
        return layers.get(name, (0, 0.0))[0]

    def self_s(name):
        return layers.get(name, (0, 0.0))[1]

    def count(name):
        src = cn if name.startswith(("reduce_full", "find_divisor")) else tr
        return src.total(name)

    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    rf_calls = count("reduce_full.calls")
    elim = count("reduce_full.eliminations")
    put("algebra.reduce_full.self_s", self_s("algebra.reduce_full"), "s")
    put("algebra.reduce_full.calls", calls("algebra.reduce_full"), "count")
    put("algebra.reduce_full.noop_ratio", _ratio(count("reduce_full.noop"), rf_calls), "ratio")
    put("algebra.reduce_full.eliminations", elim, "count")
    put("algebra.reduce_full.redundancy", _ratio(elim, count("reduce_full.distinct_eliminated")), "ratio")
    put("algebra.reduce_full.term_ops", count("reduce_full.term_ops"), "count")
    fd_calls = count("find_divisor.calls")
    put("algebra.find_divisor.calls", fd_calls, "count")
    put("algebra.find_divisor.hit_ratio", _ratio(count("find_divisor.hits"), fd_calls), "ratio")
    for name in ("algebra.interreduce", "algebra.normal_form", "sigcore.admissible_check",
                 "drivers.setup_reduced_basis"):
        put(f"{name}.self_s", self_s(name), "s")
        put(f"{name}.calls", calls(name), "count")
    put("algebra.interreduce_with_cofactors.self_s", self_s("algebra.interreduce_with_cofactors"), "s")
    n = calls("sigcore.is_rewritable")
    put("sigcore.is_rewritable.self_s", self_s("sigcore.is_rewritable"), "s")
    put("sigcore.is_rewritable.calls", n, "count")
    put("sigcore.is_rewritable.true_ratio", _ratio(count("is_rewritable.true"), n), "ratio")
    put("sigcore.store.appends", count("store.appends"), "count")
    put("sigcore.store.peak", tr.peak_store, "count")
    put("sigcore.rules.added", count("rules.added"), "count")
    put("sigcore.rules.phantom", count("rules.phantom"), "count")
    n = calls("engine.critical_pair")
    put("engine.critical_pair.self_s", self_s("engine.critical_pair"), "s")
    put("engine.critical_pair.calls", n, "count")
    put("engine.critical_pair.dropped_ratio", _ratio(count("critical_pair.dropped"), n), "ratio")
    n = calls("engine.find_reductor")
    put("engine.find_reductor.self_s", self_s("engine.find_reductor"), "s")
    put("engine.find_reductor.calls", n, "count")
    put("engine.find_reductor.none_ratio", _ratio(count("find_reductor.none"), n), "ratio")
    put("engine.top_reduction.self_s", self_s("engine.top_reduction"), "s")
    put("engine.top_reduction.calls", calls("engine.top_reduction"), "count")
    for outcome in ("zero", "final", "safe", "unsafe"):
        put(f"engine.top_reduction.{outcome}", count(f"top_reduction.{outcome}"), "count")
    for name in ("engine.reduction", "engine.compute_spols", "engine.incremental_basis",
                 "drivers.run_variant", "drivers.buchberger_reduced"):
        put(f"{name}.self_s", self_s(name), "s")
    for k in ("pairs", "spolys", "reduction_steps", "zero_reductions", "basis_size_final"):
        put(f"engine.{k}", sum(c[k] for c in traced.counters.values()), "count")
    put("drivers.groebner_check.self_s", self_s("drivers.groebner_check"), "s")
    put("drivers.groebner_check.calls", calls("drivers.groebner_check"), "count")
    put("drivers.groebner_check.pairs", sum(_non_coprime_pairs(b) for b in traced.verified), "count")
    # criterion-5 counting units, side by side, per variant
    for v in VARIANTS:
        steps = sum(c["reduction_steps"] for (_, var), c in traced.counters.items() if var == v)
        top = tr.counts[v, "top_reduction.safe"] + tr.counts[v, "top_reduction.unsafe"]
        put(f"units.{v}.reduction_steps", steps, "count")
        put(f"units.{v}.subtractions", top + cn.counts[v, "engine.reduce_full.subtracting_calls"], "count")
        put(f"units.{v}.term_ops", cn.counts[v, "engine.reduce_full.term_ops"], "count")
    # where the time went, by layer; "variants" restricts to f5/f5r/f5c calls
    selfs, _ = tr.self_times()
    run_variant = tr.name_id("drivers.run_variant")
    by_layer: dict = {}
    in_variants: dict = {}
    for i, s in enumerate(selfs):
        layer = tr.names[tr.span_name[i]].split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + s
        if tr.span_name[tr.span_run[i]] == run_variant:
            key = tr.names[tr.span_name[i]]
            in_variants[key] = in_variants.get(key, 0.0) + s
    for layer in ("algebra", "sigcore", "engine", "drivers", "bench"):
        put(f"layer.{layer}.self_s", by_layer.get(layer, 0.0), "s")
    put("variants.engine_sigcore.self_s",
        sum(s for k, s in in_variants.items() if k.startswith(("engine.", "sigcore."))), "s")
    put("variants.reduce_full.self_s", in_variants.get("algebra.reduce_full", 0.0), "s")
    put("trace.self_coverage", _ratio(sum(selfs), traced.raw_wall), "ratio")
    put("trace.overhead_ratio", _ratio(traced.wall, plain.wall), "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="katsura-6")
    ap.add_argument("--seed", type=int, default=0, help="picks p; the default gives p = 32003")
    ap.add_argument("--seconds", type=float, default=30.0, help="measuring time of an untraced run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--pin", action="store_true", help="rewrite the pinned reference digests")
    args = ap.parse_args(argv)
    _import_library()
    sys.path.insert(0, str(HERE))
    import workloads
    from hostspeed import pin_to_one_cpu

    pin_to_one_cpu()

    if args.pin:
        with open(workloads.REFERENCE_FILE, "w") as fh:
            json.dump(workloads.pin(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    ctx = workloads.setup(workloads.WORKLOADS[args.workload], args.seed)
    if args.setup_only:
        return 0
    if args.trace:
        spans = ROOT / ".perfbench-out" / f"{args.workload}-seed{args.seed}-spans.tsv"
        passes, problems, metrics = _traced(ctx, spans)
        drift = workloads.counter_drift(ctx, passes[0])
    else:
        passes, problems, drift, metrics = _untraced(ctx, args.seconds)
    failures = [f for res in passes for f in res.failures] + problems
    attempted = sum(res.attempted for res in passes)
    failed = min(len(failures), attempted)
    print(f"# workload {args.workload}  seed {args.seed}  p {ctx.p}  passes {len(passes)}  "
          f"python {platform.python_version()}  nproc {os.cpu_count()}  commit {_commit()}")
    for line in failures:
        print(f"# FAILED: {line}", file=sys.stderr)
    for line in drift:
        print(f"# counter drift: {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {failed / attempted:.6g} ratio")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

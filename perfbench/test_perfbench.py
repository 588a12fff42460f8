"""Tests of the benchmark itself, on small systems (katsura-3, cyclic-4).

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from f5gb.algebra import ReducerSet  # noqa: E402
from f5gb.sigcore import PolyStore, RuleTable  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Workload, mismatches, run_pass  # noqa: E402

SMALL = Workload("small", (("cyclic", 4), ("katsura", 3)), verify=("f5c",), rounds=2)
SMALL_CERTIFIED = Workload(
    "small-certified", (("katsura", 3),), certified=True, verify=workloads.VARIANTS
)
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _entry_points():
    """Every attribute either tracer mode replaces, with its current value."""
    points = [(owner, attr) for owner, attr, _ in tracer_mod.TIMED]
    points += [
        (RuleTable, "add_rule"),
        (PolyStore, "append"),
        (ReducerSet, "find_divisor"),
        (ReducerSet, "reduce_full"),
    ]
    return {(owner, attr): getattr(owner, attr) for owner, attr in points}


@pytest.fixture(scope="module")
def ctx():
    return workloads.setup(SMALL, seed=0, pinned=False)


@pytest.mark.parametrize("counting", [False, True])
def test_every_patched_attribute_is_restored(counting):
    before = _entry_points()
    with Tracer(counting=counting):
        assert _entry_points() != before
    assert _entry_points() == before
    with pytest.raises(ZeroDivisionError):
        with Tracer(counting=counting):
            1 / 0
    assert _entry_points() == before


@pytest.mark.parametrize("workload", [SMALL, SMALL_CERTIFIED], ids=lambda w: w.name)
def test_traced_and_untraced_passes_agree(workload):
    ctx = workloads.setup(workload, seed=0, pinned=False)
    plain = run_pass(ctx)
    with Tracer() as tr:
        traced = run_pass(ctx, tr)
    with Tracer(counting=True) as cn:
        counted = run_pass(ctx, cn)
    for res in (plain, traced, counted):
        assert res.failures == []
    assert mismatches(plain, traced) == []
    assert mismatches(plain, counted) == []
    assert plain.counters and plain.counters == traced.counters
    assert len(tr.span_name) > 0
    assert cn.total("reduce_full.eliminations") > 0


def test_self_times_of_each_span_tree_add_up_to_its_root(ctx):
    with Tracer() as tr:
        res = run_pass(ctx, tr)
    selfs, dur = tr.self_times()
    per_root: dict = {}
    for i, s in enumerate(selfs):
        per_root[tr.span_run[i]] = per_root.get(tr.span_run[i], 0.0) + s
    assert len(per_root) > 1
    for root, total in per_root.items():
        assert tr.span_parent[root] == -1
        assert total == pytest.approx(dur[root], rel=1e-9, abs=1e-12)
    assert sum(selfs) <= res.raw_wall


def test_wrong_reference_digest_is_a_failure(ctx):
    wrong = {name: {"basis": "0" * 20} for name in ctx.systems}
    res = run_pass(replace(ctx, pinned=wrong))
    # the oracle and all three variants of each system disagree with it, in every round
    assert len(res.failures) == 4 * len(ctx.systems) * SMALL.rounds
    assert all("digest" in f for f in res.failures)


def test_counter_drift_is_reported_by_name(ctx):
    res = run_pass(ctx)
    pinned = {
        name: {"counters": {v: dict(res.counters[name, v]) for v in workloads.VARIANTS}}
        for name in ctx.systems
    }
    assert workloads.counter_drift(replace(ctx, pinned=pinned), res) == []
    pinned["cyclic-4"]["counters"]["f5r"]["spolys"] += 1
    drift = workloads.counter_drift(replace(ctx, pinned=pinned), res)
    assert len(drift) == 1 and "cyclic-4 f5r spolys" in drift[0]


def test_pinned_reference_covers_every_workload():
    for w in workloads.WORKLOADS.values():
        pinned = workloads.load_pinned(w, workloads.DEFAULT_SEED)
        assert set(pinned) == {workloads.label(f, n) for f, n in w.systems}
    assert workloads.load_pinned(w, 1) == {}


def test_seed_picks_the_characteristic():
    assert workloads.prime_for_seed(workloads.DEFAULT_SEED) == 32003
    ps = {workloads.prime_for_seed(s) for s in range(1, 20)}
    assert len(ps) > 1
    assert all(30000 <= p < 32768 for p in ps)
    assert workloads.prime_for_seed(7) == workloads.prime_for_seed(7)


def test_metrics_match_benchmark_json(ctx, tmp_path, monkeypatch):
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    passes, problems, metrics = run._traced(ctx, tmp_path / "spans.tsv")
    assert problems == []
    assert {k: unit for k, (_, unit) in metrics.items()} == per_layer
    assert (tmp_path / "spans.tsv").read_text().startswith("run\tid\tparent\tname")
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    monkeypatch.setattr(run, "_setup_seconds", lambda workload, seed: [1.0])
    _, problems, _, metrics = run._untraced(ctx, seconds=0)
    assert problems == []
    assert {k: unit for k, (_, unit) in metrics.items()} == end_to_end


def test_host_speed_scales_the_kernel_to_its_reference_time():
    # the main thread runs the kernel itself: scaled, each run is worth about REFERENCE_S
    with hostspeed.HostSpeed() as host:
        t0 = time.perf_counter()
        runs = 0
        while time.perf_counter() - t0 < 0.5:
            hostspeed.kernel()
            runs += 1
        t1 = time.perf_counter()
        host.settle(t1)
        scaled = host.scale(t0, t1)
    assert not host._thread.is_alive()
    assert len(host.starts) > 5
    assert scaled == pytest.approx(runs * hostspeed.REFERENCE_S, rel=0.35)


def test_refuses_to_run_without_the_library(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in ("run.py", "workloads.py", "tracer.py", "hostspeed.py"):
        (tmp_path / "perfbench" / f).write_text((HERE / f).read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cyclic-6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""

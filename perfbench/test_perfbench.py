"""Tests of the benchmark's tracer, output checks and compare mode.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import run as bench
import tracer as tracing
import worker  # puts the repository's src/ first on sys.path

from dvesim.actors import GaltonGeometry
from dvesim.harness import galton, report

BENCH_DIR = Path(__file__).resolve().parent


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now


class Layered:
    """outer() spends 10 ns itself around two inner() calls of 5 ns each."""

    def __init__(self, clock: FakeClock):
        self.clock = clock

    def outer(self):
        self.clock.now += 4
        self.inner()
        self.clock.now += 6
        self.inner()
        return "done"

    def inner(self):
        self.clock.now += 5
        return 7


def test_self_time_is_span_minus_child_spans():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)
    seen = []
    t.wrap(Layered, "outer", "outer")
    t.wrap(Layered, "inner", "inner", after=lambda args, result: seen.append(result))
    try:
        assert Layered(clock).outer() == "done"
    finally:
        t.uninstall()
    assert t.totals == {"outer": [10, 1], "inner": [10, 2]}
    assert seen == [7, 7]
    assert t.spans == [["outer", 0, 20, -1], ["inner", 4, 9, 0], ["inner", 15, 20, 0]]


def test_keep_cap_drops_whole_spans_but_keeps_totals():
    clock = FakeClock()
    t = tracing.Tracer(keep_spans=2, clock=clock)
    t.wrap(Layered, "outer", "outer")
    t.wrap(Layered, "inner", "inner")
    try:
        Layered(clock).outer()
    finally:
        t.uninstall()
    assert len(t.spans) == 2 and t.dropped == 1
    assert t.calls("inner") == 2 and t.self_s("inner") == 10 / 1e9


def test_uninstall_restores_and_failed_call_still_closes_its_span():
    original = Layered.inner
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)

    def boom(args, result):
        raise ValueError("after hook failed")

    t.wrap(Layered, "inner", "inner", after=boom)
    with pytest.raises(ValueError):
        Layered(clock).inner()
    t.uninstall()
    assert Layered.inner is original
    assert t.totals["inner"] == [5, 1] and t._stack == []


def test_unnamed_wrap_runs_hook_without_a_span():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)
    seen = []
    t.wrap(Layered, "inner", None, after=lambda args, result: seen.append(result))
    try:
        Layered(clock).inner()
    finally:
        t.uninstall()
    assert seen == [7] and t.spans == [] and t.totals == {}


def test_write_spans_csv(tmp_path):
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)
    t.wrap(Layered, "inner", "inner")
    try:
        Layered(clock).inner()
    finally:
        t.uninstall()
    t.write_spans(tmp_path / "spans.csv")
    assert (tmp_path / "spans.csv").read_text().splitlines() == [
        "index,name,start_ns,end_ns,parent", "0,inner,0,5,-1"]


# ----------------------------------------------------------------------
# a small real run, traced, and the output checks on it
# ----------------------------------------------------------------------

def small_config(topology: str, **kw) -> galton.GaltonExperimentConfig:
    geometry = GaltonGeometry(n_levels=11, boxes=2, rows_per_box=1,
                              droppers_per_row=3, balls_per_dropper=4,
                              nominal_descent_s=2.2)
    return replace(galton.GaltonExperimentConfig(), geometry=geometry,
                   topology=topology, period_t_s=0.5, seed=3, **kw)


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    t = tracing.Tracer()
    counts = tracing.install_layers(t)
    try:
        result = galton.run_galton(small_config("B"))
        report.export(result, out)
    finally:
        t.uninstall()
    return out, tracing.layer_metrics(t, counts), result


def test_traced_counts_match_the_report(traced_run):
    out, layers, result = traced_run
    assert checks.check_traced_counts(layers, out) == []
    assert layers["partition.migrations"] == result.migrations_total > 0
    assert layers["script.creates"] == 24
    assert layers["engine.events"] > layers["netsim.msgs"] > 0
    assert 0 < layers["physics.util"] <= 1
    assert layers["harness.export_s"] > 0


def test_layer_metrics_cover_benchmark_json(traced_run):
    _, layers, _ = traced_run
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    assert set(layers) | {"trace.overhead"} == names


def test_tracing_is_removed_after_the_run(traced_run):
    from dvesim.engine import Engine
    from dvesim.netsim import Network
    assert not hasattr(Engine.run_until, "__wrapped__")
    assert not hasattr(Network.send, "__wrapped__")
    assert not hasattr(galton.run_galton, "__wrapped__")


def test_traced_count_mismatch_is_reported(traced_run):
    out, layers, _ = traced_run
    problems = checks.check_traced_counts({**layers, "netsim.msgs": 1}, out)
    assert len(problems) == 1 and problems[0].startswith("netsim.msgs")


@pytest.fixture
def exported(tmp_path):
    def make(topology="A", **kw):
        out = tmp_path / f"run-{topology}"
        report.export(galton.run_galton(small_config(topology, **kw)), out)
        return out
    return make


@pytest.mark.parametrize("topology", ["A", "B"])
def test_invariants_hold_on_a_drained_run(exported, topology):
    assert checks.check_invariants(exported(topology), drains=True) == []


def test_invariants_hold_on_a_capped_run_with_balls_in_flight(exported):
    out = exported("A", duration_cap_s=3.0, capacity_c=2)
    data = json.loads((out / "report.json").read_text())
    assert data["hit_cap"]
    assert checks.check_invariants(out, drains=False) == []
    assert any("did not drain" in p for p in checks.check_invariants(out, drains=True))


def test_histogram_tampering_fails(exported):
    out = exported()
    lines = (out / "histogram.csv").read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = str(int(cells[1]) + 1)
    lines[1] = ",".join(cells)
    (out / "histogram.csv").write_text("\n".join(lines) + "\n")
    assert any("histogram total" in p for p in checks.check_invariants(out, True))


def test_lost_ball_fails_conservation(exported):
    out = exported()
    data = json.loads((out / "report.json").read_text())
    data["created_total"] += 1
    (out / "report.json").write_text(json.dumps(data))
    assert any("conservation" in p for p in checks.check_invariants(out, True))


def test_golden_check_applies_at_the_pinned_seed_only(exported):
    out = exported()
    digest = checks.export_digest(out)
    assert len(digest) == 64
    assert checks.check_golden("steady_a", 7, digest) == []
    assert checks.check_golden("steady_a", checks.GOLDEN_SEED, digest) != []
    assert checks.check_golden("steady_a", checks.GOLDEN_SEED,
                               checks.GOLDEN["steady_a"]) == []


# ----------------------------------------------------------------------
# statistics and compare mode
# ----------------------------------------------------------------------

def test_quartiles_match_statistics_quantiles():
    assert bench.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert bench.quartiles([2.0]) == (2.0, 2.0, 2.0)


@pytest.mark.parametrize("new, better, expected", [
    ([12.0, 12.1, 12.2, 12.3], "lower", "worse"),
    ([8.0, 8.1, 8.2, 8.3], "lower", "better"),
    ([10.05, 10.1, 10.0, 9.95], "lower", "unchanged"),
    ([6.0, 10.0, 14.0, 18.0], "lower", "unresolved"),
    ([12.0, 12.1, 12.2, 12.3], "higher", "better"),
])
def test_verdict(new, better, expected):
    base = [9.9, 10.0, 10.1, 10.2]
    assert bench.verdict(base, new, 0.1, better) == expected


def write_result(directory: Path, workload: str, seed: int, wall: float,
                 trace: int = 0) -> None:
    directory.mkdir(exist_ok=True)
    metrics = {"wall_s": {"value": wall, "unit": "s"},
               "setup_s": {"value": 0.3, "unit": "s"},
               "peak_rss_mb": {"value": 60.0, "unit": "MB"}}
    (directory / f"result-{workload}-s{seed}-t{trace}-0.json").write_text(
        json.dumps({"workload": workload, "seed": seed, "trace": trace,
                    "metrics": metrics}))


def test_compare_gives_a_verdict_per_workload_and_metric(tmp_path):
    for seed, wall in enumerate([10.0, 10.1, 9.9, 10.2]):
        write_result(tmp_path / "base", "steady_a", seed, wall)
        write_result(tmp_path / "new", "steady_a", seed, wall * 1.5)
    write_result(tmp_path / "new", "steady_a", 9, 99.0, trace=1)
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    lines = bench.compare(tmp_path / "base", tmp_path / "new", spec)
    assert len(lines) == 3
    wall_line = next(line for line in lines if " wall_s " in line)
    assert wall_line.endswith("worse") and "n=4" in wall_line
    assert all(line.endswith("unchanged") for line in lines if line is not wall_line)


# ----------------------------------------------------------------------
# contract: outside a checkout the benchmark refuses without a result
# ----------------------------------------------------------------------

def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady_a", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
    assert "missing" in proc.stderr

"""Acceptance suite: every exit criterion at its stated tolerance.

Runs the real experiment configurations (paper-scale geometry throughout)
and prints one line per criterion with the measured values.  Expensive
runs are shared through module-scoped fixtures; with the searches included
the whole module takes a few minutes.
"""

import random
from dataclasses import replace
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

from dvesim.actors import GaltonGeometry
from dvesim.harness.galton import GaltonExperimentConfig, max_sustainable_rate, run_galton
from dvesim.harness.login import (
    LoginExperimentConfig,
    TOPOLOGY_DEDICATED,
    TOPOLOGY_PROXIED,
    run_login,
)
from dvesim.harness.report import export
from dvesim.stats import RegressionSpec, check_regression
from helpers import (
    HEAVY_FOLDERS,
    LIGHT_ASSETS,
    LIGHT_FOLDERS,
    bench_checks,
    increasing_trend,
    interval_series,
    is_convex_increasing,
    jittered_configs,
    physics_balls_series,
    physics_nodes,
    queue_depth_series,
    run_galton_series,
    run_lww_trial,
)

# 99th-percentile RMSE over 100 seeded unstressed topology-A runs
# (seeds 1000..1099), recomputable with rmse_envelope in tests/helpers.py.
RMSE_P99_ENVELOPE = 26.32196078916544

#: overload drop period shared by the divergence and masking runs:
#: inflow 90 balls/s vs collection capacity ~48.1 balls/s (1.87x)
OVERLOAD_PERIOD_S = 1.2
OVERLOAD_CAP_S = 400.0

#: per-run interval window from the published unstressed reference
INTERVAL_SPEC = RegressionSpec("interval_mean_s", 123.40, 126.24, 0.05, 5)


def _report_line(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  [{detail}]")


@pytest.fixture(scope="module")
def stable_a():
    return run_galton(GaltonExperimentConfig(topology="A", seed=42))


@pytest.fixture(scope="module")
def stable_b():
    return run_galton(GaltonExperimentConfig(topology="B", split="center_x", seed=42))


@pytest.fixture(scope="module")
def overload_a():
    cfg = GaltonExperimentConfig(topology="A", period_t_s=OVERLOAD_PERIOD_S,
                                 duration_cap_s=OVERLOAD_CAP_S, seed=42)
    return run_galton(cfg)


@pytest.fixture(scope="module")
def masked_b():
    # same overload as the divergence run; the dispatcher->physics channel is
    # modelled at the message-processing throughput that produces queueing
    cfg = GaltonExperimentConfig(
        topology="B", split="center_x", period_t_s=OVERLOAD_PERIOD_S,
        duration_cap_s=OVERLOAD_CAP_S, seed=42,
        link_overrides={"dispatcher->physics": {"byte_rate": 12_000.0},
                        "physics->dispatcher": {"byte_rate": 12_000.0}})
    return run_galton(cfg)


def test_criterion_01_distribution_correctness(stable_a):
    geo = GaltonGeometry()
    assert len(stable_a.histogram) == 96
    assert stable_a.histogram.sum() == 37_800
    assert stable_a.rmse_theoretical < RMSE_P99_ENVELOPE
    _report_line("1 distribution correctness",
                 f"96 buckets, sum=37800, rmse "
                 f"{stable_a.rmse_theoretical:.3f} < {RMSE_P99_ENVELOPE:.3f}")


def test_criterion_02_interval_baseline(stable_a):
    assert 124.82 - 1.42 <= stable_a.interval_mean_s <= 124.82 + 1.42
    _report_line("2 interval baseline",
                 f"mean {stable_a.interval_mean_s:.3f}s in 124.82+-1.42s")


def test_criterion_03_superlinear_divergence(overload_a):
    assert overload_a.hit_cap
    assert overload_a.end_time_s <= OVERLOAD_CAP_S
    balls = np.array(physics_balls_series(overload_a), dtype=float)
    _, means = interval_series(overload_a)
    first = next(i for i, m in enumerate(means) if m is not None)
    start = first + 4  # past the fill transient, once the loop is closed
    ball_win = balls[start:]
    interval_win = np.array([m for m in means[start:] if m is not None])
    assert is_convex_increasing(ball_win, smooth_window=5)
    assert is_convex_increasing(interval_win, smooth_window=5)
    _report_line("3 super-linear divergence",
                 f"balls {ball_win[0]:.0f}->{ball_win[-1]:.0f}, interval "
                 f"{interval_win[0]:.1f}s->{interval_win[-1]:.1f}s, both convex")


def test_criterion_04_masking(masked_b, stable_b):
    # the dispatcher->physics queues grow without bound...
    growing = []
    for node in physics_nodes(masked_b):
        _, depths = queue_depth_series(masked_b, f"dispatcher->{node}")
        depths = np.array(depths, dtype=float)
        assert depths[-1] > 2 * max(depths[0], 1.0)
        assert increasing_trend(depths)
        growing.append(depths[-1])
    # ...while the physics nodes never see the ball population the schedule
    # implies: the network masks the overload
    masked_peak = masked_b.peak_balls_in_scene
    stable_peak = stable_b.peak_balls_in_scene
    assert masked_peak < 1.5 * stable_peak
    _report_line("4 masking",
                 f"queue depths -> {[int(g) for g in growing]}, peak balls "
                 f"{masked_peak} < 1.5 x {stable_peak}")


def test_criterion_05_scalability_ordering():
    cap = 2400.0
    a = GaltonExperimentConfig(topology="A", duration_cap_s=cap, seed=7)
    b_center = GaltonExperimentConfig(topology="B", split="center_x",
                                      duration_cap_s=cap, seed=7)
    b_between = GaltonExperimentConfig(topology="B", split="between_boxes",
                                       duration_cap_s=cap, seed=7)
    t_a = max_sustainable_rate(a, 1.5, 4.0).t_star_s
    t_bc = max_sustainable_rate(b_center, 0.8, 2.0).t_star_s
    t_bb = max_sustainable_rate(b_between, 0.8, 2.0).t_star_s
    assert t_bc < t_a
    assert t_bb <= 0.575 * t_a
    _report_line("5 scalability ordering",
                 f"t*_A={t_a:.4f}s, t*_B_center={t_bc:.4f}s < t*_A, "
                 f"t*_B_between={t_bb:.4f}s <= 0.575*t*_A={0.575 * t_a:.4f}s")


def test_criterion_06_lww_convergence_suite():
    rng = random.Random(20_240_817)
    for trial in range(1000):
        d1, d2 = run_lww_trial(rng)
        assert d1 == d2, f"trial {trial} diverged"
    _report_line("6 LWW convergence", "1000 randomized schedules converged")


def test_criterion_07_conservation(stable_a, stable_b, overload_a, masked_b):
    # every run audits created = pending + falling + in-flight + collected
    # at every sample tick; a violation raises mid-run, so the four fixture
    # runs passed every audit.  Quiescent runs account for every ball
    # terminally
    for report in (stable_a, stable_b):
        assert report.collected_total == report.created_total
    # the 10,000-migration ownership audit runs in
    # test_partition.py::TestMigrationHandshake as part of the suite
    _report_line("7 conservation",
                 f"audited every tick in 4 runs; stable runs fully drained "
                 f"({stable_b.migrations_total} migrations in topology B)")


def test_criterion_08_login_topology():
    base = dict(scene_assets=LIGHT_ASSETS)
    proxied_light = run_login(LoginExperimentConfig(
        topology=TOPOLOGY_PROXIED, inventory_folders=LIGHT_FOLDERS, **base))
    proxied_heavy = run_login(LoginExperimentConfig(
        topology=TOPOLOGY_PROXIED, inventory_folders=HEAVY_FOLDERS, **base))
    dedicated_light = run_login(LoginExperimentConfig(
        topology=TOPOLOGY_DEDICATED, inventory_folders=LIGHT_FOLDERS, **base))
    dedicated_heavy = run_login(LoginExperimentConfig(
        topology=TOPOLOGY_DEDICATED, inventory_folders=HEAVY_FOLDERS, **base))

    assert proxied_heavy.inventory_requests["sim"] == 8977
    assert proxied_heavy.units["sim"] >= 10 * proxied_light.units["sim"]
    heavy_sim = dedicated_heavy.units["sim"]
    light_sim = dedicated_light.units["sim"]
    assert abs(heavy_sim - light_sim) <= 0.05 * light_sim
    _report_line("8 login topology",
                 f"proxied heavy {proxied_heavy.units['sim']:.1f} >= 10 x "
                 f"light {proxied_light.units['sim']:.1f}; dedicated heavy "
                 f"{heavy_sim:.1f} ~ light {light_sim:.1f}; 8977 folder requests")


def test_criterion_09_regression_harness():
    unstressed = GaltonExperimentConfig(topology="A", period_t_s=6.0, seed=0)
    # each series is read once, as its runs finish: the two floats of a
    # report are all that is kept of it
    clean = list(map(attrgetter("peak_load_proxy", "interval_mean_s"),
                     run_galton_series(unstressed, seeds=[1, 2, 3, 4, 5])))
    assert all(peak < 0.5 for peak, _ in clean)
    verdict = check_regression([mean for _, mean in clean], INTERVAL_SPEC)
    assert verdict.passed

    # the same checker flags injected capacity variance: +-50% per run on a
    # workload with a finite capacity margin
    jitter_cfg = GaltonExperimentConfig(topology="A", period_t_s=2.6, seed=0)
    jittered = list(map(attrgetter("interval_mean_s"),
                        map(run_galton, jittered_configs(jitter_cfg, [1, 2, 3, 4, 5], 0.5))))
    bad = check_regression(jittered, INTERVAL_SPEC)
    assert not bad.passed
    _report_line("9 regression harness",
                 f"clean 5-run pass (mean {verdict.mean:.2f}s, cv {verdict.cv:.5f}); "
                 f"jittered fail ({bad.reason})")


def test_criterion_10_determinism(stable_a, tmp_path):
    repeat = run_galton(GaltonExperimentConfig(topology="A", seed=42))
    d1 = tmp_path / "first"
    d2 = tmp_path / "second"
    export(stable_a, d1)
    export(repeat, d2)
    names = ["metrics.csv", "queues.csv", "histogram.csv", "report.json"]
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
    import csv
    with open(d1 / "histogram.csv") as f:
        buckets = [int(row["bucket_index"]) for row in csv.DictReader(f)]
    assert buckets == list(range(96))
    _report_line("10 determinism", f"byte-identical artifacts: {', '.join(names)}")


def test_migration_majority_matches_path_enumeration(stable_b):
    # cross-check the run against the exact dynamic program over descent
    # paths (see test_partition): the center split must migrate a strict
    # majority of balls
    from test_partition import crossing_probability_dp
    n = 93
    probs = [crossing_probability_dp(off, n, n - 1) for off in (-2, 0, 2)]
    expected_fraction = sum(probs) / 3
    fraction = stable_b.migrated_unique / stable_b.created_total
    assert fraction > 0.5
    assert fraction == pytest.approx(expected_fraction, abs=0.01)


#: each shared run -> the benchmark workload it equals at the golden seed;
#: perfbench/checks.py holds the one table of their config files and pins
GOLDEN_WORKLOADS = {"stable_a": "steady_a", "stable_b": "migrate_b",
                    "overload_a": "overload_a", "masked_b": "masked_b"}


def test_golden_exports(stable_a, stable_b, overload_a, masked_b, tmp_path):
    # a refactor that changes any exported byte of the four runs fails here
    runs = dict(stable_a=stable_a, stable_b=stable_b, overload_a=overload_a,
                masked_b=masked_b)
    configs = Path(__file__).resolve().parent.parent / "configs"
    for name, workload in GOLDEN_WORKLOADS.items():
        report = runs[name]
        config_file, _ = bench_checks.WORKLOADS[workload]
        config = GaltonExperimentConfig.from_file(configs / config_file)
        seeded = replace(config, seed=bench_checks.GOLDEN_SEED)
        assert report.config == seeded.to_dict(), name
        export(report, tmp_path / name)
        assert bench_checks.export_digest(tmp_path / name) == bench_checks.GOLDEN[workload], name
    _report_line("golden exports", "4 runs match their pinned sha256")

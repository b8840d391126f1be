import gc
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import dvesim
from dvesim.actors import GaltonGeometry, PhysicsActor
from dvesim.engine import Engine, seconds_to_us
from dvesim.harness.galton import (
    BoundsDoNotBracket,
    ConfigInvalid,
    GaltonExperimentConfig,
    max_sustainable_rate,
    run_galton,
)
from dvesim.harness.login import (
    TOPOLOGY_DEDICATED,
    TOPOLOGY_PROXIED,
    LoginExperimentConfig,
    run_login,
)
from dvesim.harness.report import (
    SCALAR_METRICS,
    ExperimentReport,
    UnknownMetric,
    evaluate,
    export,
    load_report_summary,
    report_metric,
    window_interval_means,
)
from dvesim.netsim import DEFAULT_MESSAGE_SIZES, Link, Network
from dvesim.partition import PartitionMap
from dvesim.rules import rules_of
from dvesim.stats import InvalidParameter, RegressionSpec, capture_baseline
from dvesim import cli
import helpers
from helpers import (
    HEAVY_ASSETS,
    HEAVY_FOLDERS,
    LIGHT_ASSETS,
    LIGHT_FOLDERS,
    bench_checks,
    intervals_in_window_scalar,
    jittered_configs,
    queue_depth_series,
    read_histogram_csv,
    rmse_envelope,
    run_galton_series,
    window_interval_means_scalar,
)

TINY = GaltonGeometry(n_levels=10, boxes=2, rows_per_box=3, droppers_per_row=2,
                      balls_per_dropper=5, nominal_descent_s=12.0)


#: modules a run has no use for: numpy.ma costs about 1.2 MB of RSS,
#: statistics, which only check_regression imports, about 3 ms and 0.4 MB,
#: and a Galton run has no use for the login study
UNUSED_MODULES = ("numpy.ma", "statistics", "dvesim.harness.login")


def imports_unused(code: str, config_path, *args) -> list:
    """Which of ``UNUSED_MODULES`` ``code`` imports in a fresh interpreter,
    which this one may already have imported; ``config`` is the Galton
    config read from ``sys.argv[1]``, and ``args`` follow it."""
    src = str(Path(dvesim.__file__).resolve().parents[1])
    code = ("import sys\n"
            "from dvesim.harness.galton import GaltonExperimentConfig\n"
            "config = GaltonExperimentConfig.from_file(sys.argv[1])\n"
            + code + f"print(*(m for m in {UNUSED_MODULES!r} if m in sys.modules))\n")
    done = subprocess.run([sys.executable, "-c", code, str(config_path), *map(str, args)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def tiny_config(**kw):
    defaults = dict(geometry=TINY, topology="A", period_t_s=2.0, capacity_c=200,
                    duration_cap_s=600.0, sample_period_s=2.0, seed=3)
    defaults.update(kw)
    return GaltonExperimentConfig(**defaults)


class TestConfig:
    def test_roundtrip(self, tmp_path):
        cfg = tiny_config(topology="B", split="center_x")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        loaded = GaltonExperimentConfig.from_file(path)
        assert loaded == cfg
        assert loaded.config_hash() == cfg.config_hash()

    def test_invalid_topology(self):
        with pytest.raises(ConfigInvalid):
            tiny_config(topology="C")

    def test_invalid_period(self):
        with pytest.raises(ConfigInvalid):
            tiny_config(period_t_s=0.0)

    def test_invalid_split(self):
        with pytest.raises(ConfigInvalid):
            tiny_config(topology="B", split="diagonal")

    def test_capacity_factor_scales_effective_capacity(self):
        cfg = tiny_config(capacity_c=100, capacity_factor=0.5)
        assert cfg.effective_capacity == 50

    def test_replace_checks_the_new_config(self):
        with pytest.raises(ConfigInvalid, match="period_t_s"):
            replace(tiny_config(), period_t_s=0.0)
        with pytest.raises(ConfigInvalid, match="inventory_folders"):
            replace(login_cfg(), inventory_folders=-1)

    def test_series_is_checked_before_any_run(self):
        # the last seed is negative: its replace fails before the first run
        with mock.patch.object(helpers, "run_galton") as run, \
                pytest.raises(ConfigInvalid, match="seed"):
            run_galton_series(tiny_config(), [1, 2, -1])
        assert not run.called

    def test_only_geometry_errors_name_the_geometry(self):
        # 10 levels in 4 us fails in GaltonGeometry, not in its key check
        with pytest.raises(ConfigInvalid, match=r"^geometry\.nominal_descent_s"):
            GaltonExperimentConfig.from_dict(galton_dict(geometry={"nominal_descent_s": 4e-6}))
        with pytest.raises(ConfigInvalid, match=r"^period_t_s"):
            GaltonExperimentConfig.from_dict(galton_dict(period_t_s=0.0))


class TestRunGalton:
    def test_run_completes_and_conserves(self):
        report = run_galton(tiny_config())
        assert report.created_total == TINY.total_balls == 60
        assert report.collected_total == 60
        assert not report.hit_cap

    @pytest.mark.parametrize("topology", ["A", "B"])
    def test_exported_keys_equal_their_sources(self, tmp_path, topology):
        # the report stores its config only; report.json derives the rest
        config = tiny_config(topology=topology)
        export(run_galton(config), tmp_path)
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["config"] == config.to_dict()
        assert data["config_hash"] == config.config_hash()
        # run-galton --baseline compares it with the baseline's
        assert data["geometry_hash"] == config.geometry.geometry_hash()
        assert data["seed"] == config.seed
        assert data["nominal_descent_s"] == config.geometry.nominal_descent_s
        assert data["code_version"] == dvesim.__version__
        assert data["audit_ok"] is True

    def test_histograms_deterministic_across_runs(self):
        a = run_galton(tiny_config())
        b = run_galton(tiny_config())
        assert a.histogram.tolist() == b.histogram.tolist()
        assert a.interval_mean_s == b.interval_mean_s

    def test_different_seeds_differ(self):
        a = run_galton(tiny_config(seed=1))
        b = run_galton(tiny_config(seed=2))
        assert a.histogram.tolist() != b.histogram.tolist()

    def test_monotone_load_in_period(self):
        # dropping faster never lowers the peak ball population
        peaks = [run_galton(tiny_config(period_t_s=t)).peak_balls_in_scene
                 for t in (4.0, 2.0, 1.0)]
        assert peaks[0] <= peaks[1] <= peaks[2]

    def test_baseline_comparison(self):
        runs = [run_galton(tiny_config(seed=s)).to_json_dict() for s in (1, 2, 3)]
        baseline = capture_baseline(runs)
        report = run_galton(tiny_config(seed=9), baseline=baseline)
        assert report.rmse_baseline is not None
        assert report.baseline_mean is not None

    def test_baseline_geometry_mismatch_rejected(self):
        runs = [run_galton(tiny_config(seed=s)).to_json_dict() for s in (1, 2, 3)]
        baseline = capture_baseline(runs)
        other = GaltonGeometry(n_levels=12, boxes=2, rows_per_box=3,
                               droppers_per_row=2, balls_per_dropper=5,
                               nominal_descent_s=12.0)
        short = replace(baseline, bucket_sd=baseline.bucket_sd[:-1])
        # both are refused before the run starts
        with mock.patch.object(Engine, "run_until") as run_until:
            with pytest.raises(ConfigInvalid, match="different geometry"):
                run_galton(tiny_config(geometry=other), baseline=baseline)
            with pytest.raises(ConfigInvalid, match="bucket_mean and bucket_sd"):
                run_galton(tiny_config(), baseline=short)
        assert not run_until.called

    def test_rmse_envelope_is_a_quantile_of_the_seeds_rmse(self):
        seeds = [1, 2, 3, 4]
        envelope, values = rmse_envelope(tiny_config(), seeds)
        assert values == [run_galton(tiny_config(seed=s)).rmse_theoretical for s in seeds]
        assert len(set(values)) > 1
        assert envelope == float(np.quantile(values, 0.99))

    def test_rmse_envelope_of_no_seeds_rejected(self):
        with pytest.raises(InvalidParameter, match="no values"):
            rmse_envelope(tiny_config(), [])

    def test_rmse_envelope_holds_one_report_at_a_time(self):
        # a finished run is freed when run_galton returns, so the peak
        # counts what the envelope holds
        def traced_peak(fn, *args):
            gc.collect()
            tracemalloc.start()
            try:
                fn(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # first-run imports and caches are not counted
        rmse_envelope(tiny_config(), [1])
        one = traced_peak(run_galton, tiny_config(seed=1))
        ten = traced_peak(rmse_envelope, tiny_config(), list(range(1, 11)))
        assert ten <= 1.5 * one

    @pytest.mark.parametrize("cap_s", [600.0, 10.0])
    def test_a_finished_run_leaves_no_cyclic_garbage(self, cap_s):
        """Drained or stopped at the cap with events pending, a run's engine,
        network and actors are freed by reference counting: a collection
        after it finds none of them unreachable."""
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            run_galton(tiny_config(topology="B", split="center_x", duration_cap_s=cap_s))
            gc.collect()
            left = {type(o) for o in gc.garbage} & {Engine, Network, PhysicsActor}
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert not left

    def test_a_run_does_not_import_numpy_ma(self, tmp_path):
        """Nor statistics or the login study: a fresh interpreter runs and
        exports a centre-split run, since this one may have imported them."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps(tiny_config(topology="B", split="center_x").to_dict()))
        assert imports_unused("from dvesim.harness.galton import run_galton\n"
                              "from dvesim.harness.report import export\n"
                              "export(run_galton(config), sys.argv[2])\n",
                              config, tmp_path / "out") == []

    def test_an_envelope_does_not_import_numpy_ma(self, tmp_path):
        # the acceptance oracle's quantile is np.quantile's, without numpy.ma
        config = tmp_path / "config.json"
        config.write_text(json.dumps(tiny_config().to_dict()))
        tests = str(Path(__file__).resolve().parent)
        assert imports_unused(f"sys.path.insert(0, {tests!r})\n"
                              "from helpers import rmse_envelope\n"
                              "rmse_envelope(config, [1, 2, 3])\n", config) == []

    def test_capacity_jitter_series(self):
        configs = jittered_configs(tiny_config(), [1, 2, 3, 4, 5], 0.5)
        factors = [(c.seed, c.capacity_factor) for c in configs]
        assert factors == [(1, 0.5), (2, 0.75), (3, 1.0), (4, 1.25), (5, 1.5)]

    def test_between_boxes_split_has_zero_border_traffic(self):
        cfg = tiny_config(topology="B", split="between_boxes")
        report = run_galton(cfg)
        assert report.migrations_total == 0
        assert report.collected_total == report.created_total

    def test_center_split_migrates(self):
        report = run_galton(tiny_config(topology="B", split="center_x"))
        assert report.migrations_total > 0

    def test_owner_table_is_built_once_per_run(self):
        # the dispatcher and both physics nodes read one table
        calls = []
        owners_xy = PartitionMap.owners_xy

        def counted(pmap, xs, ys):
            calls.append(len(xs))
            return owners_xy(pmap, xs, ys)

        with mock.patch.object(PartitionMap, "owners_xy", counted):
            report = run_galton(tiny_config(topology="B", split="center_x"))
        assert len(calls) == 1 and report.migrations_total > 0

    def test_link_override_applies_to_physics_class(self):
        cfg = tiny_config(link_overrides={
            "dispatcher->physics": {"byte_rate": 9999.0, "latency_s": 0.5}})
        from dvesim.harness.galton import _link_params
        lat, rate, jit = _link_params(cfg, "dispatcher", "physics-1")
        assert (lat, rate) == (0.5, 9999.0)
        lat, rate, jit = _link_params(cfg, "script", "dispatcher")
        assert (lat, rate) == (cfg.link_latency_s, cfg.link_byte_rate)


class TestExport:
    def test_artifacts_roundtrip_and_are_byte_stable(self, tmp_path):
        report = run_galton(tiny_config())
        d1, d2 = tmp_path / "one", tmp_path / "two"
        export(report, d1)
        export(run_galton(tiny_config()), d2)
        for name in ("metrics.csv", "queues.csv", "histogram.csv", "report.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        reimported = read_histogram_csv(d1 / "histogram.csv")
        assert reimported.tolist() == report.histogram.tolist()

    def test_jittered_center_split_export_is_pinned(self, tmp_path):
        # no canonical config has link jitter; this run pins the jitter
        # draw and the same-link reordering it causes (151 messages fall
        # due before the one queued ahead of them), with 72 migrations
        report = run_galton(tiny_config(topology="B", split="center_x",
                                        link_jitter_s=0.02))
        export(report, tmp_path)
        assert report.migrations_total == 72
        assert bench_checks.export_digest(tmp_path) == (
            "8b316f37111569c88d39a4ff9fe7e2b795846b738e0861a323606a83c44b1d8c")

    def test_histogram_covers_every_bucket(self, tmp_path):
        report = run_galton(tiny_config())
        export(report, tmp_path)
        import csv
        with open(tmp_path / "histogram.csv") as f:
            rows = list(csv.DictReader(f))
        assert [int(r["bucket_index"]) for r in rows] == list(range(TINY.bucket_count))

    def test_summary_loads_metrics(self, tmp_path):
        report = run_galton(tiny_config())
        export(report, tmp_path)
        summary = load_report_summary(tmp_path / "report.json")
        assert report_metric(summary, "interval_mean_s") == pytest.approx(report.interval_mean_s)
        assert sum(summary["histogram"]) == report.histogram.sum()


class TestCollectionColumns:
    """The window statistics over the (n, 4) collection columns against the
    list-of-tuples code they replaced: equal floats, bit for bit."""

    @pytest.mark.parametrize("n", [0, 1, 9, 300, 5000])
    def test_match_the_scalar_reference(self, n):
        rng = np.random.default_rng(n)
        # collections in time order on partitions 1 and 2; ties in time
        # happen, and some sample times fall on a collection, before the
        # first or after the last, or close an empty window
        rows = np.stack([np.sort(rng.integers(0, 10**8, n)),
                         rng.integers(10**5, 4 * 10**8, n),
                         rng.integers(1, 3, n),
                         rng.integers(0, 96, n)], axis=1).astype(np.int64)
        times = sorted(set(rng.integers(0, 12 * 10**7, rng.integers(1, 60)).tolist()
                           + rng.choice(rows[:, 0], min(n, 10)).tolist()))
        tuples = [tuple(r) for r in rows.tolist()]
        for partition in (1, 2, 3):
            want = window_interval_means_scalar(tuples, times, partition)
            assert window_interval_means(rows, times, partition) == want
            if n >= 300 and partition != 3:
                assert None in want and any(m is not None for m in want)
        report = mock.Mock(collections=rows)
        windows = [(0.0, 120.0), (25.0, 75.0), (30.0, 30.0),
                   (times[0] / 1e6, times[-1] / 1e6), (-1.0, 0.0)]
        if n:
            # both ends on a collection
            windows.append((rows[n // 4, 0] / 1e6, rows[3 * n // 4, 0] / 1e6))
        for t0_s, t1_s in windows:
            want = intervals_in_window_scalar(tuples, t0_s, t1_s)
            got = ExperimentReport.intervals_in_window(report, t0_s, t1_s)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
            if len(want):
                assert float(got.mean()) == float(want.mean())


    def test_report_views_the_ledgers_rows(self, monkeypatch):
        # run_galton reads the ledger's flat array('q') as (n, 4) int64 rows
        # in place: the report's columns are the ledger's rows, same memory
        from dvesim.actors import RunLedger
        from dvesim.harness import galton as galton_module
        ledgers = []

        class KeptLedger(RunLedger):
            def __post_init__(self):
                super().__post_init__()
                ledgers.append(self)

        monkeypatch.setattr(galton_module, "RunLedger", KeptLedger)
        report = run_galton(tiny_config(topology="B", split="center_x"))
        (ledger,) = ledgers
        flat = ledger.collections.tolist()
        assert report.collections.dtype == np.int64 and report.collected_total > 0
        assert report.collections.tolist() == [flat[i:i + 4] for i in range(0, len(flat), 4)]
        assert np.shares_memory(report.collections,
                                np.frombuffer(ledger.collections, dtype=np.int64))


class TestEvaluate:
    def test_specs_require_at_least_three_samples(self):
        from dvesim.stats import InvalidParameter
        with pytest.raises(InvalidParameter):
            RegressionSpec("collected_total", 60, 60, 0.5, 1)

    def test_multi_run_pass_and_fail(self):
        reports = [run_galton(tiny_config(seed=s)).to_json_dict() for s in (1, 2, 3)]
        ok = evaluate(reports, [RegressionSpec("collected_total", 59, 61, 0.1, 3)])
        assert ok[0].passed
        bad = evaluate(reports, [RegressionSpec("collected_total", 0, 1, 0.1, 3)])
        assert not bad[0].passed

    def test_unknown_metric(self):
        report = run_galton(tiny_config()).to_json_dict()
        with pytest.raises(UnknownMetric):
            evaluate([report] * 3, [RegressionSpec("nope", 0, 1, 0.1, 3)])


class TestMetricRegistry:
    def test_live_and_exported_verdicts_agree(self, tmp_path, capsys):
        # a capped overload run, so that links end with queued messages
        cfg = tiny_config(capacity_c=5, duration_cap_s=20.0, link_overrides={
            "dispatcher->physics": {"byte_rate": 2000.0}})
        reports = [run_galton(replace(cfg, seed=s)) for s in (1, 2, 3)]
        paths = []
        for i, report in enumerate(reports):
            export(report, tmp_path / f"run{i}")
            paths.append(str(tmp_path / f"run{i}" / "report.json"))
        links = sorted(reports[0].link_totals)
        for report in reports:
            for link in links:
                _, depths = queue_depth_series(report, link)
                assert report_metric(report.to_json_dict(),
                                     f"final_queue_depth:{link}") == depths[-1]
        dicts = [report.to_json_dict() for report in reports]
        assert report_metric(dicts[0], "final_queue_depth:dispatcher->physics-1") > 0

        names = [n for n in SCALAR_METRICS if n != "rmse_baseline"]
        names += [f"final_queue_depth:{link}" for link in links]
        specs = [RegressionSpec(n, 0.0, 50.0, 0.2, 3) for n in names]
        live = evaluate(dicts, specs)
        assert {v.passed for v in live} == {True, False}
        expected = "".join(
            f"{v.metric}: {'PASS' if v.passed else f'FAIL ({v.reason})'} mean={v.mean:.6g} "
            f"cv={'-' if v.cv is None else f'{v.cv:.4g}'}\n" for v in live)
        specs_path = tmp_path / "specs.json"
        specs_path.write_text(json.dumps([asdict(s) for s in specs]))
        capsys.readouterr()
        rc = cli.main(["regress", "--report", *paths, "--specs", str(specs_path)])
        assert capsys.readouterr().out == expected
        assert rc == 1

        # without a baseline, rmse_baseline is unknown on both sides
        unknown = [RegressionSpec("rmse_baseline", 0.0, 50.0, 0.2, 3)]
        with pytest.raises(UnknownMetric):
            evaluate(dicts, unknown)
        specs_path.write_text(json.dumps([asdict(s) for s in unknown]))
        rc = cli.main(["regress", "--report", *paths, "--specs", str(specs_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestSearch:
    def test_bounds_must_bracket(self):
        cfg = tiny_config()
        with pytest.raises(BoundsDoNotBracket):
            # both endpoints stable for the tiny geometry at huge capacity
            max_sustainable_rate(cfg, 1.0, 4.0)

    def test_finds_threshold_on_tiny_board(self):
        # capacity 20 with 12 droppers: stability threshold near
        # t* = droppers * nominal / capacity = 12 * 12 / 20 = 7.2
        cfg = tiny_config(capacity_c=20, duration_cap_s=3600.0)
        result = max_sustainable_rate(cfg, 3.0, 12.0)
        assert 3.0 < result.t_star_s < 12.0
        assert result.t_star_s == pytest.approx(7.2, rel=0.25)
        assert len(result.probes) == 10


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def login_cfg(**kw):
    defaults = dict(topology=TOPOLOGY_PROXIED, inventory_folders=LIGHT_FOLDERS,
                    scene_assets=LIGHT_ASSETS)
    defaults.update(kw)
    return LoginExperimentConfig(**defaults)


class TestLogin:
    def test_proxied_heavy_inventory_request_count(self):
        report = run_login(login_cfg(inventory_folders=HEAVY_FOLDERS))
        assert report.inventory_requests["sim"] == 8977
        assert report.completed

    @staticmethod
    def round_trip_us(cfg, delay_s):
        """A request and its response over idle links, each taking
        ceil(size * 1e6 / rate) us of serialization plus the latency, with
        the server's delay between them."""
        return sum(math.ceil(DEFAULT_MESSAGE_SIZES[kind] * 1e6 / cfg.link_byte_rate)
                   + seconds_to_us(cfg.link_latency_s)
                   for kind in ("request", "response")) + seconds_to_us(delay_s)

    def test_empty_login_ends_both_chains_at_the_avatar_response(self):
        # auth to the central server, then the avatar, which the space
        # server answers at once
        cfg = LoginExperimentConfig(inventory_folders=0, scene_assets=0)
        avatar_us = self.round_trip_us(cfg, cfg.central_delay_s) + self.round_trip_us(cfg, 0)
        assert avatar_us == 8026
        run = run_login(cfg)
        assert run.inventory_done_s == run.assets_done_s == avatar_us / 1e6
        assert run.completed

    def test_dedicated_folder_chain_ends_one_round_trip_after_the_avatar(self):
        cfg = LoginExperimentConfig(topology=TOPOLOGY_DEDICATED, inventory_folders=1)
        done_us = 8026 + self.round_trip_us(cfg, cfg.inventory_delay_s)
        assert done_us == 13539
        assert run_login(cfg).inventory_done_s == done_us / 1e6

    def test_dedicated_sim_load_independent_of_folders(self):
        heavy = run_login(login_cfg(topology=TOPOLOGY_DEDICATED,
                                    inventory_folders=HEAVY_FOLDERS))
        light = run_login(login_cfg(topology=TOPOLOGY_DEDICATED))
        assert heavy.units["sim"] == pytest.approx(light.units["sim"])
        assert heavy.inventory_requests["inventory"] == HEAVY_FOLDERS
        assert heavy.inventory_requests["sim"] == 0

    def test_light_proxied_equals_light_dedicated_sim_load(self):
        proxied = run_login(login_cfg())
        dedicated = run_login(login_cfg(topology=TOPOLOGY_DEDICATED))
        assert proxied.units["sim"] == pytest.approx(dedicated.units["sim"])

    @pytest.mark.parametrize("topology,expected_slope",
                             [(TOPOLOGY_PROXIED, 1.0), (TOPOLOGY_DEDICATED, 0.0)])
    def test_sim_load_affine_in_folder_count(self, topology, expected_slope):
        folder_counts = [0, 100, 1000, 8977]
        loads = []
        for folders in folder_counts:
            rep = run_login(login_cfg(topology=topology, inventory_folders=folders))
            loads.append(rep.units["sim"])
        slope, intercept = np.polyfit(folder_counts, loads, 1)
        fitted = np.polyval([slope, intercept], folder_counts)
        ss_res = float(np.sum((np.array(loads) - fitted) ** 2))
        ss_tot = float(np.sum((np.array(loads) - np.mean(loads)) ** 2))
        if expected_slope == 0.0:
            # dedicated: constant in folder count, exactly
            assert max(loads) == pytest.approx(min(loads))
        else:
            assert 1 - ss_res / ss_tot > 0.999
        assert slope == pytest.approx(expected_slope, abs=1e-9)

    def test_a_login_run_leaves_no_cyclic_garbage(self):
        """A run's engine, network and links are freed by reference counting:
        a collection after the run finds none of them unreachable."""
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            run_login(login_cfg())
            gc.collect()
            left = {type(o) for o in gc.garbage} & {Engine, Network, Link}
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert not left

    def test_heavy_scene_increases_sim_load(self):
        light = run_login(login_cfg())
        heavy = run_login(login_cfg(scene_assets=HEAVY_ASSETS))
        assert heavy.units["sim"] > light.units["sim"]

    def test_config_roundtrip(self, tmp_path):
        cfg = login_cfg(topology=TOPOLOGY_DEDICATED, inventory_folders=10)
        path = tmp_path / "login.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert LoginExperimentConfig.from_file(path) == cfg

    @pytest.mark.parametrize("name,digest", [
        ("login_proxied_heavy", "0830129cc2daf0f0"),
        ("login_dedicated_heavy", "b0fbc13d000f48fc"),
    ])
    def test_heavy_reports_are_pinned(self, tmp_path, name, digest):
        cfg = LoginExperimentConfig.from_file(CONFIGS / f"{name}.json")
        path = tmp_path / "login_report.json"
        run_login(cfg).save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == digest

    def test_invalid_config(self):
        with pytest.raises(ConfigInvalid):
            login_cfg(topology="weird")
        with pytest.raises(ConfigInvalid):
            login_cfg(scene_assets=-1)


def galton_dict(geometry=None, **changes):
    d = tiny_config().to_dict()
    d["geometry"].update(geometry or {})
    d.update(changes)
    return d


def login_dict(**changes):
    d = login_cfg().to_dict()
    d.update(changes)
    return d


STRICT_CASES = [
    ("unknown key", "galton", galton_dict(perod_t_s=2.0), "perod_t_s"),
    ("unknown geometry key", "galton", galton_dict(geometry={"levels": 9}), "levels"),
    ("bad geometry value", "galton", galton_dict(geometry={"n_levels": 0}), "n_levels"),
    ("misspelt link", "galton", galton_dict(link_overrides={
        "dispatcher->phyiscs": {"byte_rate": 1e4}}), "dispatcher->phyiscs"),
    ("link outside topology", "galton", galton_dict(link_overrides={
        "dispatcher->physics-2": {"byte_rate": 1e4}}), "dispatcher->physics-2"),
    ("unknown override field", "galton", galton_dict(link_overrides={
        "dispatcher->physics": {"bandwidth": 1e4}}), "bandwidth"),
    ("zero byte rate", "galton", galton_dict(link_overrides={
        "physics->dispatcher": {"byte_rate": 0}}), "byte_rate"),
    ("negative latency", "galton", galton_dict(link_overrides={
        "script->dispatcher": {"latency_s": -0.1}}), "latency_s"),
    ("negative jitter", "galton", galton_dict(link_overrides={
        "dispatcher->physics-1": {"jitter_s": -0.1}}), "jitter_s"),
    ("unknown message kind", "galton", galton_dict(message_sizes={"updtae": 10}),
     "updtae"),
    ("zero message size", "galton", galton_dict(message_sizes={"delete": 0}),
     "delete"),
    ("byte rate below 1 B/s", "galton", galton_dict(link_byte_rate=0.5),
     "link_byte_rate"),
    ("override byte rate below 1 B/s", "galton", galton_dict(link_overrides={
        "dispatcher->physics": {"byte_rate": 0.5}}), "byte_rate"),
    ("login byte rate below 1 B/s", "login", login_dict(link_byte_rate=0.5),
     "link_byte_rate"),
    ("negative epsilon", "galton", galton_dict(epsilon_max_s=-1.0), "epsilon_max_s"),
    ("negative link jitter", "galton", galton_dict(link_jitter_s=-1.0),
     "link_jitter_s"),
    ("unknown login key", "login", login_dict(repeat=2), "repeat"),
    ("negative login delay", "login", login_dict(central_delay_s=-1.0),
     "central_delay_s"),
    ("string period", "galton", galton_dict(period_t_s="fast"), "period_t_s"),
    ("string override byte rate", "galton", galton_dict(link_overrides={
        "dispatcher->physics": {"byte_rate": "x"}}), "byte_rate"),
    ("override not a dict", "galton", galton_dict(link_overrides={
        "dispatcher->physics": 1e4}), "dispatcher->physics"),
    ("bool capacity", "galton", galton_dict(capacity_c=True), "capacity_c"),
    ("float seed", "galton", galton_dict(seed=1.5), "seed"),
    ("null duration cap", "galton", galton_dict(duration_cap_s=None), "duration_cap_s"),
    ("string geometry value", "galton", galton_dict(geometry={"n_levels": "9"}),
     "n_levels"),
    ("float message size", "galton", galton_dict(message_sizes={"delete": 10.5}),
     "delete"),
    ("string login folders", "login", login_dict(inventory_folders="5"),
     "inventory_folders"),
    ("bool login delay", "login", login_dict(central_delay_s=True),
     "central_delay_s"),
    ("NaN byte rate", "galton", galton_dict(link_byte_rate=float("nan")),
     "link_byte_rate"),
    ("infinite byte rate", "galton", galton_dict(link_byte_rate=float("inf")),
     "link_byte_rate"),
    ("NaN latency", "galton", galton_dict(link_latency_s=float("nan")),
     "link_latency_s"),
    ("infinite period", "galton", galton_dict(period_t_s=float("inf")), "period_t_s"),
    ("infinite duration cap", "galton", galton_dict(duration_cap_s=float("inf")),
     "duration_cap_s"),
    ("NaN override byte rate", "galton", galton_dict(link_overrides={
        "dispatcher->physics": {"byte_rate": float("nan")}}), "byte_rate"),
    ("infinite override byte rate", "galton", galton_dict(link_overrides={
        "dispatcher->physics": {"byte_rate": float("inf")}}), "byte_rate"),
    ("NaN login byte rate", "login", login_dict(link_byte_rate=float("nan")),
     "link_byte_rate"),
    # the run counts whole microseconds: these round to 0 us
    ("sub-microsecond drop period", "galton", galton_dict(period_t_s=4e-7), "period_t_s"),
    ("sub-microsecond tick", "galton", galton_dict(tick_len_s=4e-7), "tick_len_s"),
    ("sub-microsecond sample period", "galton", galton_dict(sample_period_s=4e-7),
     "sample_period_s"),
    ("negative tick", "galton", galton_dict(tick_len_s=-0.1), "tick_len_s"),
    ("sub-microsecond duration cap", "galton", galton_dict(duration_cap_s=4e-7),
     "duration_cap_s"),
    # 10 levels in 4 us: 0.4 us a level
    ("sub-microsecond level time", "galton",
     galton_dict(geometry={"nominal_descent_s": 4e-6}), "nominal_descent_s"),
    ("zero capacity factor", "galton", galton_dict(capacity_factor=0.0), "capacity_factor"),
    ("negative capacity factor", "galton", galton_dict(capacity_factor=-1.0),
     "capacity_factor"),
    # 200 * 0.002 = 0.4 ball-steps a tick
    ("capacity rounding to 0", "galton", galton_dict(capacity_factor=0.002),
     "capacity_factor"),
    ("zero capacity", "galton", galton_dict(capacity_c=0), "capacity_c"),
    # run_login would count whole microseconds up to 0 us and report 0 units
    ("sub-microsecond login run length", "login", login_dict(run_length_s=1e-9),
     "run_length_s"),
    ("negative login cost", "login", login_dict(proxy_cost=-5.0), "proxy_cost"),
    # region errors name the config keys, not RegionSpec's fields
    ("negative region width", "galton", galton_dict(region_width_m=-256.0),
     "region_width_m"),
    ("region depth off the microcell grid", "galton", galton_dict(region_depth_m=250.0),
     "region_depth_m"),
    # 48 m is 3 microcells of 16 m: a split through the middle misses the grid
    ("centre split off the microcell grid", "galton",
     galton_dict(topology="B", split="center_x", region_width_m=48.0), "region_width_m"),
    ("between-boxes split off the microcell grid", "galton",
     galton_dict(topology="B", split="between_boxes", region_depth_m=48.0),
     "region_depth_m"),
    ("zero microcell", "galton", galton_dict(microcell_m=0.0), "microcell_m"),
]

#: kind -> (loader, valid input, error the loader raises)
LOADERS = {"galton": (GaltonExperimentConfig.from_dict, galton_dict, ConfigInvalid),
           "login": (LoginExperimentConfig.from_dict, login_dict, ConfigInvalid),
           "spec": (RegressionSpec.from_json_dict, lambda: dict(TestCliInputErrors.SPEC),
                    InvalidParameter)}


def declared_rules() -> list:
    """(kind, key path, annotation, rule) for every field that declares a
    rule, and for the link-override fields that reuse the link rules."""
    cases = []
    for kind, cls, path in (("galton", GaltonExperimentConfig, ()),
                            ("galton", GaltonGeometry, ("geometry",)),
                            ("login", LoginExperimentConfig, ()),
                            ("spec", RegressionSpec, ())):
        for name, (annotation, rule) in rules_of(cls).items():
            if rule:
                cases.append((kind, path + (name,), annotation, rule))
                if cls is GaltonExperimentConfig and name.startswith("link_"):
                    cases.append((kind, ("link_overrides", "dispatcher->physics",
                                         name[len("link_"):]), annotation, rule))
    return cases


def boundary(annotation: str, rule: dict) -> tuple:
    """The value at a declared rule's boundary, and the value just past it."""
    if rule.get("span"):
        # round() takes 0.5 us to 0: find the least span that rounds to 1 us
        edge = 5e-7
        while seconds_to_us(edge) < 1:
            edge = math.nextafter(edge, 1.0)
        return edge, math.nextafter(edge, 0.0)
    low = rule["min"]
    if annotation == "int":
        return (low + 1, low) if rule.get("open") else (low, low - 1)
    if rule.get("open"):
        return math.nextafter(low, math.inf), float(low)
    return float(low), math.nextafter(low, -math.inf)


RULES = declared_rules()


class TestStrictConfig:
    @pytest.mark.parametrize("kind,data,key", [c[1:] for c in STRICT_CASES],
                             ids=[c[0] for c in STRICT_CASES])
    def test_bad_config_rejected_at_load(self, kind, data, key):
        cls = GaltonExperimentConfig if kind == "galton" else LoginExperimentConfig
        with pytest.raises(ConfigInvalid, match=key):
            cls.from_dict(data)

    @pytest.mark.parametrize("kind,path,annotation,rule", RULES,
                             ids=[f"{c[0]}:{'.'.join(c[1])}" for c in RULES])
    def test_declared_rule_boundary(self, kind, path, annotation, rule):
        load, valid, error = LOADERS[kind]

        def with_value(value):
            root = d = valid()
            for key in path[:-1]:
                d = d.setdefault(key, {})
            d[path[-1]] = value
            return root

        at, past = boundary(annotation, rule)
        load(with_value(at))
        with pytest.raises(error, match=re.escape(path[-1])):
            load(with_value(past))

    def test_declared_rules_cover_every_kind_of_bound(self):
        kinds = {"span" if r.get("span") else "open" if r.get("open") else "inclusive"
                 for _, _, _, r in RULES}
        assert kinds == {"span", "open", "inclusive"}

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")),
                             ids=lambda p: p.name)
    def test_shipped_file_loads(self, path):
        loaders = {"galton": GaltonExperimentConfig.from_file,
                   "login": LoginExperimentConfig.from_file,
                   "specs": cli._load_specs}
        assert loaders[path.name.split("_")[0]](path)

    def test_one_microsecond_timing_accepted(self):
        cfg = GaltonExperimentConfig.from_dict(galton_dict(
            geometry={"nominal_descent_s": 1e-5}, period_t_s=1e-6, tick_len_s=1e-6,
            sample_period_s=1e-6, duration_cap_s=1e-6, capacity_factor=0.005))
        assert cfg.geometry.level_time_us == 1 and cfg.effective_capacity == 1

    def test_every_link_and_class_key_accepted(self):
        links = ["script->dispatcher", "dispatcher->script", "dispatcher->physics-1",
                 "physics-1->dispatcher", "dispatcher->physics-2",
                 "physics-2->dispatcher", "dispatcher->physics", "physics->dispatcher"]
        data = galton_dict(topology="B", link_overrides={
            link: {"latency_s": 0.0, "byte_rate": 1e4, "jitter_s": 0.0}
            for link in links})
        assert GaltonExperimentConfig.from_dict(data).link_overrides == \
            data["link_overrides"]

    def test_cli_prints_one_error_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(galton_dict(link_overrides={
            "dispatcher->phyiscs": {"byte_rate": 1e4}})))
        out = tmp_path / "out"
        rc = cli.main(["run-galton", "--config", str(cfg_path), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "dispatcher->phyiscs" in captured.err
        assert captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("changes", [
        {"link_byte_rate": 0.5},
        {"link_overrides": {"physics->dispatcher": {"byte_rate": 0.5}}},
    ], ids=["link_byte_rate", "override"])
    def test_cli_rejects_byte_rate_below_one(self, tmp_path, capsys, changes):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(galton_dict(**changes)))
        out = tmp_path / "out"
        rc = cli.main(["run-galton", "--config", str(cfg_path), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: ") and "byte_rate" in captured.err
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_cli_rejects_non_finite_numbers(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        # json writes and reads NaN and Infinity unquoted
        cfg_path.write_text(json.dumps(galton_dict(period_t_s=float("inf"))))
        assert "Infinity" in cfg_path.read_text()
        out = tmp_path / "out"
        rc = cli.main(["run-galton", "--config", str(cfg_path), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: ") and "period_t_s" in captured.err
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_cli_rejects_sub_microsecond_tick(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(galton_dict(tick_len_s=4e-7)))
        out = tmp_path / "out"
        rc = cli.main(["run-galton", "--config", str(cfg_path), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: ") and "tick_len_s" in captured.err
        assert captured.err.count("\n") == 1
        assert not out.exists()


class TestCli:
    def test_run_galton_and_regress(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config().to_dict()))
        out = tmp_path / "out"
        rc = cli.main(["run-galton", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        assert (out / "report.json").exists()

        specs_path = tmp_path / "specs.json"
        specs_path.write_text(json.dumps([
            {"metric": "collected_total", "lo": 59, "hi": 61, "max_cv": 0.1, "k": 1}
        ]))
        # k=1 is below the spec minimum of 3: build three exported runs instead
        outs = []
        for s in (1, 2, 3):
            o = tmp_path / f"run{s}"
            cli.main(["run-galton", "--config", str(cfg_path), "--seed", str(s),
                      "--out", str(o)])
            outs.append(o / "report.json")
        specs_path.write_text(json.dumps([
            {"metric": "collected_total", "lo": 59, "hi": 61, "max_cv": 0.1, "k": 3}
        ]))
        rc = cli.main(["regress", "--report"] + [str(p) for p in outs]
                      + ["--specs", str(specs_path)])
        assert rc == 0
        specs_path.write_text(json.dumps([
            {"metric": "collected_total", "lo": 0, "hi": 1, "max_cv": 0.1, "k": 3}
        ]))
        rc = cli.main(["regress", "--report"] + [str(p) for p in outs]
                      + ["--specs", str(specs_path)])
        assert rc == 1

    def test_regress_wrong_sample_count_prints_one_error_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config().to_dict()))
        out = tmp_path / "run"
        assert cli.main(["run-galton", "--config", str(cfg_path), "--out", str(out)]) == 0
        specs_path = tmp_path / "specs.json"
        specs_path.write_text(json.dumps([
            {"metric": "collected_total", "lo": 59, "hi": 61, "max_cv": 0.1, "k": 3}
        ]))
        capsys.readouterr()
        rc = cli.main(["regress", "--report", str(out / "report.json"),
                       "--specs", str(specs_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == ("error: collected_total: spec expects 3 samples, "
                                "got 1\n")

    def test_run_galton_has_no_specs_option(self, tmp_path, capsys):
        # one run is one sample and a spec needs k >= 3: `regress` checks runs
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config().to_dict()))
        out = tmp_path / "out"
        with mock.patch.object(cli, "run_galton") as run, \
                pytest.raises(SystemExit) as exited:
            cli.main(["run-galton", "--config", str(cfg_path), "--out", str(out),
                      "--specs", "specs.json"])
        assert exited.value.code == 2
        assert "--specs" in capsys.readouterr().err
        assert not run.called and not out.exists()

    def test_baseline_capture_cli(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config().to_dict()))
        dirs = []
        for s in (1, 2, 3):
            o = tmp_path / f"run{s}"
            cli.main(["run-galton", "--config", str(cfg_path), "--seed", str(s),
                      "--out", str(o)])
            dirs.append(str(o))
        out = tmp_path / "baseline.json"
        rc = cli.main(["baseline", "capture", "--runs"] + dirs + ["--out", str(out)])
        assert rc == 0
        assert out.exists()

    def test_run_login_cli(self, tmp_path):
        cfg_path = tmp_path / "login.json"
        cfg_path.write_text(json.dumps(login_cfg().to_dict()))
        out = tmp_path / "out"
        rc = cli.main(["run-login", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        assert (out / "login_report.json").exists()

    def test_search_rate_cli(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            tiny_config(capacity_c=20, duration_cap_s=3600.0).to_dict()))
        rc = cli.main(["search-rate", "--config", str(cfg_path),
                       "--t-lo", "3.0", "--t-hi", "12.0"])
        assert rc == 0
        assert "t_star=" in capsys.readouterr().out


class TestCliInputErrors:
    """Bad input prints one ``error:`` line and exits 2, which no verdict
    returns, and writes no output file."""

    SPEC = {"metric": "collected_total", "lo": 59, "hi": 61, "max_cv": 0.1, "k": 3}
    #: case -> what its error line says
    ERRORS = {"spec_k_1": "need at least 3 samples",
              "spec_without_max_cv": "regression spec has no 'max_cv' field",
              "spec_file_without_specs_key": "a spec file must hold a list",
              "spec_file_of_a_string": "a spec file must hold a list",
              "spec_entry_not_a_dict": "spec must be a dict, got 'collected_total'",
              "spec_lo_not_a_number": "spec.lo must be float, got 'x'",
              "spec_k_not_an_int": "spec.k must be int, got 3.7",
              "spec_hi_nan": "spec.hi must be float, got nan",
              "spec_metric_not_a_string": "spec.metric must be str, got 5",
              "spec_unknown_key": "unknown key spec.window",
              # report.json's "discarded" key, always 0, is no metric
              "spec_discarded_total": "unknown metric 'discarded_total'",
              "login_sub_microsecond_run": "run_length_s must round to at least 1",
              "login_negative_cost": "proxy_cost must be >= 0",
              "two_runs": "need at least 3 runs, got 2",
              "stressed_run": "peaked at load",
              "mixed_geometries": "runs mix geometries",
              "histograms_of_two_lengths": "histograms differ in length: [3, 3, 2]",
              "baseline_negative_count": "bucket counts must be non-negative",
              "bounds_do_not_bracket": "t_lo=1.0 is already stable",
              "config_missing": "nope.json: [Errno 2] No such file",
              "split_off_grid": "region_width_m: the split at 24.0 m is not on a microcell",
              "baseline_missing": "nope.json: [Errno 2] No such file",
              "spec_file_not_json": "specs.json: Expecting value",
              "report_missing": "nope.json: [Errno 2] No such file",
              "report_of_an_empty_dict": "report.json has no 'histogram' key",
              "report_histogram_not_ints": "histogram must be list[int], got [1, 'x']",
              "report_metric_a_string": "metric 'collected_total' must be a number, got 'x'",
              "report_metric_a_numeric_string":
                  "metric 'collected_total' must be a number, got '1e3'",
              "report_metric_true": "metric 'collected_total' must be a number, got True",
              "baseline_without_its_keys": "baseline.json has no 'geometry_hash' key",
              "baseline_seeds_not_a_list": "seeds must be list[int], got '123'",
              "baseline_buckets_short": "bucket_mean and bucket_sd must hold",
              "report_link_totals_a_list": "link_totals must be a dict, got [",
              "report_sent_count_a_string":
                  "link 'script->dispatcher' must hold int sent_count"}
    #: a report.json that holds every key a summary needs
    REPORT = {"histogram": [1, 2], "interval_mean_s": 1.0, "peak_load_proxy": 0.5,
              "geometry_hash": TINY.geometry_hash(), "seed": 1}
    BASELINE = {"geometry_hash": TINY.geometry_hash(), "seeds": [1, 2, 3],
                "bucket_mean": [1.0], "bucket_sd": [0.5],
                "interval_mean_s": 1.0, "interval_sd_s": 0.1, "version": 1}

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """Exported runs: three unstressed seeds, one stressed run and one
        run of another geometry."""
        root = tmp_path_factory.mktemp("runs")
        configs = {f"seed{s}": tiny_config(seed=s) for s in (1, 2, 3)}
        configs["stressed"] = tiny_config(capacity_c=20)
        configs["other_geometry"] = tiny_config(geometry=replace(TINY, balls_per_dropper=4))
        for name, config in configs.items():
            export(run_galton(config), root / name)
        return root

    @pytest.mark.parametrize("case", list(ERRORS))
    def test_exits_2_with_one_error_line(self, runs, tmp_path, capsys, case):
        out = tmp_path / "out.json"
        #: case -> the whole spec file
        specs = {"spec_k_1": [dict(self.SPEC, k=1)],
                 "spec_without_max_cv": [{k: v for k, v in self.SPEC.items()
                                          if k != "max_cv"}],
                 "spec_file_without_specs_key": {"spec": [self.SPEC]},
                 "spec_file_of_a_string": "collected_total",
                 "spec_entry_not_a_dict": ["collected_total"],
                 "spec_lo_not_a_number": [dict(self.SPEC, lo="x")],
                 "spec_k_not_an_int": [dict(self.SPEC, k=3.7)],
                 "spec_hi_nan": [dict(self.SPEC, hi=float("nan"))],
                 "spec_metric_not_a_string": [dict(self.SPEC, metric=5)],
                 "spec_unknown_key": [dict(self.SPEC, window=1)],
                 "spec_discarded_total": [dict(self.SPEC, metric="discarded_total")]}
        logins = {"login_sub_microsecond_run": {"run_length_s": 1e-9},
                  "login_negative_cost": {"proxy_cost": -5.0}}
        baselines = {"two_runs": ["seed1", "seed2"],
                     "stressed_run": ["seed1", "seed2", "stressed"],
                     "mixed_geometries": ["seed1", "seed2", "other_geometry"]}
        #: case -> the whole report file, or baseline file
        reports = {"report_of_an_empty_dict": {},
                   "report_histogram_not_ints": {"histogram": [1, "x"]},
                   "report_metric_a_string": dict(self.REPORT, collected_total="x"),
                   "report_metric_a_numeric_string": dict(self.REPORT, collected_total="1e3"),
                   "report_metric_true": dict(self.REPORT, collected_total=True),
                   "report_link_totals_a_list": dict(self.REPORT,
                                                     link_totals=["script->dispatcher"]),
                   "report_sent_count_a_string": dict(self.REPORT, link_totals={
                       "script->dispatcher": {"sent_count": "x", "delivered_count": 0}})}
        #: report cases read by a queue-depth spec, not by SPEC
        queue_cases = {"report_link_totals_a_list", "report_sent_count_a_string"}
        bad_baselines = {"baseline_without_its_keys": {"a": 1},
                         "baseline_seeds_not_a_list": dict(self.BASELINE, seeds="123"),
                         # the tiny geometry's hash over 1 bucket, not 13
                         "baseline_buckets_short": self.BASELINE}
        #: case -> the text of a spec file that is not JSON
        spec_texts = {"spec_file_not_json": '{"specs": ['}
        missing = str(tmp_path / "nope.json")
        if case in specs or case in spec_texts:
            path = tmp_path / "specs.json"
            path.write_text(spec_texts[case] if case in spec_texts
                            else json.dumps(specs[case]))
            argv = ["regress", "--report",
                    *(str(runs / f"seed{s}" / "report.json") for s in (1, 2, 3)),
                    "--specs", str(path)]
        elif case in ("config_missing", "split_off_grid"):
            config = missing
            if case == "split_off_grid":
                config = tmp_path / "cfg.json"
                config.write_text(json.dumps(galton_dict(topology="B", region_width_m=48.0)))
            argv = ["run-galton", "--config", str(config), "--out", str(out)]
        elif case == "baseline_missing" or case in bad_baselines:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(tiny_config().to_dict()))
            baseline = missing
            if case in bad_baselines:
                baseline = tmp_path / "baseline.json"
                baseline.write_text(json.dumps(bad_baselines[case]))
            argv = ["run-galton", "--config", str(path), "--baseline", str(baseline),
                    "--out", str(out)]
        elif case == "report_missing" or case in reports:
            path = tmp_path / "specs.json"
            spec = self.SPEC
            if case in queue_cases:
                spec = dict(spec, metric="final_queue_depth:script->dispatcher")
            path.write_text(json.dumps([spec]))
            report = missing
            if case in reports:
                report = tmp_path / "report.json"
                report.write_text(json.dumps(reports[case]))
            argv = ["regress", "--report", str(report), "--specs", str(path)]
        elif case in baselines:
            argv = ["baseline", "capture", "--runs",
                    *(str(runs / name) for name in baselines[case]), "--out", str(out)]
        elif case == "histograms_of_two_lengths":
            dirs = []
            for seed, buckets in enumerate((3, 3, 2)):
                run = tmp_path / f"run{seed}"
                run.mkdir()
                (run / "report.json").write_text(json.dumps(dict(
                    self.REPORT, histogram=[1] * buckets, peak_load_proxy=0.1,
                    geometry_hash="g", seed=seed)))
                dirs.append(str(run))
            argv = ["baseline", "capture", "--runs", *dirs, "--out", str(out)]
        elif case == "baseline_negative_count":
            negative = tmp_path / "negative"
            negative.mkdir()
            data = json.loads((runs / "seed1" / "report.json").read_text())
            data["histogram"][0] = -1
            (negative / "report.json").write_text(json.dumps(data))
            argv = ["baseline", "capture", "--runs", str(negative),
                    *(str(runs / f"seed{s}") for s in (2, 3)), "--out", str(out)]
        elif case in logins:
            path = tmp_path / "login.json"
            path.write_text(json.dumps(login_dict(**logins[case])))
            argv = ["run-login", "--config", str(path), "--out", str(out)]
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(tiny_config().to_dict()))
            argv = ["search-rate", "--config", str(path), "--t-lo", "1.0", "--t-hi", "4.0"]
        capsys.readouterr()
        rc = cli.main(argv)
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and self.ERRORS[case] in captured.err
        assert captured.err.count("\n") == 1
        assert not out.exists()

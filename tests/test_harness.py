import hashlib
import json
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from dvesim.actors import GaltonGeometry
from dvesim.harness import (
    BoundsDoNotBracket,
    ConfigInvalid,
    GaltonExperimentConfig,
    LoginExperimentConfig,
    UnknownMetric,
    evaluate,
    export,
    load_report_summary,
    max_sustainable_rate,
    read_histogram_csv,
    rmse_envelope,
    run_galton,
    run_galton_series,
    run_login,
)
from dvesim.harness.login import (
    HEAVY_INVENTORY,
    HEAVY_SCENE,
    LIGHT_INVENTORY,
    LIGHT_SCENE,
    TOPOLOGY_DEDICATED,
    TOPOLOGY_PROXIED,
)
from dvesim.harness.report import SCALAR_METRICS
from dvesim.partition import PartitionMap
from dvesim.stats import RegressionSpec, capture_baseline
from dvesim import cli

TINY = GaltonGeometry(n_levels=10, boxes=2, rows_per_box=3, droppers_per_row=2,
                      balls_per_dropper=5, nominal_descent_s=12.0)


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
            tiny_config(topology="C").validate()

    def test_invalid_period(self):
        with pytest.raises(ConfigInvalid):
            tiny_config(period_t_s=0.0).validate()

    def test_invalid_split(self):
        with pytest.raises(ConfigInvalid):
            tiny_config(topology="B", split="diagonal").validate()

    def test_capacity_factor_scales_effective_capacity(self):
        cfg = tiny_config(capacity_c=100, capacity_factor=0.5)
        assert cfg.effective_capacity == 50


class TestRunGalton:
    def test_run_completes_and_conserves(self):
        report = run_galton(tiny_config())
        assert report.created_total == TINY.total_balls == 60
        assert report.collected_total + report.discarded == 60
        assert report.audit_ok and not report.hit_cap

    def test_histograms_deterministic_across_runs(self):
        a = run_galton(tiny_config())
        b = run_galton(tiny_config())
        assert a.histogram.counts.tolist() == b.histogram.counts.tolist()
        assert a.interval_mean_s == b.interval_mean_s

    def test_different_seeds_differ(self):
        a = run_galton(tiny_config(seed=1))
        b = run_galton(tiny_config(seed=2))
        assert a.histogram.counts.tolist() != b.histogram.counts.tolist()

    def test_monotone_load_in_period(self):
        # dropping faster never lowers the peak ball population
        peaks = [run_galton(tiny_config(period_t_s=t)).peak_balls_in_scene
                 for t in (4.0, 2.0, 1.0)]
        assert peaks[0] <= peaks[1] <= peaks[2]

    def test_baseline_comparison(self):
        runs = [run_galton(tiny_config(seed=s)) for s in (1, 2, 3)]
        baseline = capture_baseline(runs)
        report = run_galton(tiny_config(seed=9), baseline=baseline)
        assert report.rmse_baseline is not None
        assert report.baseline_mean is not None

    def test_baseline_geometry_mismatch_rejected(self):
        runs = [run_galton(tiny_config(seed=s)) for s in (1, 2, 3)]
        baseline = capture_baseline(runs)
        other = GaltonGeometry(n_levels=12, boxes=2, rows_per_box=3,
                               droppers_per_row=2, balls_per_dropper=5,
                               nominal_descent_s=12.0)
        with pytest.raises(ConfigInvalid):
            run_galton(tiny_config(geometry=other), baseline=baseline)

    def test_rmse_envelope_is_a_quantile_of_the_seeds_rmse(self):
        seeds = [1, 2, 3, 4]
        envelope, values = rmse_envelope(tiny_config(), seeds, quantile=0.75)
        assert values == [run_galton(tiny_config(seed=s)).rmse_theoretical for s in seeds]
        assert len(set(values)) > 1
        assert envelope == float(np.quantile(values, 0.75))

    def test_capacity_jitter_series(self):
        reports = run_galton_series(tiny_config(), seeds=[1, 2, 3, 4, 5],
                                    capacity_jitter_frac=0.5)
        factors = [r.config["capacity_factor"] for r in reports]
        assert factors == [0.5, 0.75, 1.0, 1.25, 1.5]

    def test_between_boxes_split_has_zero_border_traffic(self):
        cfg = tiny_config(topology="B", split="between_boxes")
        report = run_galton(cfg)
        assert report.migrations_total == 0
        assert report.collected_total + report.discarded == report.created_total

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
        assert reimported.counts.tolist() == report.histogram.counts.tolist()

    def test_jittered_center_split_export_is_pinned(self, tmp_path):
        # no canonical config has link jitter; this run pins the jitter
        # draw and the same-link reordering it causes (151 messages fall
        # due before the one queued ahead of them), with 72 migrations
        report = run_galton(tiny_config(topology="B", split="center_x",
                                        link_jitter_s=0.02))
        export(report, tmp_path)
        h = hashlib.sha256()
        for name in ("metrics.csv", "queues.csv", "histogram.csv", "report.json"):
            h.update((tmp_path / name).read_bytes())
        assert report.migrations_total == 72
        assert h.hexdigest() == (
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
        assert summary.metric("interval_mean_s") == pytest.approx(report.interval_mean_s)
        assert summary.histogram.total == report.histogram.total


class TestEvaluate:
    def test_specs_require_at_least_three_samples(self):
        from dvesim.stats import InvalidParameter
        with pytest.raises(InvalidParameter):
            RegressionSpec("collected_total", 60, 60, 0.5, 1)

    def test_multi_run_pass_and_fail(self):
        reports = [run_galton(tiny_config(seed=s)) for s in (1, 2, 3)]
        ok = evaluate(reports, [RegressionSpec("collected_total", 59, 61, 0.1, 3)])
        assert ok[0].passed
        bad = evaluate(reports, [RegressionSpec("collected_total", 0, 1, 0.1, 3)])
        assert not bad[0].passed

    def test_unknown_metric(self):
        report = run_galton(tiny_config())
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
                _, depths = report.queue_depth_series(link)
                assert report.metric(f"final_queue_depth:{link}") == depths[-1]
        assert reports[0].metric("final_queue_depth:dispatcher->physics-1") > 0

        names = [n for n in SCALAR_METRICS if n != "rmse_baseline"]
        names += [f"final_queue_depth:{link}" for link in links]
        specs = [RegressionSpec(n, 0.0, 50.0, 0.2, 3) for n in names]
        live = evaluate(reports, specs)
        assert {v.passed for v in live} == {True, False}
        expected = "".join(f"{v.metric}: PASS\n" if v.passed
                           else f"{v.metric}: FAIL ({v.reason})\n" for v in live)
        specs_path = tmp_path / "specs.json"
        specs_path.write_text(json.dumps([s.to_json_dict() for s in specs]))
        capsys.readouterr()
        rc = cli.main(["regress", "--report", *paths, "--specs", str(specs_path)])
        assert capsys.readouterr().out == expected
        assert rc == 1

        # without a baseline, rmse_baseline is unknown on both sides
        unknown = [RegressionSpec("rmse_baseline", 0.0, 50.0, 0.2, 3)]
        with pytest.raises(UnknownMetric):
            evaluate(reports, unknown)
        specs_path.write_text(json.dumps([s.to_json_dict() for s in unknown]))
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
    defaults = dict(topology=TOPOLOGY_PROXIED,
                    inventory_folders=LIGHT_INVENTORY[0],
                    inventory_items=LIGHT_INVENTORY[1],
                    scene_objects=LIGHT_SCENE[0], scene_assets=LIGHT_SCENE[1],
                    repeats=3, seed=1)
    defaults.update(kw)
    return LoginExperimentConfig(**defaults)


class TestLogin:
    def test_proxied_heavy_inventory_request_count(self):
        cfg = login_cfg(inventory_folders=HEAVY_INVENTORY[0],
                        inventory_items=HEAVY_INVENTORY[1], repeats=1)
        report = run_login(cfg)
        assert report.runs[0].inventory_requests["sim"] == 8977
        assert report.runs[0].completed

    def test_dedicated_sim_load_independent_of_folders(self):
        heavy = run_login(login_cfg(topology=TOPOLOGY_DEDICATED,
                                    inventory_folders=HEAVY_INVENTORY[0]))
        light = run_login(login_cfg(topology=TOPOLOGY_DEDICATED))
        assert heavy.units_mean["sim"] == pytest.approx(light.units_mean["sim"])
        assert heavy.runs[0].inventory_requests["inventory"] == HEAVY_INVENTORY[0]
        assert heavy.runs[0].inventory_requests["sim"] == 0

    def test_light_proxied_equals_light_dedicated_sim_load(self):
        proxied = run_login(login_cfg())
        dedicated = run_login(login_cfg(topology=TOPOLOGY_DEDICATED))
        assert proxied.units_mean["sim"] == pytest.approx(dedicated.units_mean["sim"])

    @pytest.mark.parametrize("topology,expected_slope",
                             [(TOPOLOGY_PROXIED, 1.0), (TOPOLOGY_DEDICATED, 0.0)])
    def test_sim_load_affine_in_folder_count(self, topology, expected_slope):
        folder_counts = [0, 100, 1000, 8977]
        loads = []
        for folders in folder_counts:
            rep = run_login(login_cfg(topology=topology,
                                      inventory_folders=folders, repeats=1))
            loads.append(rep.units_mean["sim"])
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

    def test_repeats_are_deterministic(self):
        report = run_login(login_cfg(repeats=4))
        assert report.units_sd["sim"] == 0.0

    def test_heavy_scene_increases_sim_load(self):
        light = run_login(login_cfg(repeats=1))
        heavy = run_login(login_cfg(scene_objects=HEAVY_SCENE[0],
                                    scene_assets=HEAVY_SCENE[1], repeats=1))
        assert heavy.units_mean["sim"] > light.units_mean["sim"]

    def test_config_roundtrip(self, tmp_path):
        cfg = login_cfg(topology=TOPOLOGY_DEDICATED, inventory_folders=10)
        path = tmp_path / "login.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert LoginExperimentConfig.from_file(path) == cfg

    @pytest.mark.parametrize("name,digest", [
        ("login_proxied_heavy", "a6bbfcdc4777517f"),
        ("login_dedicated_heavy", "fc73882e57f76b13"),
    ])
    def test_heavy_reports_are_pinned(self, tmp_path, name, digest):
        cfg = LoginExperimentConfig.from_file(CONFIGS / f"{name}.json")
        path = tmp_path / "login_report.json"
        run_login(cfg).save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == digest

    def test_invalid_config(self):
        with pytest.raises(ConfigInvalid):
            login_cfg(topology="weird").validate()
        with pytest.raises(ConfigInvalid):
            login_cfg(repeats=0).validate()


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
    ("zero message size", "galton", galton_dict(message_sizes={"update": 0}),
     "update"),
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
    ("float message size", "galton", galton_dict(message_sizes={"update": 10.5}),
     "update"),
    ("string login repeats", "login", login_dict(repeats="5"), "repeats"),
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
]


class TestStrictConfig:
    @pytest.mark.parametrize("kind,data,key", [c[1:] for c in STRICT_CASES],
                             ids=[c[0] for c in STRICT_CASES])
    def test_bad_config_rejected_at_load(self, kind, data, key):
        cls = GaltonExperimentConfig if kind == "galton" else LoginExperimentConfig
        with pytest.raises(ConfigInvalid, match=key):
            cls.from_dict(data)

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
        rc = cli.main(["run-login", "--config", str(cfg_path), "--repeats", "2",
                       "--out", str(out)])
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
              "two_runs": "need at least 3 runs, got 2",
              "stressed_run": "peaked at load",
              "mixed_geometries": "runs mix geometries",
              "bounds_do_not_bracket": "t_lo=1.0 is already stable"}

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
        specs = {"spec_k_1": dict(self.SPEC, k=1),
                 "spec_without_max_cv": {k: v for k, v in self.SPEC.items() if k != "max_cv"}}
        baselines = {"two_runs": ["seed1", "seed2"],
                     "stressed_run": ["seed1", "seed2", "stressed"],
                     "mixed_geometries": ["seed1", "seed2", "other_geometry"]}
        if case in specs:
            path = tmp_path / "specs.json"
            path.write_text(json.dumps([specs[case]]))
            argv = ["regress", "--report",
                    *(str(runs / f"seed{s}" / "report.json") for s in (1, 2, 3)),
                    "--specs", str(path)]
        elif case in baselines:
            argv = ["baseline", "capture", "--runs",
                    *(str(runs / name) for name in baselines[case]), "--out", str(out)]
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

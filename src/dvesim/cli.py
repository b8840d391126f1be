"""Command-line entry points for running experiments and checks.

Exit status is 0 only when every evaluated verdict passes, so the commands
can gate CI jobs directly.  Bad input prints one ``error:`` line and exits
2, never read as a failed verdict: an input file that is missing, not
JSON or of the wrong shape, a bad config, an unknown metric name, a spec
that is invalid, lacks a field or whose ``k`` differs from the number of
reports, a baseline over fewer than 3, stressed or mixed-geometry runs or
runs whose histograms differ in length or hold a negative count, and search
bounds that do not bracket the threshold.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (
    ConfigInvalid,
    GaltonExperimentConfig,
    LoginExperimentConfig,
    UnknownMetric,
    evaluate,
    export,
    load_report_summary,
    max_sustainable_rate,
    run_galton,
    run_login,
)
from .rules import read_json
from .stats import EmpiricalBaseline, InvalidParameter, RegressionSpec, capture_baseline


def _load_specs(path) -> list[RegressionSpec]:
    """A spec file holds a list of spec entries, or ``{"specs": [...]}``."""
    data = read_json(path, InvalidParameter)
    if isinstance(data, dict) and data.keys() == {"specs"}:
        data = data["specs"]
    if not isinstance(data, list):
        raise InvalidParameter('a spec file must hold a list or {"specs": [...]}')
    return [RegressionSpec.from_json_dict(d) for d in data]


def _cmd_run_galton(args) -> int:
    config = GaltonExperimentConfig.from_file(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    baseline = EmpiricalBaseline.load(args.baseline) if args.baseline else None
    report = run_galton(config, baseline=baseline)
    export(report, args.out)
    print(f"collected={report.collected_total} discarded={report.discarded} "
          f"interval_mean={report.interval_mean_s:.3f}s "
          f"rmse_theoretical={report.rmse_theoretical:.3f} -> {args.out}")
    return 0


def _cmd_search_rate(args) -> int:
    config = GaltonExperimentConfig.from_file(args.config)
    result = max_sustainable_rate(config, args.t_lo, args.t_hi,
                                  iterations=args.iterations)
    for t, stable, mean in result.probes:
        shown = "-" if mean is None else f"{mean:.2f}s"
        print(f"t={t:.4f}s stable={stable} final_quarter_interval={shown}")
    print(f"t_star={result.t_star_s:.4f}s")
    return 0


def _cmd_run_login(args) -> int:
    report = run_login(LoginExperimentConfig.from_file(args.config))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report.save(out / "login_report.json")
    for server in sorted(report.units):
        print(f"{server}: units={report.units[server]:.2f}")
    print(f"-> {out / 'login_report.json'}")
    return 0


def _cmd_baseline_capture(args) -> int:
    summaries = [load_report_summary(Path(d) / "report.json") for d in args.runs]
    baseline = capture_baseline(summaries)
    baseline.save(args.out)
    print(f"baseline over {len(summaries)} runs -> {args.out}")
    return 0


def _cmd_regress(args) -> int:
    specs = _load_specs(args.specs)
    summaries = [load_report_summary(p) for p in args.report]
    verdicts = evaluate(summaries, specs)
    ok = True
    for v in verdicts:
        status = "PASS" if v.passed else f"FAIL ({v.reason})"
        ok = ok and v.passed
        cv = "-" if v.cv is None else f"{v.cv:.4g}"
        print(f"{v.metric}: {status} mean={v.mean:.6g} cv={cv}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dvesim")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-galton", help="run one pegboard benchmark experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--baseline", default=None,
                   help="empirical baseline JSON to compare against")
    p.set_defaults(fn=_cmd_run_galton)

    p = sub.add_parser("search-rate", help="bisect the fastest sustainable drop period")
    p.add_argument("--config", required=True)
    p.add_argument("--t-lo", type=float, required=True, dest="t_lo")
    p.add_argument("--t-hi", type=float, required=True, dest="t_hi")
    p.add_argument("--iterations", type=int, default=8)
    p.set_defaults(fn=_cmd_search_rate)

    p = sub.add_parser("run-login", help="run the login service-topology study")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_run_login)

    p = sub.add_parser("baseline", help="baseline file operations")
    bsub = p.add_subparsers(dest="baseline_command", required=True)
    cap = bsub.add_parser("capture", help="capture a baseline from exported runs")
    cap.add_argument("--runs", nargs="+", required=True,
                     help="directories of exported unstressed runs")
    cap.add_argument("--out", required=True)
    cap.set_defaults(fn=_cmd_baseline_capture)

    p = sub.add_parser("regress", help="check exported reports against specs")
    p.add_argument("--report", nargs="+", required=True,
                   help="one or more exported report.json files")
    p.add_argument("--specs", required=True)
    p.set_defaults(fn=_cmd_regress)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigInvalid, InvalidParameter, UnknownMetric) as e:
        print(f"error: {e.args[0]}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

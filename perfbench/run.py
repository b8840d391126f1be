"""Benchmark for dvesim's pegboard runs: host time, set-up, memory, layers.

Run one workload from the root of the repository (``--seconds`` defaults
to ``run_seconds`` in BENCHMARK.json, ``--seed`` to the golden seed 42):

    python3 perfbench/run.py --workload migrate_b --seed 42 --trace 0

Workloads (see ``checks.WORKLOADS``): ``steady_a`` (topology A, full
drain), ``migrate_b`` (topology B centre split, full drain), ``overload_a``
(topology A over capacity, 400 s cap) and ``masked_b`` (topology B behind a
12 kB/s dispatcher link, 400 s cap).  ``--workload all`` runs each in turn.
BENCHMARK.json lists only ``migrate_b`` and ``overload_a``: on a noisy
2-core host a 5 s run needs about a minute of repetitions for a steady
median, and four such workloads do not fit the benchmark's time budget.

Every repetition is a fresh process running the public API: config load,
``run_galton``, ``export``.  One run at a time, no threads.  With
``--trace 0`` the benchmark alternates set-up probes (processes stopped at
their first ``Engine.run_until``) with full runs until ``--seconds`` would
be exceeded, tops the probes up to ``PROBES``, and reports medians of

- ``wall_s``: config load through ``run_galton`` and ``export``;
- ``setup_s``: from just before a probe process starts to its first
  ``Engine.run_until`` (imports, config load and validate, wiring);
- ``peak_rss_mb``: peak resident memory of a full run's process.

With ``--trace 1`` it alternates untraced and traced runs and reports the
per-layer metrics of ``tracer.layer_metrics`` plus ``trace.overhead``.
Every run's exports are checked (``checks.py``); a run failing a check
counts as failed.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the whole result, with
the host record and every sample, goes to ``perfbench/out/``.

Compare two sets of results (files or directories of them):

    python3 perfbench/run.py --compare perfbench/out/before perfbench/out/after
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKER = BENCH_DIR / "worker.py"

#: minimum set-up probes per untraced invocation; setup_s is their median
PROBES = 7
#: a single repetition taking longer than this counts as failed
CHILD_TIMEOUT_S = 150

class BenchError(RuntimeError):
    """The benchmark cannot produce a result (as opposed to a failed run)."""


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(set(values)) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base: list[float], new: list[float], bound: float,
            better: str = "lower") -> str:
    """better / worse / unchanged / unresolved for two samples of one metric.

    ``worse`` when the new median is worse than the base median by more
    than ``bound`` (a share of the base median).  When either side's
    quartile spread exceeds the bound the answer is ``unresolved``, unless
    every new value beats, or loses to, every base value.  ``better`` needs
    a gain larger than the base's own quartile spread.
    """
    sign = 1.0 if better == "lower" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    n_q1, n_med, n_q3 = quartiles(new)
    change = sign * (n_med - b_med) / b_med          # > 0 is worse
    base_spread = (b_q3 - b_q1) / b_med
    spread = max(base_spread, (n_q3 - n_q1) / n_med)
    all_better = max(sign * v for v in new) < min(sign * v for v in base)
    all_worse = min(sign * v for v in new) > max(sign * v for v in base)
    if spread > bound and not (all_better or all_worse):
        return "unresolved"
    if change > bound:
        return "worse"
    if change < 0 and (all_better or -change > base_spread):
        return "better"
    return "unchanged"


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------

def host_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
    }


def load_average(stage: str) -> list[float]:
    load = list(os.getloadavg())
    nproc = os.cpu_count() or 1
    if load[0] > nproc:
        print(f"warning: load average {load[0]:.2f} {stage} exceeds nproc {nproc}; "
              "timings are contended", file=sys.stderr)
    return load


def spawn(mode: str, workload: str, seed: int) -> tuple[dict | None, float]:
    """Run one worker process; returns (its record or None, start time)."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), mode, workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{mode} {workload} seed {seed}: timed out after {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return None, started
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        print(f"{mode} {workload} seed {seed}: exit {proc.returncode}\n{tail}",
              file=sys.stderr)
        return None, started
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    for problem in record.get("problems", []):
        print(f"{mode} {workload} seed {seed}: {problem}", file=sys.stderr)
    return record, started


def _repeat(step, seconds: float, start: float) -> None:
    """Call ``step`` at least once, and again while the next should fit."""
    durations = []
    while True:
        t0 = time.monotonic()
        step()
        durations.append(time.monotonic() - t0)
        if time.monotonic() - start + statistics.median(durations) > seconds:
            return


def measure(workload: str, seed: int, seconds: float, traced: bool,
            spec: dict) -> dict:
    """Run one invocation's repetitions; returns the full result record."""
    start = time.monotonic()
    result = {"workload": workload, "seed": seed, "trace": int(traced),
              "seconds": seconds, "host": host_record(),
              "load_before": load_average("before the set"),
              "probes": [], "runs": []}

    def run_one(mode: str) -> None:
        record, _ = spawn(mode, workload, seed)
        ok = record is not None and not record["problems"]
        result["runs"].append({"mode": mode, "ok": ok, **(record or {})})

    def probe_one() -> None:
        record, started = spawn("probe", workload, seed)
        result["probes"].append(
            {"ok": record is not None,
             "setup_s": record["setup_end"] - started if record else None})

    if traced:
        def step():
            run_one("run")
            run_one("trace")
    else:
        # probes interleave with the runs so that they sample the same
        # stretch of host time; short invocations top up afterwards
        def step():
            probe_one()
            run_one("run")

    _repeat(step, seconds, start)
    while not traced and len(result["probes"]) < PROBES:
        probe_one()
    result["load_after"] = load_average("after the set")
    result["attempted"] = len(result["probes"]) + len(result["runs"])
    result["failed"] = sum(not r["ok"] for r in result["probes"] + result["runs"])
    result["metrics"] = summarize(result, spec)
    return result


def summarize(result: dict, spec: dict) -> dict:
    """Median of each metric the mode reports, with quartiles and sample count."""
    ok_runs = [r for r in result["runs"] if r["ok"]]
    samples: dict[str, list[float]] = {}
    if result["trace"]:
        plain = [r["wall_s"] for r in ok_runs if r["mode"] == "run"]
        traced = [r for r in ok_runs if r["mode"] == "trace"]
        if not plain or not traced:
            raise BenchError("no untraced and traced pair of runs passed")
        for name in traced[0]["layers"]:
            samples[name] = [r["layers"][name] for r in traced]
        samples["trace.overhead"] = [
            statistics.median(r["wall_s"] for r in traced) / statistics.median(plain)]
        wanted = spec["per_layer"]
    else:
        setups = [p["setup_s"] for p in result["probes"] if p["ok"]]
        if not ok_runs or not setups:
            raise BenchError("no run or no set-up probe passed")
        samples["wall_s"] = [r["wall_s"] for r in ok_runs]
        samples["setup_s"] = setups
        samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in ok_runs]
        wanted = spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        values = samples[metric["name"]]
        q1, med, q3 = quartiles(values)
        metrics[metric["name"]] = {"value": med, "unit": metric["unit"], "q1": q1,
                                   "q3": q3, "n": len(values)}
    return metrics


def print_result(result: dict) -> None:
    w = result["workload"]
    host = result["host"]
    print(f"host nproc={host['nproc']} python={host['python']} numpy={host['numpy']} "
          f"platform={host['platform']} load_before={result['load_before'][0]:.2f} "
          f"load_after={result['load_after'][0]:.2f}")
    for name, m in result["metrics"].items():
        print(f"{w} seed={result['seed']} {name} median={m['value']:.6g} {m['unit']} "
              f"q1={m['q1']:.6g} q3={m['q3']:.6g} n={m['n']}")
    rate = result["failed"] / result["attempted"]
    print(f"{w} seed={result['seed']} fail_rate={rate:.4f} ratio "
          f"({result['failed']} of {result['attempted']} repetitions failed)")


def save_result(result: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / (f"result-{result['workload']}-s{result['seed']}"
                      f"-t{result['trace']}-{time.time_ns()}.json")
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return path


def preflight(workloads: list[str]) -> None:
    """Refuse to run outside a full checkout of the repository."""
    needed = [ROOT / "src" / "dvesim" / "__init__.py"]
    needed += [ROOT / "configs" / checks.WORKLOADS[w][0] for w in workloads]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchError(f"not a dvesim checkout, missing: {', '.join(missing)}")


# ----------------------------------------------------------------------
# compare mode
# ----------------------------------------------------------------------

def load_results(path: Path) -> list[dict]:
    files = sorted(path.glob("result-*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def compare(base_path: Path, new_path: Path, spec: dict) -> list[str]:
    """One line per workload and end-to-end metric, ending in a verdict."""
    def by_workload(results):
        grouped: dict[str, dict[str, list[float]]] = {}
        for r in results:
            if r["trace"]:
                continue
            for name, m in r["metrics"].items():
                grouped.setdefault(r["workload"], {}).setdefault(name, []).append(m["value"])
        return grouped

    base = by_workload(load_results(base_path))
    new = by_workload(load_results(new_path))
    lines = []
    for workload in sorted(set(base) & set(new)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, n = base[workload].get(name), new[workload].get(name)
            if not b or not n:
                continue
            bq, nq = quartiles(b), quartiles(n)
            lines.append(
                f"{workload:<11} {name:<12} base {bq[1]:.4g} [{bq[0]:.4g}, {bq[2]:.4g}] "
                f"n={len(b)}  new {nq[1]:.4g} [{nq[0]:.4g}, {nq[2]:.4g}] n={len(n)} "
                f"{metric['unit']}  change {(nq[1] - bq[1]) / bq[1]:+.1%} "
                f"bound {metric['bound']:.0%}  "
                f"{verdict(b, n, metric['bound'], metric['better'])}")
    return lines


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------

def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(checks.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=checks.GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)

    if args.compare:
        for line in compare(*args.compare, spec):
            print(line)
        return 0
    if args.workload is None:
        parser.error("--workload or --compare is required")

    workloads = list(checks.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        preflight(workloads)
        results = [measure(w, args.seed, args.seconds, bool(args.trace), spec)
                   for w in workloads]
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    metrics = {}
    for result in results:
        print_result(result)
        print(f"result: {save_result(result).relative_to(ROOT)}")
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        metrics.update({prefix + name: {"value": m["value"], "unit": m["unit"]}
                        for name, m in result["metrics"].items()})
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

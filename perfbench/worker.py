"""One benchmark repetition in a fresh process; prints one JSON line.

    python3 perfbench/worker.py probe|run|trace <workload> <seed>

``probe`` stops at the run's first ``Engine.run_until`` call and reports
the monotonic clock there, so the parent can time set-up from before it
started this process.  ``run`` times config load through ``run_galton``
and ``export`` with nothing installed, then checks the exported files.
``trace`` does the same under the span tracer and adds per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(ROOT / "src"))

import dvesim  # noqa: E402  (after the path insert: set-up time includes it)
from dvesim.engine import Engine  # noqa: E402
from dvesim.harness import galton, report  # noqa: E402

import checks  # noqa: E402


class _SetupDone(Exception):
    pass


def load_config(workload: str, seed: int) -> galton.GaltonExperimentConfig:
    config_file, _ = checks.WORKLOADS[workload]
    config = galton.GaltonExperimentConfig.from_file(ROOT / "configs" / config_file)
    return replace(config, seed=seed)


def probe(workload: str, seed: int) -> dict:
    original = Engine.run_until

    def first_run_until(self, t_end_us):
        Engine.run_until = original
        raise _SetupDone(time.monotonic())

    Engine.run_until = first_run_until
    try:
        galton.run_galton(load_config(workload, seed))
    except _SetupDone as done:
        return {"setup_end": done.args[0]}
    raise RuntimeError("run_galton returned without calling Engine.run_until")


def run(workload: str, seed: int, traced: bool) -> dict:
    tracer = counts = None
    if traced:
        import tracer as tracing
        tracer = tracing.Tracer()
        counts = tracing.install_layers(tracer)
    OUT_DIR.mkdir(exist_ok=True)
    _, drains = checks.WORKLOADS[workload]
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as out:
        start = time.perf_counter()
        result = galton.run_galton(load_config(workload, seed))
        report.export(result, out)
        wall_s = time.perf_counter() - start
        record = {"wall_s": wall_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        digest = checks.export_digest(out)
        problems = checks.check_golden(workload, seed, digest)
        problems += checks.check_invariants(out, drains)
        if traced:
            tracer.uninstall()
            layers = tracing.layer_metrics(tracer, counts)
            problems += checks.check_traced_counts(layers, out)
            tracer.write_spans(OUT_DIR / f"spans-{workload}-s{seed}.csv")
            record.update(layers=layers, spans_kept=len(tracer.spans),
                          spans_dropped=tracer.dropped)
    record.update(digest=digest, problems=problems)
    return record


def main(argv: list[str]) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if Path(dvesim.__file__).resolve().parent != ROOT / "src" / "dvesim":
        raise ImportError(f"dvesim imported from {dvesim.__file__}, not {ROOT / 'src'}")
    if mode == "probe":
        record = probe(workload, seed)
    else:
        record = run(workload, seed, traced=(mode == "trace"))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Workloads, golden output pins and the checks every benchmark run passes.

A run's output is the four exported files (metrics, queues, histogram,
report).  At the pinned seed the sha256 of their concatenation must equal
the golden digest; at any seed the seed-independent invariants below must
hold.  Each check returns a list of problems; an empty list means the run
is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

#: name -> (config file under configs/, whether the run must drain before its cap)
WORKLOADS: dict[str, tuple[str, bool]] = {
    "steady_a": ("galton_baseline.json", True),
    "migrate_b": ("galton_partitioned.json", True),
    "overload_a": ("galton_overload_a.json", False),
    "masked_b": ("galton_masked_b.json", False),
}

GOLDEN_SEED = 42

#: sha256 of metrics.csv + queues.csv + histogram.csv + report.json at seed 42
GOLDEN: dict[str, str] = {
    "steady_a": "3b570f45666fe403b9e80718958aa2eb9c4c0f1e83c68609bbe21591f8547834",
    "migrate_b": "951bb572ec06c800eb6ea5d3af147737c8ba91261dee2d16f3042a0fc7226e38",
    "overload_a": "4d73078fb2716bd80e4d026647bbffb500489a769f4d85e519897a78ab2b7214",
    "masked_b": "2287c3c76a75ef1acb073d7416d89b187672a781901744569bbfbe6c21132848",
}

EXPORT_ORDER = ("metrics.csv", "queues.csv", "histogram.csv", "report.json")


def export_digest(directory) -> str:
    """sha256 of the four exported files, concatenated in EXPORT_ORDER."""
    h = hashlib.sha256()
    for name in EXPORT_ORDER:
        h.update((Path(directory) / name).read_bytes())
    return h.hexdigest()


def check_golden(workload: str, seed: int, digest: str) -> list[str]:
    if seed != GOLDEN_SEED:
        return []
    want = GOLDEN[workload]
    if digest != want:
        return [f"export digest {digest[:16]} != golden {want[:16]} at seed {seed}"]
    return []


def _final_rows(rows: list[dict], time_key: str = "sim_time_s") -> list[dict]:
    last = max(float(r[time_key]) for r in rows)
    return [r for r in rows if float(r[time_key]) == last]


def check_invariants(directory, drains: bool) -> list[str]:
    """Seed-independent checks on one run's exported files."""
    directory = Path(directory)
    report = json.loads((directory / "report.json").read_text())
    with open(directory / "histogram.csv", newline="") as f:
        hist_total = sum(int(r["observed"]) for r in csv.DictReader(f))
    with open(directory / "metrics.csv", newline="") as f:
        metric_rows = list(csv.DictReader(f))
    with open(directory / "queues.csv", newline="") as f:
        queue_rows = list(csv.DictReader(f))

    problems = []
    created = report["created_total"]
    collected = report["collected_total"]
    discarded = report["discarded"]
    if not report["audit_ok"]:
        problems.append("run audit failed")
    if hist_total != collected or sum(report["histogram"]) != collected:
        problems.append(f"histogram total {hist_total} != collected {collected}")

    falling = sum(int(r["balls_in_scene"]) for r in _final_rows(metric_rows)
                  if r["node_id"].startswith("physics"))
    in_flight = created - collected - discarded - falling
    depth = {r["link_id"]: int(r["depth"]) for r in _final_rows(queue_rows)}
    # Each ball in flight is exactly one queued create or migrate message.
    # In topology A the create path carries nothing else; in topology B the
    # physics links also carry deletes and acks, which only bound it above.
    creates_only = depth.get("script->dispatcher", 0)
    if report["config"]["topology"] == "A":
        creates_only += sum(d for link, d in depth.items()
                            if link.startswith("dispatcher->physics"))
        upper = creates_only
    else:
        upper = sum(depth.values()) - depth.get("dispatcher->script", 0)
    if not creates_only <= in_flight <= upper:
        problems.append(
            f"conservation: created {created} != collected {collected} + "
            f"discarded {discarded} + falling {falling} + in-flight {in_flight}, "
            f"queued ball messages between {creates_only} and {upper}")

    if drains:
        geo = report["config"]["geometry"]
        total = (geo["boxes"] * geo["rows_per_box"] * geo["droppers_per_row"]
                 * geo["balls_per_dropper"])
        if report["hit_cap"] or report["end_time_s"] >= report["config"]["duration_cap_s"]:
            problems.append(f"did not drain before the cap (end {report['end_time_s']} s)")
        if created != total or collected + discarded != created or in_flight or falling:
            problems.append(f"drain incomplete: created {created} of {total}, "
                            f"collected {collected} + discarded {discarded}")
    return problems


def check_traced_counts(layers: dict, directory) -> list[str]:
    """Counts seen at the traced boundaries must equal the report's totals."""
    report = json.loads((Path(directory) / "report.json").read_text())
    sent = sum(t["sent_count"] for t in report["link_totals"].values())
    pairs = [
        ("netsim.msgs", layers["netsim.msgs"], "link_totals sent", sent),
        ("partition.migrations", layers["partition.migrations"],
         "migrations_total", report["migrations_total"]),
        ("script.creates", layers["script.creates"],
         "created_total", report["created_total"]),
    ]
    return [f"{name} {got} != report {what} {want}"
            for name, got, what, want in pairs if got != want]

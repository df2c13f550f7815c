"""Every metric the benchmark reports, and what each per-layer metric should move.

This is the source of ``BENCHMARK.json`` (``python3 perfbench/catalog.py
--write`` regenerates it at the repository root) and of the per-layer ->
end-to-end map in ``perfbench/README.md``.  ``run.py`` refuses a workload
result that names a metric not listed here, and reports ``0`` for a
per-layer metric the workload does not exercise (that layer did no work).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

WORKLOADS = [
    ("paper-batch",
     "regenerate the 16 paper figures from a fresh world in one process: "
     "worldgen, collection, .npz save, frames and figures, as repro-experiments users do"),
    ("serve-burst",
     "bursty Zipf reads over a real socket to a freshly spawned server, open loop "
     "and in released batches: serving routes, cache tiers, views and the tweet index"),
    ("daily-advance",
     "35 one-day clock advances with hot swap, series analyses and a read slice: "
     "delta crawl, frames rebase and cache eviction"),
]

#: name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("p99_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

PB, SB, DA = "paper-batch", "serve-burst", "daily-advance"
_ENDPOINTS = ("search", "timeline", "instances", "instance", "trends")
_PRODUCTS = ("tweet_table", "status_table", "tweet_tokens", "status_tokens",
             "tweet_embeddings", "status_embeddings", "tweet_toxicity",
             "status_toxicity", "profile_table", "edge_table")
_SOCKET = f"{SB} wall_s, p50_ms and p99_ms"


def _per_layer() -> list[tuple[str, str, str, str]]:
    """name, unit, better, the end-to-end metric it should move (and where)."""
    rows = [
        ("simulation.build_world_s", "s", "lower",
         f"{PB} wall_s and {DA} setup_s; no {SB} metric"),
    ]
    for product in _PRODUCTS:
        rows.append((f"frames.{product}_s", "s", "lower",
                     f"{PB} wall_s; barely {DA} p50_ms (the series never build embeddings)"))
    for k in range(1, 17):
        rows.append((f"experiments.F{k}_s", "s", "lower", f"{PB} wall_s"))
    rows += [
        ("collection.collect_dataset_s", "s", "lower", f"{PB} wall_s (under 5%), {DA} setup_s"),
        ("collection.tweets", "count", "higher", f"{PB} wall_s (input size)"),
        ("collection.matched_users", "count", "higher", f"{PB} wall_s (input size)"),
        ("collection.binfmt.save_s", "s", "lower", f"{PB} wall_s"),
        ("collection.binfmt.npz_bytes", "B", "lower", f"{PB} wall_s"),
        ("collection.binfmt.load_s", "s", "lower", f"{SB} setup_s"),
        ("incremental.advance_s", "s", "lower", f"{DA} p50_ms and wall_s"),
        ("incremental.advance_s.corpus_open", "s", "lower", f"{DA} p50_ms and wall_s"),
        ("incremental.advance_s.corpus_closed", "s", "lower", f"{DA} p50_ms and wall_s"),
        ("serving.warm_s", "s", "lower", f"{SB} setup_s, {DA} setup_s"),
    ]
    for endpoint in _ENDPOINTS:
        rows += [
            (f"serving.{endpoint}.p50_ms", "ms", "lower", _SOCKET),
            (f"serving.{endpoint}.p99_ms", "ms", "lower", _SOCKET),
            (f"serving.{endpoint}.service_p50_ms", "ms", "lower",
             f"{SB} p50_ms; {DA} p50_ms (read slice)"),
            (f"serving.{endpoint}.service_p99_ms", "ms", "lower",
             f"{SB} p99_ms; {DA} p50_ms (read slice)"),
        ]
    rows += [
        ("serving.open_loop.p50_ms", "ms", "lower", _SOCKET),
        ("serving.open_loop.p99_ms", "ms", "lower", _SOCKET),
        ("serving.sustained_rps", "1/s", "higher", _SOCKET),
        ("serving.server.overhead_p50_ms", "ms", "lower", _SOCKET),
        ("serving.server.stall_max_ms", "ms", "lower", _SOCKET),
        ("serving.cache.result_hit_rate", "ratio", "higher", f"{SB} p50_ms"),
        ("serving.cache.payload_hit_rate", "ratio", "higher", f"{SB} p50_ms"),
        ("serving.cache.payload_evictions", "count", "lower", f"{SB} p50_ms"),
        ("twitter.index.plan_hit_rate", "ratio", "higher", f"{SB} p50_ms"),
        ("serving.swap_s", "s", "lower", f"{DA} p50_ms"),
        ("serving.swap.result_evicted", "count", "lower", f"{DA} p50_ms"),
        ("serving.swap.payload_evicted", "count", "lower", f"{DA} p50_ms"),
        ("serving.read_after_swap_p50_ms", "ms", "lower", f"{DA} p50_ms"),
        ("serving.read_after_swap_p99_ms", "ms", "lower", f"{DA} p50_ms"),
        ("analysis.series_s", "s", "lower", f"{DA} p50_ms"),
        ("frames.result_hit_rate", "ratio", "higher", f"{DA} p50_ms"),
        ("loadgen.late_p99_ms", "ms", "lower",
         f"none: client health; a late generator invalidates {SB}"),
        ("loadgen.backlog_max", "count", "lower", f"{SB} p99_ms"),
        ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall time"),
    ]
    for layer in ("simulation", "collection", "frames", "experiments",
                  "incremental", "serving", "analysis"):
        rows.append((f"{layer}.self_s", "s", "lower", "wall_s of every workload it runs in"))
        rows.append((f"{layer}.rss_delta_mb", "MB", "lower", "peak_rss_mb of every workload"))
    rows.append(("unattributed.self_s", "s", "lower",
                 "none: benchmark-side time between layer calls"))
    return rows


PER_LAYER = _per_layer()
E2E_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
LAYER_UNITS = {name: unit for name, unit, _, _ in PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


if __name__ == "__main__":
    text = json.dumps(benchmark_json(), indent=2) + "\n"
    if sys.argv[1:] == ["--write"]:
        Path("BENCHMARK.json").write_text(text)
    else:
        sys.stdout.write(text)

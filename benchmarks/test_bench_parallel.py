"""Benchmark of the sharded collection engine's crawl parallelism.

The crawl the paper ran was dominated by *waits* — rate-limit windows and
instance outages — not CPU, so the meaningful speedup of parallel crawling
is measured on the **virtual crawl clock**: each shard accumulates the
virtual seconds a real crawler would have spent on it, and the round-robin
makespan model gives the elapsed virtual time at any worker count (shard
``i`` on worker ``i % N``; the stage takes as long as its slowest worker).
That quantity is deterministic, hardware-independent, and what ``N``
parallel crawlers would buy a real crawl.

One instrumented collection records every stage's per-shard virtual
seconds; the 4-worker makespan is
:func:`~repro.parallel.sharding.round_robin_makespan` over them, summed
over the stages.  The collection's real wall time is recorded alongside in
``BENCH_pipeline.json``; the speedup gate is on the virtual makespan.
"""

from __future__ import annotations

import time

from conftest import BENCH_SCALE, BENCH_SEED, record_parallel

from repro import obs
from repro.collection.pipeline import collect_dataset
from repro.parallel import round_robin_makespan
from repro.simulation.config import SimConfig
from repro.simulation.world import build_world

WORKERS = 4
#: Crawl-stage virtual speedup the shard layout must allow at 4 workers.
MIN_SPEEDUP = 1.8


def test_bench_parallel_crawl(bench_dataset):
    world = build_world(SimConfig(seed=BENCH_SEED, scale=BENCH_SCALE))
    registry = obs.MetricsRegistry()
    started = time.perf_counter()
    with obs.use(registry):
        collect_dataset(world)
    wall = time.perf_counter() - started
    report = registry.tracer.find("collect_dataset").meta["parallel"]

    total = report["virtual_total"]
    makespan = sum(
        round_robin_makespan(stage["shard_virtual"], WORKERS)
        for stage in report["stages"].values()
    )
    assert 0 < makespan < total
    speedup = total / makespan

    record_parallel(
        {
            "scale": BENCH_SCALE,
            "seed": BENCH_SEED,
            "workers": WORKERS,
            "shards": report["shards"],
            "stages": report["stages"],
            "virtual_total_seconds": total,
            "virtual_makespan_seconds": makespan,
            "virtual_speedup": round(speedup, 3),
            "wall_seconds": {"workers_1": round(wall, 3)},
        }
    )

    assert speedup >= MIN_SPEEDUP, (
        f"virtual crawl speedup {speedup:.2f}x at {WORKERS} workers "
        f"(total {total:.0f}s vs makespan {makespan:.0f}s) is below the "
        f"{MIN_SPEEDUP}x gate"
    )

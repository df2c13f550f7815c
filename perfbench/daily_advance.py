"""Workload ``daily-advance``: move the observer clock one day at a time.

Each pass is one child process.  Set-up builds the world (always
``common.FIXED_WORLD_SEED``; the workload seed draws the reads), makes a
clocked collection at 2022-10-26 (``collect_with_cursor``) and warms a
``ServingApp`` on it.  The timed part is a walk of 35 one-day steps to
2022-11-30; each step calls ``advance``, then ``ServingApp.swap_dataset``
(which rebases the frames), then ``run_series_analyses``, then a fixed
slice of in-process reads drawn by :mod:`reqgen` from the workload seed.
The §3.1 corpus window closes on 2022-11-21, so 26 steps carry corpus
deltas and 9 do not.  Walks repeat, each from a fresh collection at
10-26 and a fresh warm app over the same world, until ``--seconds`` is
spent, so the figures sample the host over the whole run.

The child runs pinned to one CPU and times each step, the world build
and each fresh collection plus warm-up as a :mod:`hostspeed` segment; the
interpreter start is normalized by the kernel timed on the child's CPU
just before the spawn and after the imports, so every timing is in
normalized seconds.

After the walks the child checks each against a from-scratch
``collect_with_cursor`` at 2022-11-30: the same ``dataset_sha256``, the
same series analyses, and the last day's reads byte-equal to an uncached
``ServingApp`` over the rebuilt snapshot.
"""

from __future__ import annotations

import argparse
import datetime as dt
import gc
import resource
import time

import numpy as np

import common
import hostspeed
from common import median, metric, quantile
from tracer import Tracer, span_seconds

import reqgen

START = dt.date(2022, 10, 26)
DAYS = 35
READS_PER_DAY = 30
ROOTS = frozenset({"daily-advance", "daily-advance.day"})


def child(seed: int, seconds: int, out: str, traced: bool, run_id: str) -> None:
    from dataclasses import replace

    from repro import SimConfig, build_world
    from repro.collection.pipeline import CollectionConfig
    from repro.incremental import advance, collect_with_cursor, run_series_analyses
    from repro.serving.app import ServingApp

    hostspeed.pin_self()
    tracer = Tracer(run_id, traced)
    config = CollectionConfig()

    starts = []  # normalized seconds of each collection at 10-26 plus warm

    def start():
        segments = hostspeed.Segments()
        with tracer.span("collection.collect_dataset"):
            dataset, cursor = collect_with_cursor(world, replace(config, clock=START))
        app = ServingApp(dataset)
        with tracer.span("serving.warm"):
            app.warm()
        starts.append(segments.mark())
        return dataset, cursor, app

    imported = time.perf_counter()
    with tracer.span("daily-advance"):
        segments = hostspeed.Segments()
        first_kernel_s = segments.first_kernel_s
        with tracer.span("simulation.build_world"):
            world = build_world(SimConfig(seed=common.FIXED_WORLD_SEED,
                                          scale=common.SCALE))
        build_s = segments.mark()
        dataset, cursor, app = start()
    ready = time.perf_counter()
    maker = reqgen.RequestMaker(reqgen.Inventory(dataset),
                                np.random.default_rng([seed, 7, 1]))
    reads = [[maker.make() for _ in range(READS_PER_DAY)] for _ in range(DAYS)]

    walks, read_service = [], []
    peak_rss = 0
    while not walks or time.perf_counter() - ready < seconds:
        if walks:
            # drop the last walk's snapshots before the next one is timed
            del dataset, cursor, app, new, delta, swap
            gc.collect()
            dataset, cursor, app = start()
        days, bodies = [], []
        clock = START
        segments = hostspeed.Segments()
        for day in range(DAYS):
            clock += dt.timedelta(days=1)
            with tracer.span("daily-advance.day", clock=clock.isoformat()):
                with tracer.span("incremental.advance"):
                    new, cursor, delta = advance(world, dataset, cursor, clock, config)
                with tracer.span("serving.swap"):
                    swap = app.swap_dataset(new, delta)
                dataset = new
                with tracer.span("analysis.series"):
                    series = run_series_analyses(dataset)
                statuses, bodies = [], []
                for endpoint, target in reads[day]:
                    t0 = time.perf_counter()
                    with tracer.span(f"serving.{endpoint}"):
                        status, body = app.get(target)
                    read_service.append((endpoint, time.perf_counter() - t0))
                    statuses.append(status)
                    bodies.append(body)
            segments.mark()
            days.append({"clock": clock.isoformat(),
                         "seconds": segments.normalized[-1],
                         "wall_s": segments.wall[-1],
                         "ok": all(s == 200 for s in statuses),
                         "result_evicted": swap["result_evicted"],
                         "payload_evicted": swap["payload_evicted"]})
        # the peak of the first walk, so the figure does not grow with the walk count
        peak_rss = peak_rss or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        walks.append({"days": days, "sha256": common.sha256_hex(dataset.to_json().encode()),
                      "series": series, "bodies": bodies})
    cache_stats = app.cache_stats()

    rebuilt, _ = collect_with_cursor(world, replace(config, clock=clock))
    reference = ServingApp(rebuilt, caches=False)
    expected = {
        "dataset_sha256": common.sha256_hex(rebuilt.to_json().encode()),
        "series": run_series_analyses(rebuilt),
        "last_reads": [reference.get(t)[1] for _, t in reads[-1]],
    }
    for walk in walks:
        walk["checks"] = {
            "dataset_sha256": walk.pop("sha256") == expected["dataset_sha256"],
            "series": walk.pop("series") == expected["series"],
            "last_reads": walk.pop("bodies") == expected["last_reads"],
        }
    common.write_child_result(out, {
        "imported": imported,
        "build_s": build_s,
        "first_kernel_s": first_kernel_s,
        "starts": starts,
        "walks": walks,
        "peak_rss": peak_rss,
        "tweet_window_end": config.tweet_window_end.isoformat(),
        "cache_stats": cache_stats,
        "tweets": len(dataset.collected_tweets),
        "matched": len(dataset.matched),
        "read_service": read_service,
        "inputs_sha256": reqgen.inputs_sha256(
            [reqgen.Request(0.0, e, t) for day in reads for e, t in day]),
        "spans": tracer.export(),
    })


def _failures(walk: dict) -> tuple[int, list[str]]:
    """Failed days of one walk: all of them when its final snapshot is wrong."""
    wrong = [name for name, ok in walk["checks"].items() if not ok]
    if wrong:
        return DAYS, ["final snapshot check failed: " + ", ".join(wrong)]
    bad = [d["clock"] for d in walk["days"] if not d["ok"]]
    return len(bad), ([f"non-200 reads on {', '.join(bad)}"] if bad else [])


def run(seed: int, seconds: int, trace: bool) -> tuple:
    untraced, traced = [], []
    attempted = failed = 0
    report = [f"world_seed {common.FIXED_WORLD_SEED}"]
    began = time.perf_counter()
    while True:
        as_traced = trace and len(untraced) > len(traced)
        index = len(untraced) + len(traced)
        run_id = f"daily-advance-seed{seed}-pass{index}"
        args = ["--seed", str(seed), "--seconds", str(seconds), "--run-id", run_id]
        if as_traced:
            args.append("--traced")
        result = common.run_child("daily_advance.py", args, run_id)
        (traced if as_traced else untraced).append(result)
        for walk in result["walks"]:
            bad, notes = _failures(walk)
            attempted += DAYS
            failed += bad
            report.extend(f"pass {index + 1}: {n}" for n in notes)
        if time.perf_counter() - began >= seconds and (not trace or traced):
            break
    report.append(f"inputs_sha256 {untraced[0]['inputs_sha256']}")
    walls = _walls(untraced + traced, "wall_s")
    report.append(f"walks {len(walls)}, wall-clock walk median {median(walls):.3f} s "
                  f"(normalized {median(_walls(untraced + traced)):.3f} s)")
    if trace:
        metrics = _layer_metrics(untraced, traced)
        spans = [s for r in traced for s in r["spans"]]
        report.append(f"trace {common.save_trace('daily-advance', seed, spans)}")
    else:
        metrics = _end_to_end(untraced)
    return failed == 0, attempted, failed, metrics, report


def _walls(passes: list[dict], key: str = "seconds") -> list[float]:
    """Per walk, the sum of its days (normalized seconds, or ``"wall_s"``)."""
    return [sum(d[key] for d in w["days"]) for r in passes for w in r["walks"]]


def _days(passes: list[dict]) -> list[dict]:
    return [d for r in passes for w in r["walks"] for d in w["days"]]


def _day_medians(passes: list[dict]) -> list[float]:
    """For each of the 35 steps, its median over every walk."""
    walks = [w for r in passes for w in r["walks"]]
    return [median([w["days"][k]["seconds"] for w in walks]) for k in range(DAYS)]


def _setup_s(r: dict) -> float:
    """Interpreter and imports, the world build, and the median fresh start."""
    start_s = (r["imported"] - r["spawned"]) * hostspeed.factor(
        r["spawn_kernel_s"], r["first_kernel_s"])
    return start_s + r["build_s"] + median(r["starts"])


def _end_to_end(passes: list[dict]) -> dict:
    steps = _day_medians(passes)
    wall = median(_walls(passes))
    return {
        "setup_s": metric(median([_setup_s(r) for r in passes]), "s"),
        "wall_s": metric(wall, "s"),
        "p50_ms": metric(quantile(steps, 0.5) * 1e3, "ms"),
        "p99_ms": metric(quantile(steps, 0.99) * 1e3, "ms"),
        "peak_rss_mb": metric(median([r["peak_rss"] for r in passes]) / 2**20, "MB"),
    }


def _layer_metrics(untraced: list[dict], traced: list[dict]) -> dict:
    spans = [s for r in traced for s in r["spans"]]
    seconds = span_seconds(spans)
    closes = traced[0]["tweet_window_end"]
    advance = seconds["incremental.advance"]
    days = _days(traced)
    clocks = [d["clock"] for d in days]
    open_days = [s for s, c in zip(advance, clocks) if c <= closes]
    closed_days = [s for s, c in zip(advance, clocks) if c > closes]
    reads = [s for r in traced for _, s in r["read_service"]]
    caches = traced[0]["cache_stats"]
    index = caches.get("index", {})
    lookups = index.get("plan_hits", 0) + index.get("plan_misses", 0)
    walks = len(_walls(traced))
    out = {
        "simulation.build_world_s": metric(median(seconds["simulation.build_world"]), "s"),
        "collection.collect_dataset_s": metric(
            median(seconds["collection.collect_dataset"]), "s"),
        "collection.tweets": metric(traced[0]["tweets"], "count"),
        "collection.matched_users": metric(traced[0]["matched"], "count"),
        "serving.warm_s": metric(median(seconds["serving.warm"]), "s"),
        "incremental.advance_s": metric(median(advance), "s"),
        "incremental.advance_s.corpus_open": metric(median(open_days), "s"),
        "incremental.advance_s.corpus_closed": metric(median(closed_days), "s"),
        "serving.swap_s": metric(median(seconds["serving.swap"]), "s"),
        "serving.swap.result_evicted": metric(
            sum(d["result_evicted"] for d in days) / walks, "count"),
        "serving.swap.payload_evicted": metric(
            sum(d["payload_evicted"] for d in days) / walks, "count"),
        "serving.read_after_swap_p50_ms": metric(
            quantile(reads, 0.5) * 1e3, "ms"),
        "serving.read_after_swap_p99_ms": metric(
            quantile(reads, 0.99) * 1e3, "ms"),
        "analysis.series_s": metric(median(seconds["analysis.series"]), "s"),
        "frames.result_hit_rate": metric(caches["frames_results"]["hit_rate"], "ratio"),
        "serving.cache.result_hit_rate": metric(caches["result"]["hit_rate"], "ratio"),
        "serving.cache.payload_hit_rate": metric(caches["payload"]["hit_rate"], "ratio"),
        "serving.cache.payload_evictions": metric(caches["payload"]["evictions"], "count"),
        "twitter.index.plan_hit_rate": metric(
            index.get("plan_hits", 0) / lookups if lookups else 0.0, "ratio"),
        "trace.overhead_s": metric(median(_walls(traced)) - median(_walls(untraced)), "s"),
    }
    for endpoint in reqgen.ENDPOINTS:
        service = [s for r in traced for e, s in r["read_service"] if e == endpoint]
        if service:
            out[f"serving.{endpoint}.service_p50_ms"] = metric(
                quantile(service, 0.5) * 1e3, "ms")
            out[f"serving.{endpoint}.service_p99_ms"] = metric(
                quantile(service, 0.99) * 1e3, "ms")
    out.update(common.layer_metrics(spans, ROOTS))
    for name in [k for k in out if k.endswith((".self_s", ".rss_delta_mb"))]:
        out[name] = metric(out[name]["value"] / len(traced), out[name]["unit"])
    return out


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--child", action="store_true")
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    child(args.seed, args.seconds, args.out, args.traced, args.run_id)

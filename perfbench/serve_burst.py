"""Workload ``serve-burst``: query a freshly spawned server over a real socket.

The served dataset is one fixed world (``common.FIXED_WORLD_SEED``) at
scale 0.01, built once per checkout into ``.perfbench/`` by a child
process and not timed; the workload seed drives the request stream, so
runs differ in their load, not in the corpus.  Each phase spawns a fresh
``python -m repro.serving serve DATASET`` process and drives it from this
process with the client in :mod:`httpclient` over at most two keep-alive
connections:

1. **base** — open loop at a 250 req/s base rate with the event bursts
   (up to 6x), four cycles of the event window in ``0.2 * seconds``; the
   first cycle warms the caches.  Latency is timed from when each request
   was due.  A seeded body sample is checked byte-for-byte against an
   in-process ``ServingApp(dataset, caches=False)`` and ``/metrics`` is
   scraped afterwards.  Its percentiles are per-layer figures
   (``serving.open_loop.*``): on a shared two-core host they swing with
   the host's wake-up latency far beyond any usable bound;
2. **burst** (untraced run) — three untimed bursts of 2000 requests to
   warm the caches, then 24 timed bursts of 2000, a quarter of a second
   apart.  A burst releases all its requests at once and pipelines them
   (HTTP/1.1) up to 16 deep on each of the two connections, so the server
   always has the next request buffered; with one request in flight per
   connection the drain time depended on how fast client and server woke
   each other on the shared host (the same seed drained in 0.35 to
   0.44 s over four runs).  The :mod:`hostspeed` kernel is timed on the
   server's CPU before the first timed burst and after each, and the
   phase is normalized by the median of those calibrations (per-burst
   pairs, or the client's CPU mixed in, added noise without tracking the
   drains better).  ``wall_s`` is the median normalized time to drain one
   burst, ``p50_ms``/``p99_ms`` the medians over bursts of the normalized
   per-request latency percentiles, each request timed from its burst's
   release (when it was due), so queueing counts;
3. **ladder** (traced run) — open loop at rising base rates on one
   server, after an untimed warm-up cycle at the base rate so the first
   rung does not pay for cold caches; ``0.15 * seconds`` per rung (one
   event cycle), until two rungs in a row miss p99 <= 100 ms or end with
   a growing backlog.  ``serving.sustained_rps`` is the base rate where
   p99 reaches 100 ms above the highest passing rung, log-interpolated
   between it and the next rung (a backlog-only failure counts as p99 at
   twice the limit).  It is a per-layer figure: near the server's
   capacity one rung's p99 swings with the host (15 to 134 ms at
   1200 req/s over four runs), and the figure spread from 970 to
   1420 req/s, too wide for a 25% bound.

``setup_s`` is the median over four spawns (the two above and two
that only start) of spawn -> first ``/healthz`` 200 (eager ``.npz`` load
plus ``warm()``), each normalized by the kernel timed on the server's
CPU before the spawn and once it is ready; ``peak_rss_mb`` the median
``VmHWM`` of the two servers that took load.  The client runs with its
garbage collector off during each phase, and client and server are
pinned to different CPUs (given two) from the start.  The traced run
also replays the base trace in-process, timing ``ServingApp.get`` per
request (service time) with and without spans.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import re
import select
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import common
import hostspeed
from common import BenchError, median, metric, quantile
from tracer import Tracer, span_seconds, vm_hwm_bytes, vm_rss_bytes

import httpclient
import reqgen

BASE_RPS = 250.0
#: Event-window cycles in the base phase; the first warms the caches.
BASE_CYCLES = 4
LADDER_RPS = (450.0, 550.0, 650.0, 750.0, 850.0, 1000.0, 1200.0, 1500.0)
P99_LIMIT_MS = 100.0
BURST_REQUESTS = 2000
#: Untimed bursts first: the result cache keeps filling for a while.
WARM_BURSTS = 3
BURSTS = 24
BURST_GAP_S = 0.25
#: Requests a burst keeps in flight on each connection (HTTP/1.1 pipelining).
PIPELINE_DEPTH = 16
#: A generator later than this at p99 means the client, not the server, lagged.
LATE_LIMIT_MS = 20.0
#: At most one connection per CPU this process may run on (``nproc``).
CONNECTIONS = min(2, len(os.sched_getaffinity(0)))
#: Client and server each keep to one CPU, so they never queue behind each
#: other (the same one when there is only one).
CLIENT_CPU, SERVER_CPU = min(os.sched_getaffinity(0)), max(os.sched_getaffinity(0))
SAMPLE = 200
SPAWN_TIMEOUT_S = 60.0
#: Extra spawns that only time set-up, so ``setup_s`` is a median of four.
SETUP_SPAWNS = 2
#: Outer spans of this workload's traced run: their self time is unattributed.
ROOTS = frozenset({"serve-burst", "serve-burst.replay"})


def dataset_path(wseed: int) -> Path:
    return common.OUT / f"dataset-w{wseed}-s{common.SCALE}.npz"


def ensure_dataset(wseed: int) -> str:
    path = dataset_path(wseed)
    if not path.is_file():
        common.run_child("serve_burst.py", ["--build", str(wseed)], f"build-w{wseed}")
    return str(path)


class Server:
    """One ``repro.serving serve`` child on an ephemeral port."""

    def __init__(self, npz: str, tag: str) -> None:
        self.log_path = common.OUT / f"server-{tag}.{os.getpid()}.log"
        self.log = open(self.log_path, "wb")
        before = hostspeed.calibrate_on([SERVER_CPU])[0]
        spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serving", "serve", npz, "--port", "0"],
            cwd=common.ROOT, env=common.child_env(),
            stdout=subprocess.PIPE, stderr=self.log)
        try:
            os.sched_setaffinity(self.proc.pid, {SERVER_CPU})
            self.port = self._await_port(spawned + SPAWN_TIMEOUT_S)
            while httpclient.get(self.port, "/healthz")[0] != 200:
                if time.perf_counter() > spawned + SPAWN_TIMEOUT_S:
                    raise BenchError("server never answered /healthz with 200")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        self.wall_setup_s = time.perf_counter() - spawned
        self.setup_s = self.wall_setup_s * hostspeed.factor(
            before, hostspeed.calibrate_on([SERVER_CPU])[0])
        self.ready_rss = vm_rss_bytes(self.proc.pid)

    def _await_port(self, deadline: float) -> int:
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.perf_counter()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(left, 0))
            if not ready:
                raise BenchError("server did not report its port in time")
            chunk = os.read(self.proc.stdout.fileno(), 4096)
            if not chunk:
                raise BenchError(f"server exited early ({self.proc.wait()})")
            line += chunk
        found = re.search(rb", (\d+)\)", line)
        if not found:
            raise BenchError(f"unexpected server banner {line!r}")
        return int(found.group(1))

    def stop(self) -> int:
        """Terminate and wait; returns the server's peak RSS in bytes."""
        hwm = vm_hwm_bytes(self.proc.pid) if self.proc.poll() is None else 0
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        if self.log_path.stat().st_size == 0:
            self.log_path.unlink()
        return hwm


def _phase(server: Server, trace: list, keep=frozenset()) -> httpclient.PhaseResult:
    return httpclient.run_phase(server.port, [r.due_s for r in trace],
                                [r.target for r in trace], CONNECTIONS, keep)


def _burst(server: Server, batch) -> httpclient.PhaseResult:
    return httpclient.run_pipelined(server.port, [r.target for r in batch],
                                    CONNECTIONS, PIPELINE_DEPTH)


def _backlog_grew(result: httpclient.PhaseResult) -> bool:
    """Still queueing in the closing base-rate stretch (after every burst)?"""
    tail = result.backlog[int(len(result.backlog) * 0.9):]
    return bool(tail) and median(tail) > 2


def _passed(rung: tuple[float, float, bool]) -> bool:
    _, p99, grew = rung
    return p99 <= P99_LIMIT_MS and not grew


def _sustained(ladder: list[tuple[float, float, bool]]) -> float:
    """Highest base rate that meets the limit, log-interpolated towards the next rung.

    ``ladder`` holds ``(rate, p99_ms, backlog_grew)`` for every rung run,
    in rising order.  A rung below the highest passing one may fail: one
    server pause of a few hundred milliseconds fails whichever rung it
    lands in, so the highest passing rung, not the first failing one,
    sets the figure.  Between that rung and the next (failing) one the
    rate is interpolated where p99 reaches the limit; a rung that failed
    on its backlog alone counts as p99 at twice the limit.
    """
    passing = [k for k, rung in enumerate(ladder) if _passed(rung)]
    if passing and passing[-1] == len(ladder) - 1:
        return ladder[-1][0]  # the top rung passed
    nxt = passing[-1] + 1 if passing else 0
    rate, p99, grew = ladder[nxt]
    p1 = max(p99, 2 * P99_LIMIT_MS) if grew and p99 <= P99_LIMIT_MS else p99
    if not passing:
        return rate * P99_LIMIT_MS / p1
    r0, p0, _ = ladder[nxt - 1]
    frac = math.log(P99_LIMIT_MS / p0) / math.log(p1 / p0)
    return r0 + (rate - r0) * max(0.0, min(frac, 1.0))


def _ladder(server: Server, warmup, rungs, report: list[str]) -> tuple:
    """Open loop at rising base rates; returns the rungs run, requests, failures."""
    ladder: list[tuple[float, float, bool]] = []
    attempted = failed = 0
    for rate, schedule in [(None, warmup), *zip(LADDER_RPS, rungs)]:
        r = _phase(server, schedule)
        attempted += len(schedule)
        failed += sum(1 for s in r.status if s != 200)
        if rate is None:
            continue
        p99 = quantile(r.latency_s(), 0.99) * 1e3
        grew = _backlog_grew(r)
        ladder.append((rate, p99, grew))
        report.append(f"ladder {rate:g} req/s: {len(schedule)} requests, p99 {p99:.1f} ms, "
                      f"backlog max {max(r.backlog)}{' (growing)' if grew else ''}")
        if not any(_passed(rung) for rung in ladder[-2:]):
            break  # two failing rungs in a row: past the server's capacity
        time.sleep(0.3)
    return ladder, attempted, failed


def run(seed: int, seconds: int, trace: bool) -> tuple:
    from repro.collection.dataset import MigrationDataset
    from repro.serving.app import ServingApp

    npz = ensure_dataset(common.FIXED_WORLD_SEED)
    tracer = Tracer(f"serve-burst-seed{seed}", trace)
    with tracer.span("serve-burst"):
        with tracer.span("collection.binfmt.load"):
            dataset = MigrationDataset.load(npz)
        inventory = reqgen.Inventory(dataset)
    base_s = 0.2 * seconds
    base = reqgen.open_loop_schedule(inventory, seed, 0, BASE_RPS, base_s, BASE_CYCLES)
    cycle_of = [int(r.due_s * BASE_CYCLES / base_s) for r in base]
    rungs = [reqgen.open_loop_schedule(inventory, seed, k + 1, rate, 0.15 * seconds)
             for k, rate in enumerate(LADDER_RPS)]
    warmup = reqgen.open_loop_schedule(inventory, seed, 50, BASE_RPS, 0.1 * seconds)
    batches = [reqgen.batch(inventory, seed, 100 + k, BURST_REQUESTS)
               for k in range(WARM_BURSTS + BURSTS)]
    warm_batches, bursts = batches[:WARM_BURSTS], batches[WARM_BURSTS:]
    report = [f"inputs_sha256 {reqgen.inputs_sha256(base, warmup, *rungs, *batches)}",
              f"dataset {npz}"]
    sampler = np.random.default_rng([seed, 999])
    sample = sorted(int(i) for i in sampler.choice(
        len(base), min(SAMPLE, len(base)), replace=False))
    reference = ServingApp(dataset, caches=False)
    expected = {i: reference.get(base[i].target)[1] for i in sample}
    replay = _replay_in_process(tracer, dataset, base) if trace else None
    # The client must not pause to collect the dataset it no longer needs.
    del dataset, reference
    gc.collect()
    gc.freeze()
    os.sched_setaffinity(0, {CLIENT_CPU})

    attempted = failed = 0
    setups, wall_setups, hwms = [], [], []

    # 1. base rate
    server = Server(npz, "base")
    try:
        res = _phase(server, base, frozenset(sample))
        scraped = httpclient.get_json(server.port, "/metrics")
        grown_rss = vm_rss_bytes(server.proc.pid) - server.ready_rss
    finally:
        setups.append(server.setup_s)
        wall_setups.append(server.wall_setup_s)
        hwms.append(server.stop())
    bad_status = sum(1 for s in res.status if s != 200)
    bad_body = sum(1 for i in sample if res.status[i] == 200
                   and res.bodies.get(i) != expected[i])
    attempted += len(base)
    failed += bad_status + bad_body
    measured = [v for c, v in zip(cycle_of, res.latency_s()) if c > 0]
    open_loop = (quantile(measured, 0.5) * 1e3, quantile(measured, 0.99) * 1e3)
    report.append(f"base {BASE_RPS:g} req/s: {len(base)} requests, {bad_status} non-200, "
                  f"{bad_body}/{len(sample)} sampled bodies differ; after the warm-up cycle "
                  f"p50 {open_loop[0]:.2f} ms, p99 {open_loop[1]:.1f} ms")
    late_p99 = quantile(res.late_s(), 0.99) * 1e3
    if late_p99 > LATE_LIMIT_MS:
        report.append(f"WARNING: generator p99 lateness {late_p99:.1f} ms > "
                      f"{LATE_LIMIT_MS:g} ms; the client lagged, treat this run as invalid")

    if trace:
        server = Server(npz, "ladder")
        try:
            ladder, n, bad = _ladder(server, warmup, rungs, report)
        finally:
            hwms.append(server.stop())
        attempted += n
        failed += bad
        metrics = _traced_layers(tracer, base, res, replay, scraped, grown_rss)
        metrics["serving.open_loop.p50_ms"] = metric(open_loop[0], "ms")
        metrics["serving.open_loop.p99_ms"] = metric(open_loop[1], "ms")
        metrics["serving.sustained_rps"] = metric(_sustained(ladder), "1/s")
        report.append(f"trace {common.save_trace('serve-burst', seed, tracer.export())}")
        return failed == 0, attempted, failed, metrics, report

    # 2. pipelined bursts, between calibrations of the server's CPU
    server = Server(npz, "burst")
    drains, p50s, p99s, kernels = [], [], [], []
    try:
        for batch in warm_batches:
            r = _burst(server, batch)
            attempted += len(batch)
            failed += sum(1 for s in r.status if s != 200)
        kernels += hostspeed.calibrate_on([SERVER_CPU])
        for batch in bursts:
            time.sleep(BURST_GAP_S)
            r = _burst(server, batch)
            attempted += len(batch)
            failed += sum(1 for s in r.status if s != 200)
            kernels += hostspeed.calibrate_on([SERVER_CPU])
            latency = r.latency_s()
            drains.append(max(r.done) - r.t0)
            p50s.append(quantile(latency, 0.5))
            p99s.append(quantile(latency, 0.99))
    finally:
        setups.append(server.setup_s)
        wall_setups.append(server.wall_setup_s)
        hwms.append(server.stop())
    scale = hostspeed.REFERENCE_S / median(kernels)
    for k in range(SETUP_SPAWNS):
        server = Server(npz, f"setup{k}")
        server.stop()
        setups.append(server.setup_s)
        wall_setups.append(server.wall_setup_s)
    report.append("burst drains " + ", ".join(f"{d:.3f}s" for d in drains)
                  + f"; server CPU kernel median {median(kernels) * 1e3:.2f} ms; "
                  f"wall-clock drain median {median(drains):.3f} s (normalized "
                  f"{median(drains) * scale:.3f} s); wall-clock set-up median "
                  f"{median(wall_setups):.3f} s (normalized {median(setups):.3f} s)")
    metrics = {
        "setup_s": metric(median(setups), "s"),
        "wall_s": metric(median(drains) * scale, "s"),
        "p50_ms": metric(median(p50s) * scale * 1e3, "ms"),
        "p99_ms": metric(median(p99s) * scale * 1e3, "ms"),
        "peak_rss_mb": metric(median(hwms) / 2**20, "MB"),
    }
    return failed == 0, attempted, failed, metrics, report


def _endpoint_quantiles(trace, seconds: list[float], kind: str) -> dict:
    """``serving.<endpoint>.<kind>p50_ms`` and ``...p99_ms`` per endpoint."""
    out = {}
    for endpoint in reqgen.ENDPOINTS:
        sel = [v for r, v in zip(trace, seconds) if r.endpoint == endpoint]
        if sel:
            for q in (50, 99):
                out[f"serving.{endpoint}.{kind}p{q}_ms"] = metric(
                    quantile(sel, q / 100) * 1e3, "ms")
    return out


def _replay_in_process(tracer: Tracer, dataset, base) -> tuple[list[float], float]:
    """Service time of every base request through ``ServingApp.get``.

    Replays twice on fresh warm apps, bare then with one span per request,
    so the difference in wall time is the tracing overhead (returned
    second).
    """
    from repro.serving.app import ServingApp

    walls, service = [], []
    for traced in (False, True):
        app = ServingApp(dataset)
        with tracer.span("serving.warm") if traced else contextlib.nullcontext():
            app.warm()
        service = []
        started = time.perf_counter()
        with tracer.span("serve-burst.replay") if traced else contextlib.nullcontext():
            for k, request in enumerate(base):
                t0 = time.perf_counter()
                if traced:
                    with tracer.span(f"serving.{request.endpoint}", request=k):
                        app.get(request.target)
                else:
                    app.get(request.target)
                service.append(time.perf_counter() - t0)
        walls.append(time.perf_counter() - started)
    return service, walls[1] - walls[0]


def _traced_layers(tracer: Tracer, base, res, replay, scraped, grown_rss) -> dict:
    """Per-layer metrics: in-process service times plus the socket breakdown."""
    service, overhead_s = replay
    spans = tracer.export()
    durations = span_seconds(spans)
    caches = scraped["caches"]
    index = caches.get("index", {})
    lookups = index.get("plan_hits", 0) + index.get("plan_misses", 0)
    wire = res.wire_s()
    out = {
        "collection.binfmt.load_s": metric(durations["collection.binfmt.load"][0], "s"),
        "serving.warm_s": metric(durations["serving.warm"][0], "s"),
        "serving.server.overhead_p50_ms": metric(
            quantile([w - s for w, s in zip(wire, service)], 0.5) * 1e3, "ms"),
        "serving.server.stall_max_ms": metric(
            httpclient.stall_max_s(res.sent, res.done) * 1e3, "ms"),
        "serving.cache.result_hit_rate": metric(caches["result"]["hit_rate"], "ratio"),
        "serving.cache.payload_hit_rate": metric(caches["payload"]["hit_rate"], "ratio"),
        "serving.cache.payload_evictions": metric(caches["payload"]["evictions"], "count"),
        "twitter.index.plan_hit_rate": metric(
            index.get("plan_hits", 0) / lookups if lookups else 0.0, "ratio"),
        "frames.result_hit_rate": metric(caches["frames_results"]["hit_rate"], "ratio"),
        "loadgen.late_p99_ms": metric(quantile(res.late_s(), 0.99) * 1e3, "ms"),
        "loadgen.backlog_max": metric(max(res.backlog), "count"),
        "trace.overhead_s": metric(overhead_s, "s"),
    }
    out.update(_endpoint_quantiles(base, res.latency_s(), ""))
    out.update(_endpoint_quantiles(base, service, "service_"))
    out.update(common.layer_metrics(spans, ROOTS))
    out["serving.rss_delta_mb"] = metric(grown_rss / 2**20, "MB")
    return out


def child_build(wseed: int, out: str) -> None:
    from repro import SimConfig, build_world, collect_dataset

    dataset = collect_dataset(build_world(SimConfig(seed=wseed, scale=common.SCALE)))
    path = dataset_path(wseed)
    tmp = path.with_name(path.name + ".tmp.npz")
    dataset.save(tmp)
    tmp.replace(path)
    common.write_child_result(out, {"path": str(path)})


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--child", action="store_true")
    parser.add_argument("--out", required=True)
    parser.add_argument("--build", type=int, required=True)
    args = parser.parse_args()
    child_build(args.build, args.out)

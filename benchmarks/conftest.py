"""Benchmark fixtures.

One world + dataset pair is built per benchmark session at ``BENCH_SCALE``
(override with the ``REPRO_BENCH_SCALE`` environment variable) and every
figure benchmark measures the cost of regenerating its figure from that
dataset.  The per-figure shape assertions keep the benchmarks honest: a
benchmark that regenerates the wrong figure is worthless however fast.

The session's world build and pipeline run execute under a live metrics
registry — with per-span RSS accounting on (tracemalloc too when
``REPRO_BENCH_TRACEMALLOC=1``; off by default so allocation tracing does
not distort the wall-time trajectory) — and their stage timings plus peak
memory are written to ``BENCH_pipeline.json`` at the repository root, the
perf snapshot future PRs compare against.  One summary row per session is
also appended to ``BENCH_history.jsonl`` (git sha, seed, scale, per-stage
wall + peak memory): the cross-run trajectory that
``python -m repro.obs.bench_report`` renders and gates.  A second,
fault-injected session (the ``paper-section-3.2`` scenario) records what
resilience costs: its stage timings and retry/fault counters land in the
artifact's ``faulted`` section.
"""

from __future__ import annotations

import datetime as _dt
import json
import os
import subprocess
from pathlib import Path

import pytest

from repro import obs
from repro.collection.dataset import MigrationDataset
from repro.collection.pipeline import CollectionConfig, collect_dataset
from repro.faults import FaultPlan
from repro.obs.bench_report import append_history_row, merge_pipeline_sections
from repro.simulation.config import SimConfig
from repro.simulation.world import World, build_world

BENCH_SEED = 7
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.01"))

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_ARTIFACT = REPO_ROOT / "BENCH_pipeline.json"
BENCH_HISTORY = REPO_ROOT / "BENCH_history.jsonl"

_session_registry = obs.MetricsRegistry()
_session_registry.enable_memory(
    rss=True, trace_allocs=os.environ.get("REPRO_BENCH_TRACEMALLOC") == "1"
)


@pytest.fixture(scope="session", autouse=True)
def _pipeline_first(request: pytest.FixtureRequest) -> None:
    """Materialise the session world + dataset before any bench runs.

    Stage rows record the process RSS high-water mark (``VmHWM``) at span
    exit, which is monotone over the process life — so the pipeline
    stages must measure on the clean post-collection floor, not after
    whichever bench file happens to sort first has built worlds of its
    own.  Forcing the session fixtures here keeps the recorded memory
    rows independent of test ordering.
    """
    request.getfixturevalue("bench_dataset")


@pytest.fixture(scope="session")
def bench_world() -> World:
    with obs.use(_session_registry):
        return build_world(SimConfig(seed=BENCH_SEED, scale=BENCH_SCALE))


@pytest.fixture(scope="session")
def bench_dataset(bench_world: World) -> MigrationDataset:
    with obs.use(_session_registry):
        dataset = collect_dataset(bench_world)
    _write_pipeline_artifact(_session_registry)
    return dataset


@pytest.fixture(scope="session")
def bench_faulted_dataset(
    bench_world: World, bench_dataset: MigrationDataset
) -> MigrationDataset:
    """A second collection pass under the §3.2 fault scenario.

    Depends on ``bench_dataset`` so the baseline artifact exists first; the
    faulted session is then appended to it for side-by-side comparison.
    """
    registry = obs.MetricsRegistry()
    config = CollectionConfig(
        fault_plan=FaultPlan.scenario("paper-section-3.2", seed=BENCH_SEED)
    )
    with obs.use(registry):
        dataset = collect_dataset(bench_world, config)
    _append_faulted_section(registry, dataset)
    return dataset


def _stage_rows(registry: obs.MetricsRegistry) -> list[dict]:
    rows = []
    for span in registry.tracer.walk():
        row = {
            "name": span.name,
            "depth": span.depth,
            "wall_seconds": span.wall_seconds,
            "api_requests": span.api_requests,
            "wait_seconds": span.wait_seconds,
            "meta": dict(span.meta),
        }
        row.update(span.memory_fields())
        rows.append(row)
    return rows


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def _history_stages(registry: obs.MetricsRegistry) -> dict[str, dict]:
    """Top-level pipeline stages only — the trajectory the gate watches."""
    stages: dict[str, dict] = {}
    for span in registry.tracer.walk():
        if span.depth > 1 or span.name in stages:
            continue
        fields: dict = {"wall_seconds": round(span.wall_seconds, 4)}
        memory = span.memory_fields()
        for key in ("peak_rss_bytes", "tracemalloc_peak_bytes"):
            if memory.get(key) is not None:
                fields[key] = memory[key]
        stages[span.name] = fields
    return stages


def _write_pipeline_artifact(registry: obs.MetricsRegistry) -> None:
    """Persist the session's stage timings as the perf-trajectory artifact.

    Sections recorded by earlier sessions at the same seed and scale are
    kept, so running one bench file refreshes only its own sections.
    """
    merge_pipeline_sections(BENCH_ARTIFACT, {
        "seed": BENCH_SEED,
        "scale": BENCH_SCALE,
        "stages": _stage_rows(registry),
        "api_requests": {
            "twitter": registry.counter_total("twitter.ratelimit.requests"),
            "mastodon": registry.counter_total("mastodon.api.requests"),
        },
        "simulated_wait_seconds": registry.counter_total(
            "twitter.ratelimit.wait_seconds"
        ),
    })
    _append_history_row(registry)


def _append_history_row(registry: obs.MetricsRegistry) -> None:
    """Append one summary row per session to the bench trajectory.

    ``python -m repro.obs.bench_report`` renders the resulting JSONL and
    ``--check`` gates the latest row against the trailing same-scale
    median.  Disable with ``REPRO_BENCH_NO_HISTORY=1`` (e.g. throwaway
    local runs that should not pollute the committed trajectory).
    """
    if os.environ.get("REPRO_BENCH_NO_HISTORY") == "1":
        return
    row = {
        "recorded_at": _dt.datetime.now(_dt.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "git_sha": _git_sha(),
        "seed": BENCH_SEED,
        "scale": BENCH_SCALE,
        "stages": _history_stages(registry),
    }
    append_history_row(BENCH_HISTORY, row)


def record_hotpath(name: str, wall_seconds: float, **meta) -> None:
    """Merge one hot-path timing into the artifact's ``hotpaths`` section.

    The hot-path benches (``test_bench_search.py``) call this with their
    measured wall times; the perf-smoke CI job compares these numbers
    against the committed baseline.  The base artifact must exist first
    (depend on ``bench_dataset``), so hot paths land in the same file the
    stage timings do.
    """
    entry: dict = {"wall_seconds": round(wall_seconds, 4)}
    if meta:
        entry["meta"] = meta
    hotpaths = json.loads(BENCH_ARTIFACT.read_text()).get("hotpaths", {})
    hotpaths[name] = entry
    merge_pipeline_sections(BENCH_ARTIFACT, {"hotpaths": hotpaths})


def record_analysis(section: dict) -> None:
    """Write the frames-vs-naive suite numbers into the ``analysis`` key.

    ``test_bench_analysis.py`` calls this with the full-figure-suite
    timings (naive loops vs cold/warm frames) and the dataset
    save/load costs for both serialization formats; the analysis-smoke
    CI job gates on the recorded speedup.  The base artifact must exist
    first (depend on ``bench_dataset``).
    """
    merge_pipeline_sections(BENCH_ARTIFACT, {"analysis": section})


def record_parallel(section: dict) -> None:
    """Write the sharded-crawl comparison into the artifact's ``parallel`` key.

    ``test_bench_parallel.py`` calls this with the virtual total, the
    4-worker round-robin makespan and the collection's wall time; the base
    artifact must exist first (depend on ``bench_dataset``).
    """
    merge_pipeline_sections(BENCH_ARTIFACT, {"parallel": section})


def record_serving(section: dict) -> None:
    """Write the serving bench into the artifact's ``serving`` key.

    ``test_bench_serving.py`` calls this with the cold/warm/open replay
    numbers from :func:`repro.serving.bench.run_serving_bench`; a
    ``kind: "serving"`` summary row (per-endpoint p50/p99 as wall
    seconds) is also appended to the bench trajectory, where
    ``bench_report --check`` gates it against its own trailing median —
    independently of the pipeline rows.  The base artifact must exist
    first (depend on ``bench_dataset``).
    """
    from repro.serving.bench import history_stages

    merge_pipeline_sections(BENCH_ARTIFACT, {"serving": section})
    if os.environ.get("REPRO_BENCH_NO_HISTORY") == "1":
        return
    row = {
        "recorded_at": _dt.datetime.now(_dt.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "git_sha": _git_sha(),
        "seed": section.get("seed", BENCH_SEED),
        "scale": BENCH_SCALE,
        "kind": "serving",
        "stages": history_stages(section),
    }
    append_history_row(BENCH_HISTORY, row)


def record_incremental(section: dict) -> None:
    """Write the incremental bench into the artifact's ``incremental`` key.

    ``test_bench_incremental.py`` calls this with the advance-vs-rebuild
    numbers (one-day delta crawl + frames rebase + re-analysis against a
    from-scratch clocked collection + cold analysis); a
    ``kind: "incremental"`` summary row is also appended to the bench
    trajectory, where ``bench_report --check`` gates it against its own
    trailing median — independently of the pipeline rows.  The base
    artifact must exist first (depend on ``bench_dataset``).
    """
    merge_pipeline_sections(BENCH_ARTIFACT, {"incremental": section})
    if os.environ.get("REPRO_BENCH_NO_HISTORY") == "1":
        return
    stages = {
        "incremental.advance": section["incremental"]["advance_s"],
        "incremental.rebase": section["incremental"]["rebase_s"],
        "incremental.reanalyse": section["incremental"]["reanalyse_s"],
        "full.collect": section["full"]["collect_s"],
        "full.analyse": section["full"]["analyse_s"],
    }
    row = {
        "recorded_at": _dt.datetime.now(_dt.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "git_sha": _git_sha(),
        "seed": section.get("seed", BENCH_SEED),
        "scale": BENCH_SCALE,
        "kind": "incremental",
        "stages": {
            name: {"wall_seconds": round(value, 4)}
            for name, value in stages.items()
        },
    }
    append_history_row(BENCH_HISTORY, row)


def session_span_seconds(name: str) -> float | None:
    """Wall seconds of a named span from the session registry, if present."""
    for span in _session_registry.tracer.walk():
        if span.name == name:
            return span.wall_seconds
    return None


def _append_faulted_section(
    registry: obs.MetricsRegistry, dataset: MigrationDataset
) -> None:
    """Record the faulted session alongside the baseline in the artifact."""
    faulted = {
        "scenario": "paper-section-3.2",
        "seed": BENCH_SEED,
        "stages": _stage_rows(registry),
        "resilience": {
            "faults_injected": registry.counter_total("faults.injected"),
            "retry_attempts": registry.counter_total("retry.attempts"),
            "retry_exhausted": registry.counter_total("retry.exhausted"),
            "backoff_seconds": registry.counter_total("retry.backoff_seconds"),
            "breaker_opened": registry.counter_total("breaker.open"),
            "breaker_fast_fails": registry.counter_total("breaker.fast_fail"),
        },
        "coverage": {
            "attempted": dataset.mastodon_coverage.attempted,
            "instance_down": dataset.mastodon_coverage.instance_down,
            "unreachable": dataset.mastodon_coverage.unreachable,
        },
    }
    merge_pipeline_sections(BENCH_ARTIFACT, {"faulted": faulted})

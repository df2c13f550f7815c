"""Worldgen scaling bench: the real ``build_world`` at a ladder of scales.

Each scale runs :func:`repro.simulation.build_world` — the build every
experiment and every user runs — and records what it cost and what it
built: wall seconds, peak RSS, candidates, migrants, tweets and statuses.

Usage::

    python -m repro.simulation.scalebench                 # 0.002 and 0.005
    python -m repro.simulation.scalebench --scales 0.002,0.01
    python -m repro.simulation.scalebench --no-record     # print only

Each scale contributes one row to the ``worldgen_scale`` section of
``BENCH_pipeline.json`` and one ``kind: "worldgen"`` row with a
``worldgen.build`` stage to ``BENCH_history.jsonl`` — the same trajectory
``python -m repro.obs.bench_report --check`` gates, apart from the
pipeline rows.  Every recorded row carries the **memory ceiling** it was
recorded under (``--memory-ceiling-mb``, default 512): the bench exits
non-zero if a build's peak RSS crosses it, and ``bench_report --check``
re-validates the recorded rows.

The default ladder stops at scale 0.005 (~320MB) because the object
population does not fit the ceiling beyond it: scale 0.01 peaks at
~604MB (Linux, 2-core box) and ``--scales 0.01`` exits 1 with
``MEMORY CEILING EXCEEDED``.

Each scale is built in a fresh interpreter (a ``spawn`` child) and its
peak RSS is that child's own high-water mark (``VmHWM``): the world plus
the interpreter and its imports, never the memory of the process that
launched the bench (a test session, a notebook).
"""

from __future__ import annotations

import argparse
import datetime as _dt
import multiprocessing
import resource
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from repro.obs.bench_report import (
    append_history_row,
    default_history_path,
    merge_pipeline_sections,
)
from repro.simulation.config import SimConfig
from repro.simulation.world import build_world

#: the two golden scales; 0.01 (~604MB) is over the default ceiling
DEFAULT_SCALES = (0.002, 0.005)
#: Recorded memory budget of one build, interpreter included.
DEFAULT_CEILING_MB = 512

_REPO_ROOT = Path(__file__).resolve().parents[3]
PIPELINE_ARTIFACT = _REPO_ROOT / "BENCH_pipeline.json"


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=_REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def _peak_rss_bytes() -> int:
    """This process's peak RSS since it started its program.

    ``VmHWM`` belongs to the process's own address space.  ``ru_maxrss``
    is only the fallback where ``/proc`` is missing: on Linux a fork+exec'd
    child inherits the parent's high-water mark in it, so a child launched
    from a 415MB process reads 415MB there and ~15MB in ``VmHWM``.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS
    return usage if sys.platform == "darwin" else usage * 1024


def _build_row(seed: int, scale: float) -> dict:
    started = time.perf_counter()
    world = build_world(SimConfig(seed=seed, scale=scale))
    wall = time.perf_counter() - started
    peak = _peak_rss_bytes()
    statuses = sum(
        instance.status_count(account.username)
        for instance in world.network.instances()
        for account in instance.accounts()
    )
    return {
        "scale": scale,
        "seed": seed,
        "wall_seconds": round(wall, 4),
        "peak_rss_bytes": peak,
        "agents": len(world.candidate_ids),
        "migrants": len(world.migrants),
        "tweets": world.twitter_store.tweet_count,
        "statuses": statuses,
    }


def run_scale(seed: int, scale: float) -> dict:
    """One ``build_world`` in a fresh child process; returns its row."""
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        return pool.submit(_build_row, seed, scale).result()


def record_pipeline_section(rows: list[dict], ceiling_bytes: int,
                            path: Path = PIPELINE_ARTIFACT) -> None:
    """Merge the rows into BENCH_pipeline.json's ``worldgen_scale`` key."""
    merge_pipeline_sections(path, {"worldgen_scale": {
        "memory_ceiling_bytes": ceiling_bytes,
        "mode": "build",
        "rows": rows,
    }})


def record_history_rows(rows: list[dict], ceiling_bytes: int,
                        path: str | Path) -> None:
    """One ``kind: "worldgen"`` trajectory row per scale.

    The kind keeps these rows out of the pipeline trajectory, so a
    scalebench run never becomes the latest pipeline row the gate
    compares.  The rows carry ``memory_ceiling_bytes`` so
    ``bench_report --check`` can enforce the absolute budget in addition
    to its relative trailing-median gates.
    """
    now = _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")
    sha = _git_sha()
    for row in rows:
        append_history_row(path, {
            "recorded_at": now,
            "git_sha": sha,
            "seed": row["seed"],
            "scale": row["scale"],
            "kind": "worldgen",
            "memory_ceiling_bytes": ceiling_bytes,
            "stages": {
                "worldgen.build": {
                    "wall_seconds": row["wall_seconds"],
                    "peak_rss_bytes": row["peak_rss_bytes"],
                },
            },
        })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scales", type=str, default=",".join(
        str(s) for s in DEFAULT_SCALES))
    parser.add_argument("--memory-ceiling-mb", type=float,
                        default=DEFAULT_CEILING_MB,
                        help="absolute peak-RSS budget recorded with each "
                             "row; the bench fails if a run crosses it "
                             "(default %(default)s)")
    parser.add_argument("--no-record", action="store_true",
                        help="print the rows without touching "
                             "BENCH_pipeline.json / BENCH_history.jsonl")
    parser.add_argument("--history", type=str,
                        default=str(default_history_path()))
    args = parser.parse_args(argv)

    try:
        scales = sorted(float(s) for s in args.scales.split(",") if s.strip())
    except ValueError:
        parser.error(f"--scales must be comma-separated floats, got "
                     f"{args.scales!r}")
    if not scales:
        parser.error("--scales is empty")
    ceiling_bytes = int(args.memory_ceiling_mb * 1_048_576)

    rows = []
    for scale in scales:
        row = run_scale(args.seed, scale)
        rows.append(row)
        print(f"scale {scale:g}: {row['wall_seconds']:.2f}s  "
              f"rss {row['peak_rss_bytes'] / 1_048_576:.0f}MB  "
              f"agents {row['agents']}  migrants {row['migrants']}  "
              f"tweets {row['tweets']}  statuses {row['statuses']}")

    if not args.no_record:
        record_pipeline_section(rows, ceiling_bytes)
        record_history_rows(rows, ceiling_bytes, args.history)
        print(f"recorded {len(rows)} row(s) to {PIPELINE_ARTIFACT.name} "
              f"and {Path(args.history).name}")

    over = [r for r in rows if r["peak_rss_bytes"] > ceiling_bytes]
    if over:
        for row in over:
            print(f"MEMORY CEILING EXCEEDED at scale {row['scale']:g}: "
                  f"{row['peak_rss_bytes'] / 1_048_576:.0f}MB > "
                  f"{ceiling_bytes / 1_048_576:.0f}MB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The cross-run perf trajectory: render ``BENCH_history.jsonl`` and gate it.

``BENCH_pipeline.json`` is a snapshot of one benchmark session;
``BENCH_history.jsonl`` is the *trajectory*: every benchmark session
appends one summary row (git sha, seed, scale, per-stage wall seconds and
peak memory), so "did PR N regress the pipeline" has an answer that
survives the PR.

Usage::

    python -m repro.obs.bench_report                  # render the trajectory
    python -m repro.obs.bench_report --check          # exit 1 on regression
    python -m repro.obs.bench_report --check --threshold 2.0

A stage **regresses** when the latest row's wall time exceeds
``threshold`` (default 1.25, i.e. >25% slower) times the trailing median
of that stage over the previous rows *at the same scale* (up to
``--window`` of them).  Stages with no same-scale history pass trivially —
the first row of a new scale establishes its baseline.  Memory gates the
same way, against ``peak_rss_bytes`` with its own (looser) threshold.
Wall values where both the latest and the median sit under
``WALL_NOISE_FLOOR_SECONDS`` are never gated: at that magnitude (the
serving rows record warm cached quantiles of a few *microseconds*) the
ratio measures scheduler jitter, not code — a real regression that
pushes a micro-latency past the floor is still caught, because the
floor must clear on *both* sides to skip.

Rows that carry ``memory_ceiling_bytes`` (the worldgen scale bench,
:mod:`repro.simulation.scalebench`) additionally assert an *absolute*
budget: ``--check`` fails when any such row's stage peaks above its own
recorded ceiling, whatever the trailing median says.

:func:`merge_pipeline_sections` is the one writer of ``BENCH_pipeline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

#: default regression thresholds: wall >25% over trailing median fails;
#: peak RSS is noisier across machines, so its default gate is 50%.
WALL_THRESHOLD = 1.25
MEMORY_THRESHOLD = 1.50
#: wall values below this are scheduler jitter, not signal: relative
#: gating only applies once the latest value or the trailing median
#: clears it (sub-100µs warm-cache quantiles swing 2x run to run on an
#: idle box without a single instruction changing).
WALL_NOISE_FLOOR_SECONDS = 1e-4
HISTORY_FILENAME = "BENCH_history.jsonl"


def default_history_path() -> Path:
    """``BENCH_history.jsonl`` at the repository root."""
    return Path(__file__).resolve().parents[3] / HISTORY_FILENAME


def load_history(path: str | Path) -> list[dict]:
    """Rows of the history file, oldest first; missing file -> empty."""
    path = Path(path)
    if not path.exists():
        return []
    rows = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line:
            rows.append(json.loads(line))
    return rows


def append_history_row(path: str | Path, row: dict) -> None:
    """Append one summary row (a JSON object per line, append-only)."""
    with Path(path).open("a") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")


#: ``BENCH_pipeline.json`` sections whose rows carry their own seed and
#: scale, so they stay valid whichever session wrote the rest of the file
SELF_DESCRIBED_SECTIONS = ("worldgen_scale",)


def merge_pipeline_sections(path: str | Path, sections: dict) -> None:
    """Read-merge-write top-level sections of ``BENCH_pipeline.json``.

    The one writer of the snapshot: every bench that records a section
    goes through it, so recording one section never drops another.  When
    ``sections`` carries a ``seed`` or ``scale`` (a session's base
    payload) that differs from the file's, the file's sections describe
    another session and are dropped, except :data:`SELF_DESCRIBED_SECTIONS`.
    """
    path = Path(path)
    payload = json.loads(path.read_text()) if path.exists() else {}
    if any(payload.get(key) != value
           for key, value in sections.items() if key in ("seed", "scale")):
        payload = {key: payload[key] for key in SELF_DESCRIBED_SECTIONS
                   if key in payload}
    payload.update(sections)
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _trailing(
    rows: list[dict], stage: str, key: str, scale: float, window: int
) -> list[float]:
    values = [
        row["stages"][stage][key]
        for row in rows
        if row.get("scale") == scale
        and stage in row.get("stages", {})
        and row["stages"][stage].get(key) is not None
    ]
    return values[-window:]


def check_regressions(
    rows: list[dict],
    wall_threshold: float = WALL_THRESHOLD,
    memory_threshold: float = MEMORY_THRESHOLD,
    window: int = 8,
) -> list[dict]:
    """Regressions of each kind's latest row against its trailing median.

    Rows carry an optional ``kind`` (default ``"pipeline"``) so independent
    trajectories — the batch pipeline and the serving latency rows — can
    interleave in one history file: the latest row *of each kind* is gated
    against the trailing same-(kind, scale) median, so appending a serving
    row never un-gates the pipeline row (and vice versa).

    Returns one record per offending (stage, metric):
    ``{"kind", "stage", "metric", "latest", "median", "ratio"}``.
    """
    by_kind: dict[str, list[dict]] = {}
    for row in rows:
        by_kind.setdefault(str(row.get("kind", "pipeline")), []).append(row)
    findings = []
    for kind, kind_rows in by_kind.items():
        if len(kind_rows) < 2:
            continue
        latest = kind_rows[-1]
        history = kind_rows[:-1]
        scale = latest.get("scale")
        for metric, threshold in (
            ("wall_seconds", wall_threshold),
            ("peak_rss_bytes", memory_threshold),
        ):
            for stage, fields in latest.get("stages", {}).items():
                value = fields.get(metric)
                if value is None:
                    continue
                trailing = _trailing(history, stage, metric, scale, window)
                if not trailing:
                    continue
                median = statistics.median(trailing)
                if median <= 0:
                    continue
                if (
                    metric == "wall_seconds"
                    and value < WALL_NOISE_FLOOR_SECONDS
                    and median < WALL_NOISE_FLOOR_SECONDS
                ):
                    continue
                ratio = value / median
                if ratio > threshold:
                    findings.append(
                        {
                            "kind": kind,
                            "stage": stage,
                            "metric": metric,
                            "latest": value,
                            "median": median,
                            "ratio": ratio,
                        }
                    )
    findings.sort(key=lambda f: -f["ratio"])
    return findings


def check_memory_ceilings(rows: list[dict]) -> list[dict]:
    """Violations of the absolute per-row memory budget.

    A row recorded with ``memory_ceiling_bytes`` asserts that every one of
    its stages stayed under that peak-RSS budget.  Unlike the relative
    trailing-median gates this is scale-local and history-free: the first
    scale-1.0 row is already gated.
    """
    findings = []
    for row in rows:
        ceiling = row.get("memory_ceiling_bytes")
        if ceiling is None:
            continue
        for stage, fields in row.get("stages", {}).items():
            peak = fields.get("peak_rss_bytes")
            if peak is not None and peak > ceiling:
                findings.append(
                    {
                        "stage": stage,
                        "metric": "memory_ceiling",
                        "scale": row.get("scale"),
                        "latest": peak,
                        "median": ceiling,
                        "ratio": peak / ceiling,
                    }
                )
    findings.sort(key=lambda f: -f["ratio"])
    return findings


def _fmt_bytes(value: float | None) -> str:
    if value is None:
        return "-"
    return f"{value / 1_048_576:.0f}MB"


def format_history(rows: list[dict], window: int = 8) -> str:
    """The trajectory, one block per scale, one line per run."""
    if not rows:
        return "(no bench history recorded)"
    lines = ["# bench trajectory"]
    scales = sorted({row.get("scale") for row in rows}, key=lambda s: (s is None, s))
    for scale in scales:
        scoped = [row for row in rows if row.get("scale") == scale]
        lines.append(f"\n## scale {scale} ({len(scoped)} runs)")
        stages = sorted({s for row in scoped for s in row.get("stages", {})})
        for row in scoped[-window:]:
            sha = str(row.get("git_sha", "unknown"))[:10]
            when = str(row.get("recorded_at", ""))[:19]
            kind = str(row.get("kind", "pipeline"))
            suffix = "" if kind == "pipeline" else f"  [{kind}]"
            lines.append(f"{when}  {sha}  seed={row.get('seed')}{suffix}")
            for stage in stages:
                fields = row.get("stages", {}).get(stage)
                if fields is None:
                    continue
                lines.append(
                    f"    {stage:<28} {fields.get('wall_seconds', 0.0):>9.3f}s"
                    f"  rss {_fmt_bytes(fields.get('peak_rss_bytes')):>8}"
                    f"  alloc {_fmt_bytes(fields.get('tracemalloc_peak_bytes')):>8}"
                )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--history", type=str, default=str(default_history_path()),
        help="path to the BENCH_history.jsonl file",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 when the latest row regresses past the threshold",
    )
    parser.add_argument(
        "--threshold", type=float, default=WALL_THRESHOLD,
        help="wall-time regression ratio gate (default %(default)s)",
    )
    parser.add_argument(
        "--memory-threshold", type=float, default=MEMORY_THRESHOLD,
        help="peak-RSS regression ratio gate (default %(default)s)",
    )
    parser.add_argument(
        "--window", type=int, default=8,
        help="trailing rows the median is taken over (default %(default)s)",
    )
    args = parser.parse_args(argv)

    rows = load_history(args.history)
    print(format_history(rows, window=args.window))
    if not args.check:
        return 0
    findings = check_regressions(
        rows,
        wall_threshold=args.threshold,
        memory_threshold=args.memory_threshold,
        window=args.window,
    )
    findings += check_memory_ceilings(rows)
    if not findings:
        print(f"\ncheck ok: no stage regressed past {args.threshold:.2f}x "
              f"and every recorded memory ceiling holds (rows: {len(rows)})")
        return 0
    print("\nREGRESSIONS:")
    for f in findings:
        if f["metric"] == "memory_ceiling":
            print(
                f"  {f['stage']} (scale {f['scale']}) memory ceiling: "
                f"{f['latest']}B peak vs {f['median']}B budget "
                f"({f['ratio']:.2f}x)"
            )
            continue
        unit = "s" if f["metric"] == "wall_seconds" else "B"
        print(
            f"  {f['stage']} {f['metric']}: {f['latest']:.3f}{unit} vs trailing "
            f"median {f['median']:.3f}{unit} ({f['ratio']:.2f}x)"
        )
    return 1


if __name__ == "__main__":
    sys.exit(main())

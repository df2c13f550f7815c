"""In-memory spans recorded by the benchmark around calls into the program.

A :class:`Tracer` records one span per public call the benchmark makes:
name, start, end, parent and run id.  Spans stay in memory until the run
ends; :func:`self_times` turns them into per-layer self time plus the
``(unattributed)`` remainder, and :func:`chrome_trace` exports them as
Chrome trace-event JSON (loadable in Perfetto next to the program's own
``--trace`` output, since both use epoch microseconds).

A disabled tracer hands out one shared no-op context manager, so untimed
and untraced runs pay one attribute lookup per call site.
"""

from __future__ import annotations

import contextlib
import os
import time

#: The layer a span belongs to is its name up to the first dot.
UNATTRIBUTED = "(unattributed)"


def vm_rss_bytes(pid: int | str = "self") -> int:
    """Current resident set size from ``/proc`` (0 where unavailable)."""
    return _proc_status_kb(pid, "VmRSS") * 1024


def vm_hwm_bytes(pid: int | str = "self") -> int:
    """Peak resident set size (``VmHWM``) from ``/proc``."""
    return _proc_status_kb(pid, "VmHWM") * 1024


def _proc_status_kb(pid: int | str, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Tracer:
    """Collects spans for one run; ``enabled=False`` records nothing."""

    def __init__(self, run_id: str, enabled: bool) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._epoch0 = time.time()
        self._pc0 = time.perf_counter()
        self._noop = contextlib.nullcontext()

    def span(self, name: str, **args):
        if not self.enabled:
            return self._noop
        return self._record(name, args)

    @contextlib.contextmanager
    def _record(self, name: str, args: dict):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        rss0 = vm_rss_bytes()
        entry = {
            "name": name,
            "run": self.run_id,
            "pid": os.getpid(),
            "parent": parent,
            "start": time.perf_counter(),
            "end": None,
            "args": dict(args),
        }
        self.spans.append(entry)
        self._stack.append(index)
        try:
            yield
        finally:
            entry["end"] = time.perf_counter()
            entry["rss_delta"] = vm_rss_bytes() - rss0
            self._stack.pop()

    def export(self) -> list[dict]:
        """Closed spans with epoch-anchored start/end seconds."""
        offset = self._epoch0 - self._pc0
        out = []
        for entry in self.spans:
            if entry["end"] is None:
                continue
            row = dict(entry)
            row["start_epoch"] = entry["start"] + offset
            row["end_epoch"] = entry["end"] + offset
            out.append(row)
        return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[dict], roots: frozenset[str]) -> dict[str, float]:
    """Seconds of self time per layer, plus the ``(unattributed)`` remainder.

    A span's self time is its duration minus what its direct children
    cover.  Spans named in ``roots`` are the run's outer frames: their
    self time is time no layer call accounts for.  ``spans`` may come from
    several processes; parents are indices within the same ``(pid, run)``.
    """
    by_key: dict[tuple, list[dict]] = {}
    for span in spans:
        by_key.setdefault((span["pid"], span["run"]), []).append(span)
    totals: dict[str, float] = {}
    for group in by_key.values():
        covered = [0.0] * len(group)
        for span in group:
            parent = span["parent"]
            if parent is not None:
                covered[parent] += span["end"] - span["start"]
        for index, span in enumerate(group):
            own = span["end"] - span["start"] - covered[index]
            layer = UNATTRIBUTED if span["name"] in roots else layer_of(span["name"])
            totals[layer] = totals.get(layer, 0.0) + own
    return totals


def span_seconds(spans: list[dict]) -> dict[str, list[float]]:
    """Durations of every span, grouped by name."""
    out: dict[str, list[float]] = {}
    for span in spans:
        out.setdefault(span["name"], []).append(span["end"] - span["start"])
    return out


def layer_rss_bytes(spans: list[dict], roots: frozenset[str]) -> dict[str, int]:
    """Per layer, the VmRSS change summed over its outermost spans."""
    by_key: dict[tuple, list[dict]] = {}
    for span in spans:
        by_key.setdefault((span["pid"], span["run"]), []).append(span)
    totals: dict[str, int] = {}
    for group in by_key.values():
        for span in group:
            if span["name"] in roots:
                continue
            layer = layer_of(span["name"])
            parent = span["parent"]
            if parent is not None and layer_of(group[parent]["name"]) == layer:
                continue
            totals[layer] = totals.get(layer, 0) + span["rss_delta"]
    return totals


def chrome_trace(spans: list[dict]) -> dict:
    """Chrome trace-event JSON: one ``X`` event per span, one lane per pid."""
    events: list[dict] = []
    pids: dict[int, str] = {}
    for span in spans:
        pids.setdefault(span["pid"], span["run"])
        args = dict(span["args"], rss_delta_bytes=span["rss_delta"])
        events.append(
            {
                "name": span["name"],
                "cat": layer_of(span["name"]),
                "ph": "X",
                "ts": round(span["start_epoch"] * 1e6, 3),
                "dur": round((span["end_epoch"] - span["start_epoch"]) * 1e6, 3),
                "pid": span["pid"],
                "tid": 0,
                "args": args,
            }
        )
    for pid, run in pids.items():
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": run}}
        )
    events.sort(key=lambda e: (e["ph"] != "M", e.get("ts", 0.0)))
    return {"traceEvents": events, "displayTimeUnit": "ms"}

"""Chrome/Perfetto trace-event export: the run as a swimlane timeline.

Converts a registry's span tree (now timestamped, see
:mod:`repro.obs.spans`) plus its event stream into the Chrome trace-event
JSON format that ``chrome://tracing`` and https://ui.perfetto.dev consume:

- every span becomes a complete (``"ph": "X"``) event with microsecond
  start/duration;
- spans are assigned to **lanes** (``tid``): the main pipeline runs in lane
  0, and every ``collect.<stage>.shard`` span adopted from a shard tracer
  (see :meth:`repro.obs.spans.Tracer.adopt`) gets one lane per
  ``(stage, shard)`` — so the sharded crawl renders as a swimlane
  timeline instead of a flattened tree;
- heartbeat events become instant (``"i"``) marks and watched-counter
  crossings become counter (``"C"``) tracks;
- lane names are declared through metadata (``"M"``) events.

Timestamps are rebased to the earliest span/event in the trace (shard
tracers read the same epoch clock as the run, so shard lanes line up with
the stage that ran them).  Spans that never recorded timestamps (e.g.
hand-built trees from older exports) are skipped, not invented.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.events import EVENT_KINDS

#: ``ph`` values the exporter produces (validation checks membership).
_PHASES = ("X", "M", "i", "C")

_MAIN_LANE = 0
_PID = 1


def _shard_lane_key(span) -> tuple[str, int] | None:
    """``(stage, shard)`` when ``span`` is a shard root, else ``None``."""
    shard = span.meta.get("shard")
    if shard is None or not span.name.endswith(".shard"):
        return None
    stage = span.meta.get("stage")
    if not isinstance(stage, str):
        # collect.<stage>.shard
        stage = span.name
        if stage.startswith("collect."):
            stage = stage[len("collect.") :]
        if stage.endswith(".shard"):
            stage = stage[: -len(".shard")]
    return (str(stage), int(shard))


def _span_args(span) -> dict:
    args: dict[str, object] = {
        "wall_seconds": span.wall_seconds,
        "wait_seconds": span.wait_seconds,
        "api_requests": span.api_requests,
    }
    args.update(span.memory_fields())
    if span.error is not None:
        args["error"] = span.error
    for key, value in span.meta.items():
        args.setdefault(key, value)
    return args


def trace_events(registry) -> list[dict]:
    """The registry as a flat list of Chrome trace events (``ts``-sorted)."""
    lanes: dict[tuple[str, int], int] = {}
    rows: list[tuple[float, dict]] = []

    def lane_for(key: tuple[str, int]) -> int:
        tid = lanes.get(key)
        if tid is None:
            tid = lanes[key] = len(lanes) + 1
        return tid

    def visit(span, tid: int) -> None:
        key = _shard_lane_key(span)
        if key is not None:
            tid = lane_for(key)
        if span.start_epoch is not None:
            rows.append(
                (
                    span.start_epoch,
                    {
                        "name": span.name,
                        "cat": "span",
                        "ph": "X",
                        "pid": _PID,
                        "tid": tid,
                        "ts": span.start_epoch,
                        "dur": max(span.wall_seconds, 0.0) * 1e6,
                        "args": _span_args(span),
                    },
                )
            )
        for child in span.children:
            visit(child, tid)

    for root in registry.tracer.roots:
        visit(root, _MAIN_LANE)

    events = getattr(registry, "events", None)
    if events is not None:
        for event in events.events:
            if event["kind"] in ("span_open", "span_close"):
                continue  # spans already render as complete events
            if event["kind"] == "counter":
                rows.append(
                    (
                        event["ts"],
                        {
                            "name": event["name"],
                            "cat": "counter",
                            "ph": "C",
                            "pid": _PID,
                            "ts": event["ts"],
                            "args": {"value": event["fields"].get("value", 0)},
                        },
                    )
                )
            else:
                rows.append(
                    (
                        event["ts"],
                        {
                            "name": event["name"],
                            "cat": event["kind"],
                            "ph": "i",
                            "pid": _PID,
                            "tid": _MAIN_LANE,
                            "ts": event["ts"],
                            "s": "g",
                            "args": dict(event["fields"]),
                        },
                    )
                )

    if not rows:
        return []

    t0 = min(ts for ts, _ in rows)
    out: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": _MAIN_LANE,
            "args": {"name": "repro pipeline"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": _PID,
            "tid": _MAIN_LANE,
            "args": {"name": "main"},
        },
    ]
    for (stage, shard), tid in sorted(lanes.items(), key=lambda kv: kv[1]):
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "args": {"name": f"{stage} / shard {shard}"},
            }
        )
    rows.sort(key=lambda pair: pair[0])
    for ts, event in rows:
        event["ts"] = (ts - t0) * 1e6
        out.append(event)
    return out


def chrome_trace(registry) -> dict:
    """The full trace document (``traceEvents`` plus display hints)."""
    return {
        "traceEvents": trace_events(registry),
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.obs.traceexport"},
    }


def write_chrome_trace(registry, path: str | Path) -> dict:
    """Write the trace-event JSON to ``path``; returns the document."""
    doc = chrome_trace(registry)
    Path(path).write_text(json.dumps(doc, indent=1, default=str) + "\n")
    return doc


def validate_chrome_trace(doc: dict) -> dict:
    """Schema-check an exported trace; returns summary stats.

    Raises :class:`ValueError` on any malformed event.  Used by tests and
    the obs-smoke CI job.  Checks: the ``traceEvents`` envelope, required
    per-event keys, known phases, numeric non-negative timestamps, and that
    each lane's complete events are monotonically ordered by ``ts``.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        raise ValueError("trace document must carry a traceEvents list")
    lanes: dict[int, float] = {}
    counts = {"X": 0, "M": 0, "i": 0, "C": 0}
    for event in doc["traceEvents"]:
        ph = event.get("ph")
        if ph not in _PHASES:
            raise ValueError(f"unknown phase {ph!r} in {event!r}")
        if not isinstance(event.get("name"), str) or event.get("pid") is None:
            raise ValueError(f"event missing name/pid: {event!r}")
        counts[ph] += 1
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"event has bad ts: {event!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"complete event has bad dur: {event!r}")
            tid = event.get("tid")
            if tid is None:
                raise ValueError(f"complete event has no lane: {event!r}")
            if ts < lanes.get(tid, 0.0):
                raise ValueError(f"lane {tid} is not ts-monotonic at {event!r}")
            lanes[tid] = ts
        if ph == "i" and event.get("cat") not in EVENT_KINDS:
            raise ValueError(f"instant event with unknown category: {event!r}")
    return {
        "events": len(doc["traceEvents"]),
        "spans": counts["X"],
        "instants": counts["i"],
        "counters": counts["C"],
        "lanes": len(lanes),
    }

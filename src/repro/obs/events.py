"""The timestamped event stream: an append-only structured log of the run.

Where spans answer "how long did each stage take", the event stream answers
"what happened *when*": every span open/close, every counter that crosses a
watched threshold, and explicit :meth:`EventLog.heartbeat` calls (e.g. the
per-tick progress events ``world.simulate`` emits) land here as one record
each, stamped with both the epoch clock and the monotonic clock.

Event schema (one JSON object per line in the ``.jsonl`` export)::

    {"ts": <epoch seconds>, "mono": <perf_counter seconds>,
     "kind": "span_open" | "span_close" | "counter" | "heartbeat",
     "name": "<span/counter/heartbeat name>",
     "fields": {...}}

The log is deliberately a plain in-memory list: it is picklable, shard
registries keep their own logs that :meth:`extend` folds back in merge
order, and nothing is written to disk until :meth:`write_jsonl` — so
instrumented library code never owns a file handle.  Like the rest of :mod:`repro.obs`, the log only *reads*
clocks; it never touches RNG state or feeds back into the simulation.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

#: Event kinds the stream produces (the JSONL/Perfetto validators check
#: membership against this set).
EVENT_KINDS = ("span_open", "span_close", "counter", "heartbeat")


class EventLog:
    """An append-only, timestamped, structured event log for one run."""

    __slots__ = ("events",)

    enabled = True

    def __init__(self) -> None:
        self.events: list[dict] = []

    def __len__(self) -> int:
        return len(self.events)

    # -- producers ---------------------------------------------------------

    def emit(
        self,
        kind: str,
        name: str,
        ts: float | None = None,
        mono: float | None = None,
        **fields: object,
    ) -> None:
        """Append one event; timestamps default to *now* on both clocks."""
        self.events.append(
            {
                "ts": time.time() if ts is None else ts,
                "mono": time.perf_counter() if mono is None else mono,
                "kind": kind,
                "name": name,
                "fields": fields,
            }
        )

    def heartbeat(self, name: str, **fields: object) -> None:
        """An explicit liveness/progress event (e.g. one per simulated day)."""
        self.emit("heartbeat", name, **fields)

    def span_open(self, span) -> None:
        self.emit(
            "span_open",
            span.name,
            ts=span.start_epoch,
            mono=span.start_mono,
            depth=span.depth,
        )

    def span_close(self, span) -> None:
        fields: dict[str, object] = {
            "depth": span.depth,
            "wall_seconds": span.wall_seconds,
        }
        if span.error is not None:
            fields["error"] = span.error
        self.emit("span_close", span.name, ts=span.end_epoch, mono=span.end_mono, **fields)

    def counter_event(self, counter, threshold: float) -> None:
        """A watched counter crossed ``threshold`` (see ``watch_counter``)."""
        self.emit(
            "counter",
            counter.name,
            value=counter.value,
            threshold=threshold,
            labels=dict(counter.labels),
        )

    # -- merge + export ----------------------------------------------------

    def extend(self, other: "EventLog") -> None:
        """Fold another log's events in (shard merge; order by shard, then
        re-sorted on the monotonic clock at export time)."""
        self.events.extend(other.events)

    def sorted_events(self) -> list[dict]:
        """The events ordered by monotonic timestamp (stable)."""
        return sorted(self.events, key=lambda e: e["mono"])

    def to_list(self) -> list[dict]:
        return [dict(event) for event in self.sorted_events()]

    def write_jsonl(self, path: str | Path) -> int:
        """Write the stream as JSON-lines, one event per line; returns the
        number of events written."""
        events = self.sorted_events()
        with Path(path).open("w") as fh:
            for event in events:
                fh.write(json.dumps(event) + "\n")
        return len(events)


def read_jsonl(path: str | Path) -> list[dict]:
    """Load an event stream written by :meth:`EventLog.write_jsonl`."""
    events = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


class NullEventLog(EventLog):
    """The shared do-nothing event log (the no-op registry's stream)."""

    __slots__ = ()

    enabled = False

    def emit(self, kind, name, ts=None, mono=None, **fields) -> None:
        pass

    def extend(self, other: EventLog) -> None:
        pass


#: The process-wide no-op event log (never records anything).
NULL_EVENTS = NullEventLog()

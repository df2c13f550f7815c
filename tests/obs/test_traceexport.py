"""Tests for repro.obs.traceexport: Perfetto lanes from adopted shard trees."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.traceexport import (
    chrome_trace,
    trace_events,
    validate_chrome_trace,
    write_chrome_trace,
)


def _shard_registry(stage: str, index: int) -> MetricsRegistry:
    """A finished shard run, the way ShardEngine.run_shard produces one."""
    registry = MetricsRegistry()
    with registry.span(f"collect.{stage}.shard") as span:
        span.annotate(shard=index, stage=stage, items=3)
        with registry.span(f"{stage}.item"):
            pass
    return registry


class TestLaneAssignment:
    def test_main_tree_renders_in_lane_zero(self):
        registry = MetricsRegistry()
        with registry.span("collect_dataset"):
            with registry.span("collect.trends"):
                pass
        spans = [e for e in trace_events(registry) if e["ph"] == "X"]
        assert {e["tid"] for e in spans} == {0}
        assert {e["name"] for e in spans} == {"collect_dataset", "collect.trends"}

    def test_adopted_shards_get_one_lane_per_stage_shard(self):
        main = MetricsRegistry()
        with main.span("collect_dataset"):
            with main.span("collect.tweet_search"):
                for index in range(2):
                    main.merge(_shard_registry("tweet_search", index))
            with main.span("collect.timelines"):
                main.merge(_shard_registry("timelines.twitter", 0))
        doc = chrome_trace(main)
        names = {
            e["tid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names[0] == "main"
        assert set(names.values()) == {
            "main",
            "tweet_search / shard 0",
            "tweet_search / shard 1",
            "timelines.twitter / shard 0",
        }
        # children of a shard root inherit the shard's lane
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        by_name = {}
        for event in spans:
            by_name.setdefault(event["name"], set()).add(event["tid"])
        assert by_name["collect.tweet_search"] == {0}
        assert by_name["tweet_search.item"] == by_name["collect.tweet_search.shard"]
        assert len(by_name["collect.tweet_search.shard"]) == 2

    def test_adopted_spans_keep_original_epochs(self):
        """Tracer.adopt grafts the tree without touching recorded clocks."""
        shard = _shard_registry("followees", 4)
        original = shard.tracer.find("collect.followees.shard")
        recorded = (
            original.start_epoch,
            original.end_epoch,
            original.start_mono,
            original.end_mono,
        )
        main = MetricsRegistry()
        with main.span("collect.followees"):
            main.merge(shard)
        adopted = main.tracer.find("collect.followees.shard")
        assert adopted is original  # grafted, not copied
        assert (
            adopted.start_epoch,
            adopted.end_epoch,
            adopted.start_mono,
            adopted.end_mono,
        ) == recorded
        assert adopted.parent is main.tracer.find("collect.followees")

    def test_lanes_stay_ts_monotonic_after_adoption(self):
        main = MetricsRegistry()
        with main.span("collect_dataset"):
            with main.span("collect.tweet_search"):
                # shard 1 ran before shard 0, but is merged after it; the
                # exporter sorts on real timestamps so lanes stay monotonic
                ran_first = _shard_registry("tweet_search", 1)
                ran_second = _shard_registry("tweet_search", 0)
                main.merge(ran_second)
                main.merge(ran_first)
        stats = validate_chrome_trace(chrome_trace(main))
        assert stats["lanes"] == 3  # main + 2 shard lanes
        assert stats["spans"] == 6

    def test_timestamps_rebased_to_trace_start(self):
        registry = MetricsRegistry()
        with registry.span("root"):
            with registry.span("child"):
                pass
        spans = sorted(
            (e for e in trace_events(registry) if e["ph"] == "X"),
            key=lambda e: e["ts"],
        )
        assert spans[0]["ts"] == 0.0
        assert spans[1]["ts"] >= 0.0
        assert all(e["dur"] >= 0.0 for e in spans)

    def test_span_without_timestamps_is_skipped(self):
        from repro.obs.spans import Span

        registry = MetricsRegistry()
        registry.tracer.adopt([Span("hand-built")])
        assert trace_events(registry) == []


class TestEventStreamExport:
    def test_heartbeats_become_instant_events(self):
        registry = MetricsRegistry()
        with registry.span("world.build"):
            registry.heartbeat("world.simulate", tick=0, posts=10)
        doc = chrome_trace(registry)
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["name"] == "world.simulate"
        assert instants[0]["cat"] == "heartbeat"
        assert instants[0]["args"] == {"tick": 0, "posts": 10}

    def test_counter_crossings_become_counter_tracks(self):
        registry = MetricsRegistry()
        registry.watch_counter("reqs", every=5)
        with registry.span("crawl"):
            registry.counter("reqs").inc(7)
        counters = [e for e in trace_events(registry) if e["ph"] == "C"]
        assert len(counters) == 1
        assert counters[0]["name"] == "reqs"
        assert counters[0]["args"]["value"] == 7

    def test_span_open_close_events_not_duplicated(self):
        registry = MetricsRegistry()
        with registry.span("work"):
            pass
        events = trace_events(registry)
        # one X event, no instants: open/close already render as the span
        assert sum(1 for e in events if e["ph"] == "X") == 1
        assert sum(1 for e in events if e["ph"] == "i") == 0

    def test_error_and_memory_fields_land_in_args(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.span("failing"):
                raise RuntimeError("boom")
        span = registry.tracer.find("failing")
        span.peak_rss_bytes = 1024
        (event,) = [e for e in trace_events(registry) if e["ph"] == "X"]
        assert event["args"]["error"] == "RuntimeError"
        assert event["args"]["peak_rss_bytes"] == 1024


class TestValidation:
    def test_written_file_validates(self, tmp_path):
        registry = MetricsRegistry()
        with registry.span("root"):
            registry.heartbeat("hb", n=1)
        path = tmp_path / "trace.json"
        write_chrome_trace(registry, path)
        doc = json.loads(path.read_text())
        stats = validate_chrome_trace(doc)
        assert stats["spans"] == 1
        assert stats["instants"] == 1
        assert stats["events"] == len(doc["traceEvents"])
        assert doc["displayTimeUnit"] == "ms"

    def test_empty_registry_exports_empty_trace(self):
        doc = chrome_trace(MetricsRegistry())
        assert doc["traceEvents"] == []
        assert validate_chrome_trace(doc)["events"] == 0

    def test_rejects_missing_envelope(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"spans": []})

    def test_rejects_unknown_phase(self):
        with pytest.raises(ValueError, match="phase"):
            validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "Z", "pid": 1, "ts": 0}]}
            )

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="dur"):
            validate_chrome_trace(
                {
                    "traceEvents": [
                        {
                            "name": "x",
                            "ph": "X",
                            "pid": 1,
                            "tid": 0,
                            "ts": 0,
                            "dur": -1,
                        }
                    ]
                }
            )

    def test_rejects_non_monotonic_lane(self):
        events = [
            {"name": "a", "ph": "X", "pid": 1, "tid": 0, "ts": 10.0, "dur": 1.0},
            {"name": "b", "ph": "X", "pid": 1, "tid": 0, "ts": 5.0, "dur": 1.0},
        ]
        with pytest.raises(ValueError, match="monotonic"):
            validate_chrome_trace({"traceEvents": events})

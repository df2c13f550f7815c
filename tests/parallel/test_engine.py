"""Engine-level behavior: merge accounting and span folding.

The byte-identity of the *dataset* is proven in
``test_serial_equivalence.py`` and ``test_schedule_independence.py``;
these tests pin the engine's other obligations — the merged telemetry of a
run whose shards execute last to first equals the in-order run's (counters
sum across shard registries to the same totals, histograms pool the same
samples), and shard spans fold under the stage spans of one coherent trace
in shard index order.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro import obs
from repro.collection.pipeline import PIPELINE_STAGES, collect_dataset
from repro.parallel import ShardEngine, round_robin_makespan
from repro.simulation.config import SimConfig
from repro.simulation.world import build_world
from tests.parallel.schedule import reversed_map_stage

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "golden_datasets.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())["0.002"]

SEED = 7
SCALE = 0.002


@pytest.fixture(scope="module")
def telemetry():
    """Instrumented registries of an in-order and a reversed collection."""
    registries = {}
    for schedule in ("in_order", "reversed"):
        world = build_world(SimConfig(seed=SEED, scale=SCALE))
        registry = obs.MetricsRegistry()
        with pytest.MonkeyPatch.context() as patch:
            if schedule == "reversed":
                patch.setattr(ShardEngine, "map_stage", reversed_map_stage)
            with obs.use(registry):
                dataset = collect_dataset(world)
        sha = hashlib.sha256(dataset.to_json().encode()).hexdigest()
        assert sha == GOLDEN["plain_sha256"], schedule
        registries[schedule] = registry
    return registries


class TestMergedTelemetry:
    def test_request_totals_match_serial(self, telemetry):
        serial, reversed_ = telemetry["in_order"], telemetry["reversed"]
        for name in (
            "twitter.ratelimit.requests",
            "mastodon.api.requests",
            "collection.timelines.attempted",
            "collection.timelines.ok",
            "collection.tweet_search.tweets",
            "collection.followees.ok",
            "collection.weekly_activity.attempted",
        ):
            assert serial.counter_total(name) == reversed_.counter_total(name), name

    def test_histograms_pool_across_shards(self, telemetry):
        serial, reversed_ = telemetry["in_order"], telemetry["reversed"]
        s = serial.histogram("collection.timelines.items_per_user", platform="twitter")
        p = reversed_.histogram("collection.timelines.items_per_user", platform="twitter")
        assert s.count == p.count
        assert s.quantile(0.5) == p.quantile(0.5)
        assert s.quantile(0.99) == p.quantile(0.99)

    def test_every_stage_span_present(self, telemetry):
        for registry in telemetry.values():
            for stage in PIPELINE_STAGES:
                assert registry.tracer.find(f"collect.{stage}") is not None, stage

    def test_shard_spans_fold_under_stage_spans(self, telemetry):
        for registry in telemetry.values():
            stage_span = registry.tracer.find("collect.weekly_activity")
            shard_spans = [
                s for s in stage_span.walk() if s.name == "collect.weekly_activity.shard"
            ]
            assert shard_spans, "shard spans must be adopted under the stage span"
            indices = [s.meta["shard"] for s in shard_spans]
            assert indices == sorted(indices), "shards merge in shard index order"

    def test_virtual_report_annotated_on_run_span(self, telemetry):
        for registry in telemetry.values():
            run_span = registry.tracer.find("collect_dataset")
            report = run_span.meta["parallel"]
            assert report["virtual_total"] > 0
            assert set(report["stages"]) == {
                "tweet_search",
                "timelines.twitter",
                "timelines.mastodon",
                "followees",
                "weekly_activity",
            }
            for stage in report["stages"].values():
                assert len(stage["shard_virtual"]) == stage["shards"]
                assert sum(stage["shard_virtual"]) == pytest.approx(
                    stage["virtual_total"]
                )
            # four crawlers finish the sharded crawl sooner, on the virtual clock
            makespan = sum(
                round_robin_makespan(stage["shard_virtual"], 4)
                for stage in report["stages"].values()
            )
            assert 0 < makespan < report["virtual_total"]

    def test_virtual_totals_schedule_independent(self, telemetry):
        in_order, reversed_ = (
            registry.tracer.find("collect_dataset").meta["parallel"]
            for registry in telemetry.values()
        )
        assert in_order["stages"] == reversed_["stages"]
        assert in_order["virtual_total"] == reversed_["virtual_total"]

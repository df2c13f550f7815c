"""Shard outcomes do not depend on the order the shards run in.

Every sharded stage — the five collection stages, plain and under the
``paper-section-3.2`` fault scenario, and the two world-generation stages
— is executed a second time with its shards run last to first through the
engine's per-shard executor, against the same world at the same point.
The payloads (and, for collection, each shard's virtual seconds, request
and injected-fault counts) must equal the in-order run's: a shard's
outcome depends only on the world, the config and its coordinates.  The
datasets the in-order runs go on to produce are the golden digests.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import repro.parallel.engine as engine_module
from repro.collection.cursor import SHARDED_STAGES
from repro.collection.pipeline import CollectionConfig, collect_dataset
from repro.faults import FaultPlan
from repro.parallel import ShardEngine
from repro.simulation import SimConfig, build_world
from tests.parallel.schedule import (
    canonical,
    reversed_results,
    reversed_world_payloads,
)

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "golden_datasets.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())["0.002"]

CONFIG = SimConfig(seed=7, scale=0.002)


def _sha256(dataset) -> str:
    return hashlib.sha256(dataset.to_json().encode()).hexdigest()


def test_collection_stages_are_schedule_independent(monkeypatch):
    in_order = ShardEngine.map_stage
    compared: list[str] = []

    def both_orders(self, stage, fn, items):
        backward = reversed_results(self, stage, fn, items)
        outcome = in_order(self, stage, fn, items)
        assert canonical([r.payload for r in backward]) == canonical(
            outcome.payloads
        ), stage
        assert [r.virtual_seconds for r in backward] == outcome.shard_virtual, stage
        assert sum(r.requests for r in backward) == outcome.requests, stage
        assert sum(r.injected for r in backward) == outcome.injected, stage
        compared.append(stage)
        return outcome

    world = build_world(CONFIG)
    monkeypatch.setattr(ShardEngine, "map_stage", both_orders)
    plain = collect_dataset(world)
    faulted = collect_dataset(
        world,
        CollectionConfig(fault_plan=FaultPlan.scenario("paper-section-3.2", seed=7)),
    )
    assert compared == list(SHARDED_STAGES) * 2
    assert _sha256(plain) == GOLDEN["plain_sha256"]
    assert _sha256(faulted) == GOLDEN["faulted_sha256"]


def test_world_stages_are_schedule_independent(monkeypatch):
    in_order = engine_module.map_world_stage
    compared: list[str] = []

    def both_orders(world, stage, fn, items, *, seed):
        backward = reversed_world_payloads(world, stage, fn, items, seed=seed)
        forward = in_order(world, stage, fn, items, seed=seed)
        assert canonical(backward) == canonical(forward), stage
        compared.append(stage)
        return forward

    monkeypatch.setattr(engine_module, "map_world_stage", both_orders)
    world = build_world(CONFIG)
    assert compared == ["world.materialise", "world.chatter"]
    assert _sha256(collect_dataset(world)) == GOLDEN["plain_sha256"]

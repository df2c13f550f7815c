"""The sharded world generator reproduces the golden digest.

The materialisation planner shards agents and derives one RNG stream per
(stage, shard), so the simulated world is a pure function of (config,
shard layout).  The proof obligation: the build's collected dataset is the
committed golden digest, tying the sharded generator to the re-record log
in ``tests/data/golden_datasets.json`` — also when the world stages' shards
run in a pool of 2 or 4 forked processes, each seeing the world only as it
stood at the fork.  That the shard payloads do not depend on the order the
shards run in is proven in ``tests/parallel/test_schedule_independence.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.collection.pipeline import collect_dataset
from repro.simulation import SimConfig, build_world
from tests.parallel.schedule import forked_pool, patch_world_schedule

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "data" / "golden_datasets.json"
)
GOLDEN_SHA = json.loads(GOLDEN_PATH.read_text())["0.002"]["plain_sha256"]

CONFIG = SimConfig(seed=7, scale=0.002)


def _sha() -> str:
    world = build_world(CONFIG)
    return hashlib.sha256(collect_dataset(world).to_json().encode()).hexdigest()


def test_serial_build_matches_golden():
    assert _sha() == GOLDEN_SHA


@pytest.mark.parametrize("workers", [2, 4])
def test_multiprocessing_build_matches_golden(monkeypatch, workers):
    ran = patch_world_schedule(monkeypatch, forked_pool, workers)
    sha = _sha()
    assert ran == ["world.materialise", "world.chatter"]
    assert sha == GOLDEN_SHA

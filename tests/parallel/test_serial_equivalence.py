"""The engine's headline contract: the sharded crawl reproduces the goldens.

The serial shard engine must reproduce the golden sha256 digests recorded
in ``tests/data/golden_datasets.json`` — fault-free and under the
``paper-section-3.2`` scenario — for the seed-7 scale-0.002 world.  The
golden protocol runs plain-then-faulted against one world (the second
collection also pins the RNG stream positions *between* collections), so
each case builds its own world.

The same bytes must come out when the shards run on other schedules:
``serial-N`` runs them in the calling process one round-robin lane of
``N`` crawlers after another, ``multiprocessing-N`` in a pool of ``N``
forked processes, where a shard sees the world only as it stood at the
fork and its results come back pickled.  That the bytes do not depend on
the order the shards run in is also proven stage by stage in
``test_schedule_independence.py``.  If the scheduled cases fail while the
plain serial one passes, the bug is in the partition/merge or in per-shard
state isolation; if all fail together, the dataset semantics changed and
the goldens need a sanctioned re-record (see
``tests/collection/test_determinism_golden.py``).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.collection.cursor import SHARDED_STAGES
from repro.collection.pipeline import CollectionConfig, collect_dataset
from repro.faults import FaultPlan
from repro.simulation.config import SimConfig
from repro.simulation.world import build_world
from tests.parallel.schedule import (
    crawler_lanes,
    forked_pool,
    patch_collection_schedule,
)

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "golden_datasets.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())["0.002"]

SEED = 7
SCALE = 0.002

SCHEDULES = {"serial": crawler_lanes, "multiprocessing": forked_pool}
COMBINATIONS = [
    ("serial", 1),
    ("serial", 2),
    ("serial", 4),
    ("multiprocessing", 1),
    ("multiprocessing", 2),
    ("multiprocessing", 4),
]


def _sha256(dataset) -> str:
    return hashlib.sha256(dataset.to_json().encode()).hexdigest()


def _collect_plain_then_faulted(world):
    plain = collect_dataset(world)
    faulted = collect_dataset(
        world,
        CollectionConfig(
            fault_plan=FaultPlan.scenario("paper-section-3.2", seed=SEED)
        ),
    )
    return plain, faulted


def test_serial_dataset_matches_golden():
    world = build_world(SimConfig(seed=SEED, scale=SCALE))
    plain, faulted = _collect_plain_then_faulted(world)
    assert _sha256(plain) == GOLDEN["plain_sha256"], "plain dataset diverged"
    assert len(plain.matched) == GOLDEN["matched"]
    assert _sha256(faulted) == GOLDEN["faulted_sha256"], "faulted dataset diverged"


@pytest.mark.parametrize("schedule,workers", COMBINATIONS)
def test_dataset_bytes_identical_to_serial(monkeypatch, schedule, workers):
    world = build_world(SimConfig(seed=SEED, scale=SCALE))
    ran = patch_collection_schedule(monkeypatch, SCHEDULES[schedule], workers)
    plain, faulted = _collect_plain_then_faulted(world)
    assert ran == list(SHARDED_STAGES) * 2
    assert _sha256(plain) == GOLDEN["plain_sha256"], (
        f"plain dataset diverged at schedule={schedule} workers={workers}"
    )
    assert len(plain.matched) == GOLDEN["matched"]
    assert _sha256(faulted) == GOLDEN["faulted_sha256"], (
        f"faulted dataset diverged at schedule={schedule} workers={workers}"
    )

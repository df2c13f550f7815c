"""Byte-identical output contract of the hot-path overhaul.

``tests/data/golden_datasets.json`` records sha256 digests of the seed-7
dataset JSON captured on the *pre-optimization* tree (before the inverted
indexes, the vectorized materialisation loops and the RNG compatibility
shims landed).  The optimized pipeline must reproduce those bytes exactly
— both fault-free and under the ``paper-section-3.2`` fault scenario run
against the same world, which additionally pins the RNG stream positions
*between* collections.

Any intentional change to generated content must re-record the digests
(see the file's sibling hashes for the protocol) and say so loudly in the
PR: a digest change is a dataset-format change, not a perf regression.

Re-record log: the sharded-parallel engine moved fault injection from one
call-ordered stream per client to one derived stream per (stage, shard) —
a deliberate semantic change that re-recorded the *faulted* digests at
both scales.  The *plain* digests were reproduced unchanged, which is the
proof that sharding itself never perturbs the collected bytes.

Second re-record: the columnar world generator (DESIGN.md §5) batches the
simulation's draw schedule per (stage, shard) column instead of per agent
per day, which deliberately bends the draw-order contract (word order
within posts, per-tick contagion synchronisation, boost-candidate
sampling via partial Fisher-Yates).  Both digests were re-recorded at
both scales; the replacement equivalence proof is that the sharded build
reproduces these exact bytes (``tests/simulation/test_world_sharded.py``)
and that its shard payloads do not depend on the order the shards run in
(``tests/parallel/test_schedule_independence.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.collection.pipeline import CollectionConfig, collect_dataset
from repro.faults import FaultPlan
from repro.simulation.config import SimConfig
from repro.simulation.world import build_world

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "golden_datasets.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

SEED = 7


def _digests(scale: float) -> tuple[str, str, int, int]:
    world = build_world(SimConfig(seed=SEED, scale=scale))
    plain = collect_dataset(world)
    plain_sha = hashlib.sha256(plain.to_json().encode()).hexdigest()
    faulted = collect_dataset(
        world,
        CollectionConfig(fault_plan=FaultPlan.scenario("paper-section-3.2", seed=SEED)),
    )
    faulted_sha = hashlib.sha256(faulted.to_json().encode()).hexdigest()
    return plain_sha, faulted_sha, world.twitter_store.tweet_count, len(plain.matched)


def _check(scale_key: str) -> None:
    golden = GOLDEN[scale_key]
    plain_sha, faulted_sha, tweets, matched = _digests(float(scale_key))
    assert tweets == golden["tweets"]
    assert matched == golden["matched"]
    assert plain_sha == golden["plain_sha256"]
    assert faulted_sha == golden["faulted_sha256"]


def test_seed7_dataset_bytes_unchanged_scale_0002():
    _check("0.002")


@pytest.mark.skipif(
    not os.environ.get("REPRO_GOLDEN_FULL"),
    reason="larger golden scale; set REPRO_GOLDEN_FULL=1 to run",
)
def test_seed7_dataset_bytes_unchanged_scale_0005():
    _check("0.005")

"""Deterministic sharded execution for the collection pipeline.

The paper's §3 crawl is embarrassingly parallel per user and per instance,
but a faithful reproduction must not let the execution schedule perturb
the result: crawl ordering, rate-limit arithmetic and fault determinism
are part of the measured object.  This package makes the **shard** the
determinism unit:

- :mod:`repro.parallel.sharding` — seeded shard partitioning, derived
  per-shard seeds, and the round-robin makespan model;
- :mod:`repro.parallel.engine` — the :class:`ShardEngine` that runs a
  collection stage's shards in process, each with its own clients, fault
  slice and virtual clock, and performs the order-restoring merge, plus
  :func:`map_world_stage`, the same seeded map for the simulation's
  columnar world-generation stages (no fault machinery).

The crawl's limiting cost is rate-limit and outage *waits*, so its
parallelism lives on the virtual clock: each stage records per-shard
virtual seconds, and :func:`round_robin_makespan` gives the elapsed
virtual time on any number of crawlers.

The merged :class:`~repro.collection.dataset.MigrationDataset` matches the
golden sha256 digests whatever order the shards run in — the contract
``tests/parallel/test_serial_equivalence.py`` and
``tests/parallel/test_schedule_independence.py`` prove, fault-free and
under the ``paper-section-3.2`` scenario.
"""

from repro.parallel.engine import (
    ShardAccounting,
    ShardContext,
    ShardEngine,
    ShardResult,
    StageOutcome,
    WorldShardContext,
    map_world_stage,
    world_shards,
)
from repro.parallel.sharding import (
    SHARD_COUNT,
    derive_seed,
    partition,
    partition_bounds,
    round_robin_assignment,
    round_robin_makespan,
)

__all__ = [
    "SHARD_COUNT",
    "ShardAccounting",
    "ShardContext",
    "ShardEngine",
    "ShardResult",
    "StageOutcome",
    "WorldShardContext",
    "derive_seed",
    "map_world_stage",
    "partition",
    "partition_bounds",
    "round_robin_assignment",
    "round_robin_makespan",
    "world_shards",
]

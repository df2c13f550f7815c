"""Shard schedules other than the engine's in-order loop, for tests.

A shard's outcome may depend only on the world, the config and the shard's
coordinates.  Running a stage's shards in another order through the
engine's own per-shard executor (:meth:`ShardEngine.run_shard`) — last to
first, one round-robin crawler lane after another, or in a pool of forked
processes that each see the world only as it stood at the fork — and
merging them back in shard order must therefore change nothing.
"""

from __future__ import annotations

import dataclasses
import multiprocessing

import numpy as np

import repro.parallel.engine as engine_module
from repro.parallel import (
    SHARD_COUNT,
    ShardEngine,
    round_robin_assignment,
    world_shards,
)


def reversed_results(engine: ShardEngine, stage, fn, items) -> list:
    """The stage's shard results, executed last to first, in shard order."""
    shards = engine.shards(stage, items)
    return [engine.run_shard(fn, context, part) for context, part in reversed(shards)][::-1]


def reversed_map_stage(engine: ShardEngine, stage, fn, items):
    """:meth:`ShardEngine.map_stage` with the shards executed last to first."""
    return engine.merge(stage, len(items), reversed_results(engine, stage, fn, items))


def reversed_world_payloads(world, stage, fn, items, *, seed) -> list:
    """A world stage's payloads, executed last to first, in shard order."""
    shards = world_shards(stage, items, seed=seed)
    return [fn(world, context, part) for context, part in reversed(shards)][::-1]


def crawler_lanes(shards: list, run, crawlers: int) -> list:
    """``run(context, part)`` per shard, one round-robin crawler lane after
    another (lane 0's shards, then lane 1's, ...), results in shard order."""
    by_index = {context.index: (context, part) for context, part in shards}
    done = {}
    for lane in round_robin_assignment(SHARD_COUNT, crawlers):
        for index in lane:
            if index in by_index:
                done[index] = run(*by_index[index])
    return [done[context.index] for context, _ in shards]


#: ``(run, shards)`` for the forked children, which inherit it at the fork.
_FORKED: tuple | None = None


def _run_forked(position: int):
    run, shards = _FORKED
    return run(*shards[position])


def forked_pool(shards: list, run, workers: int) -> list:
    """``run(context, part)`` per shard in a pool of ``workers`` forked
    processes, results (pickled back) in shard order."""
    global _FORKED
    _FORKED = (run, shards)
    try:
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            return pool.map(_run_forked, range(len(shards)), chunksize=1)
    finally:
        _FORKED = None


def patch_collection_schedule(monkeypatch, execute, n: int) -> list[str]:
    """Run every collection stage's shards with ``execute(shards, run, n)``.

    Returns the list the patched stages append their names to, so a test
    can check the schedule really ran.
    """
    ran: list[str] = []

    def map_stage(engine, stage, fn, items):
        results = execute(
            engine.shards(stage, items),
            lambda context, part: engine.run_shard(fn, context, part),
            n,
        )
        ran.append(stage)
        return engine.merge(stage, len(items), results)

    monkeypatch.setattr(ShardEngine, "map_stage", map_stage)
    return ran


def patch_world_schedule(monkeypatch, execute, n: int) -> list[str]:
    """Run every world-generation stage's shards with ``execute``."""
    ran: list[str] = []

    def map_world_stage(world, stage, fn, items, *, seed):
        payloads = execute(
            world_shards(stage, items, seed=seed),
            lambda context, part: fn(world, context, part),
            n,
        )
        ran.append(stage)
        return payloads

    monkeypatch.setattr(engine_module, "map_world_stage", map_world_stage)
    return ran


def canonical(value):
    """A comparable form of a shard payload (numpy columns by bytes)."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (f.name, canonical(getattr(value, f.name)))
                for f in dataclasses.fields(value)
            ),
        )
    if isinstance(value, dict):
        return ("dict", tuple((canonical(k), canonical(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(canonical(v) for v in value))
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted(map(repr, value))))
    return value

"""Deterministic work partitioning for the sharded collection engine.

The determinism unit of :mod:`repro.parallel` is the **shard**, not the
worker: a stage's items are split into a fixed number of contiguous,
balanced shards (:func:`partition`), and every shard derives its own seed
(:func:`derive_seed`) for fault injection and backoff jitter.  Because the
partition and the derived seeds depend only on the item list, the shard
count and the shard seed — never on the execution order — the merged
result of a sharded stage is byte-identical however the shards are
scheduled.

Workers enter only through :func:`round_robin_makespan`, the deterministic
model of how long the sharded crawl takes on ``workers`` parallel crawlers:
shard ``i`` runs on worker ``i % workers``, a worker's clock is the sum of
its shards' virtual durations, and the stage's makespan is the slowest
worker's clock.  This is the quantity the paper's crawl lived under (rate
limit windows and outages are *waits*, not work), the documented measure
of crawl parallelism, and the one the parallel benchmark gates on.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from typing import TypeVar

T = TypeVar("T")

#: Shards per sharded stage.  Fixed — the golden-dataset digests are a
#: function of the shard layout, so changing this is a dataset change and
#: must re-record ``tests/data/golden_datasets.json``.
SHARD_COUNT = 8


def derive_seed(shard_seed: int, base_seed: int, stage: str, index: int) -> int:
    """A stable 64-bit seed for shard ``index`` of ``stage``.

    Derivation hashes the collection run's ``shard_seed``, the fault plan's
    own seed and the shard coordinates, so distinct shards get independent
    streams while the same shard always gets the same one — regardless of
    when it executes.
    """
    material = f"repro.parallel:{shard_seed}:{base_seed}:{stage}:{index}"
    digest = hashlib.sha256(material.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def partition(items: Sequence[T], shards: int) -> list[list[T]]:
    """Split ``items`` into ``shards`` contiguous, balanced slices.

    Sizes differ by at most one (the first ``len(items) % shards`` shards
    are one longer); concatenating the result in shard order restores the
    input exactly — the property the order-restoring merge relies on.
    Trailing shards may be empty when there are fewer items than shards.
    """
    if shards < 1:
        raise ValueError(f"shard count must be at least 1, got {shards}")
    n = len(items)
    base, extra = divmod(n, shards)
    out: list[list[T]] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        out.append(list(items[start : start + size]))
        start += size
    return out


def partition_bounds(n: int, shards: int) -> list[tuple[int, int]]:
    """``(start, stop)`` index bounds of :func:`partition` over ``range(n)``.

    The array-state twin of :func:`partition`: columnar stages shard a row
    range instead of an item list, and slicing columns by these bounds
    yields exactly the rows ``partition`` would have put in each shard.
    Empty trailing shards are omitted (their bounds would be zero-width).
    """
    if shards < 1:
        raise ValueError(f"shard count must be at least 1, got {shards}")
    base, extra = divmod(n, shards)
    bounds: list[tuple[int, int]] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        if size:
            bounds.append((start, start + size))
        start += size
    return bounds


def round_robin_assignment(shards: int, workers: int) -> list[list[int]]:
    """Shard indices per worker under the round-robin schedule."""
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    lanes: list[list[int]] = [[] for _ in range(workers)]
    for index in range(shards):
        lanes[index % workers].append(index)
    return lanes


def round_robin_makespan(durations: Sequence[float], workers: int) -> float:
    """The slowest worker's virtual clock under round-robin scheduling.

    ``durations[i]`` is shard ``i``'s virtual duration; with one worker this
    is simply the serial total.
    """
    lanes = round_robin_assignment(len(durations), workers)
    if not durations:
        return 0.0
    return max(sum(durations[i] for i in lane) for lane in lanes)


__all__ = [
    "SHARD_COUNT",
    "derive_seed",
    "partition",
    "partition_bounds",
    "round_robin_assignment",
    "round_robin_makespan",
]

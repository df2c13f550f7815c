"""The deterministic sharded execution engine.

:class:`ShardEngine` runs a collection stage's per-item work over seeded
shards (see :mod:`repro.parallel.sharding`): every shard gets its own
derived fault-injector slice, backoff-jitter stream, rate-limiter quota,
virtual-clock segment and (when the run is instrumented) its own metrics
registry, whose contents are folded back into the main trace in shard
order.  Shards execute one after another in the calling process.

Determinism contract: a shard's outcome depends only on the world, the
collection config and the shard's coordinates — never on which shards ran
before it.  The order-restoring merge (shards are contiguous slices,
merged by concatenation in shard index order) therefore produces the
golden bytes whatever the schedule, which
``tests/parallel/test_serial_equivalence.py`` proves against the golden
digests and ``tests/parallel/test_schedule_independence.py`` by running
every shard in reverse order.

How long the crawl would take on ``N`` parallel crawlers is a virtual-clock
question, not a wall-clock one: each stage records its per-shard virtual
seconds, and :func:`~repro.parallel.sharding.round_robin_makespan` turns
them into the makespan at any worker count.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import obs
from repro.faults import FaultPlan
from repro.parallel.sharding import SHARD_COUNT, derive_seed, partition
from repro.transport import RetryPolicy


@dataclass(frozen=True)
class ShardContext:
    """One shard's derived execution context.

    ``fault_plan`` is the run's plan re-seeded with the shard's derived
    seed, so each shard draws an independent fault stream; the per-shard
    clients built from it carry fresh rate-limiter/virtual-clock state
    (the shard's own clock segment) and a fresh circuit-breaker board.
    """

    stage: str
    index: int
    count: int
    seed: int
    fault_plan: FaultPlan
    retry_policy: RetryPolicy

    def twitter_api(self, world):
        """A per-shard Twitter client: own limiter, clock and injector."""
        return world.twitter_api(faults=self.fault_plan, retry=self.retry_policy)

    def mastodon_client(self, world):
        """A per-shard Mastodon client: own clock, breaker and injector."""
        from repro.fediverse.api import MastodonClient

        return MastodonClient(
            world.network, faults=self.fault_plan, retry=self.retry_policy
        )


@dataclass
class ShardAccounting:
    """Budget accounting one shard reports back for the merge.

    ``virtual_seconds`` is the shard's elapsed virtual clock — rate-limit
    waits plus backoff sleeps — the duration a real crawler would have
    spent on the shard.  Request counters live in the shard registry and
    sum to the serial totals when merged.
    """

    virtual_seconds: float = 0.0
    requests: int = 0
    injected: int = 0

    def absorb_twitter(self, api) -> None:
        self.virtual_seconds += float(api.limiter.clock_seconds)
        self.requests += sum(api.limiter.request_counts.values())
        if api.transport.injector is not None:
            self.injected += api.transport.injector.injected_total

    def absorb_mastodon(self, client) -> None:
        self.virtual_seconds += float(client.transport.clock.now())
        self.requests += client.request_count
        if client.transport.injector is not None:
            self.injected += client.transport.injector.injected_total


#: A collection stage's shard function:
#: ``fn(world, config, context, items, accounting) -> payload``.
StageFn = Callable[[Any, Any, ShardContext, list, ShardAccounting], Any]


@dataclass
class ShardResult:
    """One executed shard: its payload plus what the merge folds in."""

    index: int
    payload: Any
    virtual_seconds: float
    requests: int
    injected: int
    registry: obs.MetricsRegistry | None


@dataclass
class StageOutcome:
    """A sharded stage's merged view, payloads in shard order.

    ``shard_virtual`` holds each shard's virtual seconds;
    ``round_robin_makespan(shard_virtual, n)`` is the stage's duration on
    ``n`` parallel crawlers.
    """

    stage: str
    payloads: list[Any]
    items: int
    shards: int
    shard_virtual: list[float] = field(default_factory=list)
    requests: int = 0
    injected: int = 0

    @property
    def virtual_total(self) -> float:
        """Serial virtual duration: the sum over every shard."""
        return sum(self.shard_virtual)


class ShardEngine:
    """Runs sharded stages for one collection run::

        engine = ShardEngine(world, config)
        outcome = engine.map_stage("tweet_search", tweet_search_shard, queries)

    :meth:`map_stage` is :meth:`shards` (the seeded partition),
    :meth:`run_shard` per shard, and :meth:`merge`, the order-restoring
    merge: payloads in shard order, shard registries folded into the
    ambient :func:`repro.obs.current` registry in shard order, and a
    per-stage virtual-time report (:meth:`virtual_report`).
    """

    def __init__(self, world, config) -> None:
        self.world = world
        self.config = config
        self.stage_reports: dict[str, dict] = {}
        self.injected_total = 0

    def shards(self, stage: str, items: Sequence) -> list[tuple[ShardContext, list]]:
        """The stage's non-empty shards with their derived contexts.

        Skipping empty shards cannot shift another shard's streams: the
        derived seeds are positional.
        """
        plan = self.config.fault_plan
        out = []
        for index, part in enumerate(partition(items, SHARD_COUNT)):
            if not part:
                continue
            seed = derive_seed(self.config.shard_seed, plan.seed, stage, index)
            context = ShardContext(
                stage=stage,
                index=index,
                count=SHARD_COUNT,
                seed=seed,
                fault_plan=dataclasses.replace(plan, seed=seed),
                retry_policy=self.config.retry_policy,
            )
            out.append((context, part))
        return out

    def run_shard(self, fn: StageFn, context: ShardContext, items: list) -> ShardResult:
        """Execute one shard in its own registry and accounting scope.

        An instrumented ambient registry gets a fresh shard registry in the
        same memory-accounting mode; the shard span records the shard's
        coordinates and virtual seconds.
        """
        ambient = obs.current()
        instrumented = ambient.enabled
        registry = obs.MetricsRegistry() if instrumented else obs.NOOP
        accountant = None
        if instrumented:
            registry.watch_default_counters()
            memory = ambient.tracer.memory
            if memory is not None:
                accountant = registry.enable_memory(
                    rss=memory.rss, trace_allocs=memory.trace_allocs
                )
        accounting = ShardAccounting()
        with obs.use(registry):
            with registry.span(f"collect.{context.stage}.shard") as span:
                span.annotate(
                    shard=context.index, stage=context.stage, items=len(items)
                )
                payload = fn(self.world, self.config, context, items, accounting)
                span.annotate(
                    virtual_seconds=accounting.virtual_seconds,
                    requests=accounting.requests,
                )
        if accountant is not None:
            accountant.close()
        return ShardResult(
            index=context.index,
            payload=payload,
            virtual_seconds=accounting.virtual_seconds,
            requests=accounting.requests,
            injected=accounting.injected,
            registry=registry if instrumented else None,
        )

    def map_stage(self, stage: str, fn: StageFn, items: Sequence) -> StageOutcome:
        """Run ``items`` through ``fn`` in seeded shards and merge."""
        results = [
            self.run_shard(fn, context, part)
            for context, part in self.shards(stage, items)
        ]
        return self.merge(stage, len(items), results)

    def merge(
        self, stage: str, item_count: int, results: list[ShardResult]
    ) -> StageOutcome:
        """Fold a stage's shard results, given in shard index order.

        The outcome's payloads keep that order (shards are contiguous item
        slices, so concatenating payloads restores item order).  Shard
        registries are merged into the ambient registry — also in shard
        order — so counters sum, histograms pool and the shard spans land
        under the currently open stage span.
        """
        registry = obs.current()
        outcome = StageOutcome(
            stage=stage, payloads=[], items=item_count, shards=len(results)
        )
        for result in results:
            outcome.payloads.append(result.payload)
            outcome.shard_virtual.append(result.virtual_seconds)
            outcome.requests += result.requests
            outcome.injected += result.injected
            if result.registry is not None:
                registry.merge(result.registry)
        self.injected_total += outcome.injected
        self.stage_reports[stage] = {
            "items": outcome.items,
            "shards": outcome.shards,
            "requests": outcome.requests,
            "virtual_total": outcome.virtual_total,
            "shard_virtual": list(outcome.shard_virtual),
        }
        return outcome

    def virtual_report(self) -> dict:
        """Per-stage and total virtual timings of the sharded crawl."""
        return {
            "shards": SHARD_COUNT,
            "stages": dict(self.stage_reports),
            "virtual_total": sum(
                r["virtual_total"] for r in self.stage_reports.values()
            ),
        }


# -- world-generation stages ---------------------------------------------------


@dataclass(frozen=True)
class WorldShardContext:
    """One world-generation shard's coordinates and derived seed."""

    stage: str
    index: int
    count: int
    seed: int

    def rng(self):
        """A fresh generator seeded for exactly this (stage, shard)."""
        import numpy as _np

        return _np.random.default_rng(self.seed)


def world_shards(
    stage: str, items: Sequence, *, seed: int
) -> list[tuple[WorldShardContext, list]]:
    """The non-empty shards of a world-generation stage, in shard order.

    Shard ``i`` of stage ``s`` computes with ``derive_seed(seed, seed, s,
    i)``; the seeds are positional, so skipping an empty shard cannot shift
    another shard's stream.
    """
    return [
        (
            WorldShardContext(
                stage=stage,
                index=index,
                count=SHARD_COUNT,
                seed=derive_seed(seed, seed, stage, index),
            ),
            part,
        )
        for index, part in enumerate(partition(items, SHARD_COUNT))
        if part
    ]


def map_world_stage(
    world, stage: str, fn: Callable, items: Sequence, *, seed: int
) -> list:
    """Payloads of ``fn(world, context, items)`` over seeded shards, in
    shard order, so concatenating them restores item order.

    The world-generation sibling of :meth:`ShardEngine.map_stage`: no fault
    plans, retry policies or per-shard registries.  A shard's payload is a
    pure function of (world, stage, shard items, derived seed) — shard
    functions MUST NOT mutate the world — which
    ``tests/parallel/test_schedule_independence.py`` checks by running the
    shards in reverse order.
    """
    return [
        fn(world, context, part)
        for context, part in world_shards(stage, items, seed=seed)
    ]


__all__ = [
    "ShardAccounting",
    "ShardContext",
    "ShardEngine",
    "ShardResult",
    "StageFn",
    "StageOutcome",
    "WorldShardContext",
    "map_world_stage",
    "world_shards",
]

"""End-to-end collection: Section 3, start to finish.

``collect_dataset(world)`` runs, in order:

1. instance-index compilation,
2. migration-tweet search,
3. hierarchical handle matching,
4. Twitter and Mastodon timeline crawls (with failure accounting),
5. the stratified followee crawl,
6. the weekly-activity crawl over every instance hosting a match,
7. a Google-Trends pull for the Figure 1 terms.

The result is a :class:`~repro.collection.dataset.MigrationDataset` that the
analyses consume; nothing downstream ever touches the world again.

Two orthogonal extensions ride on the same stage sequence (PR 10):

- **observer clock** — ``CollectionConfig.clock`` pretends the crawl runs
  on a given simulated day: every stage window is clipped to the clock, the
  weekly-activity rows keep only fully-elapsed weeks, and the trends noise
  stream is rewound so a re-pull at a later clock reproduces the earlier
  prefix.  A clocked dataset carries a manifest (``dataset_version`` +
  clock) in its headers.
- **resumability** — :func:`run_pipeline` can checkpoint after every stage
  (crawl cursor JSON + dataset snapshot) and re-enter at the first
  incomplete stage, producing the same bytes as an uninterrupted run.

``repro.incremental`` builds the delta-advance path on top of both.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import obs
from repro.collection import shards
from repro.collection.cursor import (
    CollectionState,
    CrawlCursor,
    config_digest,
    dataset_version_for,
    load_cursor,
    save_cursor,
    shard_seed_digests,
    validate_cursor,
)
from repro.collection.dataset import CrawlCoverage, MatchedUser, MigrationDataset
from repro.collection.followees import budgeted_fraction, stratified_sample
from repro.collection.handle_matching import HandleMatcher
from repro.collection.instance_list import compile_instance_list
from repro.collection.timelines import finalize_timeline_metrics
from repro.collection.tweet_search import (
    CollectedTweets,
    TweetCollector,
    merge_collected,
)
from repro.errors import ConfigError, ResumeError
from repro.faults import FaultPlan
from repro.parallel.engine import ShardEngine
from repro.simulation.world import World
from repro.transport import RetryPolicy
from repro.util.clock import (
    SIM_END,
    SIM_START,
    TWEET_COLLECTION_END,
    TWEET_COLLECTION_START,
    week_label_start,
)


#: The seven numbered stages of :func:`collect_dataset`, in execution order.
#: Each runs inside a span named ``collect.<stage>`` under the
#: ``collect_dataset`` root span; CI's telemetry smoke run checks that the
#: exported trace names every one of them.
PIPELINE_STAGES = (
    "instance_list",
    "tweet_search",
    "handle_matching",
    "timelines",
    "followees",
    "weekly_activity",
    "trends",
)


@dataclass(frozen=True)
class CollectionConfig:
    """Knobs of the collection run (the paper's §3 choices).

    ``fault_plan`` injects transient failures at the client transport
    (default: none — a fault-free run is byte-identical to the
    pre-resilience pipeline); ``retry_policy`` is the resilience budget the
    crawlers spend against those faults, on the virtual clock.

    ``shard_seed`` keys the per-(stage, shard) seed schedule of the
    sharded crawl stages (the shard count is the fixed
    :data:`~repro.parallel.sharding.SHARD_COUNT`).  See
    :mod:`repro.parallel`.

    ``clock`` is the observer's "today": when set, every crawl window is
    clipped to it (the simulated future does not exist yet) and the dataset
    is stamped with a monotonic ``dataset_version``.  The contract behind
    the incremental plane is that advancing the clock and re-collecting
    from scratch are byte-identical.  ``clock = None`` (the default) is the
    legacy full-window collection, bytes unchanged.
    """

    tweet_window_start: _dt.date = TWEET_COLLECTION_START
    tweet_window_end: _dt.date = TWEET_COLLECTION_END
    timeline_window_start: _dt.date = SIM_START
    timeline_window_end: _dt.date = SIM_END
    followee_sample_fraction: float = 0.10
    sampler_seed: int = 99
    fault_plan: FaultPlan = field(default_factory=FaultPlan.none)
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    shard_seed: int = 0
    clock: _dt.date | None = None

    def __post_init__(self) -> None:
        if self.clock is None:
            return
        if self.clock < self.tweet_window_start:
            raise ConfigError(
                f"clock {self.clock} predates the tweet window start "
                f"{self.tweet_window_start}: the §3.1 corpus would be empty"
            )
        if self.clock > self.timeline_window_end:
            raise ConfigError(
                f"clock {self.clock} is past the timeline window end "
                f"{self.timeline_window_end}; use clock=None for a full"
                " (unclocked) collection"
            )

    def effective_tweet_window(self) -> tuple[_dt.date, _dt.date]:
        """The §3.1 search window, clipped to the observer clock."""
        end = self.tweet_window_end
        if self.clock is not None:
            end = min(end, self.clock)
        return self.tweet_window_start, end

    def effective_timeline_window(self) -> tuple[_dt.date, _dt.date]:
        """The timeline-crawl window, clipped to the observer clock."""
        end = self.timeline_window_end
        if self.clock is not None:
            end = min(end, self.clock)
        return self.timeline_window_start, end


def checkpoint_dataset_path(checkpoint_path: str | Path) -> Path:
    """The dataset snapshot that lives next to a cursor checkpoint."""
    return Path(checkpoint_path).with_suffix(".npz")


def _fresh_cursor(world: World, config: CollectionConfig) -> CrawlCursor:
    return CrawlCursor(
        world_seed=world.config.seed,
        world_scale=world.config.scale,
        config_digest=config_digest(config),
        clock=config.clock,
        dataset_version=(
            dataset_version_for(config.clock) if config.clock is not None else None
        ),
        shard_seeds=shard_seed_digests(config),
    )


def collect_dataset(
    world: World, config: CollectionConfig | None = None
) -> MigrationDataset:
    """Run the full Section 3 pipeline against a simulated world."""
    dataset, _ = run_pipeline(world, config)
    return dataset


def run_pipeline(
    world: World,
    config: CollectionConfig | None = None,
    *,
    capture_state: bool = False,
    checkpoint_path: str | Path | None = None,
) -> tuple[MigrationDataset, CrawlCursor | None]:
    """Run the pipeline, optionally resumable and cursor-producing.

    With ``capture_state`` (or a ``checkpoint_path``), the run also builds
    a :class:`~repro.collection.cursor.CrawlCursor` recording the frontier
    state an incremental advance needs; the cursor is returned alongside
    the dataset (``None`` otherwise).

    With ``checkpoint_path``, the cursor plus a dataset snapshot are
    written after every completed stage.  If the path already holds a
    cursor, the run validates it against this world + config (raising
    :class:`~repro.errors.ResumeError` on any mismatch), reloads the
    snapshot and re-enters at the first incomplete stage — a resumed run
    is byte-identical to an uninterrupted one, because shard work and
    fault streams are keyed by per-(stage, shard) derived seeds, not by
    wall progress.
    """
    config = config if config is not None else CollectionConfig()
    registry = obs.current()
    # request-budget burn-down: every 500 simulated requests drops one
    # ``counter`` event into the event stream (no-op when uninstrumented)
    registry.watch_default_counters()

    capture = capture_state or checkpoint_path is not None
    cursor: CrawlCursor | None = None
    dataset = MigrationDataset()
    done: set[str] = set()

    if checkpoint_path is not None and Path(checkpoint_path).exists():
        cursor = load_cursor(checkpoint_path)
        validate_cursor(cursor, world, config)
        if cursor.clock != config.clock:
            raise ResumeError(
                f"checkpoint clock {cursor.clock} does not match the "
                f"config clock {config.clock}"
            )
        dataset = load_npz_checkpoint(checkpoint_path)
        done = set(cursor.completed_stages)
    if cursor is None and capture:
        cursor = _fresh_cursor(world, config)
    state: CollectionState | None = cursor.state if cursor is not None else None

    tweet_hw = config.effective_tweet_window()[1].isoformat()
    timeline_hw = config.effective_timeline_window()[1].isoformat()

    def mark(stage: str, high_water: str) -> None:
        if cursor is None:
            return
        cursor.completed_stages.append(stage)
        cursor.high_water[stage] = high_water
        if checkpoint_path is not None:
            # snapshot first, cursor second: a cursor on disk always
            # describes a snapshot that exists
            from repro.collection.binfmt import save_npz

            save_npz(dataset, checkpoint_dataset_path(checkpoint_path))
            save_cursor(cursor, checkpoint_path)

    # The pipeline-level API handle only sizes the followee budget (pure
    # quota arithmetic); every simulated request is issued by a per-shard
    # client built inside the engine, so the whole fault/limiter state
    # lives at shard granularity.
    api = world.twitter_api(faults=config.fault_plan, retry=config.retry_policy)

    collected: CollectedTweets | None = None

    engine = ShardEngine(world, config)
    with registry.span("collect_dataset") as run_span:
        # 1. instance index
        if "instance_list" not in done:
            with registry.span("collect.instance_list") as span:
                directory = world.directory()
                dataset.instance_domains = compile_instance_list(directory)
                span.annotate(domains=len(dataset.instance_domains))
            mark("instance_list", timeline_hw)

        # 2. migration tweets, sharded by query
        if "tweet_search" not in done:
            with registry.span("collect.tweet_search") as span:
                since, until = config.effective_tweet_window()
                collector = TweetCollector(api, since=since, until=until)
                queries = collector.build_queries(dataset.instance_domains)
                registry.counter("collection.tweet_search.queries").inc(
                    len(queries)
                )
                outcome = engine.map_stage(
                    "tweet_search",
                    shards.tweet_search_shard,
                    queries,
                )
                collected = merge_collected(outcome.payloads)
                dataset.collected_tweets = collected.tweets
                dataset.collected_user_count = collected.user_count
                if state is not None:
                    state.users.update(collected.users)
                span.annotate(
                    tweets=collected.tweet_count,
                    users=collected.user_count,
                    shards=outcome.shards,
                )
            mark("tweet_search", tweet_hw)
        elif state is not None:
            # resumed past the search: rebuild the in-memory corpus view
            # from the snapshot + cursor (same tweet-id order as a merge)
            collected = CollectedTweets(
                tweets=list(dataset.collected_tweets), users=dict(state.users)
            )

        # 3. handle matching
        if "handle_matching" not in done:
            with registry.span("collect.handle_matching") as span:
                matcher = HandleMatcher(frozenset(dataset.instance_domains))
                matches = matcher.match_all(
                    collected.users, collected.tweets_by_author()
                )
                for user_id, match in sorted(matches.items()):
                    user = collected.users[user_id]
                    dataset.matched[user_id] = MatchedUser(
                        twitter_user_id=user_id,
                        twitter_username=user.username,
                        mastodon_acct=match.mastodon_acct,
                        matched_via=match.matched_via,
                        verified=user.verified,
                        twitter_created_at=user.created_at,
                        twitter_followers=user.followers_count,
                        twitter_following=user.following_count,
                    )
                span.annotate(matched=len(dataset.matched))
            mark("handle_matching", tweet_hw)

        matched_list = dataset.matched_users()

        # 4. timelines, sharded by matched user
        if "timelines" not in done:
            with registry.span("collect.timelines") as span:
                with registry.span("collect.timelines.twitter"):
                    outcome = engine.map_stage(
                        "timelines.twitter",
                        shards.twitter_timelines_shard,
                        matched_list,
                    )
                    coverage = CrawlCoverage()
                    for part_timelines, part_coverage, part_buckets in (
                        outcome.payloads
                    ):
                        dataset.twitter_timelines.update(part_timelines)
                        coverage = coverage.merge(part_coverage)
                        if state is not None:
                            state.twitter_buckets.update(part_buckets)
                    dataset.twitter_coverage = coverage
                    finalize_timeline_metrics("twitter", coverage)
                with registry.span("collect.timelines.mastodon"):
                    outcome = engine.map_stage(
                        "timelines.mastodon",
                        shards.mastodon_timelines_shard,
                        matched_list,
                    )
                    coverage = CrawlCoverage()
                    for accounts, part_timelines, part_coverage, part_buckets in (
                        outcome.payloads
                    ):
                        dataset.accounts.update(accounts)
                        dataset.mastodon_timelines.update(part_timelines)
                        coverage = coverage.merge(part_coverage)
                        if state is not None:
                            state.mastodon_buckets.update(part_buckets)
                    dataset.mastodon_coverage = coverage
                    finalize_timeline_metrics("mastodon", coverage)
                span.annotate(
                    twitter_ok=dataset.twitter_coverage.ok,
                    mastodon_ok=dataset.mastodon_coverage.ok,
                )
            mark("timelines", timeline_hw)

        # 5. followee sample (budget first, stratification second),
        #    sharded by sampled user
        if "followees" not in done:
            with registry.span("collect.followees") as span:
                fraction = budgeted_fraction(
                    api, len(matched_list), default=config.followee_sample_fraction
                )
                rng = np.random.default_rng(config.sampler_seed)
                sample = stratified_sample(matched_list, fraction, rng)
                # The switching analysis (Fig. 10) needs followee data for
                # switchers; at paper scale the 10% sample contains hundreds of
                # them, at simulation scale it would contain almost none, so
                # every observed switcher is added to the crawl (a few extra
                # users, well within budget).
                sampled_ids = {u.twitter_user_id for u in sample}
                for uid in dataset.switchers():
                    if uid not in sampled_ids and uid in dataset.matched:
                        sample.append(dataset.matched[uid])
                sample.sort(key=lambda u: u.twitter_user_id)
                current_accts = {
                    uid: record.moved_to
                    for uid, record in dataset.accounts.items()
                    if record.moved_to is not None
                }
                pairs = [
                    (
                        user,
                        current_accts.get(user.twitter_user_id, user.mastodon_acct),
                    )
                    for user in sample
                ]
                outcome = engine.map_stage(
                    "followees", shards.followees_shard, pairs
                )
                for part_records, part_attempted in outcome.payloads:
                    dataset.followee_sample.update(part_records)
                    if state is not None:
                        state.followee_attempted.update(part_attempted)
                span.annotate(
                    fraction=fraction,
                    sampled=len(sample),
                    crawled=len(dataset.followee_sample),
                )
            mark("followees", timeline_hw)

        # 6. weekly activity over every instance hosting a matched account,
        #    sharded by domain
        if "weekly_activity" not in done:
            with registry.span("collect.weekly_activity") as span:
                domains = sorted(
                    {u.mastodon_domain for u in matched_list}
                    | {
                        record.second_domain
                        for record in dataset.accounts.values()
                        if record.second_domain is not None
                    }
                )
                outcome = engine.map_stage(
                    "weekly_activity",
                    shards.weekly_activity_shard,
                    domains,
                )
                failed_domains: list[str] = []
                for part_activity, part_failed in outcome.payloads:
                    dataset.weekly_activity.update(part_activity)
                    failed_domains.extend(part_failed)
                if config.clock is not None:
                    # an instance only reports a week once it has fully
                    # elapsed: keep rows whose Sunday is on or before today
                    horizon = config.clock - _dt.timedelta(days=6)
                    dataset.weekly_activity = {
                        domain: [
                            row
                            for row in rows
                            if week_label_start(row["week"]) <= horizon
                        ]
                        for domain, rows in dataset.weekly_activity.items()
                    }
                span.annotate(domains=len(domains), failed=len(failed_domains))
            mark("weekly_activity", timeline_hw)

        # 7. search-interest series (Figure 1's external data pull).
        #    TrendsService draws from the world RNG per call (stateful
        #    across collections), so this stage is not sharded.  A clocked collection rewinds the noise
        #    stream first, so pulling again at a later clock reproduces
        #    the earlier series as a prefix; unclocked collections keep
        #    the legacy cumulative stream (golden digests pin it).
        if "trends" not in done:
            with registry.span("collect.trends") as span:
                if config.clock is not None:
                    world.trends.reset()
                until = config.effective_timeline_window()[1]
                for term in world.trends.supported_terms():
                    series = world.trends.interest_over_time(
                        term, _dt.date(2022, 9, 1), until
                    )
                    dataset.trends[term] = [
                        (day.isoformat(), value) for day, value in series
                    ]
                span.annotate(terms=len(dataset.trends))
            if config.clock is not None:
                dataset.dataset_version = dataset_version_for(config.clock)
                dataset.clock = config.clock
            mark("trends", timeline_hw)

        run_span.annotate(matched=dataset.migrant_count)
        run_span.annotate(parallel=engine.virtual_report())
        if config.fault_plan.active:
            run_span.annotate(faults_injected=engine.injected_total)

    return dataset, cursor


def load_npz_checkpoint(checkpoint_path: str | Path) -> MigrationDataset:
    """Load the dataset snapshot that belongs to a cursor checkpoint."""
    from repro.collection.binfmt import load_npz

    snapshot = checkpoint_dataset_path(checkpoint_path)
    if not snapshot.exists():
        raise ResumeError(
            f"cursor at {checkpoint_path} has no dataset snapshot "
            f"({snapshot} is missing)"
        )
    return load_npz(snapshot)

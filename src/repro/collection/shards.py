"""Shard-level stage functions for the sharded collection engine.

Each function here is one stage's unit of shard work, with the uniform
signature :meth:`repro.parallel.ShardEngine.map_stage` expects::

    fn(world, config, ctx: ShardContext, items: list, accounting) -> payload

Every function builds its *own* clients from the shard context
(own rate limiter, virtual clock, fault-injector slice and breaker board),
walks its contiguous item slice with the same per-item primitives the
serial crawlers use, and returns a payload the pipeline merges in shard
index order.  Payloads carry no client state, only collected data.
"""

from __future__ import annotations

from repro.collection.dataset import (
    CrawlCoverage,
    FolloweeRecord,
    MastodonAccountRecord,
)
from repro.collection.followees import FolloweeCrawler
from repro.collection.timelines import (
    MastodonTimelineCrawler,
    TwitterTimelineCrawler,
)
from repro.collection.tweet_search import CollectedTweets, TweetCollector
from repro.collection.weekly_activity import WeeklyActivityCrawler
from repro.fediverse.models import Status
from repro.parallel.engine import ShardAccounting, ShardContext
from repro.twitter.models import Tweet


def tweet_search_shard(
    world, config, ctx: ShardContext, items: list, accounting: ShardAccounting
) -> CollectedTweets:
    """Drain one shard's slice of the §3.1 search queries.

    Dedup inside the shard uses a shard-local ``seen`` set; cross-shard
    duplicates are counted by :func:`~repro.collection.tweet_search.merge_collected`
    at merge time, so the duplicate total matches the serial walk.
    """
    api = ctx.twitter_api(world)
    since, until = config.effective_tweet_window()
    collector = TweetCollector(api, since=since, until=until)
    part = CollectedTweets()
    seen: set[int] = set()
    for query in items:
        collector.drain_query(query, part, seen)
    accounting.absorb_twitter(api)
    return part


def twitter_timelines_shard(
    world, config, ctx: ShardContext, items: list, accounting: ShardAccounting
) -> tuple[dict[int, list[Tweet]], CrawlCoverage, dict[int, str]]:
    """Crawl one shard's slice of migrants' Twitter timelines.

    The per-user ``buckets`` map is the crawl cursor's raw material: an
    incremental advance needs to know each user's outcome (not just the
    aggregate coverage) to decide who gets a delta request.
    """
    api = ctx.twitter_api(world)
    since, until = config.effective_timeline_window()
    crawler = TwitterTimelineCrawler(api, since=since, until=until)
    timelines: dict[int, list[Tweet]] = {}
    coverage = CrawlCoverage()
    buckets: dict[int, str] = {}
    for user in items:
        bucket, tweets = crawler.crawl_one(user)
        coverage.record(bucket)
        buckets[user.twitter_user_id] = bucket
        if tweets is not None:
            timelines[user.twitter_user_id] = tweets
    accounting.absorb_twitter(api)
    return timelines, coverage, buckets


def mastodon_timelines_shard(
    world, config, ctx: ShardContext, items: list, accounting: ShardAccounting
) -> tuple[
    dict[int, MastodonAccountRecord],
    dict[int, list[Status]],
    CrawlCoverage,
    dict[int, str],
]:
    """Resolve and crawl one shard's slice of Mastodon accounts."""
    client = ctx.mastodon_client(world)
    since, until = config.effective_timeline_window()
    crawler = MastodonTimelineCrawler(client, since=since, until=until)
    accounts: dict[int, MastodonAccountRecord] = {}
    timelines: dict[int, list[Status]] = {}
    coverage = CrawlCoverage()
    buckets: dict[int, str] = {}
    for user in items:
        bucket, record, statuses = crawler.crawl_one(user)
        coverage.record(bucket)
        buckets[user.twitter_user_id] = bucket
        if record is not None:
            accounts[user.twitter_user_id] = record
        if statuses is not None:
            timelines[user.twitter_user_id] = statuses
    accounting.absorb_mastodon(client)
    return accounts, timelines, coverage, buckets


def followees_shard(
    world, config, ctx: ShardContext, items: list, accounting: ShardAccounting
) -> tuple[dict[int, FolloweeRecord], list[int]]:
    """Crawl one shard's slice of the stratified followee sample.

    ``items`` are ``(MatchedUser, current_acct)`` pairs — the pipeline
    resolves post-move accounts before sharding, so the shard needs no
    view of the accounts table.  ``attempted`` lists every uid the shard
    tried (crawl failures are dropped from ``records`` but still count as
    attempted, so an incremental advance never re-crawls them).
    """
    api = ctx.twitter_api(world)
    client = ctx.mastodon_client(world)
    crawler = FolloweeCrawler(api, client)
    records: dict[int, FolloweeRecord] = {}
    attempted: list[int] = []
    for user, acct in items:
        attempted.append(user.twitter_user_id)
        record = crawler.crawl_one(user, acct)
        if record is not None:
            records[user.twitter_user_id] = record
    accounting.absorb_twitter(api)
    accounting.absorb_mastodon(client)
    return records, attempted


def weekly_activity_shard(
    world, config, ctx: ShardContext, items: list, accounting: ShardAccounting
) -> tuple[dict[str, list[dict]], list[str]]:
    """Fetch one shard's slice of per-instance weekly activity."""
    client = ctx.mastodon_client(world)
    crawler = WeeklyActivityCrawler(client)
    activity: dict[str, list[dict]] = {}
    failed: list[str] = []
    for domain in items:
        rows = crawler.crawl_one(domain)
        if rows is None:
            failed.append(domain)
        else:
            activity[domain] = rows
    accounting.absorb_mastodon(client)
    return activity, failed


__all__ = [
    "tweet_search_shard",
    "twitter_timelines_shard",
    "mastodon_timelines_shard",
    "followees_shard",
    "weekly_activity_shard",
]

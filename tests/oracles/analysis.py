"""Per-object reference implementations of the frames-backed analyses.

Each function walks the dataset's nested ``Tweet``/``Status``/record
objects directly — no column tables, no memoized products, no result
cache — and returns exactly what its runtime twin in :mod:`repro.analysis`
(or :mod:`repro.experiments.fig03_weekly_activity`) returns.  The shared
result builders (``_build_*``) are reused, so an oracle pins the part that
differs: the aggregation over the raw objects.
"""

from __future__ import annotations

import datetime as _dt

import networkx as nx
import numpy as np

from repro.analysis import content, hashtags, instance_stats as _stats
from repro.analysis import moderation, sources, switching, toxicity
from repro.analysis.activity import CollectedTweetVolumeResult, DailyVolumeResult
from repro.analysis.network_structure import NetworkStructureResult
from repro.collection.dataset import MigrationDataset
from repro.errors import AnalysisError
from repro.experiments import fig03_weekly_activity as fig03
from repro.nlp.embeddings import HashingSentenceEncoder, max_similarities
from repro.nlp.toxicity import PerspectiveScorer
from repro.twitter.clients import CROSSPOSTER_NAMES
from repro.util.clock import TAKEOVER_DATE
from repro.util.stats import percent
from repro.util.text import normalize_hashtag


def _day_counts(timelines: dict[int, list]) -> list[tuple[_dt.date, int]]:
    days: dict[_dt.date, int] = {}
    for posts in timelines.values():
        for post in posts:
            days[post.created_date] = days.get(post.created_date, 0) + 1
    return sorted(days.items())


def daily_volume(dataset: MigrationDataset) -> DailyVolumeResult:
    if not dataset.twitter_timelines and not dataset.mastodon_timelines:
        raise AnalysisError("no timelines in dataset")
    return DailyVolumeResult(
        tweets_per_day=_day_counts(dataset.twitter_timelines),
        statuses_per_day=_day_counts(dataset.mastodon_timelines),
        total_tweets=sum(len(t) for t in dataset.twitter_timelines.values()),
        total_statuses=sum(len(s) for s in dataset.mastodon_timelines.values()),
    )


def collected_tweet_volume(dataset: MigrationDataset) -> CollectedTweetVolumeResult:
    if not dataset.collected_tweets:
        raise AnalysisError("no collected tweets in dataset")
    per_day = _day_counts({0: dataset.collected_tweets})
    peak = max(per_day, key=lambda kv: kv[1])[0]
    return CollectedTweetVolumeResult(
        per_day=per_day, total=len(dataset.collected_tweets), peak_day=peak
    )


def aggregate_weeks(activity: dict[str, list[dict]]) -> list[dict]:
    """Sum per-instance rows into one row per week, sorted by week label."""
    totals: dict[str, dict] = {}
    for rows in activity.values():
        for row in rows:
            week = row["week"]
            bucket = totals.setdefault(
                week, {"week": week, "statuses": 0, "logins": 0, "registrations": 0}
            )
            bucket["statuses"] += row["statuses"]
            bucket["logins"] += row["logins"]
            bucket["registrations"] += row["registrations"]
    return [totals[w] for w in sorted(totals)]


def fig03_run(dataset: MigrationDataset):
    if not dataset.weekly_activity:
        raise AnalysisError("dataset has no weekly activity")
    return fig03.summarize(aggregate_weeks(dataset.weekly_activity))


def top_hashtags(dataset: MigrationDataset, k: int = 30):
    if not dataset.twitter_timelines and not dataset.mastodon_timelines:
        raise AnalysisError("no timelines in dataset")
    counts: list[dict[str, int]] = []
    for timelines in (dataset.twitter_timelines, dataset.mastodon_timelines):
        tags: dict[str, int] = {}
        for posts in timelines.values():
            for post in posts:
                for tag in post.hashtags:
                    key = normalize_hashtag(tag)
                    tags[key] = tags.get(key, 0) + 1
        counts.append(tags)
    return hashtags._build_result(counts[0], counts[1], k)


def switch_matrix(dataset: MigrationDataset, takeover: _dt.date = TAKEOVER_DATE):
    if not dataset.accounts:
        raise AnalysisError("no account records in dataset")
    matrix: dict[tuple[str, str], int] = {}
    post = 0
    switchers = dataset.switchers()
    for uid in switchers:
        record = dataset.accounts[uid]
        assert record.second_domain is not None
        key = (record.first_domain, record.second_domain)
        matrix[key] = matrix.get(key, 0) + 1
        second = record.second_created_at
        if second is not None and second.date() >= takeover:
            post += 1
    return switching._build_matrix(
        matrix, post, len(switchers), len(dataset.accounts)
    )


def _joined(dataset: MigrationDataset, uid: int, domain: str) -> _dt.date | None:
    """When (if ever) ``uid`` joined ``domain``, first or through a switch."""
    record = dataset.accounts.get(uid)
    if record is None:
        return None
    if record.first_domain == domain:
        return record.first_created_at.date()
    if record.second_domain == domain and record.second_created_at is not None:
        return record.second_created_at.date()
    return None


def switcher_influence(dataset: MigrationDataset):
    frac_first, frac_second, frac_before = [], [], []
    for uid in dataset.switchers():
        record = dataset.accounts[uid]
        sample = dataset.followee_sample.get(uid)
        if sample is None or not sample.twitter_followees:
            continue
        second = record.second_domain
        assert second is not None
        switch_date = (
            record.second_created_at.date() if record.second_created_at else None
        )
        migrated = [f for f in sample.twitter_followees if f in dataset.matched]
        if not migrated:
            continue
        on_first, on_second, before = 0, 0, 0
        for followee in migrated:
            if _joined(dataset, followee, record.first_domain) is not None:
                on_first += 1
            joined_second = _joined(dataset, followee, second)
            if joined_second is not None:
                on_second += 1
                if switch_date is not None and joined_second < switch_date:
                    before += 1
        frac_first.append(on_first / len(migrated))
        frac_second.append(on_second / len(migrated))
        if on_second:
            frac_before.append(before / on_second)
    if not frac_first:
        raise AnalysisError("no switchers with followee data")
    return switching._build_influence(frac_first, frac_second, frac_before)


def instance_stats(
    dataset: MigrationDataset,
    buckets: int = 4,
    takeover: _dt.date = TAKEOVER_DATE,
    crawl_date: _dt.date = _stats.DEFAULT_ANALYSIS_DATE,
    min_account_age_days: int = 30,
):
    cohort = []
    for uid in dataset.matched:
        join = dataset.mastodon_join_date(uid)
        if join is None:
            continue
        if join >= takeover and (crawl_date - join).days >= min_account_age_days:
            cohort.append(uid)
    domains = [dataset.matched[uid].mastodon_domain for uid in cohort]
    activity = {
        uid: (record.followers, record.following, record.statuses)
        for uid in cohort
        if (record := dataset.accounts.get(uid)) is not None
    }
    return _stats._build_stats(
        dataset.instance_populations(),
        cohort,
        domains,
        activity,
        len(dataset.matched),
        buckets,
    )


def top_sources(
    dataset: MigrationDataset, k: int = 30, takeover: _dt.date = TAKEOVER_DATE
):
    if not dataset.twitter_timelines:
        raise AnalysisError("no Twitter timelines in dataset")
    before: dict[str, int] = {}
    after: dict[str, int] = {}
    crossposting_users: set[int] = set()
    for uid, tweets in dataset.twitter_timelines.items():
        for tweet in tweets:
            bucket = before if tweet.created_date < takeover else after
            bucket[tweet.source] = bucket.get(tweet.source, 0) + 1
            if tweet.source in CROSSPOSTER_NAMES:
                crossposting_users.add(uid)
    for uid, statuses in dataset.mastodon_timelines.items():
        if any(s.application in CROSSPOSTER_NAMES for s in statuses):
            crossposting_users.add(uid)
    return sources._build_sources(
        before, after, len(crossposting_users), len(dataset.matched), k
    )


def crossposter_daily_users(dataset: MigrationDataset):
    days: dict[_dt.date, set[int]] = {}
    for uid, tweets in dataset.twitter_timelines.items():
        for tweet in tweets:
            if tweet.source in CROSSPOSTER_NAMES:
                days.setdefault(tweet.created_date, set()).add(uid)
    for uid, statuses in dataset.mastodon_timelines.items():
        for status in statuses:
            if status.application in CROSSPOSTER_NAMES:
                days.setdefault(status.created_date, set()).add(uid)
    if not days:
        raise AnalysisError("no cross-poster usage in dataset")
    series = sorted((day, len(users)) for day, users in days.items())
    peak_day, peak_users = max(series, key=lambda kv: kv[1])
    return sources.CrossposterDailyResult(
        users_per_day=series, peak_day=peak_day, peak_users=peak_users
    )


def build_sample_graph(dataset: MigrationDataset) -> nx.DiGraph:
    """The directed graph of the §3.3 followee sample.

    Nodes are Twitter user ids; an edge ``u -> v`` means sampled user ``u``
    follows ``v``.  Node attribute ``migrated`` marks matched migrants;
    ``instance`` carries the migrant's (first) instance domain.
    """
    if not dataset.followee_sample:
        raise AnalysisError("no followee sample in dataset")
    graph = nx.DiGraph()
    for uid, record in dataset.followee_sample.items():
        graph.add_node(uid)
        for followee in record.twitter_followees:
            graph.add_edge(uid, followee)
    for node in graph.nodes:
        user = dataset.matched.get(node)
        graph.nodes[node]["migrated"] = user is not None
        graph.nodes[node]["instance"] = (
            user.mastodon_domain if user is not None else None
        )
    return graph


def instance_cooccurrence_graph(dataset: MigrationDataset) -> nx.Graph:
    """Instances linked whenever a sampled edge crosses between them."""
    sample_graph = build_sample_graph(dataset)
    graph = nx.Graph()
    for u, v in sample_graph.edges:
        iu = sample_graph.nodes[u].get("instance")
        iv = sample_graph.nodes[v].get("instance")
        if iu is None or iv is None or iu == iv:
            continue
        if graph.has_edge(iu, iv):
            graph[iu][iv]["weight"] += 1
        else:
            graph.add_edge(iu, iv, weight=1)
    return graph


def network_structure(dataset: MigrationDataset) -> NetworkStructureResult:
    graph = build_sample_graph(dataset)
    migrated = {n for n, d in graph.nodes(data=True) if d["migrated"]}
    edges_into_migrants = sum(1 for __, v in graph.edges if v in migrated)
    total_edges = graph.number_of_edges()
    if total_edges == 0:
        raise AnalysisError("the sampled graph has no edges")
    sampled = set(dataset.followee_sample)
    inner_edges = [(u, v) for u, v in graph.edges if u in sampled and v in sampled]
    reciprocated = sum(1 for u, v in inner_edges if graph.has_edge(v, u))
    instance_graph = instance_cooccurrence_graph(dataset)
    subgraph = graph.subgraph(
        sampled | {v for u, v in graph.edges if u in sampled and v in migrated}
    )
    largest_pct = 0.0
    if subgraph.number_of_nodes():
        largest = max(len(c) for c in nx.weakly_connected_components(subgraph))
        largest_pct = percent(largest, subgraph.number_of_nodes())
    return NetworkStructureResult(
        nodes=graph.number_of_nodes(),
        edges=total_edges,
        migrated_nodes=len(migrated),
        pct_edges_into_migrants=percent(edges_into_migrants, total_edges),
        pct_expected_at_random=percent(len(migrated), graph.number_of_nodes()),
        reciprocity_pct=percent(reciprocated, len(inner_edges) or 1),
        instance_graph_nodes=instance_graph.number_of_nodes(),
        instance_graph_edges=instance_graph.number_of_edges(),
        largest_component_pct=largest_pct,
    )


def toxicity_analysis(
    dataset: MigrationDataset, threshold: float = toxicity.TOXICITY_THRESHOLD
):
    if not 0.0 < threshold < 1.0:
        raise AnalysisError(f"threshold must be in (0, 1), got {threshold}")
    scorer = PerspectiveScorer()
    fracs: tuple[list[float], list[float]] = ([], [])
    toxic_posts = [0, 0]
    total_posts = [0, 0]
    toxic_users: tuple[set[int], set[int]] = (set(), set())
    users_with_both: set[int] = set()
    timelines = (dataset.twitter_timelines, dataset.mastodon_timelines)
    for side, side_timelines in enumerate(timelines):
        for uid, posts in side_timelines.items():
            if not posts:
                continue
            toxic = sum(1 for p in posts if scorer.score(p.text) > threshold)
            fracs[side].append(toxic / len(posts))
            toxic_posts[side] += toxic
            total_posts[side] += len(posts)
            if toxic:
                toxic_users[side].add(uid)
            if side == 1 and uid in dataset.twitter_timelines:
                users_with_both.add(uid)
    if not fracs[0] and not fracs[1]:
        raise AnalysisError("no timelines to score")
    return toxicity._build_result(
        fracs[0], fracs[1], toxic_posts[0], total_posts[0],
        toxic_posts[1], total_posts[1],
        toxic_users[0], toxic_users[1], users_with_both, threshold,
    )


def moderation_load(
    dataset: MigrationDataset, threshold: float = 0.5, small_cutoff: int = 5
):
    if not dataset.mastodon_timelines:
        raise AnalysisError("no Mastodon timelines in dataset")
    scorer = PerspectiveScorer()
    per_instance: dict[str, dict[str, int]] = {}
    for uid, statuses in dataset.mastodon_timelines.items():
        if dataset.matched.get(uid) is None:
            continue
        for status in statuses:
            domain = status.account_acct.split("@", 1)[1]
            bucket = per_instance.setdefault(
                domain, {"users": 0, "statuses": 0, "toxic": 0}
            )
            bucket["statuses"] += 1
            if scorer.score(status.text) > threshold:
                bucket["toxic"] += 1
    return moderation._build_result(dataset, per_instance, small_cutoff)


def content_similarity(
    dataset: MigrationDataset, threshold: float = content.SIMILARITY_THRESHOLD
):
    if not 0.0 < threshold < 1.0:
        raise AnalysisError(f"threshold must be in (0, 1), got {threshold}")
    encoder = HashingSentenceEncoder()
    identical_fracs: list[float] = []
    similar_fracs: list[float] = []
    all_different = 0
    for uid, statuses in dataset.mastodon_timelines.items():
        tweets = dataset.twitter_timelines.get(uid)
        if not tweets or not statuses:
            continue
        status_texts = [s.text for s in statuses if not s.is_boost]
        if not status_texts:
            continue
        tweet_texts = [t.text for t in tweets]
        tweet_set = set(tweet_texts)
        identical = sum(1 for text in status_texts if text in tweet_set)
        sims = max_similarities(
            encoder.encode_batch(status_texts), encoder.encode_batch(tweet_texts)
        )
        similar = int(np.count_nonzero(sims > threshold))
        identical_fracs.append(identical / len(status_texts))
        similar_fracs.append(similar / len(status_texts))
        if similar == 0 and identical == 0:
            all_different += 1
    if not identical_fracs:
        raise AnalysisError("no users with both timelines crawled")
    return content._build_result(identical_fracs, similar_fracs, all_different)

"""Tests for repro.collection.weekly_activity and the weekly-totals oracle."""

import datetime as dt

from repro.collection.weekly_activity import WeeklyActivityCrawler
from repro.fediverse.api import MastodonClient
from repro.fediverse.network import FediverseNetwork
from tests.oracles.analysis import aggregate_weeks


def build_network():
    net = FediverseNetwork()
    a = net.create_instance("a.social")
    b = net.create_instance("b.social")
    down = net.create_instance("down.site")
    down.down = True
    a.record_aggregate_activity(dt.date(2022, 10, 28), statuses=10, logins=5,
                                registrations=2)
    b.record_aggregate_activity(dt.date(2022, 10, 28), statuses=1, logins=1,
                                registrations=1)
    b.record_aggregate_activity(dt.date(2022, 11, 4), statuses=7, logins=3,
                                registrations=0)
    return net


class TestCrawler:
    def test_collects_rows_per_domain(self):
        net = build_network()
        crawler = WeeklyActivityCrawler(MastodonClient(net))
        activity = crawler.crawl(["a.social", "b.social"])
        assert set(activity) == {"a.social", "b.social"}

    def test_down_instances_skipped_and_recorded(self):
        net = build_network()
        crawler = WeeklyActivityCrawler(MastodonClient(net))
        activity = crawler.crawl(["a.social", "down.site", "missing.zone"])
        assert set(activity) == {"a.social"}
        assert crawler.failed_domains == ["down.site", "missing.zone"]


class TestFailurePaths:
    def test_crawl_one_down_instance_returns_none(self):
        net = build_network()
        crawler = WeeklyActivityCrawler(MastodonClient(net))
        assert crawler.crawl_one("down.site") is None
        assert crawler.crawl_one("a.social") is not None

    def test_all_domains_down_yields_empty_activity(self):
        net = build_network()
        for instance in (net.get_instance("a.social"), net.get_instance("b.social")):
            instance.down = True
        crawler = WeeklyActivityCrawler(MastodonClient(net))
        activity = crawler.crawl(["a.social", "b.social", "down.site"])
        assert activity == {}
        assert crawler.failed_domains == ["a.social", "b.social", "down.site"]
        assert aggregate_weeks(activity) == []

    def test_failed_domains_reset_between_crawls(self):
        net = build_network()
        crawler = WeeklyActivityCrawler(MastodonClient(net))
        crawler.crawl(["down.site"])
        assert crawler.failed_domains == ["down.site"]
        crawler.crawl(["a.social"])
        assert crawler.failed_domains == []

    def test_counters_reconcile_with_outcomes(self):
        from repro import obs

        net = build_network()
        crawler = WeeklyActivityCrawler(MastodonClient(net))
        registry = obs.MetricsRegistry()
        with obs.use(registry):
            crawler.crawl(["a.social", "b.social", "down.site", "missing.zone"])
        assert registry.counter_total("collection.weekly_activity.attempted") == 4
        assert registry.counter_total("collection.weekly_activity.ok") == 2
        assert registry.counter_total("collection.weekly_activity.failed") == 2


class TestAggregate:
    def test_sums_per_week(self):
        net = build_network()
        crawler = WeeklyActivityCrawler(MastodonClient(net))
        activity = crawler.crawl(["a.social", "b.social"])
        weeks = aggregate_weeks(activity)
        by_week = {w["week"]: w for w in weeks}
        assert by_week["2022-W43"]["statuses"] == 11
        assert by_week["2022-W43"]["logins"] == 6
        assert by_week["2022-W43"]["registrations"] == 3
        assert by_week["2022-W44"]["statuses"] == 7

    def test_sorted_by_week(self):
        net = build_network()
        crawler = WeeklyActivityCrawler(MastodonClient(net))
        weeks = aggregate_weeks(crawler.crawl(["a.social", "b.social"]))
        labels = [w["week"] for w in weeks]
        assert labels == sorted(labels)

    def test_empty(self):
        assert aggregate_weeks({}) == []

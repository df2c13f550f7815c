"""The weekly-activity crawl (Section 3.1, Figure 3).

The paper cross-checks its migrant counts against the weekly registrations,
logins and statuses reported by the 2,879 instances migrants joined, via
Mastodon's instance-activity endpoint.  Downed instances are skipped.
"""

from __future__ import annotations

from repro import obs
from repro.errors import InstanceDownError, InstanceNotFoundError, TransientError
from repro.fediverse.api import MastodonClient


class WeeklyActivityCrawler:
    """Fetches weekly-activity rows per instance, tolerating downtime."""

    def __init__(self, client: MastodonClient) -> None:
        self._client = client
        self.failed_domains: list[str] = []

    def crawl_one(self, domain: str) -> list[dict] | None:
        """One instance's weekly-activity rows, or None when unreachable."""
        registry = obs.current()
        registry.counter("collection.weekly_activity.attempted").inc()
        try:
            rows = self._client.instance_activity(domain)
        except (InstanceDownError, InstanceNotFoundError, TransientError):
            registry.counter("collection.weekly_activity.failed").inc()
            return None
        registry.counter("collection.weekly_activity.ok").inc()
        return rows

    def crawl(self, domains: list[str]) -> dict[str, list[dict]]:
        activity: dict[str, list[dict]] = {}
        self.failed_domains = []
        for domain in domains:
            rows = self.crawl_one(domain)
            if rows is None:
                self.failed_domains.append(domain)
            else:
                activity[domain] = rows
        return activity

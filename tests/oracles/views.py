"""Per-object reference implementation of the serving endpoints.

:class:`NaiveViews` answers every request by looping over the dataset's
Python objects — no frames, no read models, no tweet index.  Its payloads
must be byte-identical to :class:`repro.serving.views.ColumnarViews` for
every endpoint and parameter set, ordering included.
"""

from __future__ import annotations

from repro.serving.routes import RequestError
from repro.serving.views import (
    _instance_payload,
    _instances_payload,
    _rank_instances,
    _search_payload,
    _timeline_payload,
    _trends_payload,
    _window_ordinals,
    build_search_query,
)
from repro.util.text import normalize_hashtag


class NaiveViews:
    def __init__(self, dataset) -> None:
        self.dataset = dataset

    def compute(self, endpoint: str, normalized: dict) -> dict:
        if endpoint == "search":
            return self.search(normalized)
        if endpoint == "timeline":
            return self.timeline(normalized)
        if endpoint == "instances":
            return self.instances(normalized)
        if endpoint == "instance":
            return self.instance(normalized)
        if endpoint == "trends":
            return _trends_payload(self.dataset.trends, normalized)
        raise RequestError(404, f"no handler for endpoint {endpoint!r}")

    def search(self, normalized: dict) -> dict:
        if normalized["platform"] == "twitter":
            query = build_search_query(normalized)
            matched = [
                t for t in self.dataset.collected_tweets if query.matches(t)
            ]
            matched.sort(key=lambda t: t.tweet_id)
            offset, limit = normalized["offset"], normalized["limit"]
            rows = [
                {
                    "id": t.tweet_id,
                    "author_id": t.author_id,
                    "day": t.created_date.isoformat(),
                    "text": t.text,
                    "source": t.source,
                    "is_retweet": t.is_retweet,
                }
                for t in matched[offset : offset + limit]
            ]
            return _search_payload(normalized, len(matched), rows)
        kind, term = normalized["kind"], normalized["term"]
        lo, hi = _window_ordinals(normalized)
        matched: list[tuple[int, object]] = []
        for uid, statuses in self.dataset.mastodon_timelines.items():
            for status in statuses:
                if not lo <= status.created_date.toordinal() <= hi:
                    continue
                if kind == "hashtag":
                    if not any(
                        normalize_hashtag(t) == term for t in status.hashtags
                    ):
                        continue
                elif term not in status.text.lower():
                    continue
                matched.append((uid, status))
        offset, limit = normalized["offset"], normalized["limit"]
        rows = [
            {
                "uid": uid,
                "day": status.created_date.isoformat(),
                "text": status.text,
                "application": status.application,
                "is_boost": status.is_boost,
            }
            for uid, status in matched[offset : offset + limit]
        ]
        return _search_payload(normalized, len(matched), rows)

    def timeline(self, normalized: dict) -> dict:
        platform, uid = normalized["platform"], normalized["uid"]
        if platform == "twitter":
            posts = self.dataset.twitter_timelines.get(uid)
            label_key, flag_key = "source", "is_retweet"
        else:
            posts = self.dataset.mastodon_timelines.get(uid)
            label_key, flag_key = "application", "is_boost"
        if posts is None:
            raise RequestError(404, f"uid {uid} has no {platform} timeline")
        lo, hi = _window_ordinals(normalized)
        windowed = [p for p in posts if lo <= p.created_date.toordinal() <= hi]
        offset, limit = normalized["offset"], normalized["limit"]
        rows = [
            {
                "day": post.created_date.isoformat(),
                "text": post.text,
                label_key: getattr(post, label_key),
                flag_key: getattr(post, flag_key),
            }
            for post in windowed[offset : offset + limit]
        ]
        return _timeline_payload(normalized, len(windowed), rows)

    def instances(self, normalized: dict) -> dict:
        ranked = _rank_instances(self.dataset.instance_populations())
        offset, limit = normalized["offset"], normalized["limit"]
        rows = [
            {"domain": domain, "users": users}
            for domain, users in ranked[offset : offset + limit]
        ]
        return _instances_payload(normalized, len(ranked), rows)

    def instance(self, normalized: dict) -> dict:
        domain = normalized["domain"]
        users = self.dataset.instance_populations().get(domain)
        weekly = self.dataset.weekly_activity.get(domain)
        if users is None and weekly is None:
            raise RequestError(404, f"unknown instance: {domain}")
        return _instance_payload(domain, users or 0, weekly or [])

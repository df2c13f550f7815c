"""Endpoint implementations: every endpoint answered from flat columns.

:class:`ColumnarViews` is the serving path.  All per-request reads come
off flat columns prepared once at warmup — the frames timeline tables
(per-account CSR offsets via ``frames.timeline_offsets``), a search-column
block over the §3.1 collected corpus backed by a
:class:`~repro.twitter.index.TweetIndex`, hashtag postings over the status
table, and a ranked instance directory.  No ``Tweet`` or ``Status`` object
is touched while answering a request.

The payloads are deterministic functions of the normalized request, which
is what makes the serving caches safe: a cache key is the normalized
request.  A per-object reference implementation lives with the tests
(``tests/oracles``), and ``tests/serving/test_equivalence.py`` requires
byte-identical JSON from both for every endpoint and parameter set.

Ordering rules:

- tweet search results ascend by tweet id (the index's candidate order);
- status search results follow status-table row order, i.e. dataset dict
  iteration order with timeline order within a user;
- timelines keep timeline order; instances rank by (-users, domain).
"""

from __future__ import annotations

import datetime as _dt
import time
from typing import Callable, Iterator

from repro import obs
from repro.frames.core import frames_of
from repro.frames.tables import TimelineTable, iso_day_strings
from repro.serving.routes import RequestError
from repro.twitter.index import TweetIndex
from repro.twitter.search import SearchQuery

#: Window sentinel ordinals (no date in the corpora falls outside these).
_ORD_MIN = 0
_ORD_MAX = 4_000_000


def build_search_query(normalized: dict) -> SearchQuery:
    """The :class:`SearchQuery` equivalent of a normalized search request."""
    since = (
        _dt.date.fromisoformat(normalized["since"]) if normalized["since"] else None
    )
    until = (
        _dt.date.fromisoformat(normalized["until"]) if normalized["until"] else None
    )
    kind, term = normalized["kind"], normalized["term"]
    if kind == "q":
        return SearchQuery(phrases=(term,), since=since, until=until)
    if kind == "hashtag":
        return SearchQuery(hashtags=(term,), since=since, until=until)
    return SearchQuery(url_domains=(term,), since=since, until=until)


def _window_ordinals(normalized: dict) -> tuple[int, int]:
    """Inclusive ``(lo, hi)`` day-ordinal bounds of a normalized window."""
    since, until = normalized["since"], normalized["until"]
    lo = _dt.date.fromisoformat(since).toordinal() if since else _ORD_MIN
    hi = _dt.date.fromisoformat(until).toordinal() if until else _ORD_MAX
    return lo, hi


def _paginate(positions: Iterator[int], limit: int, offset: int) -> tuple[int, list[int]]:
    """Count every position, keeping only the requested page."""
    page: list[int] = []
    stop = offset + limit
    total = 0
    for pos in positions:
        if offset <= total < stop:
            page.append(pos)
        total += 1
    return total, page


# -- payload shapes ------------------------------------------------------------


def _search_payload(normalized: dict, total: int, rows: list[dict]) -> dict:
    return {"endpoint": "search", "params": normalized, "total": total, "rows": rows}


def _timeline_payload(normalized: dict, total: int, rows: list[dict]) -> dict:
    return {"endpoint": "timeline", "params": normalized, "total": total, "rows": rows}


def _instances_payload(normalized: dict, total: int, rows: list[dict]) -> dict:
    return {"endpoint": "instances", "params": normalized, "total": total, "rows": rows}


def _instance_payload(domain: str, users: int, weekly: list[dict]) -> dict:
    return {"endpoint": "instance", "domain": domain, "users": users, "weekly": weekly}


def _trends_payload(trends: dict, normalized: dict) -> dict:
    term = normalized["term"]
    terms = sorted(trends)
    if term is not None:
        canonical = {t.lower(): t for t in trends}
        matched = canonical.get(term)
        if matched is None:
            raise RequestError(404, f"unknown trend term: {term}")
        terms = [matched]
    return {
        "endpoint": "trends",
        "params": normalized,
        "terms": terms,
        "series": {t: trends[t] for t in terms},
    }


def _rank_instances(populations: dict[str, int]) -> list[tuple[str, int]]:
    return sorted(populations.items(), key=lambda kv: (-kv[1], kv[0]))


# -- columnar read models ------------------------------------------------------


class TimelineColumns:
    """Flat per-post Python columns over one platform's timeline table."""

    def __init__(
        self, table: TimelineTable, day_iso: list[str], label_key: str, flag_key: str
    ) -> None:
        self.offsets = table.slices
        self.days = table.day_ordinals.tolist()
        self.day_iso = day_iso
        self.texts = table.texts
        self.labels = table.labels
        self.label_ids = table.label_ids.tolist()
        self.flags = table.flags.tolist()
        self.row_uids = table.row_uids.tolist()
        self.label_key = label_key
        self.flag_key = flag_key

    def row(self, pos: int) -> dict:
        return {
            "day": self.day_iso[pos],
            "text": self.texts[pos],
            self.label_key: self.labels[self.label_ids[pos]],
            self.flag_key: bool(self.flags[pos]),
        }


class TweetSearchColumns:
    """The §3.1 collected corpus as columns plus its inverted index."""

    def __init__(self, dataset, frames) -> None:
        tweets = dataset.collected_tweets
        self.ids = [t.tweet_id for t in tweets]
        self.row_of = {tid: pos for pos, tid in enumerate(self.ids)}
        self.authors = [t.author_id for t in tweets]
        self.texts = [t.text for t in tweets]
        self.texts_lower = [t.text_lower for t in tweets]
        self.sources = [t.source for t in tweets]
        self.retweets = [t.is_retweet for t in tweets]
        self.days = frames.collected_day_ordinals.tolist()
        self.day_iso = iso_day_strings(frames.collected_day_ordinals)
        self.index = TweetIndex()
        self.index.add_many(tweets, None)

    def extend(self, dataset, frames) -> None:
        """Append corpus rows past the already-indexed prefix.

        Valid only when the existing rows are a verified prefix of the
        advanced corpus (``delta.corpus_prefix == len(self.ids)``): the
        columns grow in place and the inverted index absorbs just the
        fresh tweets.
        """
        tweets = dataset.collected_tweets
        start = len(self.ids)
        fresh = tweets[start:]
        if not fresh:
            return
        for pos, t in enumerate(fresh, start):
            self.ids.append(t.tweet_id)
            self.row_of[t.tweet_id] = pos
            self.authors.append(t.author_id)
            self.texts.append(t.text)
            self.texts_lower.append(t.text_lower)
            self.sources.append(t.source)
            self.retweets.append(t.is_retweet)
        ordinals = frames.collected_day_ordinals
        self.days.extend(ordinals[start:].tolist())
        self.day_iso.extend(iso_day_strings(ordinals[start:]))
        self.index.add_many(fresh, None)

    def matching_positions(
        self, query: SearchQuery, kind: str, term: str, lo: int, hi: int
    ) -> Iterator[int]:
        """Corpus positions matching the query, ascending by tweet id.

        Hashtag and domain postings are exact (the planner guarantees no
        false positives for a single term); phrase candidates are a
        superset and get the same substring check ``SearchQuery.matches``
        applies.  An unindexable phrase falls back to a columnar scan.
        """
        days = self.days
        candidates = self.index.candidates(query)
        if candidates is None:
            texts = self.texts_lower
            for pos in range(len(texts)):
                if lo <= days[pos] <= hi and term in texts[pos]:
                    yield pos
            return
        row_of = self.row_of
        if kind == "q":
            texts = self.texts_lower
            for tid in candidates:
                pos = row_of[tid]
                if lo <= days[pos] <= hi and term in texts[pos]:
                    yield pos
        else:
            for tid in candidates:
                pos = row_of[tid]
                if lo <= days[pos] <= hi:
                    yield pos

    def row(self, pos: int) -> dict:
        return {
            "id": self.ids[pos],
            "author_id": self.authors[pos],
            "day": self.day_iso[pos],
            "text": self.texts[pos],
            "source": self.sources[pos],
            "is_retweet": self.retweets[pos],
        }


class StatusSearchColumns:
    """Lowered texts and hashtag postings over the status table."""

    def __init__(self, columns: TimelineColumns, table: TimelineTable) -> None:
        self.columns = columns
        self.texts_lower = [t.lower() for t in table.texts]
        postings: dict[str, list[int]] = {}
        tags = table.tags
        for row, tag_id in zip(table.tag_rows.tolist(), table.tag_ids.tolist()):
            postings.setdefault(tags[tag_id], []).append(row)
        self.tag_postings = postings

    def matching_positions(
        self, kind: str, term: str, lo: int, hi: int
    ) -> Iterator[int]:
        """Status-table rows matching the term, in row order."""
        days = self.columns.days
        if kind == "hashtag":
            previous = -1
            for pos in self.tag_postings.get(term, ()):
                if pos == previous:  # the same tag twice in one status
                    continue
                previous = pos
                if lo <= days[pos] <= hi:
                    yield pos
            return
        texts = self.texts_lower
        for pos in range(len(texts)):
            if lo <= days[pos] <= hi and term in texts[pos]:
                yield pos

    def row(self, pos: int) -> dict:
        columns = self.columns
        return {
            "uid": columns.row_uids[pos],
            "day": columns.day_iso[pos],
            "text": columns.texts[pos],
            "application": columns.labels[columns.label_ids[pos]],
            "is_boost": bool(columns.flags[pos]),
        }


class ColumnarViews:
    """The warm serving path: every endpoint answered from flat columns."""

    def __init__(self, dataset) -> None:
        self.dataset = dataset
        self.frames = frames_of(dataset)
        self._models: dict[str, object] = {}

    # -- warmup ----------------------------------------------------------------

    def _model(self, name: str, builder: Callable[[], object]):
        found = self._models.get(name)
        if found is None:
            with obs.current().span(f"serving.warm.{name}"):
                found = self._models[name] = builder()
        return found

    def _tweet_search(self) -> TweetSearchColumns:
        return self._model(
            "tweet_search", lambda: TweetSearchColumns(self.dataset, self.frames)
        )

    def _timeline(self, platform: str) -> TimelineColumns:
        frames = self.frames
        if platform == "twitter":
            return self._model(
                "twitter_timeline",
                lambda: TimelineColumns(
                    frames.tweet_table, frames.tweet_day_iso, "source", "is_retweet"
                ),
            )
        return self._model(
            "mastodon_timeline",
            lambda: TimelineColumns(
                frames.status_table, frames.status_day_iso, "application", "is_boost"
            ),
        )

    def _status_search(self) -> StatusSearchColumns:
        return self._model(
            "status_search",
            lambda: StatusSearchColumns(
                self._timeline("mastodon"), self.frames.status_table
            ),
        )

    def _directory(self) -> list[tuple[str, int]]:
        return self._model(
            "directory", lambda: _rank_instances(self.frames.instance_populations)
        )

    def warm(self) -> dict[str, float]:
        """Build every read model now; per-model build seconds by name."""
        timings: dict[str, float] = {}
        builders: list[tuple[str, Callable[[], object]]] = [
            ("tweet_search", self._tweet_search),
            ("twitter_timeline", lambda: self._timeline("twitter")),
            ("mastodon_timeline", lambda: self._timeline("mastodon")),
            ("status_search", self._status_search),
            ("directory", self._directory),
        ]
        for name, build in builders:
            started = time.perf_counter()
            build()
            timings[name] = time.perf_counter() - started
        return timings

    def swap(self, dataset, delta, frames) -> dict[str, str]:
        """Point at an advanced dataset, carrying still-valid read models.

        ``frames`` is the rebased :class:`DatasetFrames` of ``dataset``;
        ``delta`` the advance's change receipt.  A read model survives
        exactly when every dataset domain it reads is untouched; the
        tweet-search block additionally grows in place on a pure corpus
        append.  Returns ``model -> "kept" | "extended" | "dropped"``.
        """
        from repro.frames.core import PRODUCT_DEPS

        old_models = self._models
        self.dataset = dataset
        self.frames = frames
        self._models = {}
        changed = delta.domains_changed()
        outcome: dict[str, str] = {}

        def carry(name: str, domains: set[str]) -> None:
            model = old_models.get(name)
            if model is None:
                return
            if domains & changed:
                outcome[name] = "dropped"
                return
            self._models[name] = model
            outcome[name] = "kept"

        corpus = old_models.get("tweet_search")
        if corpus is not None:
            if "corpus" not in changed:
                self._models["tweet_search"] = corpus
                outcome["tweet_search"] = "kept"
            elif delta.corpus_prefix == len(corpus.ids):
                corpus.extend(dataset, frames)
                self._models["tweet_search"] = corpus
                outcome["tweet_search"] = "extended"
            else:
                outcome["tweet_search"] = "dropped"
        carry("twitter_timeline", {"twitter_timelines"})
        carry("mastodon_timeline", {"mastodon_timelines"})
        carry("status_search", {"mastodon_timelines"})
        carry("directory", set(PRODUCT_DEPS["instance_populations"]))
        return outcome

    # -- endpoints -------------------------------------------------------------

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
        lo, hi = _window_ordinals(normalized)
        kind, term = normalized["kind"], normalized["term"]
        if normalized["platform"] == "twitter":
            corpus = self._tweet_search()
            query = build_search_query(normalized)
            positions = corpus.matching_positions(query, kind, term, lo, hi)
            total, page = _paginate(
                positions, normalized["limit"], normalized["offset"]
            )
            return _search_payload(
                normalized, total, [corpus.row(pos) for pos in page]
            )
        statuses = self._status_search()
        positions = statuses.matching_positions(kind, term, lo, hi)
        total, page = _paginate(positions, normalized["limit"], normalized["offset"])
        return _search_payload(normalized, total, [statuses.row(pos) for pos in page])

    def timeline(self, normalized: dict) -> dict:
        platform, uid = normalized["platform"], normalized["uid"]
        columns = self._timeline(platform)
        span = self.frames.timeline_offsets[platform].get(uid)
        if span is None:
            raise RequestError(404, f"uid {uid} has no {platform} timeline")
        lo, hi = _window_ordinals(normalized)
        days = columns.days
        start, stop = span
        positions = (pos for pos in range(start, stop) if lo <= days[pos] <= hi)
        total, page = _paginate(positions, normalized["limit"], normalized["offset"])
        return _timeline_payload(
            normalized, total, [columns.row(pos) for pos in page]
        )

    def instances(self, normalized: dict) -> dict:
        ranked = self._directory()
        offset, limit = normalized["offset"], normalized["limit"]
        rows = [
            {"domain": domain, "users": users}
            for domain, users in ranked[offset : offset + limit]
        ]
        return _instances_payload(normalized, len(ranked), rows)

    def instance(self, normalized: dict) -> dict:
        domain = normalized["domain"]
        users = self.frames.instance_populations.get(domain)
        weekly = self.dataset.weekly_activity.get(domain)
        if users is None and weekly is None:
            raise RequestError(404, f"unknown instance: {domain}")
        return _instance_payload(domain, users or 0, weekly or [])

"""The benchmark's own seeded request generator (independent of the program).

It builds read requests for the serving API from two inputs only: the
workload seed and the dataset being served.  It deliberately does not
import the program's own load generator, so a change to the program
cannot reshape the load it is measured under.

Model (a read-side take on SONG's seeded workload model):

- **endpoint mix** — search 45%, timeline 35%, instances 10%,
  instance 5%, trends 5%;
- **Zipf key popularity** — accounts ranked by timeline length, hashtags
  by corpus frequency, instances by matched population; the head of each
  ranking takes most of the traffic, the tail keeps missing the caches;
- **arrival schedule** — an inhomogeneous Poisson process (by thinning)
  whose time axis maps onto the 2022-10-01..2022-11-30 event window: the
  base rate is multiplied by Gaussian bursts, up to 6x, centred on the
  takeover (10-27), layoffs (11-04) and ultimatum (11-17) days.

Everything is drawn from ``numpy.random.default_rng`` streams seeded by
the workload seed, so the same seed and dataset give byte-identical
inputs; :func:`inputs_sha256` fingerprints them for the run record.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
from dataclasses import dataclass
from urllib.parse import urlencode

import numpy as np

MIX = (("search", 0.45), ("timeline", 0.35), ("instances", 0.10),
       ("instance", 0.05), ("trends", 0.05))
ENDPOINTS = tuple(name for name, _ in MIX)
SEARCH_KINDS = (("hashtag", 0.60), ("q", 0.25), ("domain", 0.15))
#: The paper's §3.1 migration keywords, used as free-text search phrases.
PHRASES = ("mastodon", "bye bye twitter", "good bye twitter")
MASTODON_SHARE = 0.3
WINDOW_SHARE = 0.3
LIMITS = (20, 50, 100)
ZIPF_ACCOUNTS, ZIPF_TERMS, ZIPF_INSTANCES = 1.2, 1.1, 1.3

EVENT_START = dt.date(2022, 10, 1)
EVENT_DAYS = 60
BURST_DAYS = (dt.date(2022, 10, 27), dt.date(2022, 11, 4), dt.date(2022, 11, 17))
BURST_FACTOR = 6.0
BURST_WIDTH_DAYS = 2.0


@dataclass(frozen=True)
class Request:
    due_s: float  # offset from the phase start at which it should be sent
    endpoint: str
    target: str  # "/path?query"


def _ranked(counts: dict) -> list:
    return [key for key, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]


def _zipf(n: int, exponent: float) -> np.ndarray | None:
    if n == 0:
        return None
    weights = np.arange(1, n + 1, dtype=float) ** -exponent
    return weights / weights.sum()


class Inventory:
    """The keys requests draw from, each ranked most-popular first."""

    def __init__(self, dataset) -> None:
        def by_length(timelines: dict) -> list[int]:
            return _ranked({uid: len(p) for uid, p in timelines.items() if p})

        tags: dict[str, int] = {}
        for tweet in dataset.collected_tweets:
            for tag in tweet.hashtags:
                tags[tag.lower()] = tags.get(tag.lower(), 0) + 1
        status_tags: dict[str, int] = {}
        for statuses in dataset.mastodon_timelines.values():
            for status in statuses:
                for tag in status.hashtags:
                    status_tags[tag.lower()] = status_tags.get(tag.lower(), 0) + 1
        domains: dict[str, int] = {}
        for user in dataset.matched.values():
            domain = user.mastodon_acct.split("@", 1)[1]
            domains[domain] = domains.get(domain, 0) + 1
        self.pools = {
            "twitter_uids": by_length(dataset.twitter_timelines),
            "mastodon_uids": by_length(dataset.mastodon_timelines),
            "hashtags": _ranked(tags),
            "status_hashtags": _ranked(status_tags),
            "domains": _ranked(domains),
        }
        exponents = {"twitter_uids": ZIPF_ACCOUNTS, "mastodon_uids": ZIPF_ACCOUNTS,
                     "hashtags": ZIPF_TERMS, "status_hashtags": ZIPF_TERMS,
                     "domains": ZIPF_INSTANCES}
        self.weights = {k: _zipf(len(v), exponents[k]) for k, v in self.pools.items()}
        self.trend_terms = sorted(dataset.trends)
        for name in ("twitter_uids", "hashtags", "domains"):
            if not self.pools[name]:
                raise ValueError(f"dataset has no {name} to draw requests from")


class RequestMaker:
    """Draws request targets from one seeded stream."""

    def __init__(self, inventory: Inventory, rng: np.random.Generator) -> None:
        self.inv = inventory
        self.rng = rng
        self.mix_p = np.array([w for _, w in MIX]) / sum(w for _, w in MIX)
        self.kind_p = np.array([w for _, w in SEARCH_KINDS])

    def _pick(self, pool: str):
        items = self.inv.pools[pool]
        if not items:
            return None
        return items[int(self.rng.choice(len(items), p=self.inv.weights[pool]))]

    def _window(self, params: dict) -> None:
        if self.rng.random() < WINDOW_SHARE:
            start = int(self.rng.integers(0, EVENT_DAYS))
            since = EVENT_START + dt.timedelta(days=start)
            until = min(EVENT_START + dt.timedelta(days=EVENT_DAYS - 1),
                        since + dt.timedelta(days=int(self.rng.integers(1, 15))))
            params["since"], params["until"] = since.isoformat(), until.isoformat()

    def _limit(self, params: dict) -> None:
        params["limit"] = LIMITS[int(self.rng.integers(0, len(LIMITS)))]

    def make(self) -> tuple[str, str]:
        endpoint = ENDPOINTS[int(self.rng.choice(len(ENDPOINTS), p=self.mix_p))]
        params: dict = {}
        if endpoint == "search":
            mastodon = self.rng.random() < MASTODON_SHARE
            kind = SEARCH_KINDS[int(self.rng.choice(3, p=self.kind_p))][0]
            if kind == "domain" and mastodon:
                kind = "hashtag"
            if kind == "hashtag":
                term = self._pick("status_hashtags" if mastodon else "hashtags")
            elif kind == "domain":
                term = self._pick("domains")
            else:
                term = PHRASES[int(self.rng.integers(0, len(PHRASES)))]
            if term is None:
                kind, term = "q", PHRASES[0]
            params[kind] = term
            if mastodon:
                params["platform"] = "mastodon"
            self._window(params)
            self._limit(params)
            path = "/v1/search"
        elif endpoint == "timeline":
            mastodon = self.rng.random() < MASTODON_SHARE
            uid = self._pick("mastodon_uids") if mastodon else None
            if uid is None:
                mastodon, uid = False, self._pick("twitter_uids")
            if mastodon:
                params["platform"] = "mastodon"
            self._window(params)
            self._limit(params)
            path = f"/v1/timeline/{uid}"
        elif endpoint == "instances":
            self._limit(params)
            if self.rng.random() < 0.25:
                params["offset"] = int(self.rng.integers(1, 50))
            path = "/v1/instances"
        elif endpoint == "instance":
            path = f"/v1/instances/{self._pick('domains')}"
        else:
            if self.inv.trend_terms and self.rng.random() < 0.5:
                terms = self.inv.trend_terms
                params["term"] = terms[int(self.rng.integers(0, len(terms)))]
            path = "/v1/trends"
        query = urlencode(sorted(params.items()))
        return endpoint, f"{path}?{query}" if query else path


def burst_multiplier(day: float) -> float:
    bumps = sum(
        float(np.exp(-0.5 * ((day - (event - EVENT_START).days) / BURST_WIDTH_DAYS) ** 2))
        for event in BURST_DAYS
    )
    return 1.0 + (BURST_FACTOR - 1.0) * min(bumps, 1.0)


def open_loop_schedule(inventory: Inventory, seed: int, stream: int,
                       base_rps: float, duration_s: float,
                       cycles: int = 1) -> list[Request]:
    """Requests due over ``duration_s`` at ``base_rps`` with event bursts.

    The event window is replayed ``cycles`` times back to back, so each
    ``duration_s / cycles`` slice carries all three bursts.
    """
    rng = np.random.default_rng([seed, stream])
    maker = RequestMaker(inventory, np.random.default_rng([seed, stream, 1]))
    peak = base_rps * BURST_FACTOR
    out: list[Request] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / peak))
        if t >= duration_s:
            return out
        day = (t / duration_s * cycles) % 1.0 * EVENT_DAYS
        if rng.random() * peak <= base_rps * burst_multiplier(day):
            endpoint, target = maker.make()
            out.append(Request(round(t, 6), endpoint, target))


def batch(inventory: Inventory, seed: int, stream: int, count: int) -> list[Request]:
    """``count`` requests all due at once (a closed-loop burst)."""
    maker = RequestMaker(inventory, np.random.default_rng([seed, stream, 1]))
    return [Request(0.0, *maker.make()) for _ in range(count)]


def inputs_sha256(*traces: list[Request]) -> str:
    digest = hashlib.sha256()
    for trace in traces:
        for r in trace:
            digest.update(json.dumps([r.due_s, r.endpoint, r.target]).encode())
            digest.update(b"\n")
        digest.update(b"--\n")
    return digest.hexdigest()

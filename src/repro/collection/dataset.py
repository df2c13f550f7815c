"""The collected dataset: everything Section 3 gathered, in one container.

A :class:`MigrationDataset` is the sole input to every analysis in
:mod:`repro.analysis` — analyses never reach into the world or its ground
truth, only into what the crawlers could observe, exactly like the paper.

The container serialises to a single JSON document (the paper promises an
anonymised public release of the same shape).
"""

from __future__ import annotations

import datetime as _dt
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from repro.fediverse.models import Status
from repro.twitter.models import Tweet


@dataclass(frozen=True)
class MatchedUser:
    """One matched migrant: the §3.1 mapping plus profile facts."""

    twitter_user_id: int
    twitter_username: str
    mastodon_acct: str  # the account the user advertised (their first)
    matched_via: str  # 'metadata' | 'tweet'
    verified: bool
    twitter_created_at: _dt.datetime
    twitter_followers: int
    twitter_following: int

    @property
    def mastodon_username(self) -> str:
        return self.mastodon_acct.split("@", 1)[0]

    @property
    def mastodon_domain(self) -> str:
        return self.mastodon_acct.split("@", 1)[1]

    @property
    def same_username(self) -> bool:
        return self.twitter_username.lower() == self.mastodon_username.lower()


@dataclass(frozen=True)
class MastodonAccountRecord:
    """What the Mastodon crawler learned about one migrant's account(s).

    When the advertised account had moved, the crawler followed ``moved_to``
    and recorded the successor too; the successor's ``created_at`` dates the
    instance switch.
    """

    first_acct: str
    first_created_at: _dt.datetime
    moved_to: str | None
    second_created_at: _dt.datetime | None
    followers: int
    following: int
    statuses: int

    @property
    def first_domain(self) -> str:
        return self.first_acct.split("@", 1)[1]

    @property
    def second_domain(self) -> str | None:
        if self.moved_to is None:
            return None
        return self.moved_to.split("@", 1)[1]

    @property
    def switched(self) -> bool:
        return self.moved_to is not None


@dataclass(frozen=True)
class FolloweeRecord:
    """One sampled user's followee crawl (§3.3), both platforms."""

    twitter_user_id: int
    twitter_followees: tuple[int, ...]
    mastodon_following: tuple[str, ...]


@dataclass
class CrawlCoverage:
    """Success/failure accounting for a timeline crawl (§3.2).

    ``unreachable`` counts users lost to *transient* trouble the resilience
    layer could not retry through (timeouts, 5xx, truncated pages from the
    fault plane) — distinct from ``instance_down``, which records permanent
    instance unavailability, the paper's 11.58%.  The reconciliation
    invariant ``attempted == ok + every failure bucket`` holds under any
    fault plan (enforced by ``tests/collection/test_fault_pipeline.py``).
    """

    ok: int = 0
    suspended: int = 0
    deleted: int = 0
    protected: int = 0
    no_statuses: int = 0
    instance_down: int = 0
    unreachable: int = 0

    @property
    def attempted(self) -> int:
        return (
            self.ok
            + self.suspended
            + self.deleted
            + self.protected
            + self.no_statuses
            + self.instance_down
            + self.unreachable
        )

    def rate(self, outcome: str) -> float:
        """Percentage of attempts ending in ``outcome`` (e.g. ``'ok'``)."""
        if self.attempted == 0:
            return 0.0
        return 100.0 * getattr(self, outcome) / self.attempted

    def merge(self, other: "CrawlCoverage") -> "CrawlCoverage":
        """Field-wise sum of two coverages (per-shard counts fold up).

        Plain addition per bucket, so merging is associative and
        commutative — the shard merge order cannot change the accounting.
        """
        return CrawlCoverage(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    __add__ = merge

    def record(self, bucket: str) -> None:
        """Count one attempt ending in ``bucket`` (e.g. ``'instance_down'``)."""
        setattr(self, bucket, getattr(self, bucket) + 1)


@dataclass
class MigrationDataset:
    """Everything the pipeline collected."""

    #: the instance index the pipeline started from
    instance_domains: list[str] = field(default_factory=list)
    #: the §3.1 migration-tweet corpus
    collected_tweets: list[Tweet] = field(default_factory=list)
    collected_user_count: int = 0
    #: matched migrants, by Twitter user id
    matched: dict[int, MatchedUser] = field(default_factory=dict)
    #: Mastodon account records, by Twitter user id
    accounts: dict[int, MastodonAccountRecord] = field(default_factory=dict)
    #: crawled timelines, by Twitter user id
    twitter_timelines: dict[int, list[Tweet]] = field(default_factory=dict)
    mastodon_timelines: dict[int, list[Status]] = field(default_factory=dict)
    twitter_coverage: CrawlCoverage = field(default_factory=CrawlCoverage)
    mastodon_coverage: CrawlCoverage = field(default_factory=CrawlCoverage)
    #: §3.3 followee sample, by Twitter user id
    followee_sample: dict[int, FolloweeRecord] = field(default_factory=dict)
    #: weekly activity rows per instance domain
    weekly_activity: dict[str, list[dict]] = field(default_factory=dict)
    #: search-interest series per term (Figure 1 inputs)
    trends: dict[str, list[tuple[str, int]]] = field(default_factory=dict)
    #: incremental-plane manifest: monotonic snapshot version plus the
    #: observer-clock high-water mark that produced it.  ``None`` on
    #: unclocked (one-shot) collections, whose bytes predate the manifest.
    dataset_version: int | None = None
    clock: _dt.date | None = None

    # -- convenience views -------------------------------------------------------

    @property
    def migrant_count(self) -> int:
        return len(self.matched)

    def matched_users(self) -> list[MatchedUser]:
        return [self.matched[uid] for uid in sorted(self.matched)]

    def instance_populations(self) -> dict[str, int]:
        """Matched migrants per (first) instance domain."""
        counts: dict[str, int] = {}
        for user in self.matched.values():
            domain = user.mastodon_domain
            counts[domain] = counts.get(domain, 0) + 1
        return counts

    def switchers(self) -> list[int]:
        """User ids whose Mastodon account moved instance."""
        return sorted(
            uid for uid, record in self.accounts.items() if record.switched
        )

    def mastodon_join_date(self, user_id: int) -> _dt.date | None:
        """The date the user joined Mastodon (their first account)."""
        record = self.accounts.get(user_id)
        if record is None:
            return None
        return record.first_created_at.date()

    # -- serialisation -------------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(self._to_doc(), indent=None, separators=(",", ":"))

    def save(self, path: str | Path) -> None:
        """Write to ``path``; the extension picks the format.

        ``.npz`` selects the compact binary column format
        (:mod:`repro.collection.binfmt`); anything else writes the JSON
        document.  Both round-trip to an equal dataset.
        """
        path = Path(path)
        if path.suffix == ".npz":
            from repro.collection.binfmt import save_npz

            save_npz(self, path)
        else:
            path.write_text(self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "MigrationDataset":
        return cls._from_doc(json.loads(text))

    @classmethod
    def load(cls, path: str | Path, lazy: bool = False) -> "MigrationDataset":
        """Read a dataset saved by :meth:`save`, either format.

        ``lazy=True`` (``.npz`` only) defers the three big corpora —
        ``collected_tweets`` and both timeline dicts — until first
        access, so a serving process answers header-only endpoints
        before decoding a single timeline column.  Contents are
        identical either way; JSON loads ignore the flag.
        """
        path = Path(path)
        if path.suffix == ".npz":
            from repro.collection.binfmt import load_npz

            return load_npz(path, lazy=lazy)
        return cls.from_json(path.read_text())

    def manifest(self) -> dict | None:
        """The version/clock stamp, or None for unclocked snapshots."""
        if self.dataset_version is None:
            return None
        return {
            "dataset_version": self.dataset_version,
            "clock": self.clock.isoformat() if self.clock is not None else None,
        }

    def _to_doc(self) -> dict:
        doc: dict = {"version": 1}
        manifest = self.manifest()
        if manifest is not None:
            # only clocked snapshots carry the stamp, so unclocked datasets
            # keep their pre-manifest golden bytes
            doc["manifest"] = manifest
        doc.update(self._body_doc())
        return doc

    def _body_doc(self) -> dict:
        return {
            "instance_domains": self.instance_domains,
            "collected_tweets": [_tweet_doc(t) for t in self.collected_tweets],
            "collected_user_count": self.collected_user_count,
            "matched": {
                str(uid): _matched_doc(m) for uid, m in self.matched.items()
            },
            "accounts": {
                str(uid): _account_doc(a) for uid, a in self.accounts.items()
            },
            "twitter_timelines": {
                str(uid): [_tweet_doc(t) for t in tweets]
                for uid, tweets in self.twitter_timelines.items()
            },
            "mastodon_timelines": {
                str(uid): [_status_doc(s) for s in statuses]
                for uid, statuses in self.mastodon_timelines.items()
            },
            "twitter_coverage": _coverage_doc(self.twitter_coverage),
            "mastodon_coverage": _coverage_doc(self.mastodon_coverage),
            "followee_sample": {
                str(uid): {
                    "twitter_followees": list(r.twitter_followees),
                    "mastodon_following": list(r.mastodon_following),
                }
                for uid, r in self.followee_sample.items()
            },
            "weekly_activity": self.weekly_activity,
            "trends": self.trends,
        }

    @classmethod
    def _from_doc(cls, doc: dict) -> "MigrationDataset":
        if doc.get("version") != 1:
            raise ValueError(f"unsupported dataset version {doc.get('version')!r}")
        dataset = cls()
        manifest = doc.get("manifest")
        if manifest is not None:
            dataset.dataset_version = int(manifest["dataset_version"])
            if manifest.get("clock"):
                dataset.clock = _dt.date.fromisoformat(manifest["clock"])
        dataset.instance_domains = list(doc["instance_domains"])
        dataset.collected_tweets = [_tweet_from(d) for d in doc["collected_tweets"]]
        dataset.collected_user_count = int(doc["collected_user_count"])
        dataset.matched = {
            int(uid): _matched_from(d) for uid, d in doc["matched"].items()
        }
        dataset.accounts = {
            int(uid): _account_from(d) for uid, d in doc["accounts"].items()
        }
        dataset.twitter_timelines = {
            int(uid): [_tweet_from(d) for d in tweets]
            for uid, tweets in doc["twitter_timelines"].items()
        }
        dataset.mastodon_timelines = {
            int(uid): [_status_from(d) for d in statuses]
            for uid, statuses in doc["mastodon_timelines"].items()
        }
        dataset.twitter_coverage = CrawlCoverage(**doc["twitter_coverage"])
        dataset.mastodon_coverage = CrawlCoverage(**doc["mastodon_coverage"])
        dataset.followee_sample = {
            int(uid): FolloweeRecord(
                twitter_user_id=int(uid),
                twitter_followees=tuple(d["twitter_followees"]),
                mastodon_following=tuple(d["mastodon_following"]),
            )
            for uid, d in doc["followee_sample"].items()
        }
        dataset.weekly_activity = {
            domain: list(rows) for domain, rows in doc["weekly_activity"].items()
        }
        dataset.trends = {
            term: [(day, int(v)) for day, v in series]
            for term, series in doc["trends"].items()
        }
        return dataset


def _coverage_doc(coverage: CrawlCoverage) -> dict:
    """Serialise coverage; a zero ``unreachable`` is omitted so fault-free
    datasets stay byte-identical to the pre-resilience format."""
    doc = asdict(coverage)
    if not doc.get("unreachable"):
        doc.pop("unreachable", None)
    return doc


def _tweet_doc(tweet: Tweet) -> dict:
    return {
        "id": tweet.tweet_id,
        "author_id": tweet.author_id,
        "created_at": tweet.created_at.isoformat(),
        "text": tweet.text,
        "source": tweet.source,
        "is_retweet": tweet.is_retweet,
    }


def _tweet_from(doc: dict) -> Tweet:
    return Tweet(
        tweet_id=doc["id"],
        author_id=doc["author_id"],
        created_at=_dt.datetime.fromisoformat(doc["created_at"]),
        text=doc["text"],
        source=doc["source"],
        is_retweet=doc.get("is_retweet", False),
    )


def _status_doc(status: Status) -> dict:
    return {
        "id": status.status_id,
        "acct": status.account_acct,
        "created_at": status.created_at.isoformat(),
        "text": status.text,
        "application": status.application,
        "reblog_of_id": status.reblog_of_id,
    }


def _status_from(doc: dict) -> Status:
    return Status(
        status_id=doc["id"],
        account_acct=doc["acct"],
        created_at=_dt.datetime.fromisoformat(doc["created_at"]),
        text=doc["text"],
        application=doc.get("application", "Web"),
        reblog_of_id=doc.get("reblog_of_id"),
    )


def _matched_doc(m: MatchedUser) -> dict:
    return {
        "twitter_user_id": m.twitter_user_id,
        "twitter_username": m.twitter_username,
        "mastodon_acct": m.mastodon_acct,
        "matched_via": m.matched_via,
        "verified": m.verified,
        "twitter_created_at": m.twitter_created_at.isoformat(),
        "twitter_followers": m.twitter_followers,
        "twitter_following": m.twitter_following,
    }


def _matched_from(doc: dict) -> MatchedUser:
    return MatchedUser(
        twitter_user_id=doc["twitter_user_id"],
        twitter_username=doc["twitter_username"],
        mastodon_acct=doc["mastodon_acct"],
        matched_via=doc["matched_via"],
        verified=doc["verified"],
        twitter_created_at=_dt.datetime.fromisoformat(doc["twitter_created_at"]),
        twitter_followers=doc["twitter_followers"],
        twitter_following=doc["twitter_following"],
    )


def _account_doc(a: MastodonAccountRecord) -> dict:
    return {
        "first_acct": a.first_acct,
        "first_created_at": a.first_created_at.isoformat(),
        "moved_to": a.moved_to,
        "second_created_at": (
            a.second_created_at.isoformat() if a.second_created_at else None
        ),
        "followers": a.followers,
        "following": a.following,
        "statuses": a.statuses,
    }


def _account_from(doc: dict) -> MastodonAccountRecord:
    return MastodonAccountRecord(
        first_acct=doc["first_acct"],
        first_created_at=_dt.datetime.fromisoformat(doc["first_created_at"]),
        moved_to=doc["moved_to"],
        second_created_at=(
            _dt.datetime.fromisoformat(doc["second_created_at"])
            if doc["second_created_at"]
            else None
        ),
        followers=doc["followers"],
        following=doc["following"],
        statuses=doc["statuses"],
    )

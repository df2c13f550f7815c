"""Crawl cursor: the versioned frontier state of a resumable collection.

A :class:`CrawlCursor` is everything ``collect_dataset`` knows that the
:class:`~repro.collection.dataset.MigrationDataset` does not keep — the
corpus authors' full user objects (re-matching needs them), every user's
per-stage crawl outcome (so an advance knows who gets a delta request and
who is a permanent failure), the followee-crawl attempt set, and the
stamps that make resuming safe: a cursor format version, the world's
seed/scale, a digest over the determinism-relevant config knobs, the
observer-clock high-water mark per stage, and the sha256-derived shard
seed schedule of every sharded stage.

``repro.incremental`` consumes cursors two ways:

- **crash-resume**: ``run_pipeline(checkpoint_path=...)`` writes a cursor
  (plus the partial dataset) after every completed stage; re-running with
  the same path validates the stamps and re-enters the pipeline at the
  first incomplete stage.
- **advance**: a cursor whose stages are all complete, next to its
  snapshot, lets ``advance`` crawl only the delta between the cursor's
  clock and a later one.

Every stamp mismatch raises :class:`repro.errors.ResumeError` before any
data is touched.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ResumeError
from repro.parallel.sharding import SHARD_COUNT, derive_seed
from repro.twitter.models import AccountState, TwitterUser
from repro.util.clock import SIM_START

#: Version of the cursor/checkpoint JSON layout itself.
CURSOR_FORMAT_VERSION = 1

#: Sharded stages whose derived-seed schedule the cursor pins.
SHARDED_STAGES = (
    "tweet_search",
    "timelines.twitter",
    "timelines.mastodon",
    "followees",
    "weekly_activity",
)


def dataset_version_for(clock: _dt.date) -> int:
    """The monotonic snapshot version of a clock: days since SIM_START + 1.

    Deriving the version from the clock (instead of counting advances)
    makes an incremental advance and a from-scratch clocked run stamp the
    same bytes.
    """
    return (clock - SIM_START).days + 1


def config_digest(config) -> str:
    """sha256 over the determinism-relevant collection knobs.

    Covers exactly the fields the dataset bytes depend on besides the
    world and the clock: the crawl windows, the followee sampling knobs
    and the shard seed schedule.  Fault plan and retry policy are excluded
    — faults change *outcomes*, not the identity of the crawl, and a
    crashed faulty run is legitimately resumed under a repaired
    (fault-free) transport.  ``shard_count`` is the fixed
    :data:`~repro.parallel.sharding.SHARD_COUNT`; it stays in the digest so
    cursors saved before the count became a constant remain valid.
    """
    material = json.dumps(
        {
            "tweet_window": [
                config.tweet_window_start.isoformat(),
                config.tweet_window_end.isoformat(),
            ],
            "timeline_window": [
                config.timeline_window_start.isoformat(),
                config.timeline_window_end.isoformat(),
            ],
            "followee_sample_fraction": config.followee_sample_fraction,
            "sampler_seed": config.sampler_seed,
            "shard_seed": config.shard_seed,
            "shard_count": SHARD_COUNT,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(material.encode()).hexdigest()


def shard_seed_digests(config) -> dict[str, list[str]]:
    """Per sharded stage, the sha256-derived seed of every shard slot."""
    base = config.fault_plan.seed
    return {
        stage: [
            format(derive_seed(config.shard_seed, base, stage, index), "016x")
            for index in range(SHARD_COUNT)
        ]
        for stage in SHARDED_STAGES
    }


# -- the frontier state --------------------------------------------------------


@dataclass
class CollectionState:
    """Per-user crawl outcomes the dataset itself does not record."""

    #: every §3.1 corpus author, by Twitter user id (re-matching input)
    users: dict[int, TwitterUser] = field(default_factory=dict)
    #: Twitter timeline outcome per matched uid (``ok``/``suspended``/...)
    twitter_buckets: dict[int, str] = field(default_factory=dict)
    #: Mastodon crawl outcome per matched uid (``ok``/``no_statuses``/...)
    mastodon_buckets: dict[int, str] = field(default_factory=dict)
    #: uids the followee crawler has attempted (successful or not)
    followee_attempted: set[int] = field(default_factory=set)


@dataclass
class CrawlCursor:
    """The resumable frontier of one collection run."""

    world_seed: int
    world_scale: float
    config_digest: str
    clock: _dt.date | None = None
    dataset_version: int | None = None
    completed_stages: list[str] = field(default_factory=list)
    #: per-stage effective window high-water mark (ISO date)
    high_water: dict[str, str] = field(default_factory=dict)
    #: per-stage sha256-derived shard seed schedule
    shard_seeds: dict[str, list[str]] = field(default_factory=dict)
    state: CollectionState = field(default_factory=CollectionState)


# -- (de)serialization ---------------------------------------------------------


def _user_doc(user: TwitterUser) -> dict:
    return {
        "user_id": user.user_id,
        "username": user.username,
        "display_name": user.display_name,
        "created_at": user.created_at.isoformat(),
        "description": user.description,
        "location": user.location,
        "url": user.url,
        "pinned_tweet_id": user.pinned_tweet_id,
        "verified": user.verified,
        "state": user.state.value,
        "followers_count": user.followers_count,
        "following_count": user.following_count,
    }


def _user_from_doc(doc: dict) -> TwitterUser:
    return TwitterUser(
        user_id=int(doc["user_id"]),
        username=doc["username"],
        display_name=doc["display_name"],
        created_at=_dt.datetime.fromisoformat(doc["created_at"]),
        description=doc["description"],
        location=doc["location"],
        url=doc["url"],
        pinned_tweet_id=doc["pinned_tweet_id"],
        verified=doc["verified"],
        state=AccountState(doc["state"]),
        followers_count=int(doc["followers_count"]),
        following_count=int(doc["following_count"]),
    )


def cursor_to_doc(cursor: CrawlCursor) -> dict:
    return {
        "format": CURSOR_FORMAT_VERSION,
        "world": {"seed": cursor.world_seed, "scale": cursor.world_scale},
        "config_digest": cursor.config_digest,
        "clock": cursor.clock.isoformat() if cursor.clock else None,
        "dataset_version": cursor.dataset_version,
        "completed_stages": list(cursor.completed_stages),
        "high_water": dict(cursor.high_water),
        "shard_seeds": {k: list(v) for k, v in cursor.shard_seeds.items()},
        "state": {
            "users": {
                str(uid): _user_doc(u) for uid, u in cursor.state.users.items()
            },
            "twitter_buckets": {
                str(uid): b for uid, b in cursor.state.twitter_buckets.items()
            },
            "mastodon_buckets": {
                str(uid): b for uid, b in cursor.state.mastodon_buckets.items()
            },
            "followee_attempted": sorted(cursor.state.followee_attempted),
        },
    }


def cursor_from_doc(doc: dict) -> CrawlCursor:
    if doc.get("format") != CURSOR_FORMAT_VERSION:
        raise ResumeError(
            f"unsupported cursor format {doc.get('format')!r} "
            f"(this build reads format {CURSOR_FORMAT_VERSION})"
        )
    state_doc = doc["state"]
    state = CollectionState(
        users={
            int(uid): _user_from_doc(d)
            for uid, d in state_doc["users"].items()
        },
        twitter_buckets={
            int(uid): b for uid, b in state_doc["twitter_buckets"].items()
        },
        mastodon_buckets={
            int(uid): b for uid, b in state_doc["mastodon_buckets"].items()
        },
        followee_attempted=set(state_doc["followee_attempted"]),
    )
    return CrawlCursor(
        world_seed=int(doc["world"]["seed"]),
        world_scale=float(doc["world"]["scale"]),
        config_digest=doc["config_digest"],
        clock=_dt.date.fromisoformat(doc["clock"]) if doc["clock"] else None,
        dataset_version=doc["dataset_version"],
        completed_stages=list(doc["completed_stages"]),
        high_water=dict(doc["high_water"]),
        shard_seeds={k: list(v) for k, v in doc["shard_seeds"].items()},
        state=state,
    )


def save_cursor(cursor: CrawlCursor, path: str | Path) -> None:
    """Write the cursor JSON atomically (tmp file + rename)."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(cursor_to_doc(cursor), separators=(",", ":")))
    tmp.replace(path)


def load_cursor(path: str | Path) -> CrawlCursor:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ResumeError(f"cannot read cursor at {path}: {exc}") from exc
    return cursor_from_doc(doc)


# -- validation ----------------------------------------------------------------


def validate_cursor(cursor: CrawlCursor, world, config) -> None:
    """Refuse a cursor that does not belong to this world + config."""
    seed = world.config.seed
    scale = world.config.scale
    if (cursor.world_seed, cursor.world_scale) != (seed, scale):
        raise ResumeError(
            f"cursor was recorded against world seed={cursor.world_seed} "
            f"scale={cursor.world_scale}, not seed={seed} scale={scale}"
        )
    digest = config_digest(config)
    if cursor.config_digest != digest:
        raise ResumeError(
            "cursor config digest mismatch: the crawl windows, sampling or "
            "shard seed schedule differ from the run that wrote the cursor"
        )
    expected = shard_seed_digests(config)
    for stage, seeds in cursor.shard_seeds.items():
        if expected.get(stage) != seeds:
            raise ResumeError(
                f"cursor shard seed schedule for stage {stage!r} does not "
                "match this config"
            )


def validate_for_advance(
    cursor: CrawlCursor, dataset, world, config, new_clock: _dt.date
) -> None:
    """Everything :func:`validate_cursor` checks, plus advance-only rules."""
    validate_cursor(cursor, world, config)
    missing = [s for s in cursor_stage_names() if s not in cursor.completed_stages]
    if missing:
        raise ResumeError(
            f"cursor is mid-run (incomplete stages: {missing}); "
            "finish or crash-resume the collection before advancing"
        )
    if cursor.clock is None:
        raise ResumeError(
            "cursor has no clock: only clocked collections can be advanced"
        )
    if new_clock <= cursor.clock:
        raise ResumeError(
            f"advance clock {new_clock} does not move past the cursor's "
            f"high-water mark {cursor.clock}"
        )
    if dataset.dataset_version != cursor.dataset_version:
        raise ResumeError(
            f"snapshot version {dataset.dataset_version} does not match the "
            f"cursor's {cursor.dataset_version}: refusing to append onto a "
            "mismatched or newer snapshot"
        )
    if config.fault_plan.active:
        raise ResumeError(
            "incremental advance requires a fault-free plan: delta crawls "
            "reuse recorded per-user outcomes, which faults would perturb"
        )


def cursor_stage_names() -> tuple[str, ...]:
    """The pipeline stage names a complete cursor must list."""
    from repro.collection.pipeline import PIPELINE_STAGES

    return PIPELINE_STAGES

"""The incremental plane's collection contract.

``tests/data/golden_incremental.json`` records sha256 digests over the
seed-7 scale-0.002 dataset JSON at three consecutive observer clocks,
captured from *from-scratch* clocked collections.  The tests assert that

- a from-scratch clocked run still reproduces those bytes, also with the
  shards run one round-robin lane of 2 or 4 crawlers after another (the
  clock plane does not perturb determinism), and
- :func:`repro.incremental.advance` reaches the *same* bytes by crawling
  only the delta — the headline byte-identity contract of the
  incremental PR.

Cursor round-trip and every :class:`~repro.errors.ResumeError` refusal
of :mod:`repro.collection.cursor` are covered here too, since advance
safety rests on them.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import json
from pathlib import Path

import pytest

from repro.collection.cursor import (
    SHARDED_STAGES,
    CrawlCursor,
    config_digest,
    cursor_to_doc,
    dataset_version_for,
    load_cursor,
    save_cursor,
    validate_for_advance,
)
from repro.collection.delta import kept_prefix
from repro.collection.pipeline import CollectionConfig
from repro.errors import ResumeError
from repro.faults import FaultPlan
from repro.incremental import advance, collect_with_cursor, dataset_sha256
from repro.simulation.config import SimConfig
from repro.simulation.world import build_world
from tests.parallel.schedule import crawler_lanes, patch_collection_schedule

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "data" / "golden_incremental.json"
)
GOLDEN = json.loads(GOLDEN_PATH.read_text())

SEED = GOLDEN["seed"]
SCALE = GOLDEN["scale"]
BASE_CLOCK = dt.date.fromisoformat(GOLDEN["base_clock"])
CLOCKS = [dt.date.fromisoformat(day) for day in GOLDEN["sha256"]]


@pytest.fixture(scope="module")
def world():
    return build_world(SimConfig(seed=SEED, scale=SCALE))


@pytest.fixture(scope="module")
def base(world):
    """The golden base snapshot plus its cursor."""
    dataset, cursor = collect_with_cursor(
        world, CollectionConfig(clock=BASE_CLOCK)
    )
    return dataset, cursor


class TestGoldenByteIdentity:
    def test_base_snapshot_matches_golden(self, base):
        dataset, cursor = base
        assert dataset_sha256(dataset) == GOLDEN["sha256"][BASE_CLOCK.isoformat()]
        assert (
            dataset.dataset_version
            == GOLDEN["dataset_version"][BASE_CLOCK.isoformat()]
            == dataset_version_for(BASE_CLOCK)
        )
        assert cursor.clock == BASE_CLOCK

    def test_advance_chain_matches_golden(self, world, base):
        """Two daily advances each land exactly on the from-scratch bytes."""
        dataset, cursor = base
        for clock in CLOCKS[1:]:
            dataset, cursor, delta = advance(world, dataset, cursor, clock)
            assert dataset_sha256(dataset) == GOLDEN["sha256"][clock.isoformat()]
            assert dataset.dataset_version == dataset_version_for(clock)
            assert cursor.clock == clock
            # the golden days were picked to have a non-trivial delta
            assert delta.twitter_changed and delta.mastodon_changed

    def test_from_scratch_matches_golden(self, world):
        """A clocked collection from scratch reproduces the golden bytes."""
        clock = CLOCKS[-1]
        dataset, _ = collect_with_cursor(world, CollectionConfig(clock=clock))
        assert dataset_sha256(dataset) == GOLDEN["sha256"][clock.isoformat()]

    @pytest.mark.parametrize("workers", [2, 4])
    def test_from_scratch_worker_invariant(self, world, monkeypatch, workers):
        """Clocked collection reproduces golden bytes on any crawler schedule."""
        clock = CLOCKS[-1]
        ran = patch_collection_schedule(monkeypatch, crawler_lanes, workers)
        dataset, _ = collect_with_cursor(world, CollectionConfig(clock=clock))
        assert ran == list(SHARDED_STAGES)
        assert dataset_sha256(dataset) == GOLDEN["sha256"][clock.isoformat()]


class TestCursorRoundTrip:
    def test_save_load_is_identity(self, base, tmp_path):
        _, cursor = base
        path = tmp_path / "cursor.json"
        save_cursor(cursor, path)
        loaded = load_cursor(path)
        assert cursor_to_doc(loaded) == cursor_to_doc(cursor)
        # the state maps round-trip with int keys, not JSON string keys
        assert loaded.state.users.keys() == cursor.state.users.keys()
        assert loaded.state.twitter_buckets == cursor.state.twitter_buckets
        assert loaded.state.mastodon_buckets == cursor.state.mastodon_buckets
        assert loaded.state.followee_attempted == cursor.state.followee_attempted

    def test_unreadable_cursor_refused(self, tmp_path):
        path = tmp_path / "cursor.json"
        path.write_text("{not json")
        with pytest.raises(ResumeError, match="cannot read cursor"):
            load_cursor(path)

    def test_unknown_format_version_refused(self, base, tmp_path):
        _, cursor = base
        path = tmp_path / "cursor.json"
        doc = cursor_to_doc(cursor)
        doc["format"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(ResumeError, match="unsupported cursor format"):
            load_cursor(path)


class TestAdvanceRefusals:
    def _next(self) -> dt.date:
        return BASE_CLOCK + dt.timedelta(days=1)

    def test_wrong_world_refused(self, base):
        dataset, cursor = base
        other = build_world(SimConfig(seed=SEED + 1, scale=SCALE))
        with pytest.raises(ResumeError, match="world seed"):
            advance(other, dataset, cursor, self._next())

    def test_config_digest_mismatch_refused(self, world, base):
        dataset, cursor = base
        tampered = dataclasses.replace(cursor, config_digest="0" * 64)
        with pytest.raises(ResumeError, match="config digest"):
            advance(world, dataset, tampered, self._next())

    def test_changed_sampler_seed_refused(self, world, base):
        dataset, cursor = base
        config = CollectionConfig(sampler_seed=1234)
        assert config_digest(config) != cursor.config_digest
        with pytest.raises(ResumeError, match="config digest"):
            advance(world, dataset, cursor, self._next(), config)

    def test_non_advancing_clock_refused(self, world, base):
        dataset, cursor = base
        with pytest.raises(ResumeError, match="does not move past"):
            advance(world, dataset, cursor, BASE_CLOCK)

    def test_mid_run_cursor_refused(self, world, base):
        dataset, cursor = base
        partial = dataclasses.replace(
            cursor, completed_stages=cursor.completed_stages[:2]
        )
        with pytest.raises(ResumeError, match="mid-run"):
            advance(world, dataset, partial, self._next())

    def test_unclocked_cursor_refused(self, world, base):
        dataset, cursor = base
        unclocked = dataclasses.replace(cursor, clock=None)
        with pytest.raises(ResumeError, match="no clock"):
            validate_for_advance(
                unclocked, dataset, world, CollectionConfig(), self._next()
            )

    def test_version_mismatched_snapshot_refused(self, world, base):
        dataset, cursor = base
        stale = dataclasses.replace(cursor, dataset_version=1)
        with pytest.raises(ResumeError, match="snapshot version"):
            advance(world, dataset, stale, self._next())

    def test_faulted_advance_refused(self, world, base):
        dataset, cursor = base
        # keep seed 0 so the shard-seed schedule still matches the cursor
        # and the refusal is the fault-free rule itself
        config = CollectionConfig(
            fault_plan=FaultPlan.scenario("paper-section-3.2", seed=0)
        )
        with pytest.raises(ResumeError, match="fault-free"):
            advance(world, dataset, cursor, self._next(), config)


class TestManifestStamp:
    def test_json_round_trip(self, base):
        from repro.collection.dataset import MigrationDataset

        dataset, _ = base
        assert dataset.manifest() == {
            "dataset_version": dataset_version_for(BASE_CLOCK),
            "clock": BASE_CLOCK.isoformat(),
        }
        doc = json.loads(dataset.to_json())
        assert doc["manifest"] == dataset.manifest()
        restored = MigrationDataset.from_json(dataset.to_json())
        assert restored.dataset_version == dataset.dataset_version
        assert restored.clock == BASE_CLOCK

    def test_npz_round_trip(self, base, tmp_path):
        from repro.collection.binfmt import load_npz, save_npz

        dataset, _ = base
        path = tmp_path / "snapshot.npz"
        save_npz(dataset, path)
        restored = load_npz(path)
        assert restored.dataset_version == dataset.dataset_version
        assert restored.clock == BASE_CLOCK
        assert dataset_sha256(restored) == dataset_sha256(dataset)

    def test_unclocked_snapshot_has_no_manifest(self, small_dataset):
        # pre-manifest golden bytes: unclocked snapshots must not grow
        # a manifest key (their digests are pinned by the golden tests)
        assert small_dataset.manifest() is None
        assert "manifest" not in json.loads(small_dataset.to_json())


class TestKeptPrefix:
    def test_full_prefix_fast_path(self):
        assert kept_prefix([1, 2, 3], [1, 2, 3, 4]) == 3

    def test_empty_old(self):
        assert kept_prefix([], [1, 2]) == 0

    def test_divergent_tail(self):
        assert kept_prefix([1, 2, 9], [1, 2, 3, 4]) == 2

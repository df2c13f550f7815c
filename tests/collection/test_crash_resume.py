"""Crash-resume: kill the pipeline mid-stage, resume, get identical bytes.

``run_pipeline(checkpoint_path=...)`` writes the cursor plus a dataset
snapshot after every completed stage.  These tests kill the run inside a
sharded stage (by making the shard engine raise), resume from the
checkpoint — with the resumed stages' shards run one round-robin lane of
1, 2 or 4 crawlers after another — and assert the finished dataset is
byte-for-byte the golden from-scratch one.  Shard work and fault streams are keyed by per-(stage, shard) derived seeds, never by wall
progress, which is what makes this hold.
"""

from __future__ import annotations

import datetime as dt
import json
import shutil
from pathlib import Path

import pytest

from repro.collection.cursor import SHARDED_STAGES, load_cursor
from repro.collection.pipeline import (
    CollectionConfig,
    checkpoint_dataset_path,
    run_pipeline,
)
from repro.errors import ResumeError
from repro.incremental import dataset_sha256
from repro.parallel.engine import ShardEngine
from repro.simulation.config import SimConfig
from repro.simulation.world import build_world
from tests.parallel.schedule import crawler_lanes, patch_collection_schedule

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "data" / "golden_incremental.json"
)
GOLDEN = json.loads(GOLDEN_PATH.read_text())

SEED = GOLDEN["seed"]
SCALE = GOLDEN["scale"]
#: Crash-resume runs clocked at the last golden day so the finished bytes
#: can be checked against the recorded digest.
CLOCK = dt.date.fromisoformat(max(GOLDEN["sha256"]))
GOLDEN_SHA = GOLDEN["sha256"][CLOCK.isoformat()]


@pytest.fixture(scope="module")
def world():
    return build_world(SimConfig(seed=SEED, scale=SCALE))


class _CrashAt:
    """Make the shard engine raise when it reaches the named stage."""

    def __init__(self, monkeypatch, stage: str) -> None:
        real = ShardEngine.map_stage

        def boom(engine, name, fn, items):
            if name == stage:
                raise RuntimeError(f"simulated crash in {name}")
            return real(engine, name, fn, items)

        monkeypatch.setattr(ShardEngine, "map_stage", boom)


def _crash(world, monkeypatch, stage: str, path: Path) -> None:
    _CrashAt(monkeypatch, stage)
    with pytest.raises(RuntimeError, match="simulated crash"):
        run_pipeline(
            world, CollectionConfig(clock=CLOCK), checkpoint_path=path
        )
    monkeypatch.undo()


@pytest.fixture(scope="module")
def crashed_checkpoint(world, tmp_path_factory):
    """A checkpoint from a run killed inside the twitter-timeline stage."""
    path = tmp_path_factory.mktemp("crash") / "cursor.json"
    monkeypatch = pytest.MonkeyPatch()
    try:
        _crash(world, monkeypatch, "timelines.twitter", path)
    finally:
        monkeypatch.undo()
    return path


def _copy_checkpoint(src: Path, dst_dir: Path) -> Path:
    dst = dst_dir / src.name
    shutil.copy(src, dst)
    shutil.copy(checkpoint_dataset_path(src), checkpoint_dataset_path(dst))
    return dst


def test_crash_leaves_a_valid_frontier(crashed_checkpoint):
    cursor = load_cursor(crashed_checkpoint)
    assert cursor.completed_stages == [
        "instance_list",
        "tweet_search",
        "handle_matching",
    ]
    assert cursor.clock == CLOCK
    assert checkpoint_dataset_path(crashed_checkpoint).exists()
    # frontier state already holds the corpus authors for re-matching
    assert cursor.state.users


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_resume_is_byte_identical(
    world, crashed_checkpoint, tmp_path, monkeypatch, workers
):
    """Resuming the killed run finishes on the golden bytes, any schedule."""
    path = _copy_checkpoint(crashed_checkpoint, tmp_path)
    ran = patch_collection_schedule(monkeypatch, crawler_lanes, workers)
    dataset, cursor = run_pipeline(
        world, CollectionConfig(clock=CLOCK), checkpoint_path=path
    )
    # tweet_search completed before the crash; the rest of the crawl resumes
    assert ran == list(SHARDED_STAGES[1:])
    assert dataset_sha256(dataset) == GOLDEN_SHA
    assert cursor is not None and cursor.clock == CLOCK
    # the on-disk checkpoint now records the completed run
    assert set(load_cursor(path).completed_stages) >= {"trends", "followees"}


def test_double_crash_then_resume(world, tmp_path):
    """Two successive mid-stage kills still converge on the golden bytes."""
    path = tmp_path / "cursor.json"
    monkeypatch = pytest.MonkeyPatch()
    try:
        _crash(world, monkeypatch, "timelines.mastodon", path)
        _crash(world, monkeypatch, "followees", path)
    finally:
        monkeypatch.undo()
    done = load_cursor(path).completed_stages
    assert "timelines" in done and "followees" not in done
    dataset, _ = run_pipeline(
        world, CollectionConfig(clock=CLOCK), checkpoint_path=path
    )
    assert dataset_sha256(dataset) == GOLDEN_SHA


def test_resume_refuses_other_world(crashed_checkpoint, tmp_path):
    other = build_world(SimConfig(seed=SEED + 1, scale=SCALE))
    path = _copy_checkpoint(crashed_checkpoint, tmp_path)
    with pytest.raises(ResumeError, match="world seed"):
        run_pipeline(
            other, CollectionConfig(clock=CLOCK), checkpoint_path=path
        )


def test_resume_refuses_other_clock(world, crashed_checkpoint, tmp_path):
    path = _copy_checkpoint(crashed_checkpoint, tmp_path)
    with pytest.raises(ResumeError, match="clock"):
        run_pipeline(
            world,
            CollectionConfig(clock=CLOCK + dt.timedelta(days=1)),
            checkpoint_path=path,
        )


def test_resume_refuses_other_config(world, crashed_checkpoint, tmp_path):
    path = _copy_checkpoint(crashed_checkpoint, tmp_path)
    with pytest.raises(ResumeError, match="config digest"):
        run_pipeline(
            world,
            CollectionConfig(clock=CLOCK, sampler_seed=1234),
            checkpoint_path=path,
        )

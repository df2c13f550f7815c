"""Columnar agent state of the world's tick loop."""

from __future__ import annotations

import pytest

from repro.simulation import AgentColumns, SimConfig, build_world


@pytest.fixture(scope="module")
def world():
    return build_world(SimConfig(seed=11, scale=0.0002))


class TestAgentColumns:
    def test_fraction_migrated_followees_bounded(self, world):
        frac = world._dynamics_state().fraction_migrated_followees
        assert frac.min() >= 0.0
        assert frac.max() <= 1.0 + 1e-9
        assert frac.max() > 0.0

    def test_from_world_mirrors_object_state(self, world):
        cols = AgentColumns.from_world(world)
        assert cols.n == len(world.candidate_ids)
        migrated_uids = {a.user_id for a in world.agents.values() if a.migrated}
        assert int(cols.migrated.sum()) == len(
            migrated_uids & set(world.candidate_ids)
        )
        row = cols.row_of(world.candidate_ids[0])
        assert cols.uids[row] == world.candidate_ids[0]

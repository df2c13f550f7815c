"""Tests for repro.simulation.contagion.

The world's only contagion kernel is :meth:`ContagionModel.hazard_batch`;
the property tests below exercise it one row at a time, and the oracle
tests check it element by element against the scalar formula in
``tests/oracles/simulation.py``.
"""

import datetime as dt

import numpy as np
import pytest

from repro.simulation import AgentColumns, SimConfig, build_world
from repro.simulation.config import WorldConfig
from repro.simulation.contagion import ContagionModel
from repro.simulation.events import EventTimeline
from repro.simulation.population import SimUser
from repro.twitter.graph import FollowGraph
from repro.util.clock import TAKEOVER_DATE
from tests.oracles import simulation as oracle


def agent(uid: int = 1, ideology: float = 0.5) -> SimUser:
    return SimUser(
        user_id=uid, username=f"u{uid}", role="candidate",
        topic_mixture=np.ones(10) / 10, main_topic="tech", ideology=ideology,
        engagement=0.5, tweet_rate=1.0, status_rate=1.0,
        toxicity_twitter=0.0, toxicity_mastodon=0.0, is_lurker=False,
        mirror_rate=0.0, crossposter=None, announce_via="bio",
        announce_style="acct", same_username=True,
        preferred_source="Twitter Web App",
    )


def hazard(model: ContagionModel, ideology: float, day: dt.date, fraction: float) -> float:
    """One row of :meth:`ContagionModel.hazard_batch`."""
    return float(model.hazard_batch(np.array([ideology]), np.array([fraction]), day)[0])


@pytest.fixture
def model():
    return ContagionModel(WorldConfig(seed=1, scale=0.001), EventTimeline())


@pytest.fixture(scope="module")
def world():
    return build_world(SimConfig(seed=11, scale=0.0002))


class TestFraction:
    def test_no_followees(self):
        graph = FollowGraph()
        cols = AgentColumns(
            uids=np.array([99]), ideology=np.array([0.5]),
            degree=np.array([0]), migrated=np.zeros(1, dtype=bool),
            migrated_followees=np.array([0]),
        )
        assert cols.fraction_migrated_followees[0] == 0.0
        assert oracle.migrated_followee_fraction(graph, 99, {1, 2}) == 0.0

    def test_counts_migrated(self, world):
        """The tick loop's incremental counts equal a walk over the graph."""
        cols = world._dynamics_state()
        expected = [
            oracle.migrated_followee_fraction(world.twitter_graph, int(uid), world.migrated_ids)
            for uid in cols.uids
        ]
        assert world.migrated_ids
        assert max(expected) > 0.0
        np.testing.assert_array_equal(cols.fraction_migrated_followees, expected)


class TestHazard:
    def test_zero_when_no_intensity(self):
        config = WorldConfig()
        timeline = EventTimeline(shocks=(), baseline=0.0)
        model = ContagionModel(config, timeline)
        assert hazard(model, 0.5, TAKEOVER_DATE, 0.5) == 0.0

    def test_contagion_raises_hazard(self, model):
        base = hazard(model, 0.5, TAKEOVER_DATE, 0.0)
        social = hazard(model, 0.5, TAKEOVER_DATE, 0.5)
        assert social > base

    def test_contagion_weight_zero_ablation(self):
        """The ablation: with weight 0, the social term has no effect."""
        model = ContagionModel(WorldConfig(contagion_weight=0.0), EventTimeline())
        a = hazard(model, 0.5, TAKEOVER_DATE, 0.0)
        b = hazard(model, 0.5, TAKEOVER_DATE, 0.9)
        assert a == b

    def test_ideology_raises_hazard(self, model):
        low = hazard(model, 0.1, TAKEOVER_DATE, 0.0)
        high = hazard(model, 0.9, TAKEOVER_DATE, 0.0)
        assert high > low

    def test_pre_takeover_damped(self, model):
        before = hazard(model, 0.5, TAKEOVER_DATE - dt.timedelta(days=10), 0.0)
        after = hazard(model, 0.5, TAKEOVER_DATE, 0.0)
        assert before < after

    def test_hazard_capped(self):
        model = ContagionModel(WorldConfig(base_daily_hazard=10.0), EventTimeline())
        assert hazard(model, 0.5, TAKEOVER_DATE, 1.0) == 0.95

    def test_hazard_uses_graph_fraction(self, world):
        """The world's hazard on its own columns equals the scalar formula
        fed each candidate's graph-walk migrated-followee fraction."""
        cols = world._dynamics_state()
        graph = world.twitter_graph
        day = TAKEOVER_DATE + dt.timedelta(days=2)
        expected = [
            oracle.hazard(
                world.config, world.timeline, world.agents[int(uid)].ideology, day,
                oracle.migrated_followee_fraction(graph, int(uid), world.migrated_ids),
            )
            for uid in cols.uids
        ]
        got = world._contagion.hazard_batch(
            cols.ideology, cols.fraction_migrated_followees, day
        )
        np.testing.assert_array_equal(got, expected)


class TestOracle:
    @pytest.mark.parametrize(
        "timeline, day",
        [
            (EventTimeline(shocks=(), baseline=0.0), TAKEOVER_DATE),
            (EventTimeline(), TAKEOVER_DATE - dt.timedelta(days=10)),
            (EventTimeline(), TAKEOVER_DATE + dt.timedelta(days=3)),
        ],
        ids=["zero-intensity", "pre-takeover", "post-takeover"],
    )
    @pytest.mark.parametrize(
        "config",
        [WorldConfig(), WorldConfig(base_daily_hazard=10.0)],
        ids=["default", "capped"],
    )
    def test_hazard_batch_matches_oracle_elementwise(self, timeline, day, config):
        rng = np.random.default_rng(3)
        ideology = rng.random(300)
        fraction = rng.random(300)
        fraction[:20] = 0.0
        got = ContagionModel(config, timeline).hazard_batch(ideology, fraction, day)
        expected = [
            oracle.hazard(config, timeline, float(i), day, float(f))
            for i, f in zip(ideology, fraction)
        ]
        np.testing.assert_array_equal(got, expected)

"""Tests for repro.simulation.behavior."""

import datetime as dt

import numpy as np
import pytest

from repro.nlp.embeddings import HashingSentenceEncoder, cosine_similarity
from repro.nlp.vocabulary import TOPICS, Vocabulary
from repro.simulation.behavior import (
    CROSSPOSTER_SHUTOFF,
    chatter_volume_multiplier,
    crossposter_success_rates,
    mastodon_daily_rates,
    mastodon_topic_mixture,
    paraphrase,
    twitter_daily_rates,
)
from repro.util.clock import SIM_END, SIM_START, TAKEOVER_DATE, date_range
from tests.oracles import simulation as oracle
from tests.simulation.test_contagion import agent

FEDIVERSE_IDX = next(i for i, t in enumerate(TOPICS) if t.name == "fediverse")


class TestTopicMixture:
    def test_fresh_migrant_dominated_by_fediverse(self):
        mixture = mastodon_topic_mixture(agent(), days_since_migration=0)
        assert mixture[FEDIVERSE_IDX] == max(mixture)
        assert mixture.sum() == pytest.approx(1.0)

    def test_spike_decays_with_time(self):
        early = mastodon_topic_mixture(agent(), 0)[FEDIVERSE_IDX]
        late = mastodon_topic_mixture(agent(), 30)[FEDIVERSE_IDX]
        assert late < early

    def test_always_a_distribution(self):
        for days in (0, 5, 20, 60):
            mixture = mastodon_topic_mixture(agent(), days)
            assert mixture.sum() == pytest.approx(1.0)
            assert np.all(mixture >= 0)


def _study_days() -> list[dt.date]:
    return list(date_range(SIM_START, SIM_END))


def _day_nums() -> np.ndarray:
    return np.arange(len(_study_days()))


def _idx(day: dt.date) -> int:
    return (day - SIM_START).days


def _migrant(migration_day: dt.date, status_rate: float = 1.0):
    a = agent()
    a.migrated = True
    a.migration_day = migration_day
    a.status_rate = status_rate
    return a


class TestRates:
    def test_twitter_rate_persists_after_migration(self):
        """Figure 11: migrated users keep tweeting (mild taper only)."""
        a = _migrant(dt.date(2022, 10, 28))
        rates = twitter_daily_rates(a.tweet_rate, _idx(a.migration_day), _day_nums())
        before = rates[_idx(dt.date(2022, 10, 20))]
        after = rates[_idx(dt.date(2022, 11, 20))]
        assert before == a.tweet_rate
        assert 0.7 * before < after < before

    def test_mastodon_rate_zero_before_migration(self):
        a = _migrant(dt.date(2022, 11, 10))
        rates = mastodon_daily_rates(a.status_rate, _idx(a.migration_day), _day_nums())
        assert np.all(rates[: _idx(a.migration_day)] == 0.0)
        assert rates[_idx(dt.date(2022, 11, 5))] == 0.0

    def test_mastodon_rate_ramps_in(self):
        a = _migrant(dt.date(2022, 10, 28))
        rates = mastodon_daily_rates(a.status_rate, _idx(a.migration_day), _day_nums())
        day0 = rates[_idx(dt.date(2022, 10, 28))]
        day10 = rates[_idx(dt.date(2022, 11, 7))]
        assert 0 < day0 < day10 <= a.status_rate

    def test_lurker_never_posts(self):
        a = _migrant(dt.date(2022, 10, 28), status_rate=0.0)
        rates = mastodon_daily_rates(a.status_rate, _idx(a.migration_day), _day_nums())
        assert np.all(rates == 0.0)

    @pytest.mark.parametrize("migration_day", [SIM_START, dt.date(2022, 10, 28), SIM_END])
    @pytest.mark.parametrize("status_rate", [0.0, 0.7, 3.2])
    def test_rates_match_oracle_per_day(self, migration_day, status_rate):
        a = _migrant(migration_day, status_rate=status_rate)
        mig_idx = _idx(migration_day)
        tweets = twitter_daily_rates(a.tweet_rate, mig_idx, _day_nums())
        statuses = mastodon_daily_rates(a.status_rate, mig_idx, _day_nums())
        for i, day in enumerate(_study_days()):
            assert tweets[i] == oracle.twitter_daily_rate(a, day), day
            assert statuses[i] == oracle.mastodon_daily_rate(a, day), day


class TestCrossposterLifecycle:
    def _rates(self) -> np.ndarray:
        return crossposter_success_rates(_idx(CROSSPOSTER_SHUTOFF), _day_nums())

    def test_active_before_shutoff(self):
        rates = self._rates()
        assert np.all(rates[: _idx(CROSSPOSTER_SHUTOFF)] == 1.0)
        assert rates[_idx(dt.date(2022, 11, 10))] == 1.0

    def test_decays_after_shutoff(self):
        rng = np.random.default_rng(1)
        late = CROSSPOSTER_SHUTOFF + dt.timedelta(days=5)
        rate = np.mean(rng.random(500) < self._rates()[_idx(late)])
        assert rate < 0.3

    def test_shutoff_in_late_november(self):
        assert dt.date(2022, 11, 20) < CROSSPOSTER_SHUTOFF < dt.date(2022, 11, 30)

    def test_rates_match_oracle_per_day(self):
        # numpy's vectorised power and Python's ``**`` may round the decay
        # term differently in the last bits
        rates = self._rates()
        rel = 8 * np.finfo(np.float64).eps
        for i, day in enumerate(_study_days()):
            expected = oracle.crossposter_success_rate(day)
            assert rates[i] == pytest.approx(expected, rel=rel, abs=0.0), day


class TestParaphrase:
    def test_keeps_most_tokens(self):
        rng = np.random.default_rng(2)
        vocab = Vocabulary()
        text = "election vote parliament policy government democracy campaign debate"
        rewrite = paraphrase(rng, text, vocab)
        kept = set(rewrite.split()) & set(text.split())
        assert len(kept) >= 5

    def test_similarity_above_paper_threshold(self):
        rng = np.random.default_rng(3)
        vocab = Vocabulary()
        encoder = HashingSentenceEncoder()
        original = (
            "research paper dataset experiment climate physics biology astronomy "
            "telescope genome preprint today really"
        )
        sims = []
        for _ in range(50):
            rewrite = paraphrase(rng, original, vocab)
            sims.append(
                cosine_similarity(encoder.encode(original), encoder.encode(rewrite))
            )
        assert np.mean([s > 0.7 for s in sims]) > 0.9

    def test_never_identical_is_not_required_but_changes_usually(self):
        rng = np.random.default_rng(4)
        vocab = Vocabulary()
        text = "one two three four five six seven eight nine ten"
        changed = sum(paraphrase(rng, text, vocab) != text for _ in range(20))
        assert changed == 20  # a filler word is always appended

    def test_short_text_extended(self):
        rng = np.random.default_rng(5)
        vocab = Vocabulary()
        assert len(paraphrase(rng, "hi there", vocab).split()) >= 3


class TestChatterVolume:
    def test_quiet_before_takeover(self):
        assert chatter_volume_multiplier(dt.date(2022, 10, 10)) < 0.1

    def test_full_after_takeover(self):
        assert chatter_volume_multiplier(TAKEOVER_DATE) == 1.0

"""Posting-behaviour primitives.

Implements the content-side behaviours the timeline analyses (Section 6)
measure: platform-specific topic mixes, paraphrased cross-platform posts,
cross-poster mirroring (including its late-November die-off), and toxicity
planting.
"""

from __future__ import annotations

import datetime as _dt

import numpy as np

from repro.nlp.vocabulary import TOPICS, Vocabulary
from repro.simulation.population import SimUser
from repro.util.clock import TAKEOVER_DATE
from repro.util.rngcompat import choice_index

#: Twitter revoked the cross-posters' elevated API access in late November
#: (the paper's Figure 13 shows the resulting decline).
CROSSPOSTER_SHUTOFF = _dt.date(2022, 11, 24)

_FEDIVERSE_INDEX = next(i for i, t in enumerate(TOPICS) if t.name == "fediverse")
_MASTODON_TOPIC_WEIGHTS = np.array([t.mastodon_weight for t in TOPICS])


def mastodon_topic_mixture(agent: SimUser, days_since_migration: int) -> np.ndarray:
    """The user's topic mixture when posting on Mastodon.

    Newly migrated users talk overwhelmingly about the migration and the
    fediverse itself (Figure 15); the spike decays over the first weeks but
    a platform-level bias toward fediverse topics remains.
    """
    base = agent.topic_mixture * _MASTODON_TOPIC_WEIGHTS
    base = base / base.sum()
    spike = max(0.15, 0.65 * (0.93 ** max(0, days_since_migration)))
    mixture = base * (1.0 - spike)
    mixture[_FEDIVERSE_INDEX] += spike
    return mixture / mixture.sum()


def twitter_daily_rates(tweet_rate: float, mig_idx: int, day_nums: np.ndarray) -> np.ndarray:
    """Expected tweets per study day.  Migrated users keep using Twitter
    (Figure 11): a mild taper only, from the migration day ``mig_idx`` on."""
    lam_tw = np.full(len(day_nums), tweet_rate)
    lam_tw[mig_idx:] *= 0.9
    return lam_tw


def mastodon_daily_rates(status_rate: float, mig_idx: int, day_nums: np.ndarray) -> np.ndarray:
    """Expected statuses per study day; zero before the migration day
    ``mig_idx``, ramping in over the first days after it."""
    ramp = np.minimum(1.0, 0.45 + 0.11 * (day_nums - mig_idx))
    lam_ms = np.where(day_nums >= mig_idx, status_rate * ramp, 0.0)
    return np.maximum(lam_ms, 0.0)


def crossposter_success_rates(shutoff_idx: int, day_nums: np.ndarray) -> np.ndarray:
    """Probability per study day that a cross-posting bridge still works.

    Bridges always work before the shut-off (day index ``shutoff_idx``);
    after it their success rate decays day by day.
    """
    decay = np.maximum(0.05, 0.75 * (0.6 ** np.maximum(0, day_nums - shutoff_idx)))
    return np.where(day_nums < shutoff_idx, 1.0, decay)


def paraphrase(rng: np.random.Generator, text: str, vocabulary: Vocabulary) -> str:
    """A light rewrite of ``text`` that keeps most tokens.

    Drops ~15% of the words and appends a filler word, so the hashing
    encoder's cosine similarity to the original stays above the paper's 0.7
    "similar" threshold without being identical.
    """
    filler = vocabulary.filler
    words = text.split()
    if len(words) <= 3:
        return text + " " + filler[choice_index(rng, len(filler))]
    keep_mask = rng.random(len(words)) > 0.15
    if keep_mask.sum() < max(3, int(0.7 * len(words))):
        keep_mask[:] = True
        keep_mask[int(rng.integers(0, len(words)))] = False
    kept = [w for w, keep in zip(words, keep_mask) if keep]
    kept.append(filler[choice_index(rng, len(filler))])
    return " ".join(kept)


def chatter_volume_multiplier(day: _dt.date) -> float:
    """How much migration chatter there is relative to the post-takeover peak."""
    if day < TAKEOVER_DATE - _dt.timedelta(days=1):
        return 0.05
    return 1.0

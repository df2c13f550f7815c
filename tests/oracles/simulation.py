"""Scalar reference formulas for the simulation's columnar kernels.

The world evaluates its contagion hazard and its posting-rate curves as
array expressions over agent columns and study days
(:meth:`repro.simulation.contagion.ContagionModel.hazard_batch`,
:mod:`repro.simulation.behavior`).  These are the same formulas one agent
and one day at a time, written the obvious way; the tests check the
kernels against them element by element.
"""

from __future__ import annotations

import datetime as _dt

from repro.simulation.behavior import CROSSPOSTER_SHUTOFF
from repro.util.clock import TAKEOVER_DATE

# -- contagion ------------------------------------------------------------------


def migrated_followee_fraction(graph, user_id: int, migrated: set[int]) -> float:
    """Fraction of ``user_id``'s followees that already migrated."""
    followees = graph.followees_of(user_id)
    if not followees:
        return 0.0
    moved = sum(1 for f in followees if f in migrated)
    return moved / len(followees)


def hazard(config, timeline, ideology: float, day: _dt.date, fraction: float) -> float:
    """One candidate's migration probability on ``day``."""
    intensity = timeline.intensity(day)
    if intensity <= 0.0:
        return 0.0
    ideology_term = config.ideology_weight * ideology + 0.25
    contagion_term = 1.0 + config.contagion_weight * fraction
    value = config.base_daily_hazard * intensity * ideology_term * contagion_term
    if day < TAKEOVER_DATE:
        value *= 0.35
    return min(0.95, value)


# -- posting rates --------------------------------------------------------------


def twitter_daily_rate(agent, day: _dt.date) -> float:
    """Tweets/day.  Migrated users keep using Twitter (Figure 11): a mild
    taper only, even after they migrate."""
    rate = agent.tweet_rate
    if agent.migrated and agent.migration_day is not None and day >= agent.migration_day:
        rate *= 0.9
    return rate


def mastodon_daily_rate(agent, day: _dt.date) -> float:
    """Statuses/day; zero before migration, ramping in over the first days."""
    if not agent.migrated or agent.migration_day is None or day < agent.migration_day:
        return 0.0
    if agent.status_rate <= 0.0:
        return 0.0
    days_in = (day - agent.migration_day).days
    ramp = min(1.0, 0.45 + 0.11 * days_in)
    return agent.status_rate * ramp


def crossposter_success_rate(day: _dt.date) -> float:
    """Probability that a cross-posting bridge works on ``day``."""
    if day < CROSSPOSTER_SHUTOFF:
        return 1.0
    days_past = (day - CROSSPOSTER_SHUTOFF).days
    return max(0.05, 0.75 * (0.6**days_past))


"""The social-contagion migration model (RQ2's generative counterpart).

Section 5 distinguishes two migration drivers: ideology (disagreement with
the takeover) and social pressure (one's followees already left).  The model
combines both into a daily hazard for each candidate:

    hazard(u, t) = base * intensity(t)
                   * (ideology_weight * ideology(u) + 0.25)
                   * (1 + contagion_weight * migrated_followee_fraction(u, t))

With ``contagion_weight = 0`` migration becomes a pure ideology/event process
— the ablation benchmark uses exactly that to show the Figure 8/10 orderings
collapse without contagion.
"""

from __future__ import annotations

import datetime as _dt

import numpy as np

from repro.simulation.config import WorldConfig
from repro.simulation.events import EventTimeline
from repro.util.clock import TAKEOVER_DATE


class ContagionModel:
    """The daily migration hazard of every candidate, one array per tick."""

    def __init__(self, config: WorldConfig, timeline: EventTimeline) -> None:
        self._config = config
        self._timeline = timeline

    def hazard_batch(
        self, ideology: np.ndarray, fraction: np.ndarray, day: _dt.date
    ) -> np.ndarray:
        """Migration probability per agent column row on ``day``.

        ``fraction`` is each row's migrated-followee fraction, which the
        world tracks incrementally.  One array expression per tick — the
        columnar tick loop's contagion kernel.
        """
        config = self._config
        intensity = self._timeline.intensity(day)
        if intensity <= 0.0:
            return np.zeros(len(ideology))
        hazard = (
            config.base_daily_hazard
            * intensity
            * (config.ideology_weight * ideology + 0.25)
            * (1.0 + config.contagion_weight * fraction)
        )
        # Pre-takeover adoption is rare and ideology-only: Mastodon's pull
        # before the event was curiosity, not contagion.
        if day < TAKEOVER_DATE:
            hazard *= 0.35
        return np.minimum(0.95, hazard)

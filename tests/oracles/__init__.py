"""Reference implementations the runtime is checked against.

Every frames-backed analysis and every serving endpoint has exactly one
runtime implementation, the columnar one.  The per-object twins they
replaced live here as oracles: slow, obviously-correct walks over the
dataset's objects that must agree with the runtime bit for bit.

:func:`oracle_scope` swaps each runtime function (and ``ColumnarViews``)
for its oracle in every loaded ``repro`` module and turns ``frames_of``
into a tripwire, so whole experiments, the headline report, the sweeps and
``ServingApp`` can run end to end on the oracles.  ``python -m
tests.oracles`` runs the experiments CLI that way.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Iterator

from repro.analysis import (
    activity,
    content,
    hashtags,
    instance_stats,
    moderation,
    network_structure,
    sources,
    switching,
    toxicity,
)
from repro.experiments import fig03_weekly_activity as fig03
from repro.frames import core as frames_core
from repro.serving import app as serving_app
from repro.serving.views import ColumnarViews
from tests.oracles import analysis as oracle
from tests.oracles.views import NaiveViews

#: (runtime, oracle) for every frames-backed analysis.
ANALYSIS_TWINS = [
    (activity.daily_volume, oracle.daily_volume),
    (activity.collected_tweet_volume, oracle.collected_tweet_volume),
    (hashtags.top_hashtags, oracle.top_hashtags),
    (switching.switch_matrix, oracle.switch_matrix),
    (switching.switcher_influence, oracle.switcher_influence),
    (instance_stats.instance_stats, oracle.instance_stats),
    (sources.top_sources, oracle.top_sources),
    (sources.crossposter_daily_users, oracle.crossposter_daily_users),
    (network_structure.network_structure, oracle.network_structure),
    (toxicity.toxicity_analysis, oracle.toxicity_analysis),
    (moderation.moderation_load, oracle.moderation_load),
    (content.content_similarity, oracle.content_similarity),
    (fig03.run, oracle.fig03_run),
]


def _frames_forbidden(dataset):
    raise AssertionError("oracle code must not read the analysis frames")


SWAPS = ANALYSIS_TWINS + [
    (ColumnarViews, NaiveViews),
    (frames_core.frames_of, _frames_forbidden),
]


def _rebind(mapping: dict[int, object]) -> None:
    """Replace, in every loaded ``repro`` module, each object keyed by id."""
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            replacement = mapping.get(id(value))
            if replacement is not None:
                setattr(module, attr, replacement)


@contextmanager
def oracle_scope() -> Iterator[None]:
    """Run every analysis and endpoint on its oracle inside the block.

    Modules first imported inside the block bind the oracles too; the
    exit scan restores them along with everything else.
    """
    _rebind({id(runtime): twin for runtime, twin in SWAPS})
    try:
        yield
    finally:
        _rebind({id(twin): runtime for runtime, twin in SWAPS})


def oracle_responses(dataset, targets: list[str]) -> list[tuple[int, bytes]]:
    """``(status, body)`` per target from an uncached app on the oracles."""
    with oracle_scope():
        app = serving_app.ServingApp(dataset, caches=False)
        return [app.get(target) for target in targets]

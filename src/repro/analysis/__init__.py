"""The paper's analyses (Sections 4-6), one module per theme.

Every function takes a :class:`repro.collection.dataset.MigrationDataset`
(what the crawlers observed) and returns a small result object with the
figure's rows/series plus the scalar statistics quoted in the text.

- :mod:`repro.analysis.centralization`   -- RQ1, Figures 4-5
- :mod:`repro.analysis.instance_stats`   -- RQ1, Figure 6
- :mod:`repro.analysis.social_influence` -- RQ2, Figures 7-8
- :mod:`repro.analysis.switching`        -- RQ2, Figures 9-10
- :mod:`repro.analysis.activity`         -- RQ3, Figure 11
- :mod:`repro.analysis.sources`          -- RQ3, Figures 12-13
- :mod:`repro.analysis.content`          -- RQ3, Figure 14
- :mod:`repro.analysis.hashtags`         -- RQ3, Figure 15
- :mod:`repro.analysis.toxicity`         -- RQ3, Figure 16
- :mod:`repro.analysis.report`           -- every headline scalar in one place

Extensions beyond the paper:

- :mod:`repro.analysis.retention`  -- do migrants stay? (the paper's future work)
- :mod:`repro.analysis.moderation` -- per-instance moderation load
- :mod:`repro.analysis.bootstrap`  -- confidence intervals for per-user means
- :mod:`repro.analysis.sensitivity` -- threshold-robustness sweeps
- :mod:`repro.analysis.network_structure` -- structure of the ego networks
"""

from repro.analysis import (
    activity,
    bootstrap,
    centralization,
    content,
    hashtags,
    instance_stats,
    moderation,
    network_structure,
    report,
    retention,
    sensitivity,
    social_influence,
    sources,
    switching,
    toxicity,
)

__all__ = [
    "activity",
    "bootstrap",
    "centralization",
    "content",
    "hashtags",
    "instance_stats",
    "moderation",
    "network_structure",
    "report",
    "retention",
    "sensitivity",
    "social_influence",
    "sources",
    "switching",
    "toxicity",
]

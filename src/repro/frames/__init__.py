"""Columnar analysis frames: the shared substrate of the figure suite.

Every frames-backed analysis in :mod:`repro.analysis` runs on a
lazily-built, memoized columnar view of the dataset (:class:`DatasetFrames`)
instead of re-iterating nested Python objects — built once and shared
across all experiments and the headline report.  The per-object reference
implementations live with the tests (``tests/oracles``), which pin the
results bit for bit.
"""

from repro.frames.core import DatasetFrames, frames_of, invalidate
from repro.frames.tables import (
    EdgeTable,
    Interner,
    ProfileTable,
    TimelineTable,
    TokenTable,
    build_edge_table,
    build_profile_table,
    build_timeline_table,
    build_token_table,
    ordinal_counts,
)

__all__ = [
    "DatasetFrames",
    "EdgeTable",
    "Interner",
    "ProfileTable",
    "TimelineTable",
    "TokenTable",
    "build_edge_table",
    "build_profile_table",
    "build_timeline_table",
    "build_token_table",
    "frames_of",
    "invalidate",
    "ordinal_counts",
]

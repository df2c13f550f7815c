"""Columnar agent and post state for the simulation core.

The world's daily dynamics and content materialisation used to walk one
Python object per agent per tick.  This module holds the per-tick state as
numpy columns — the ``repro.frames.tables`` idiom applied to the
simulation side — so contagion and posting draws batch per tick via
:mod:`repro.util.rngcompat` instead of running one scalar RNG call per
agent:

- :class:`AgentColumns` — the per-candidate arrays the contagion reads
  (ideology, followee degree, migration status, migrated-followee count),
  extracted from the built population and advanced by the world's tick
  loop; the ``SimUser`` objects and the ``FollowGraph`` stay the
  authoritative population and follow graph;
- :class:`AgentPlan` / :class:`ChatterPlan` — one agent's planned timeline
  as post accumulator columns (day/seq/kind/text/token columns for tweets
  and statuses), the payload a materialisation shard hands to the serial
  apply step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AgentColumns",
    "AgentPlan",
    "ChatterPlan",
]


# -- agent columns ------------------------------------------------------------


@dataclass
class AgentColumns:
    """Per-candidate agent state as parallel numpy columns.

    Row order is candidate order (``World.candidate_ids``, ascending user
    id), which is also the shard partition order: contiguous row slices are
    contiguous candidate slices.  The dynamic columns mirror the
    authoritative ``SimUser`` objects.
    """

    #: candidate user ids, row-aligned with every other column
    uids: np.ndarray
    ideology: np.ndarray
    #: total followee degree on Twitter (hubs and general population included)
    degree: np.ndarray
    #: migration status per row
    migrated: np.ndarray
    #: count of migrated followees per row (incremental contagion state)
    migrated_followees: np.ndarray
    #: user id -> row index (None until first use)
    _row_of: dict[int, int] | None = None

    @property
    def n(self) -> int:
        return len(self.uids)

    def row_of(self, user_id: int) -> int:
        if self._row_of is None:
            self._row_of = {int(uid): i for i, uid in enumerate(self.uids)}
        return self._row_of[user_id]

    @property
    def fraction_migrated_followees(self) -> np.ndarray:
        """Per-row migrated-followee fraction (0 where the degree is 0)."""
        degree = np.maximum(self.degree, 1)
        out = self.migrated_followees / degree
        out[self.degree == 0] = 0.0
        return out

    @classmethod
    def from_world(cls, world) -> "AgentColumns":
        """Extract the columns from a built object world (row = candidate)."""
        agents = world.agents
        graph = world.twitter_graph
        uids = np.asarray(world.candidate_ids, dtype=np.int64)
        n = len(uids)
        ideology = np.empty(n)
        degree = np.empty(n, dtype=np.int32)
        migrated = np.zeros(n, dtype=bool)
        for i, uid in enumerate(world.candidate_ids):
            agent = agents[uid]
            ideology[i] = agent.ideology
            degree[i] = graph.followee_count(uid)
            migrated[i] = agent.migrated
        return cls(
            uids=uids,
            ideology=ideology,
            degree=degree,
            migrated=migrated,
            migrated_followees=np.zeros(n, dtype=np.int32),
        )


# -- post accumulator columns -------------------------------------------------

#: status row kinds in :class:`AgentPlan` columns
STATUS_GENERATED = 0
STATUS_CROSSPOST = 1
STATUS_PARAPHRASE = 2
STATUS_BOOST_SLOT = 3


@dataclass
class AgentPlan:
    """One migrant's planned timeline, as columns.

    Produced by a materialisation shard (stage A), consumed serially by the
    parent (stage B), which is the only place ``Tweet``/``Status`` objects
    are created — the dataset boundary.  Tweet rows are in final per-agent
    order (day ascending; within a day regular tweets, then the
    announcement at seq 90, then cross-post mirrors at seq 100+k).
    """

    uid: int
    # tweet columns
    tweet_day: np.ndarray  # int32 day index into the study window
    tweet_seq: np.ndarray  # int32 within-day slot (drives the timestamp)
    tweet_text: list[str]
    #: token sets for the archive index; None -> derive with the regex
    tweet_tokens: list[frozenset | None]
    tweet_tags: list[tuple]  # case-preserved hashtags, () when none
    tweet_source: list[str]
    # status columns
    status_day: np.ndarray
    status_seq: np.ndarray
    status_kind: np.ndarray  # int8, STATUS_* above
    status_text: list  # str, or None for boost slots
    status_tags: list  # tuple of tags, or None -> let Status derive
    #: precomputed status token sets (seeds ``Status._token_set`` so the
    #: federation policy screen never re-tokenizes); None -> lazy derive
    status_tokens: list
    #: per boost-slot fallback (text, tags) used when no boostable status
    #: exists at apply time; None for non-boost rows
    status_fallback: list
    #: day indices on which the agent logged in (posted >= 1 status)
    login_days: np.ndarray
    #: profile bio text for announce-via-bio users (None otherwise)
    bio_text: str | None


@dataclass
class ChatterPlan:
    """Planned keyword-chatter tweets of one non-migrating user."""

    uid: int
    day: np.ndarray
    seq: np.ndarray
    text: list[str]
    tokens: list
    tags: list
    source: str

"""RQ3: hashtag usage across platforms (Section 6.2, Figure 15).

The paper's Figure 15 shows the top 30 hashtags with their frequencies on
each platform: Twitter spans Entertainment/Celebrity/Politics tags, while
Mastodon is dominated by #fediverse and #TwitterMigration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.collection.dataset import MigrationDataset
from repro.errors import AnalysisError
from repro.frames import frames_of


@dataclass(frozen=True)
class HashtagRow:
    """One hashtag with per-platform frequencies."""

    hashtag: str  # canonical (lowercase) form
    twitter: int
    mastodon: int

    @property
    def total(self) -> int:
        return self.twitter + self.mastodon

    @property
    def dominant_platform(self) -> str:
        return "twitter" if self.twitter >= self.mastodon else "mastodon"


@dataclass(frozen=True)
class HashtagsResult:
    """Figure 15: the joint top-k hashtags."""

    rows: list[HashtagRow]
    distinct_twitter: int
    distinct_mastodon: int


def _tag_counts(table) -> dict[str, int]:
    """Occurrence counts per normalized tag from a table's postings list."""
    if table.tag_ids.size == 0:
        return {}
    counts = np.bincount(table.tag_ids, minlength=len(table.tags))
    return {tag: int(counts[i]) for i, tag in enumerate(table.tags) if counts[i]}


def top_hashtags(dataset: MigrationDataset, k: int = 30) -> HashtagsResult:
    """Joint top-k hashtags by total frequency over both crawled corpora."""
    if not dataset.twitter_timelines and not dataset.mastodon_timelines:
        raise AnalysisError("no timelines in dataset")
    fr = frames_of(dataset)
    twitter = fr.result(
        ("tag_counts", "twitter"), lambda: _tag_counts(fr.tweet_table)
    )
    mastodon = fr.result(
        ("tag_counts", "mastodon"), lambda: _tag_counts(fr.status_table)
    )
    return _build_result(twitter, mastodon, k)


def _build_result(
    twitter: dict[str, int], mastodon: dict[str, int], k: int
) -> HashtagsResult:
    totals = {
        tag: twitter.get(tag, 0) + mastodon.get(tag, 0)
        for tag in set(twitter) | set(mastodon)
    }
    ranked = sorted(totals, key=lambda t: (-totals[t], t))[:k]
    rows = [
        HashtagRow(hashtag=t, twitter=twitter.get(t, 0), mastodon=mastodon.get(t, 0))
        for t in ranked
    ]
    return HashtagsResult(
        rows=rows,
        distinct_twitter=len(twitter),
        distinct_mastodon=len(mastodon),
    )

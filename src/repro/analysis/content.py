"""RQ3: cross-platform content similarity (Section 6.1, Figure 14).

For each migrant with timelines on both platforms, every Mastodon status is
compared against every tweet:

- **identical**: the texts match exactly (cross-poster mirrors);
- **similar**: sentence-embedding cosine similarity above 0.7 (the paper's
  threshold, using Sentence-BERT; here the hashing encoder).

The paper finds on average 1.53% of a user's statuses identical and 16.57%
similar, with 84.45% of users posting completely different content.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.collection.dataset import MigrationDataset
from repro.errors import AnalysisError
from repro.frames import frames_of
from repro.nlp.embeddings import max_similarities
from repro.util.stats import Ecdf, percent

SIMILARITY_THRESHOLD = 0.7


@dataclass(frozen=True)
class ContentSimilarityResult:
    """Figure 14: per-user identical/similar status fractions."""

    identical_fraction: Ecdf
    similar_fraction: Ecdf
    mean_pct_identical: float  # paper: 1.53%
    mean_pct_similar: float  # paper: 16.57%
    pct_users_all_different: float  # paper: 84.45%
    user_count: int


def content_similarity(
    dataset: MigrationDataset, threshold: float = SIMILARITY_THRESHOLD
) -> ContentSimilarityResult:
    """The Figure 14 analysis over users crawled on both platforms."""
    if not 0.0 < threshold < 1.0:
        raise AnalysisError(f"threshold must be in (0, 1), got {threshold}")
    fr = frames_of(dataset)
    return fr.result(
        ("content_similarity", threshold),
        lambda: _content_similarity_frames(fr, threshold),
    )


def _content_similarity_frames(fr, threshold: float) -> ContentSimilarityResult:
    """Slice per-user rows out of the shared embedding matrices.

    Exactness notes: a contiguous row slice of the C-contiguous corpus
    matrix matmuls bit-identically to a per-user ``encode_batch`` matrix, and a
    fancy-indexed copy (the non-boost status rows) likewise; the per-row
    vectors themselves equal ``encode(text)`` by ``encode_tokenized``'s
    contract.
    """
    tweet_table = fr.tweet_table
    status_table = fr.status_table
    tweet_emb = fr.tweet_embeddings
    status_emb = fr.status_embeddings
    boost_flags = status_table.flags
    identical_fracs: list[float] = []
    similar_fracs: list[float] = []
    all_different = 0
    for uid, s_start, s_stop in status_table.iter_slices():
        t_range = tweet_table.slice_of(uid)
        if t_range is None or t_range[0] == t_range[1] or s_start == s_stop:
            continue
        keep = [
            row for row in range(s_start, s_stop) if not boost_flags[row]
        ]
        if not keep:
            continue
        t_start, t_stop = t_range
        tweet_set = set(tweet_table.texts[t_start:t_stop])
        identical = sum(
            1 for row in keep if status_table.texts[row] in tweet_set
        )
        status_vecs = status_emb[keep]
        tweet_vecs = tweet_emb[t_start:t_stop]
        sims = max_similarities(status_vecs, tweet_vecs)
        similar = int(np.count_nonzero(sims > threshold))
        n = len(keep)
        identical_fracs.append(identical / n)
        similar_fracs.append(similar / n)
        if similar == 0 and identical == 0:
            all_different += 1
    if not identical_fracs:
        raise AnalysisError("no users with both timelines crawled")
    return _build_result(identical_fracs, similar_fracs, all_different)


def _build_result(
    identical_fracs: list[float], similar_fracs: list[float], all_different: int
) -> ContentSimilarityResult:
    return ContentSimilarityResult(
        identical_fraction=Ecdf.from_sample(identical_fracs),
        similar_fraction=Ecdf.from_sample(similar_fracs),
        mean_pct_identical=100.0 * float(np.mean(identical_fracs)),
        mean_pct_similar=100.0 * float(np.mean(similar_fracs)),
        pct_users_all_different=percent(all_different, len(identical_fracs)),
        user_count=len(identical_fracs),
    )

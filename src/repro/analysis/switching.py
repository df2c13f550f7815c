"""RQ2: instance switching (Section 5.3, Figures 9-10).

The paper finds 4.09% of users switched instance (97.22% of switches after
the takeover), predominantly from flagship general-purpose instances toward
topical ones, and that switches are socially driven: on average 46.98% of a
switcher's migrated followees are on the *second* instance (vs 11.4% on the
first), and 77.42% of those joined the second instance before the user did.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass

import numpy as np

from repro.collection.dataset import MigrationDataset
from repro.errors import AnalysisError
from repro.frames import frames_of
from repro.util.clock import TAKEOVER_DATE
from repro.util.stats import Ecdf, percent


@dataclass(frozen=True)
class SwitchMatrixResult:
    """Figure 9: the chord diagram's underlying matrix."""

    #: (first domain, second domain) -> switch count
    matrix: dict[tuple[str, str], int]
    switcher_count: int
    pct_switched: float  # of all matched users with accounts; paper 4.09%
    pct_post_takeover: float  # of switches; paper 97.22%
    top_sources: list[tuple[str, int]]
    top_targets: list[tuple[str, int]]


def switch_matrix(
    dataset: MigrationDataset, takeover: _dt.date = TAKEOVER_DATE
) -> SwitchMatrixResult:
    """The Figure 9 matrix of first->second instance moves."""
    if not dataset.accounts:
        raise AnalysisError("no account records in dataset")
    table = frames_of(dataset).profile_table
    takeover_ord = takeover.toordinal()
    matrix: dict[tuple[str, str], int] = {}
    post = 0
    switchers = dataset.switchers()
    for uid in switchers:
        row = table.acct_row[uid]
        second_id = int(table.acct_second_domain_ids[row])
        assert second_id >= 0
        key = (
            table.domains[table.acct_first_domain_ids[row]],
            table.domains[second_id],
        )
        matrix[key] = matrix.get(key, 0) + 1
        second_ord = int(table.acct_second_ordinals[row])
        if second_ord != -1 and second_ord >= takeover_ord:
            post += 1
    return _build_matrix(matrix, post, len(switchers), len(dataset.accounts))


def _build_matrix(
    matrix: dict[tuple[str, str], int], post: int, switchers: int, accounts: int
) -> SwitchMatrixResult:
    sources: dict[str, int] = {}
    targets: dict[str, int] = {}
    for (src, dst), count in matrix.items():
        sources[src] = sources.get(src, 0) + count
        targets[dst] = targets.get(dst, 0) + count
    return SwitchMatrixResult(
        matrix=matrix,
        switcher_count=switchers,
        pct_switched=percent(switchers, accounts),
        pct_post_takeover=percent(post, max(1, switchers)),
        top_sources=sorted(sources.items(), key=lambda kv: -kv[1])[:10],
        top_targets=sorted(targets.items(), key=lambda kv: -kv[1])[:10],
    )


@dataclass(frozen=True)
class SwitcherInfluenceResult:
    """Figure 10: the social pull behind switches."""

    frac_on_first: Ecdf  # fraction of migrated followees on first instance
    frac_on_second: Ecdf
    frac_second_before: Ecdf  # of those on second: joined before the user
    mean_pct_on_first: float  # paper: 11.4%
    mean_pct_on_second: float  # paper: 46.98%
    mean_pct_second_before: float  # paper: 77.42%
    switcher_sample: int


def _join_ordinal(table, followee_id: int, domain_id: int) -> int | None:
    """Day ordinal when ``followee_id`` joined ``domain_id``, or None.

    The followee may be on that instance as their first choice or through a
    switch of their own.
    """
    row = table.acct_row.get(followee_id)
    if row is None:
        return None
    if table.acct_first_domain_ids[row] == domain_id:
        return int(table.acct_first_ordinals[row])
    second_ord = int(table.acct_second_ordinals[row])
    if table.acct_second_domain_ids[row] == domain_id and second_ord != -1:
        return second_ord
    return None


def switcher_influence(dataset: MigrationDataset) -> SwitcherInfluenceResult:
    """The Figure 10 analysis over sampled switchers."""
    fr = frames_of(dataset)
    return fr.result(
        ("switcher_influence",), lambda: _switcher_influence_frames(fr)
    )


def _switcher_influence_frames(fr) -> SwitcherInfluenceResult:
    dataset = fr.dataset
    table = fr.profile_table
    frac_first, frac_second, frac_before = [], [], []
    for uid in dataset.switchers():
        sample = dataset.followee_sample.get(uid)
        if sample is None or not sample.twitter_followees:
            continue
        row = table.acct_row[uid]
        first_id = int(table.acct_first_domain_ids[row])
        second_id = int(table.acct_second_domain_ids[row])
        assert second_id >= 0
        switch_ord = int(table.acct_second_ordinals[row])
        migrated = [
            f for f in sample.twitter_followees if f in table.matched_row
        ]
        if not migrated:
            continue
        on_first, on_second, before = 0, 0, 0
        for followee in migrated:
            if _join_ordinal(table, followee, first_id) is not None:
                on_first += 1
            joined_second = _join_ordinal(table, followee, second_id)
            if joined_second is not None:
                on_second += 1
                if switch_ord != -1 and joined_second < switch_ord:
                    before += 1
        frac_first.append(on_first / len(migrated))
        frac_second.append(on_second / len(migrated))
        if on_second:
            frac_before.append(before / on_second)
    if not frac_first:
        raise AnalysisError("no switchers with followee data")
    return _build_influence(frac_first, frac_second, frac_before)


def _build_influence(
    frac_first: list[float], frac_second: list[float], frac_before: list[float]
) -> SwitcherInfluenceResult:
    return SwitcherInfluenceResult(
        frac_on_first=Ecdf.from_sample(frac_first),
        frac_on_second=Ecdf.from_sample(frac_second),
        frac_second_before=Ecdf.from_sample(frac_before or [0.0]),
        mean_pct_on_first=100.0 * float(np.mean(frac_first)),
        mean_pct_on_second=100.0 * float(np.mean(frac_second)),
        mean_pct_second_before=(
            100.0 * float(np.mean(frac_before)) if frac_before else 0.0
        ),
        switcher_sample=len(frac_first),
    )

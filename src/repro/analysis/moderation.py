"""Per-instance moderation load (extension).

Section 6.3 closes on the moderation question: toxicity "might present
challenges for Mastodon, where volunteer administrators are responsible for
content moderation".  This extension quantifies that burden per instance:
for every instance hosting matched migrants, the volume and share of toxic
statuses its admins inherit, split by instance size — showing that even
small, volunteer-run instances receive a non-trivial moderation stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collection.dataset import MigrationDataset
from repro.errors import AnalysisError
from repro.frames import frames_of
from repro.util.stats import percent


@dataclass(frozen=True)
class InstanceModerationRow:
    """One instance's moderation load."""

    domain: str
    users: int  # matched migrants on the instance
    statuses: int
    toxic_statuses: int

    @property
    def toxic_share_pct(self) -> float:
        return percent(self.toxic_statuses, self.statuses)


@dataclass(frozen=True)
class ModerationResult:
    """Moderation load across instances."""

    rows: list[InstanceModerationRow]  # sorted by toxic volume, descending
    pct_instances_with_toxic_content: float
    small_instance_toxic_share_pct: float  # instances with <= small_cutoff users
    large_instance_toxic_share_pct: float
    small_cutoff: int


def moderation_load(
    dataset: MigrationDataset, threshold: float = 0.5, small_cutoff: int = 5
) -> ModerationResult:
    """Toxic-status volume per instance (admin's-eye view)."""
    if not dataset.mastodon_timelines:
        raise AnalysisError("no Mastodon timelines in dataset")
    fr = frames_of(dataset)
    return fr.result(
        ("moderation_load", threshold, small_cutoff),
        lambda: _moderation_frames(fr, threshold, small_cutoff),
    )


def _moderation_frames(
    fr, threshold: float, small_cutoff: int
) -> ModerationResult:
    """Walk the statuses, reading toxicity from the cached score vector.

    The per-status instance attribution (``account_acct``'s domain) is not
    a table column, so the loop still touches the status objects — but the
    scorer, by far the dominant cost, is an indexed read of
    ``fr.status_toxicity`` (bit-identical to ``scorer.score`` per row).
    """
    dataset = fr.dataset
    scores = fr.status_toxicity
    table = fr.status_table
    per_instance: dict[str, dict[str, int]] = {}
    for uid, statuses in dataset.mastodon_timelines.items():
        if dataset.matched.get(uid) is None:
            continue
        start, _ = table.slice_of(uid)
        for i, status in enumerate(statuses):
            domain = status.account_acct.split("@", 1)[1]
            bucket = per_instance.setdefault(
                domain, {"users": 0, "statuses": 0, "toxic": 0}
            )
            bucket["statuses"] += 1
            if scores[start + i] > threshold:
                bucket["toxic"] += 1
    return _build_result(dataset, per_instance, small_cutoff)


def _build_result(
    dataset: MigrationDataset,
    per_instance: dict[str, dict[str, int]],
    small_cutoff: int,
) -> ModerationResult:
    populations = dataset.instance_populations()
    for domain, bucket in per_instance.items():
        bucket["users"] = populations.get(domain, 0)
    rows = sorted(
        (
            InstanceModerationRow(
                domain=domain,
                users=bucket["users"],
                statuses=bucket["statuses"],
                toxic_statuses=bucket["toxic"],
            )
            for domain, bucket in per_instance.items()
        ),
        key=lambda r: (-r.toxic_statuses, r.domain),
    )
    if not rows:
        raise AnalysisError("no statuses attributable to instances")
    with_toxic = sum(1 for r in rows if r.toxic_statuses > 0)
    small = [r for r in rows if r.users <= small_cutoff]
    large = [r for r in rows if r.users > small_cutoff]

    def share(group: list[InstanceModerationRow]) -> float:
        total = sum(r.statuses for r in group)
        toxic = sum(r.toxic_statuses for r in group)
        return percent(toxic, total)

    return ModerationResult(
        rows=rows,
        pct_instances_with_toxic_content=percent(with_toxic, len(rows)),
        small_instance_toxic_share_pct=share(small),
        large_instance_toxic_share_pct=share(large),
        small_cutoff=small_cutoff,
    )

"""Figure 3: weekly registrations / logins / statuses across instances.

Paper shape: all three metrics jump sharply in the week of the takeover
(2022-W43) and stay elevated through November.
"""

from __future__ import annotations

from repro.collection.dataset import MigrationDataset
from repro.errors import AnalysisError
from repro.experiments.registry import ExperimentResult
from repro.frames import frames_of

EXP_ID = "F3"
TITLE = "Weekly activity on Mastodon instances"

#: ISO week of the takeover (Oct 27, 2022).
TAKEOVER_WEEK = "2022-W43"


def run(dataset: MigrationDataset) -> ExperimentResult:
    if not dataset.weekly_activity:
        raise AnalysisError("dataset has no weekly activity")
    return summarize(frames_of(dataset).weekly_aggregate)


def summarize(weeks: list[dict]) -> ExperimentResult:
    """Figure 3 from per-week totals sorted by week label."""
    window = [w for w in weeks if "2022-W39" <= w["week"] <= "2022-W48"]
    rows = [
        (w["week"], w["registrations"], w["logins"], w["statuses"]) for w in window
    ]
    pre = [w for w in window if w["week"] < TAKEOVER_WEEK]
    post = [w for w in window if w["week"] >= TAKEOVER_WEEK]

    def mean(rows_, key):
        if not rows_:
            return 0.0
        return sum(r[key] for r in rows_) / len(rows_)

    notes = {}
    for key in ("registrations", "logins", "statuses"):
        before = mean(pre, key)
        after = mean(post, key)
        notes[f"{key}_growth_x"] = after / before if before else float("inf")
    return ExperimentResult(
        exp_id=EXP_ID,
        title=TITLE,
        headers=["week", "registrations", "logins", "statuses"],
        rows=rows,
        notes=notes,
    )

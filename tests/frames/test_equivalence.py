"""Runtime-vs-oracle equivalence: the frames' central contract.

Every frames-backed analysis has one runtime implementation, on the
memoized columnar frames (:mod:`repro.frames`), and one per-object oracle
in ``tests/oracles``.  Both must agree *bit for bit*: per analysis on the
shared simulated dataset and on the hand-crafted tiny one (including which
error they raise), and for every experiment's rendered output, the
headline report and the threshold sweeps.  Oracle results are computed
inside :func:`oracle_scope`, where reading the frames is an error.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis.report import format_report, headline_report
from repro.analysis.sensitivity import similarity_sweep, toxicity_sweep
from repro.errors import AnalysisError
from repro.experiments.registry import all_experiment_ids, get_experiment
from repro.frames import frames_of, invalidate
from tests.oracles import ANALYSIS_TWINS, oracle_scope

ALL_IDS = all_experiment_ids(include_extensions=True)
TWIN_IDS = [
    f"{runtime.__module__.rsplit('.', 1)[-1]}.{runtime.__name__}"
    for runtime, _ in ANALYSIS_TWINS
]


def canonical(value):
    """A comparable form that keeps dict order and exact float bits."""
    if dataclasses.is_dataclass(value):
        return (
            type(value).__name__,
            [canonical(getattr(value, f.name)) for f in dataclasses.fields(value)],
        )
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.tolist())
    if isinstance(value, dict):
        return [(canonical(k), canonical(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def outcome(fn, dataset):
    try:
        return canonical(fn(dataset))
    except AnalysisError as exc:  # the refusal is part of the contract
        return ("raised", str(exc))


def _suite(dataset) -> dict[str, str]:
    outputs = {
        exp_id: get_experiment(exp_id)(dataset).format() for exp_id in ALL_IDS
    }
    outputs["report"] = format_report(headline_report(dataset))
    return outputs


@pytest.fixture(scope="module")
def frames_outputs(small_dataset) -> dict[str, str]:
    """Every figure's format() string computed on the frames."""
    invalidate(small_dataset)
    return _suite(small_dataset)


@pytest.fixture(scope="module")
def oracle_outputs(small_dataset) -> dict[str, str]:
    """The same outputs with every analysis on its oracle."""
    with oracle_scope():
        return _suite(small_dataset)


@pytest.mark.parametrize("exp_id", ALL_IDS)
def test_experiment_identical(exp_id, frames_outputs, oracle_outputs):
    assert frames_outputs[exp_id] == oracle_outputs[exp_id]


def test_report_identical(frames_outputs, oracle_outputs):
    assert frames_outputs["report"] == oracle_outputs["report"]


@pytest.mark.parametrize("runtime, twin", ANALYSIS_TWINS, ids=TWIN_IDS)
def test_analysis_matches_oracle(runtime, twin, small_dataset):
    with oracle_scope():
        expected = outcome(twin, small_dataset)
    assert outcome(runtime, small_dataset) == expected


@pytest.mark.parametrize("runtime, twin", ANALYSIS_TWINS, ids=TWIN_IDS)
def test_analysis_matches_oracle_on_tiny_dataset(runtime, twin, tiny_dataset):
    with oracle_scope():
        expected = outcome(twin, tiny_dataset)
    assert outcome(runtime, tiny_dataset) == expected


@pytest.mark.parametrize("sweep", [similarity_sweep, toxicity_sweep])
def test_sweep_rows_match_oracle(sweep, small_dataset):
    """Every default threshold, now read off the shared frames products."""
    with oracle_scope():
        expected = sweep(small_dataset)
    assert sweep(small_dataset) == expected


def test_oracle_scope_forbids_frames(small_dataset):
    from repro.frames import core

    with oracle_scope():
        with pytest.raises(AssertionError, match="must not read"):
            core.frames_of(small_dataset)
    assert core.frames_of(small_dataset) is frames_of(small_dataset)


def test_frames_are_memoized(small_dataset):
    assert frames_of(small_dataset) is frames_of(small_dataset)


def test_invalidate_drops_cached_frames(small_dataset):
    before = frames_of(small_dataset)
    invalidate(small_dataset)
    after = frames_of(small_dataset)
    assert after is not before
    # rebuilt frames still agree with the old instance's products
    assert after.instance_populations == before.instance_populations

"""Tests for repro.obs.bench_report: the cross-run perf trajectory."""

import json

from repro.obs.bench_report import (
    append_history_row,
    check_memory_ceilings,
    check_regressions,
    format_history,
    load_history,
    main,
    merge_pipeline_sections,
)
from repro.simulation import scalebench


def _row(wall: float, scale: float = 0.01, rss: int = 100_000_000, **extra) -> dict:
    return {
        "recorded_at": extra.pop("recorded_at", "2026-08-01T00:00:00+00:00"),
        "git_sha": extra.pop("git_sha", "abc123"),
        "seed": 7,
        "scale": scale,
        "stages": {
            "collect_dataset": {
                "wall_seconds": wall,
                "peak_rss_bytes": rss,
            }
        },
        **extra,
    }


class TestHistoryFile:
    def test_append_and_load_roundtrip(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        append_history_row(path, _row(1.0))
        append_history_row(path, _row(1.1))
        rows = load_history(path)
        assert len(rows) == 2
        assert rows[0]["stages"]["collect_dataset"]["wall_seconds"] == 1.0
        # one JSON object per line, append-only
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line) for line in lines)

    def test_missing_file_loads_empty(self, tmp_path):
        assert load_history(tmp_path / "absent.jsonl") == []


class TestCheckRegressions:
    def test_steady_trajectory_passes(self):
        rows = [_row(1.0), _row(1.05), _row(0.98), _row(1.1)]
        assert check_regressions(rows) == []

    def test_wall_regression_is_flagged(self):
        rows = [_row(1.0), _row(1.0), _row(1.0), _row(1.6)]
        findings = check_regressions(rows)
        assert len(findings) == 1
        f = findings[0]
        assert f["stage"] == "collect_dataset"
        assert f["metric"] == "wall_seconds"
        assert f["median"] == 1.0
        assert f["ratio"] == 1.6

    def test_memory_regression_uses_its_own_threshold(self):
        rows = [_row(1.0, rss=100), _row(1.0, rss=100), _row(1.0, rss=140)]
        # 1.4x memory growth is inside the 1.5x gate
        assert check_regressions(rows) == []
        rows.append(_row(1.0, rss=200))
        findings = check_regressions(rows)
        assert [f["metric"] for f in findings] == ["peak_rss_bytes"]

    def test_median_is_over_same_scale_rows_only(self):
        # a slow big-scale history must not mask a small-scale regression
        rows = [
            _row(50.0, scale=0.01),
            _row(1.0, scale=0.002),
            _row(1.0, scale=0.002),
            _row(2.0, scale=0.002),
        ]
        findings = check_regressions(rows)
        assert len(findings) == 1
        assert findings[0]["median"] == 1.0

    def test_first_row_at_a_new_scale_passes(self):
        rows = [_row(1.0, scale=0.01), _row(99.0, scale=0.1)]
        assert check_regressions(rows) == []

    def test_single_row_passes(self):
        assert check_regressions([_row(1.0)]) == []

    def test_window_bounds_the_trailing_median(self):
        # six old fast runs, then a slow regime the window has accepted
        rows = [_row(1.0)] * 6 + [_row(10.0)] * 4 + [_row(11.0)]
        # window=4 compares against the recent slow regime: 1.1x, passes
        assert check_regressions(rows, window=4) == []
        # a wide window reaches back to the fast era and flags the drift
        findings = check_regressions(rows, window=10)
        assert len(findings) == 1
        assert findings[0]["median"] == 1.0

    def test_custom_threshold(self):
        rows = [_row(1.0), _row(1.0), _row(1.3)]
        assert len(check_regressions(rows)) == 1  # 1.3x > default 1.25x
        assert check_regressions(rows, wall_threshold=1.5) == []

    def test_micro_latency_jitter_is_below_the_noise_floor(self):
        # warm-cache quantiles are a few µs; a 2x swing there is
        # scheduler jitter, not a regression
        rows = [_row(18e-6), _row(18e-6), _row(40e-6)]
        assert check_regressions(rows) == []

    def test_regression_past_the_noise_floor_still_fires(self):
        # ...but a real blowup that crosses the floor is caught
        rows = [_row(18e-6), _row(18e-6), _row(5e-4)]
        findings = check_regressions(rows)
        assert len(findings) == 1
        assert findings[0]["metric"] == "wall_seconds"

    def test_noise_floor_does_not_shield_memory(self):
        rows = [_row(18e-6, rss=100_000_000), _row(18e-6, rss=200_000_000)]
        findings = check_regressions(rows)
        assert [f["metric"] for f in findings] == ["peak_rss_bytes"]


class TestMemoryCeilings:
    """The absolute budget recorded by the worldgen scale bench."""

    def test_rows_without_ceiling_are_ignored(self):
        assert check_memory_ceilings([_row(1.0, rss=10**12)]) == []

    def test_row_under_its_ceiling_passes(self):
        rows = [_row(1.0, rss=100, memory_ceiling_bytes=200)]
        assert check_memory_ceilings(rows) == []

    def test_row_over_its_ceiling_is_flagged_without_history(self):
        # unlike the relative gates, the very first row is already gated
        rows = [_row(1.0, scale=1.0, rss=300, memory_ceiling_bytes=200)]
        findings = check_memory_ceilings(rows)
        assert len(findings) == 1
        f = findings[0]
        assert f["metric"] == "memory_ceiling"
        assert f["scale"] == 1.0
        assert f["latest"] == 300
        assert f["median"] == 200

    def test_every_violating_row_is_reported(self):
        rows = [
            _row(1.0, scale=0.1, rss=300, memory_ceiling_bytes=200),
            _row(1.0, scale=1.0, rss=100, memory_ceiling_bytes=200),
            _row(1.0, scale=1.0, rss=500, memory_ceiling_bytes=200),
        ]
        findings = check_memory_ceilings(rows)
        assert len(findings) == 2
        # sorted worst first
        assert findings[0]["latest"] == 500

    def test_cli_check_enforces_the_ceiling(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        append_history_row(
            path, _row(1.0, scale=1.0, rss=300, memory_ceiling_bytes=200)
        )
        append_history_row(
            path, _row(1.0, scale=1.0, rss=150, memory_ceiling_bytes=200)
        )
        assert main(["--history", str(path), "--check"]) == 1
        assert "memory ceiling" in capsys.readouterr().out


class TestRendering:
    def test_format_history_lists_runs_per_scale(self):
        rows = [_row(1.0, scale=0.002), _row(2.0, scale=0.01)]
        text = format_history(rows)
        assert "scale 0.002" in text
        assert "scale 0.01" in text
        assert "collect_dataset" in text
        assert "abc123" in text

    def test_format_empty_history(self):
        assert "no bench history" in format_history([])


class TestCli:
    def test_check_passes_on_clean_history(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        for wall in (1.0, 1.02, 0.99):
            append_history_row(path, _row(wall))
        assert main(["--history", str(path), "--check"]) == 0
        out = capsys.readouterr().out
        assert "check ok" in out

    def test_check_fails_on_regression(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        for wall in (1.0, 1.0, 5.0):
            append_history_row(path, _row(wall))
        assert main(["--history", str(path), "--check"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSIONS" in out
        assert "collect_dataset" in out

    def test_render_without_check_always_passes(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        append_history_row(path, _row(1.0))
        append_history_row(path, _row(99.0))
        assert main(["--history", str(path)]) == 0
        assert "bench trajectory" in capsys.readouterr().out


def _serving_row(p50: float, scale: float = 0.01, **extra) -> dict:
    return {
        "recorded_at": extra.pop("recorded_at", "2026-08-01T00:00:00+00:00"),
        "git_sha": extra.pop("git_sha", "abc123"),
        "seed": 7,
        "scale": scale,
        "kind": "serving",
        "stages": {"serving.search.p50": {"wall_seconds": p50}},
        **extra,
    }


class TestKindScopedGating:
    def test_kinds_are_gated_independently(self):
        # serving rows interleave with pipeline rows; each kind gates its own
        # latest row against its own trailing median
        rows = [
            _row(1.0),
            _serving_row(0.001),
            _row(1.0),
            _serving_row(0.001),
            _row(1.02),
            _serving_row(0.0011),
        ]
        assert check_regressions(rows) == []

    def test_appending_a_serving_row_keeps_the_pipeline_gated(self):
        rows = [_row(1.0), _row(1.0), _row(1.6), _serving_row(0.001)]
        findings = check_regressions(rows)
        assert [(f["kind"], f["stage"]) for f in findings] == [
            ("pipeline", "collect_dataset")
        ]

    def test_serving_regression_is_flagged_with_its_kind(self):
        rows = [
            _serving_row(0.001),
            _serving_row(0.001),
            _serving_row(0.005),
            _row(1.0),
        ]
        findings = check_regressions(rows)
        assert len(findings) == 1
        assert findings[0]["kind"] == "serving"
        assert findings[0]["stage"] == "serving.search.p50"

    def test_rows_without_kind_are_pipeline(self):
        rows = [_row(1.0), _row(1.0, kind="pipeline"), _row(1.6)]
        findings = check_regressions(rows)
        assert [f["kind"] for f in findings] == ["pipeline"]

    def test_appending_worldgen_rows_keeps_the_pipeline_gated(self, tmp_path):
        # scalebench rows land after the pipeline row at the same scale;
        # their own kind keeps the regressed pipeline row the one gated
        path = tmp_path / "h.jsonl"
        for wall in (1.0, 1.0, 1.6):
            append_history_row(path, _row(wall))
        scalebench.record_history_rows(
            [{"scale": 0.01, "seed": 7, "wall_seconds": 5.0,
              "peak_rss_bytes": 1_000}],
            ceiling_bytes=10_000, path=path,
        )
        rows = load_history(path)
        assert rows[-1]["kind"] == "worldgen"
        findings = check_regressions(rows)
        assert [(f["kind"], f["stage"]) for f in findings] == [
            ("pipeline", "collect_dataset")
        ]

    def test_single_row_per_kind_passes(self):
        assert check_regressions([_row(1.0), _serving_row(0.001)]) == []

    def test_format_history_marks_non_pipeline_rows(self):
        text = format_history([_row(1.0), _serving_row(0.001)])
        assert "[serving]" in text
        assert "serving.search.p50" in text


class TestPipelineArtifact:
    BASE = {"seed": 7, "scale": 0.01, "stages": [{"name": "build_world"}]}
    WORLDGEN = {"mode": "build", "rows": [{"scale": 0.002, "seed": 7}]}

    def _seeded(self, tmp_path):
        path = tmp_path / "BENCH_pipeline.json"
        merge_pipeline_sections(path, self.BASE)
        merge_pipeline_sections(path, {"analysis": {"speedup": 3.0}})
        merge_pipeline_sections(path, {"worldgen_scale": self.WORLDGEN})
        return path

    def test_sections_merge_without_clobbering(self, tmp_path):
        path = self._seeded(tmp_path)
        merge_pipeline_sections(path, {"serving": {"p50": 1.0}})
        payload = json.loads(path.read_text())
        assert payload["stages"] == self.BASE["stages"]
        assert payload["analysis"] == {"speedup": 3.0}
        assert payload["serving"] == {"p50": 1.0}
        assert payload["worldgen_scale"] == self.WORLDGEN

    def test_same_session_base_keeps_other_sections(self, tmp_path):
        path = self._seeded(tmp_path)
        merge_pipeline_sections(path, {**self.BASE, "stages": []})
        payload = json.loads(path.read_text())
        assert payload["stages"] == []
        assert payload["analysis"] == {"speedup": 3.0}
        assert payload["worldgen_scale"] == self.WORLDGEN

    def test_other_session_base_starts_fresh_but_keeps_worldgen_scale(self, tmp_path):
        path = self._seeded(tmp_path)
        merge_pipeline_sections(path, {**self.BASE, "scale": 0.002})
        payload = json.loads(path.read_text())
        assert payload["scale"] == 0.002
        assert "analysis" not in payload
        assert payload["worldgen_scale"] == self.WORLDGEN

    def test_section_update_keeps_the_session(self, tmp_path):
        path = self._seeded(tmp_path)
        merge_pipeline_sections(path, {"analysis": {"speedup": 4.0}})
        payload = json.loads(path.read_text())
        assert (payload["seed"], payload["scale"]) == (7, 0.01)
        assert payload["analysis"] == {"speedup": 4.0}

"""Tests for the worldgen scale bench CLI (real-build scaling rows)."""

from __future__ import annotations

import json

from repro.obs.bench_report import check_memory_ceilings, load_history
from repro.simulation import scalebench


def test_run_scale_row_shape():
    row = scalebench.run_scale(seed=11, scale=0.002)
    assert row["scale"] == 0.002
    assert row["agents"] > row["migrants"] > 0
    assert row["tweets"] > row["migrants"]
    assert row["statuses"] > 0
    assert row["wall_seconds"] > 0
    assert row["peak_rss_bytes"] > 0


def test_record_pipeline_section_merges_without_clobbering(tmp_path):
    artifact = tmp_path / "BENCH_pipeline.json"
    artifact.write_text(json.dumps({"seed": 7, "stages": []}))
    rows = [{"scale": 0.1, "seed": 7, "wall_seconds": 1.0,
             "peak_rss_bytes": 50, "agents": 10, "migrants": 5,
             "tweets": 100, "statuses": 50}]
    scalebench.record_pipeline_section(rows, ceiling_bytes=100, path=artifact)
    payload = json.loads(artifact.read_text())
    assert payload["seed"] == 7  # pre-existing keys survive
    section = payload["worldgen_scale"]
    assert section["memory_ceiling_bytes"] == 100
    assert section["mode"] == "build"
    assert section["rows"] == rows


def test_history_rows_carry_the_ceiling_for_the_gate(tmp_path):
    history = tmp_path / "h.jsonl"
    rows = [
        {"scale": 0.1, "seed": 7, "wall_seconds": 1.0, "peak_rss_bytes": 50},
        {"scale": 1.0, "seed": 7, "wall_seconds": 9.0, "peak_rss_bytes": 150},
    ]
    scalebench.record_history_rows(rows, ceiling_bytes=100, path=history)
    recorded = load_history(history)
    assert [r["scale"] for r in recorded] == [0.1, 1.0]
    assert all("worldgen.build" in r["stages"] for r in recorded)
    assert all(r["kind"] == "worldgen" for r in recorded)
    # the 1.0 row breached the budget: bench_report --check must flag it
    findings = check_memory_ceilings(recorded)
    assert len(findings) == 1
    assert findings[0]["scale"] == 1.0


def test_cli_no_record_exit_codes(tmp_path, capsys):
    history = tmp_path / "h.jsonl"
    ok = scalebench.main([
        "--scales", "0.002", "--seed", "11", "--no-record",
        "--history", str(history),
    ])
    assert ok == 0
    assert not history.exists()
    breached = scalebench.main([
        "--scales", "0.002", "--seed", "11", "--no-record",
        "--memory-ceiling-mb", "0.001", "--history", str(history),
    ])
    assert breached == 1
    assert "MEMORY CEILING EXCEEDED" in capsys.readouterr().err

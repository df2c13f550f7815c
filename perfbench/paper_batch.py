"""Workload ``paper-batch``: regenerate every paper figure in a fresh process.

Each pass is one child process that does what ``repro-experiments``
users wait for: ``build_world(SimConfig(seed, scale=0.01))`` ->
``collect_dataset`` -> ``MigrationDataset.save(.npz)`` -> the 16 paper
figures (``all_experiment_ids()``).  Passes repeat until ``--seconds`` is
spent.  After the timed part each child checks its own outputs: the
dataset sha256 and every figure's text sha256 against the digests
recorded for that world seed in ``digests.json``, and that the ``.npz``
reloads to the same dataset sha256.

The child runs pinned to one CPU and times each layer call (the world
build, the collection, the save, each figure) as a :mod:`hostspeed`
segment, so ``wall_s`` and the figure times are in normalized seconds;
``setup_s`` (process start to the first layer call) is normalized by the
kernel timed on the child's CPU just before the spawn and right after
the child's imports.

Run ``python3 perfbench/paper_batch.py --record`` to (re)record the digests
after a change that is meant to alter the program's output bytes.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

import common
import hostspeed
from common import median, metric, quantile
from tracer import Tracer, span_seconds

DIGESTS = common.BENCH_DIR / "digests.json"
FIGURES = 16
#: ``DatasetFrames`` products the traced pass builds one by one.
PRODUCTS = ("tweet_table", "status_table", "tweet_tokens", "status_tokens",
            "tweet_embeddings", "status_embeddings", "tweet_toxicity",
            "status_toxicity", "profile_table", "edge_table")
ROOTS = frozenset({"paper-batch"})


def child(wseed: int, out: str, traced: bool, run_id: str) -> None:
    """One pass; writes timings, digests and (traced) spans to ``out``."""
    tracer = Tracer(run_id, traced)
    npz = common.OUT / f"paper-batch-w{wseed}.{run_id}.npz"
    from repro import SimConfig, build_world, collect_dataset
    from repro.collection.dataset import MigrationDataset
    from repro.experiments import all_experiment_ids, get_experiment
    from repro.frames import frames_of

    hostspeed.pin_self()
    first_call = time.perf_counter()  # calibrating is not set-up: it comes after
    segments = hostspeed.Segments()
    figure_at, texts = [], []
    with tracer.span("paper-batch"):
        with tracer.span("simulation.build_world"):
            world = build_world(SimConfig(seed=wseed, scale=common.SCALE))
        segments.mark()
        with tracer.span("collection.collect_dataset"):
            dataset = collect_dataset(world)
        segments.mark()
        with tracer.span("collection.binfmt.save"):
            dataset.save(npz)
        segments.mark()
        if traced:
            frames = frames_of(dataset)
            for product in PRODUCTS:
                with tracer.span(f"frames.{product}"):
                    getattr(frames, product)
                segments.mark()
        ids = all_experiment_ids()
        for exp_id in ids:
            with tracer.span(f"experiments.{exp_id}"):
                result = get_experiment(exp_id)(dataset)
            texts.append(result.format())
            segments.mark()
            figure_at.append(sum(segments.normalized))
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

    frames_stats = frames_of(dataset).cache_stats()
    dataset_sha = common.sha256_hex(dataset.to_json().encode())
    npz_bytes = npz.stat().st_size
    with tracer.span("collection.binfmt.load"):
        reloaded = MigrationDataset.load(npz)
    reload_sha = common.sha256_hex(reloaded.to_json().encode())
    npz.unlink()
    common.write_child_result(out, {
        "first_call": first_call,
        "first_kernel_s": segments.first_kernel_s,
        "figure_at": figure_at,
        "normalized_s": sum(segments.normalized),
        "wall_s": sum(segments.wall),
        "figure_ids": ids,
        "figure_sha": [common.sha256_hex(t.encode()) for t in texts],
        "dataset_sha": dataset_sha,
        "reload_sha": reload_sha,
        "npz_bytes": npz_bytes,
        "peak_rss": peak_rss,
        "tweets": len(dataset.collected_tweets),
        "matched": len(dataset.matched),
        "frames_hit_rate": frames_stats["hit_rate"],
        "spans": tracer.export(),
    })


def _pass(seed: int, traced: bool, index: int) -> dict:
    wseed = common.world_seed(seed)
    run_id = f"paper-batch-seed{seed}-pass{index}"
    args = ["--world-seed", str(wseed), "--run-id", run_id]
    if traced:
        args.append("--traced")
    return common.run_child("paper_batch.py", args, run_id)


def _failures(result: dict, recorded: dict | None) -> tuple[int, list[str]]:
    """Failed figures of one pass (all of them when the dataset is wrong)."""
    notes = []
    if len(result["figure_ids"]) != FIGURES:
        notes.append(f"{len(result['figure_ids'])} figures instead of {FIGURES}")
        return FIGURES, notes
    if recorded is None:
        notes.append("no recorded digests for this world seed")
        return FIGURES, notes
    if result["reload_sha"] != result["dataset_sha"]:
        notes.append(".npz reload changed the dataset sha256")
        return FIGURES, notes
    if result["dataset_sha"] != recorded["dataset_sha256"]:
        notes.append("dataset sha256 differs from the recorded digest")
        return FIGURES, notes
    bad = [fid for fid, sha in zip(result["figure_ids"], result["figure_sha"])
           if recorded["figures_sha256"].get(fid) != sha]
    if bad:
        notes.append("figure text differs: " + ", ".join(bad))
    return len(bad), notes


def run(seed: int, seconds: int, trace: bool) -> tuple:
    recorded = json.loads(DIGESTS.read_text()).get(str(common.world_seed(seed)))
    untraced, traced = [], []
    report = [f"world_seed {common.world_seed(seed)}"]
    attempted = failed = 0
    began = time.perf_counter()
    while True:
        as_traced = trace and len(untraced) > len(traced)
        result = _pass(seed, as_traced, len(untraced) + len(traced))
        (traced if as_traced else untraced).append(result)
        bad, notes = _failures(result, recorded)
        attempted += FIGURES
        failed += bad
        report.extend(f"pass {len(untraced) + len(traced)}: {n}" for n in notes)
        done = time.perf_counter() - began >= seconds
        if done and (not trace or traced):
            break
    report.append(f"passes {len(untraced) + len(traced)}, dataset sha256 "
                  f"{untraced[0]['dataset_sha']}")
    report.append(f"wall-clock pass median {median([r['wall_s'] for r in untraced]):.3f} s "
                  f"(normalized {median([_wall(r) for r in untraced]):.3f} s)")
    if trace:
        metrics = _layer_metrics(untraced, traced)
        report.append(f"trace {common.save_trace('paper-batch', seed, _spans(traced))}")
    else:
        metrics = _end_to_end(untraced)
    return failed == 0, attempted, failed, metrics, report


def _wall(r: dict) -> float:
    return r["normalized_s"]


def _setup_s(r: dict) -> float:
    """Process start to the first layer call, normalized."""
    return (r["first_call"] - r["spawned"]) * hostspeed.factor(
        r["spawn_kernel_s"], r["first_kernel_s"])


def _end_to_end(passes: list[dict]) -> dict:
    lat = [r["figure_at"] for r in passes]
    wall = median([_wall(r) for r in passes])
    return {
        "setup_s": metric(median([_setup_s(r) for r in passes]), "s"),
        "wall_s": metric(wall, "s"),
        "p50_ms": metric(median([quantile(v, 0.5) for v in lat]) * 1e3, "ms"),
        "p99_ms": metric(median([quantile(v, 0.99) for v in lat]) * 1e3, "ms"),
        "peak_rss_mb": metric(median([r["peak_rss"] for r in passes]) / 2**20, "MB"),
    }


def _spans(passes: list[dict]) -> list[dict]:
    return [span for r in passes for span in r["spans"]]


def _layer_metrics(untraced: list[dict], traced: list[dict]) -> dict:
    spans = _spans(traced)
    seconds = span_seconds(spans)

    def per_pass(name: str) -> float:
        values = seconds.get(name, [])
        return sum(values) / len(traced) if values else 0.0

    out = {
        "simulation.build_world_s": metric(per_pass("simulation.build_world"), "s"),
        "collection.collect_dataset_s": metric(
            per_pass("collection.collect_dataset"), "s"),
        "collection.binfmt.save_s": metric(per_pass("collection.binfmt.save"), "s"),
        "collection.binfmt.load_s": metric(per_pass("collection.binfmt.load"), "s"),
        "collection.binfmt.npz_bytes": metric(traced[0]["npz_bytes"], "B"),
        "collection.tweets": metric(traced[0]["tweets"], "count"),
        "collection.matched_users": metric(traced[0]["matched"], "count"),
        "frames.result_hit_rate": metric(traced[0]["frames_hit_rate"], "ratio"),
        "trace.overhead_s": metric(
            median([_wall(r) for r in traced]) - median([_wall(r) for r in untraced]),
            "s"),
    }
    for product in PRODUCTS:
        out[f"frames.{product}_s"] = metric(per_pass(f"frames.{product}"), "s")
    for exp_id in traced[0]["figure_ids"]:
        out[f"experiments.{exp_id}_s"] = metric(per_pass(f"experiments.{exp_id}"), "s")
    # the reload is a check outside the timed pass: keep it out of self time
    timed = [s for s in spans if s["name"] != "collection.binfmt.load"]
    out.update(common.layer_metrics(timed, ROOTS))
    for name in [k for k in out if k.endswith((".self_s", ".rss_delta_mb"))]:
        out[name] = metric(out[name]["value"] / len(traced), out[name]["unit"])
    return out


def record(world_seeds: list[int]) -> None:
    """Recompute and store the reference digests for ``world_seeds``."""
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    for wseed in world_seeds:
        result = _pass(wseed, False, 0)
        if result["reload_sha"] != result["dataset_sha"]:
            raise SystemExit(f"world seed {wseed}: .npz reload is not faithful")
        digests[str(wseed)] = {
            "dataset_sha256": result["dataset_sha"],
            "figures_sha256": dict(zip(result["figure_ids"], result["figure_sha"])),
        }
        print(f"world seed {wseed}: {result['dataset_sha']}", flush=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--child", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--world-seed", type=int)
    parser.add_argument("--run-id")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--record", action="store_true",
                        help=f"record digests for world seeds 0..{common.WORLD_SEEDS - 1}")
    args = parser.parse_args()
    if args.record:
        common.require_checkout()
        record(list(range(common.WORLD_SEEDS)))
    else:
        child(args.world_seed, args.out, args.traced, args.run_id)

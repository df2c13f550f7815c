"""Shared plumbing: checkout layout, child processes, statistics, output.

Every workload runs the program from the checkout's own ``src/`` tree in
fresh child processes (``python3 perfbench/<workload>.py --child ...``);
the child writes one JSON result file and exits, and the parent reads it.
Run artefacts (datasets, results, traces) go under ``.perfbench/`` in the
checkout, which the repository ignores.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from tracer import UNATTRIBUTED, chrome_trace, layer_rss_bytes, self_times

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"

#: Every workload runs the program at this scale on the serial backend.
SCALE = 0.01

#: ``paper-batch`` draws its world from this many recorded world seeds
#: (``seed % WORLD_SEEDS``), so every run's figures can be checked against
#: recorded digests.
WORLD_SEEDS = 16

#: ``serve-burst`` and ``daily-advance`` run over this one world: their
#: seed drives the requests, so their figures compare runs, not worlds.
FIXED_WORLD_SEED = 7

#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (wrong directory, missing program)."""


def require_checkout() -> None:
    """Refuse to run anywhere but the root of a checkout holding the program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program source at {SRC}/repro: run from the repository root"
        )
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)


def world_seed(seed: int) -> int:
    return seed % WORLD_SEEDS


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONUNBUFFERED"] = "1"
    return env


def run_child(script: str, args: list[str], tag: str) -> dict:
    """Run one child to completion on one CPU; returns its result.

    The result gains ``spawned``, ``time.perf_counter()`` just before the
    process is created, and ``spawn_kernel_s``, the :mod:`hostspeed`
    calibration kernel timed on the child's CPU just before that.
    Children report their own ``perf_counter`` readings, and both read
    the same system-wide monotonic clock, so the difference is the
    child's start-up cost.
    """
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"{tag}.{os.getpid()}.json"
    result_path.unlink(missing_ok=True)
    command = [sys.executable, str(BENCH_DIR / script), "--child",
               "--out", str(result_path), *args]
    cpu = hostspeed.child_cpu()
    kernel_s = hostspeed.calibrate_on([cpu])[0]
    spawned = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        os.sched_setaffinity(proc.pid, {cpu})
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{script} child timed out after {CHILD_TIMEOUT_S}s") from None
    finally:
        if proc.poll() is None:  # timed out, or this process is being stopped
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not result_path.is_file():
        tail = err.decode("utf-8", "replace")[-2000:]
        raise BenchError(f"{script} child failed ({proc.returncode}):\n{tail}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    result["spawned"] = spawned
    result["spawn_kernel_s"] = kernel_s
    return result


def write_child_result(path: str, result: dict) -> None:
    tmp = Path(path + ".tmp")
    tmp.write_text(json.dumps(result))
    tmp.replace(path)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit(correct: bool, attempted: int, failed: int, metrics: dict,
         report: list[str]) -> None:
    """Print the human-readable report, then the one-line JSON result."""
    for line in report:
        print(line)
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    share = failed / attempted if attempted else 1.0
    print(f"failed_share = {share:.6g} ({failed}/{attempted} operations)")
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))


def save_trace(workload: str, seed: int, spans: list[dict]) -> Path:
    """Write the traced run's spans as Chrome trace-event JSON."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}.trace.json"
    path.write_text(json.dumps(chrome_trace(spans)))
    return path


def layer_metrics(spans: list[dict], roots: frozenset[str]) -> dict:
    """``<layer>.self_s``, ``unattributed.self_s`` and ``<layer>.rss_delta_mb``."""
    out = {}
    for layer, seconds in self_times(spans, roots).items():
        name = "unattributed" if layer == UNATTRIBUTED else layer
        out[f"{name}.self_s"] = metric(seconds, "s")
    for layer, delta in layer_rss_bytes(spans, roots).items():
        out[f"{layer}.rss_delta_mb"] = metric(delta / 2**20, "MB")
    return out

"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-batch|serve-burst|daily-advance \\
        --seed N --seconds S --trace 0|1

With ``--trace 0`` it prints every end-to-end metric; with ``--trace 1``
a traced run prints every per-layer metric (plus the tracing overhead)
and writes the spans to ``.perfbench/<workload>-seed<N>.trace.json`` in
Chrome trace-event format.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import signal
import sys

import catalog
import common


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[name for name, _ in catalog.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=catalog.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    # A stop request unwinds through the ``finally`` blocks that stop children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        common.require_checkout()
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.workload == "paper-batch":
        import paper_batch as workload
    elif args.workload == "serve-burst":
        import serve_burst as workload
    else:
        import daily_advance as workload
    try:
        correct, attempted, failed, metrics, report = workload.run(
            args.seed, args.seconds, bool(args.trace))
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    expected = catalog.LAYER_UNITS if args.trace else catalog.E2E_UNITS
    unknown = sorted(set(metrics) - set(expected))
    if unknown:
        raise RuntimeError(f"metrics missing from the catalog: {unknown}")
    for name, unit in expected.items():
        if name not in metrics:
            if not args.trace:
                raise RuntimeError(f"{args.workload} did not measure {name}")
            metrics[name] = common.metric(0.0, unit)
        elif metrics[name]["unit"] != unit:
            raise RuntimeError(f"{name} in {metrics[name]['unit']}, catalog says {unit}")
    ordered = {name: metrics[name] for name in expected}
    common.emit(correct, attempted, failed, ordered,
                [f"workload {args.workload} seed {args.seed} "
                 f"seconds {args.seconds} trace {args.trace}", *report])
    return 0


if __name__ == "__main__":
    sys.exit(main())

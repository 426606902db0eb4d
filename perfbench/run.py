"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload column --seed 1 --seconds 30 --trace 0

Prints a human-readable table, then as the last line one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace
0`` reports the end-to-end metrics; ``--trace 1`` the per-layer metrics of
the span run. Exits with code 2, printing no result, when the program's
sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = os.path.join(ROOT, "src")

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 1
#: Seed held out from tuning; a claimed gain must also hold on it.
HELD_OUT_SEED = 7919
#: Measured seconds when ``--seconds`` is not given (``run_seconds`` of
#: ``BENCHMARK.json``, on which its bounds were set).
DEFAULT_SECONDS = 30.0


def format_report(report, header: str) -> list[str]:
    """The printed lines of one run: a table, then the JSON result line."""
    lines = [header, *report.notes]
    for name, value in report.metrics.items():
        lines.append(f"  {name:<32} {value:16.6f} {report.units[name]}")
    failed_ratio = report.failed / max(report.attempted, 1)
    lines.append(f"  {'failed_ratio':<32} {failed_ratio:16.6f} ratio")
    lines.extend(f"FAILED: {failure}" for failure in report.failures)
    result = {
        "correct": report.failed == 0 and bool(report.metrics),
        "attempted": max(report.attempted, 1),
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": report.units[name]}
            for name, value in report.metrics.items()
        },
    }
    lines.append(json.dumps(result))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SOURCES, "repro")):
        print(f"error: no program sources at {SOURCES}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    for path in (SOURCES, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)

    from perfbench.measure import measure_end_to_end, measure_spans
    from perfbench.workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = make_workload(args.workload)
    measure = measure_spans if args.trace else measure_end_to_end
    report = measure(workload, args.seed, args.seconds)
    header = f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
    print("\n".join(format_report(report, header)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

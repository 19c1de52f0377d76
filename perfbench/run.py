"""Repository benchmark: the paper's fault-injection campaigns, end to end.

Run from the repository root::

    python3 perfbench/run.py --workload fig2_sweep --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics (samples_per_s, setup_s,
peak_rss_mb); ``--trace 1`` reports the per-layer metrics from a serial
traced run and writes its spans to ``.perfbench/trace-<workload>.jsonl``.
Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Workloads, sizes and the metric list are
recorded in ``perfbench/workloads.json`` and ``BENCHMARK.json``.

BLAS is pinned to one thread per process before NumPy loads, and
temporary files go to the ``.perfbench`` directory of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("fig2_sweep", "lowber_replay", "tmr_planner")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for name in THREAD_VARS:
        os.environ[name] = "1"
    WORKDIR.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(WORKDIR)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.harness import run_benchmark

    report = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), WORKDIR)
    print("environment " + json.dumps(report.environment, sort_keys=True))
    print("campaign_walls_s " + json.dumps(report.campaign_walls))
    for finding in report.findings:
        print(f"finding: {finding}")
    for name, (value, unit) in report.metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"correct={report.correct} attempted={report.attempted} failed={report.failed}")
    print(json.dumps(report.result_line()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself, on a tiny sizing of each workload.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness, run
from perfbench.tracing import NULL, Tracer, instrument
from perfbench.workloads import WORKERS, WORKLOADS, RecordingEngine

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")

TINY = {
    "fig2_sweep": {
        "samples_per_unit": 4, "batch_size": 4, "bers": [1e-5],
        "seeds_per_point": 1, "oracle_units": 2,
        "setup_repeats": 1,
    },
    "lowber_replay": {
        "samples_per_unit": 6, "batch_size": 6, "bers": [0.0, 1e-8],
        "layer_plan_ber": 1e-8, "seeds_per_point": 1,
        "oracle_units": 2, "setup_repeats": 1,
    },
    "tmr_planner": {
        "samples_per_unit": 4, "batch_size": 4, "seeds_per_point": 1,
        "max_iterations": 2, "oracle_units": 2, "setup_repeats": 1,
    },
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_matches_untraced_run(name, tmp_path):
    workload = WORKLOADS[name](TINY[name])
    state = workload.setup(0)
    engine = RecordingEngine(workers=WORKERS, checkpoint_path=tmp_path / "c.jsonl")
    summary = workload.campaign(state, engine)
    untraced = engine.units(state)

    tracer = Tracer()
    with instrument(tracer, backend=harness.get_backend()):
        traced, traced_summary, _ = workload.serial(state, tracer, tmp_path)

    assert untraced and [(u.key, o) for u, o in traced] == [(u.key, o) for u, o in untraced]
    assert traced_summary == summary
    assert tracer.totals()["campaign.unit"][0] == len(untraced)
    assert any(span.name.startswith("backends.") for span in tracer.spans)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_benchmark_run_is_correct_and_complete(name, tmp_path):
    report = harness.run_benchmark(name, 0, 0.0, True, tmp_path, sizes=TINY[name])
    assert report.correct and report.failed == 0, report.findings
    assert list(report.metrics) == [metric for metric, _, _ in harness.PER_LAYER]
    assert report.metrics["backends.mac_check.mismatches"][0] == 0
    assert report.metrics["trace.coverage"][0] >= 0.9


def test_oracle_flags_a_corrupted_result(tmp_path):
    workload = WORKLOADS["fig2_sweep"](TINY["fig2_sweep"])
    state = workload.setup(0)
    units, _, _ = workload.serial(state, NULL, tmp_path)

    clean = harness.Tally()
    harness.oracle(workload, state, units, 0, clean)
    assert clean.failed == 0

    (unit, (accuracy, events)), *rest = units
    corrupted = [(unit, (accuracy, events + 1))] + rest
    tally = harness.Tally()
    harness.oracle(workload, state, corrupted, 0, tally)
    assert tally.failed == 1
    report = harness._report(tally, object(), {}, {})
    assert not report.correct and report.failed == 1


def test_metric_names_are_well_formed_and_match_benchmark_json():
    record = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = record["end_to_end"] + record["per_layer"]
    names = [metric["name"] for metric in declared]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in record["end_to_end"]} == harness.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in record["per_layer"]] == [
        tuple(metric) for metric in harness.PER_LAYER
    ]
    assert [w["name"] for w in record["workloads"]] == list(WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig2_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and done.stdout == ""

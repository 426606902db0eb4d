"""Smoke tests of the end-to-end benchmark.

Runs every workload at a tenth of its simulated size and checks that the
result line carries every metric ``BENCHMARK.json`` names, with its unit,
that nothing fails on unmodified code, and that each correctness gate trips
when handed a tampered output.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

from perfbench import run

if run.SOURCES not in sys.path:
    sys.path.insert(0, run.SOURCES)

from perfbench.gates import (  # noqa: E402 - needs the sources on sys.path
    gate_artifact,
    gate_journal,
    gate_repeatable,
    gate_session_floor,
    gate_zero_inconsistency,
)
from perfbench.measure import measure_end_to_end, measure_spans  # noqa: E402
from perfbench.workloads import WORKLOADS, make_workload  # noqa: E402
from repro.dispatch.journal import SweepJournal  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    BENCHMARK = json.load(handle)

SEED = 3


def run_benchmark(tmp_path, workload: str, trace: int) -> dict:
    """The result line of a tenth-size run of ``workload``."""
    instance = make_workload(workload, **smoke_options(workload, tmp_path))
    measure = measure_spans if trace else measure_end_to_end
    report = measure(instance, SEED, 0.01)
    return json.loads(run.format_report(report, workload)[-1])


def smoke_options(workload: str, tmp_path) -> dict:
    options = {"scale": 0.1}
    if workload == "traced-sweep":
        options["scratch_parent"] = str(tmp_path)
    return options


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_and_nothing_fails(tmp_path, workload, trace):
    result = run_benchmark(tmp_path, workload, trace)
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1


def test_repeatability_gate_trips_on_a_changed_outcome():
    assert gate_repeatable("unit 0", ["a", "a"]) is None
    assert gate_repeatable("unit 0", ["a", "b"]) is not None

    workload = make_workload("column", scale=0.05)
    execute = workload.execute
    calls = []

    def tampered(unit, spec, spans=None):
        execution = execute(unit, spec, spans)
        calls.append(unit)
        if len(calls) > len(workload.units(SEED)):
            execution = dataclasses.replace(execution, digest="tampered")
        return execution

    workload.execute = tampered
    report = measure_end_to_end(workload, SEED, 0.0)
    assert report.failed == 1
    assert "differs between repeats" in report.failures[0]


def test_protocol_gates_trip_on_tampered_counts():
    assert gate_zero_inconsistency("region0-locking", 0) is None
    assert gate_zero_inconsistency("region0-locking", 1) is not None
    assert gate_session_floor("region1-causal", 0) is None
    assert gate_session_floor("region1-causal", 2) is not None


def test_artifact_gate_trips_on_a_mutated_artifact(tmp_path):
    workload = make_workload("traced-sweep", scale=0.1, scratch_parent=str(tmp_path))
    spec = workload.units(SEED)[0]
    try:
        execution = workload.execute(0, spec)
        _, failures = workload.reference_failures([execution], [spec])
        assert failures == []
        reference = workload._references[0]
        assert gate_artifact(execution.artifact, reference) is None
        artifact = json.loads(execution.artifact)
        artifact["columns"][0]["counts"]["inconsistent"] += 1
        mutated = json.dumps(artifact, sort_keys=True, separators=(",", ":"))
        assert gate_artifact(mutated, reference) is not None
    finally:
        workload.close()


def test_journal_gate_trips_on_an_extra_or_missing_line(tmp_path):
    spec = make_workload("traced-sweep", scale=0.1).units(SEED)[0]
    points = len(spec.points)
    with SweepJournal.create(str(tmp_path), spec, name="smoke") as journal:
        for index in range(points):
            journal.record(index, {"kind": "column"})
        path = journal.path
    with open(path, encoding="utf-8") as handle:
        lines = handle.readlines()
    assert gate_journal(lines, points) is None
    assert gate_journal(lines + [lines[-1]], points) is not None
    assert gate_journal(lines[:-1], points) is not None
    assert gate_journal(lines[1:], points) is not None


def test_scratch_directory_is_per_instance(tmp_path):
    first = make_workload("traced-sweep", scratch_parent=str(tmp_path))
    second = make_workload("traced-sweep", scratch_parent=str(tmp_path))
    kept = second._journal_dir()
    first._journal_dir()
    first.close()
    assert os.path.isdir(kept)
    second.close()
    assert os.listdir(tmp_path) == []


def test_command_line_refuses_bad_arguments(capsys):
    assert run.main(["--workload", "no-such-workload", "--seconds", "1"]) == 2
    assert run.main(["--workload", "column", "--seconds", "0"]) == 2
    assert capsys.readouterr().out == ""

"""Measuring a workload: the end-to-end run and the span run.

Both runs execute every unit of the workload once, then keep cycling
through the units until the measured time is used up, with at least one
repeat of the first unit so that the repeatability gate always has two
executions to compare. Each execution is followed by a few set-ups
without a run, so set-ups are sampled across the whole measured window.
Set-up time, run time and the throughputs are means over all samples;
modelled metrics are summed over the first execution of each unit.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

from perfbench.gates import gate_repeatable
from perfbench.spans import SpanRecorder, SpanTotals
from perfbench.workloads import Execution, Outcome

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "LAYERS",
    "Report",
    "measure_end_to_end",
    "measure_spans",
]

#: End-to-end metrics reported with ``--trace 0``: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "txns_per_s": "1/s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
    "inconsistency_ratio": "ratio",
    "detection_ratio": "ratio",
    "hit_ratio": "ratio",
    "db_reads_per_read": "ratio",
}

#: Layers in reporting order; a span's layer is its name up to the first dot
#: (socket time inside the frame codec, span ``io.socket``, is reported as
#: ``dispatch.socket_s`` and not as dispatch self time).
LAYERS = (
    "sim",
    "workloads",
    "cache",
    "core",
    "protocols",
    "db",
    "channel",
    "monitor",
    "scenario",
    "sweep",
    "dispatch",
    "telemetry",
)

#: Per-layer metrics reported with ``--trace 1``: name -> unit. Counts and
#: times are per execution (means over the span run's executions);
#: percentiles pool every call of the span run.
PER_LAYER = {
    "sim.events": "count",
    "sim.events_per_txn": "ratio",
    "sim.self_s": "s",
    "workloads.access_set_calls": "count",
    "workloads.access_set_s": "s",
    "clients.read_txns": "count",
    "clients.update_txns": "count",
    "clients.update_aborts": "count",
    "clients.update_abandoned": "count",
    "cache.reads": "count",
    "cache.read_s": "s",
    "cache.read_us_p50": "us",
    "cache.read_us_p99": "us",
    "cache.misses": "count",
    "cache.retries": "count",
    "cache.invalidations_applied": "count",
    "cache.capacity_evictions": "count",
    "cache.strategy_evictions": "count",
    "cache.self_s": "s",
    "core.detections": "count",
    "core.deplist_merges": "count",
    "core.deplist_merge_s": "s",
    "protocols.service_calls": "count",
    "protocols.service_s": "s",
    "db.commits": "count",
    "db.aborts": "count",
    "db.commit_ratio": "ratio",
    "db.entry_reads": "count",
    "db.read_entry_s": "s",
    "db.txn_step_s": "s",
    "db.lock_acquires": "count",
    "db.lock_s": "s",
    "db.invalidations_sent": "count",
    "db.self_s": "s",
    "channel.sent": "count",
    "channel.delivered": "count",
    "channel.dropped": "count",
    "channel.send_s": "s",
    "monitor.record_update_calls": "count",
    "monitor.record_update_s": "s",
    "monitor.history_updates": "count",
    "monitor.check_calls": "count",
    "monitor.check_s": "s",
    "monitor.check_us_p99": "us",
    "monitor.expansions": "count",
    "monitor.self_s": "s",
    "scenario.build_s": "s",
    "scenario.collect_s": "s",
    "sweep.points": "count",
    "sweep.point_s_p50": "s",
    "sweep.point_s_p95": "s",
    "dispatch.frames": "count",
    "dispatch.frame_bytes": "bytes",
    "dispatch.codec_s": "s",
    "dispatch.journal_records": "count",
    "dispatch.journal_bytes": "bytes",
    "dispatch.journal_s": "s",
    "dispatch.leases_requeued": "count",
    "dispatch.results_accepted": "count",
    "dispatch.status_polls": "count",
    "dispatch.wait_s": "s",
    "dispatch.socket_s": "s",
    "dispatch.self_s": "s",
    "telemetry.records": "count",
    "telemetry.trace_bytes": "bytes",
    "telemetry.record_dicts_s": "s",
    "telemetry.snapshot_s": "s",
    "bench.span_overhead": "ratio",
}

#: Set-ups without a run timed right after each execution of the end-to-end
#: run, on top of the execution's own set-up.
SETUPS_PER_EXECUTION = 4

#: Units the span run cycles through (per-layer metrics are per-execution
#: means, so they need not cover every unit).
SPAN_UNITS = 3

#: Per-layer metrics pooled over calls rather than averaged per execution.
_PERCENTILES = {
    "cache.read_us_p50": ("cache.read", 0.50, 1e6),
    "cache.read_us_p99": ("cache.read", 0.99, 1e6),
    "monitor.check_us_p99": ("monitor.check", 0.99, 1e6),
    "sweep.point_s_p50": ("sweep.point", 0.50, 1.0),
    "sweep.point_s_p95": ("sweep.point", 0.95, 1.0),
}


@dataclass(slots=True)
class Report:
    """What one benchmark run prints."""

    metrics: dict[str, float]
    units: dict[str, str]
    attempted: int
    failures: list[str] = field(default_factory=list)
    #: Free-form lines printed above the result (sample counts, spreads).
    notes: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile; 0.0 without samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _cycle(
    units, seconds: float, execute_one, *, minimum: int | None = None
) -> list[str]:
    """Execute units in turn until ``seconds`` pass and at least ``minimum``
    executions ran (default: every unit, then the first one again).

    Returns the failure of an execution that raised, which ends the cycle.
    """
    if minimum is None:
        minimum = len(units) + 1
    deadline = time.perf_counter() + seconds
    count = 0
    while count < minimum or time.perf_counter() < deadline:
        unit = count % len(units)
        gc.collect()
        try:
            execute_one(unit, units[unit])
        except Exception as exc:  # the run is an attempted, failed operation
            traceback.print_exc()
            return [f"unit {unit} raised {type(exc).__name__}: {exc}"]
        count += 1
    return []


def _summed_outcome(executions: list[Execution]) -> Outcome:
    total = Outcome()
    seen: set[int] = set()
    for execution in executions:
        if execution.unit not in seen:
            seen.add(execution.unit)
            total.add(execution.outcome)
    return total


def _gate_failures(executions: list[Execution]) -> tuple[int, list[str]]:
    """Gates run inside executions, plus repeatability per unit."""
    attempted = 0
    failures: list[str] = []
    digests: dict[int, list[str]] = {}
    for execution in executions:
        attempted += execution.operations
        failures.extend(execution.failures)
        digests.setdefault(execution.unit, []).append(execution.digest)
    for unit, unit_digests in sorted(digests.items()):
        if len(unit_digests) > 1:
            attempted += 1
            failure = gate_repeatable(f"unit {unit}", unit_digests)
            if failure:
                failures.append(failure)
    return attempted, failures


def _timing_note(name: str, values: list[float]) -> str:
    """Sample count, mean, median, and the highest whole percentile that
    has at least ten samples beyond it (when there are enough samples)."""
    note = (
        f"{name}: n={len(values)} mean={statistics.fmean(values):.6g} "
        f"median={statistics.median(values):.6g}"
    )
    top = int(100 * (1 - 10 / len(values)))
    if top >= 50:
        note += f" p{top}={percentile(values, top / 100):.6g}"
    return note


def measure_end_to_end(workload, seed: int, seconds: float) -> Report:
    """The end-to-end metrics, with the program's telemetry off."""
    units = workload.units(seed)
    executions: list[Execution] = []
    setups: list[float] = []

    def execute_one(unit: int, spec) -> None:
        execution = workload.execute(unit, spec)
        executions.append(execution)
        setups.append(execution.setup_s)
        for _ in range(SETUPS_PER_EXECUTION):
            setups.append(workload.time_setup(spec))

    try:
        failures = _cycle(units, seconds, execute_one)
        # Read before anything untimed runs: the reference sweeps.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, gate_failures = _gate_failures(executions)
        attempted += len(failures)
        failures.extend(gate_failures)
        if executions and not failures:
            checked, reference_failures = workload.reference_failures(executions, units)
            attempted += checked
            failures.extend(reference_failures)
    finally:
        workload.close()
    if not executions:
        return Report(
            metrics={}, units=END_TO_END, attempted=attempted, failures=failures
        )

    runs = [e.run_s for e in executions]
    busy = sum(runs)
    metrics = {
        # Means, not medians: on a shared host the load of other tenants
        # drifts over minutes, and a mean averages over that drift where a
        # median picks one level of it (README, "How a run measures").
        "setup_s": statistics.fmean(setups),
        "run_s": busy / len(runs),
        "txns_per_s": sum(e.outcome.txns for e in executions) / busy,
        "points_per_s": sum(e.outcome.points for e in executions) / busy,
        "peak_rss_mb": peak_rss_mb,
        **_summed_outcome(executions).ratios(),
    }
    notes = [_timing_note("setup_s", setups), _timing_note("run_s", runs)]
    return Report(
        metrics=metrics,
        units=END_TO_END,
        attempted=attempted,
        failures=failures,
        notes=notes,
    )


def _layer_self(totals: dict[str, SpanTotals], layer: str) -> float:
    return sum(t.self_s for name, t in totals.items() if name.split(".", 1)[0] == layer)


def layer_metrics(
    totals: dict[str, SpanTotals], execution: Execution, frame_bytes: int
) -> dict[str, float]:
    """Per-layer metrics of one spanned execution."""
    empty = SpanTotals()

    def span(name: str) -> SpanTotals:
        return totals.get(name, empty)

    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(execution.counts)
    metrics.update({k: v for k, v in execution.extra.items() if k in PER_LAYER})
    commits = metrics["db.commits"]
    attempts = commits + metrics["db.aborts"]
    journal = span("dispatch.journal")
    run_end = execution.extra.get("dispatch.run_end")
    metrics.update(
        {
            "sim.self_s": _layer_self(totals, "sim"),
            "workloads.access_set_calls": span("workloads.access_set").calls,
            "workloads.access_set_s": _layer_self(totals, "workloads"),
            "cache.read_s": span("cache.read").self_s,
            "cache.self_s": _layer_self(totals, "cache"),
            "core.deplist_merges": span("core.deplist_merge").calls,
            "core.deplist_merge_s": span("core.deplist_merge").self_s,
            "protocols.service_calls": span("protocols.service").calls,
            "protocols.service_s": _layer_self(totals, "protocols"),
            "db.commit_ratio": commits / attempts if attempts else 0.0,
            "db.read_entry_s": span("db.read_entry").self_s,
            "db.txn_step_s": span("db.txn_step").self_s,
            "db.lock_acquires": span("db.lock_acquire").calls,
            "db.lock_s": span("db.lock_acquire").self_s + span("db.lock").self_s,
            "db.self_s": _layer_self(totals, "db"),
            "channel.send_s": _layer_self(totals, "channel"),
            "monitor.record_update_calls": span("monitor.record_update").calls,
            "monitor.record_update_s": span("monitor.record_update").self_s,
            "monitor.check_calls": span("monitor.check").calls,
            "monitor.check_s": span("monitor.check").self_s,
            "monitor.self_s": _layer_self(totals, "monitor"),
            "scenario.build_s": span("scenario.build").self_s,
            "scenario.collect_s": span("scenario.collect").self_s,
            "sweep.points": span("sweep.point").calls,
            "dispatch.frames": span("dispatch.frame").calls,
            "dispatch.frame_bytes": frame_bytes,
            "dispatch.codec_s": span("dispatch.codec").self_s,
            "dispatch.journal_s": journal.self_s,
            "dispatch.status_polls": span("dispatch.poll").calls,
            "dispatch.wait_s": (
                max(0.0, run_end - journal.last_end)
                if run_end is not None and journal.calls
                else 0.0
            ),
            "dispatch.socket_s": _layer_self(totals, "io"),
            "dispatch.self_s": _layer_self(totals, "dispatch"),
            "telemetry.record_dicts_s": span("telemetry.record_dicts").self_s,
            "telemetry.snapshot_s": span("telemetry.snapshot").self_s,
        }
    )
    # Layer self times for the printed breakdown (not reported metrics).
    for layer in LAYERS:
        metrics[f"_self.{layer}"] = _layer_self(totals, layer)
    return metrics


def measure_spans(workload, seed: int, seconds: float) -> Report:
    """The per-layer metrics: each unit runs untimed-by-spans, then spanned.

    The spanned execution's modelled outcome must equal the plain one's.
    """
    units = workload.units(seed)
    plain: list[Execution] = []
    spanned: list[Execution] = []
    per_execution: list[dict[str, float]] = []
    samples: dict[str, list[float]] = {}
    recorder = SpanRecorder()

    def execute_pair(unit: int, spec) -> None:
        plain.append(workload.execute(unit, spec))
        gc.collect()
        recorder.reset()
        execution = workload.execute(unit, spec, spans=recorder)
        spanned.append(execution)
        totals = recorder.totals()
        per_execution.append(layer_metrics(totals, execution, recorder.frame_bytes))
        for name, span_totals in totals.items():
            samples.setdefault(name, []).extend(span_totals.samples)

    try:
        failures = _cycle(units[:SPAN_UNITS], seconds, execute_pair)
    finally:
        workload.close()
    attempted, gate_failures = _gate_failures(plain + spanned)
    attempted += len(failures)
    failures.extend(gate_failures)
    if recorder.missing:
        failures.append(f"span targets missing from the program: {recorder.missing}")
    if not spanned:
        return Report(
            metrics={}, units=PER_LAYER, attempted=attempted, failures=failures
        )

    metrics = {
        name: statistics.fmean(values[name] for values in per_execution)
        for name in PER_LAYER
    }
    for name, (span_name, q, scale) in _PERCENTILES.items():
        metrics[name] = percentile(samples.get(span_name, []), q) * scale
    metrics["bench.span_overhead"] = statistics.median(
        e.run_s for e in spanned
    ) / statistics.median(e.run_s for e in plain)

    notes = [f"span run: {len(spanned)} spanned + {len(plain)} plain executions"]
    layer_self = {
        layer: statistics.fmean(values[f"_self.{layer}"] for values in per_execution)
        for layer in LAYERS
    }
    total_self = sum(layer_self.values()) or 1.0
    for layer, seconds_self in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        notes.append(
            f"  self time {layer:<10} {seconds_self:10.4f} s  "
            f"{100 * seconds_self / total_self:5.1f} %"
        )
    return Report(
        metrics=metrics,
        units=PER_LAYER,
        attempted=attempted,
        failures=failures,
        notes=notes,
    )


"""The benchmark's named workloads and how one execution of each is timed.

Each workload turns the benchmark seed into a fixed list of *units* — one
input of the program each, with its own sub-seed — and times one execution
of a unit in two phases: set-up (``setup_s``) and the run (``run_s``). The
modelled outcome of a run is the set of simulated results, which repeat
exactly for one unit; the benchmark sums it over the distinct units of a
run, so the modelled metrics do not depend on how many repeats fit into the
measured time.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field

from perfbench.spans import SpanRecorder, install_program_spans
from perfbench.gates import (
    gate_artifact,
    gate_journal,
    gate_session_floor,
    gate_zero_inconsistency,
)
from repro import telemetry
from repro.dispatch.client import FleetClient, FleetSpec, fleet_sweep_name
from repro.dispatch.daemon import FleetConfig, FleetDaemon
from repro.dispatch.journal import journal_path
from repro.dispatch.worker import run_worker
from repro.experiments.config import ColumnConfig
from repro.experiments.report import normalized_artifact
from repro.experiments.sweep import SweepPoint, SweepSpec, run_sweep
from repro.protocols import get_protocol
from repro.scenario import runner as scenario_runner
from repro.scenario.spec import BackendSpec, EdgeSpec, ScenarioSpec
from repro.workloads.synthetic import OffsetWorkload, ParetoClusterWorkload

__all__ = ["Execution", "Outcome", "WORKLOADS", "make_workload"]

#: The checkout the benchmark runs in; by default journals go under it.
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass(slots=True)
class Outcome:
    """Modelled (simulated) results, summed over units."""

    consistent: int = 0
    inconsistent: int = 0
    aborted_necessary: int = 0
    aborted_unnecessary: int = 0
    #: Read-only transactions classified by the monitor plus committed
    #: updates, over the whole simulated run.
    txns: int = 0
    cache_reads: int = 0
    cache_hits: int = 0
    #: Backend reads issued by caches: misses plus refetches.
    db_reads: int = 0
    points: int = 0

    def add(self, other: "Outcome") -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    @property
    def read_only(self) -> int:
        return (
            self.consistent
            + self.inconsistent
            + self.aborted_necessary
            + self.aborted_unnecessary
        )

    def ratios(self) -> dict[str, float]:
        """The modelled end-to-end metrics."""
        potential = self.aborted_necessary + self.inconsistent
        return {
            "inconsistency_ratio": self.inconsistent / max(self.read_only, 1),
            "detection_ratio": self.aborted_necessary / max(potential, 1),
            "hit_ratio": self.cache_hits / max(self.cache_reads, 1),
            "db_reads_per_read": self.db_reads / max(self.cache_reads, 1),
        }


@dataclass(slots=True)
class Execution:
    """One timed execution of one unit."""

    unit: int
    setup_s: float
    run_s: float
    outcome: Outcome
    #: SHA-256 of the normalized result artifact.
    digest: str
    #: Failed operations: correctness gates that tripped, requeued leases,
    #: worker errors (empty when everything held).
    failures: list[str]
    #: Operations attempted: the run, its sweep points and its gates.
    operations: int
    #: Per-layer counts read from the program's stats objects.
    counts: dict[str, float]
    #: Extra per-execution values (fleet workload: journal, trace sizes).
    extra: dict[str, float] = field(default_factory=dict)
    #: The result, kept for the post-timing reference gate.
    artifact: str | None = None


def _digest(artifact: str) -> str:
    return hashlib.sha256(artifact.encode("utf-8")).hexdigest()


def _column_outcome(results, update_commits: int) -> Outcome:
    outcome = Outcome(points=1)
    for result in results:
        counts = result.counts
        outcome.consistent += counts.consistent
        outcome.inconsistent += counts.inconsistent
        outcome.aborted_necessary += counts.aborted_necessary
        outcome.aborted_unnecessary += counts.aborted_unnecessary
        reads = result.read_client_stats
        outcome.txns += reads.committed + reads.aborted
        outcome.cache_reads += result.cache_stats.reads
        outcome.cache_hits += result.cache_stats.hits
        outcome.db_reads += result.cache_stats.db_accesses
    outcome.txns += update_commits
    return outcome


def _layer_counts(results, db_stats) -> dict[str, float]:
    """Per-layer counts of one execution from the program's stats objects."""
    counts: dict[str, float] = {}

    def add(name: str, value: float) -> None:
        counts[name] = counts.get(name, 0) + value

    for result in results:
        cache = result.cache_stats
        add("clients.read_txns", result.read_client_stats.launched)
        add("clients.update_txns", result.update_client_stats.launched)
        add("clients.update_aborts", result.update_client_stats.aborted)
        add("clients.update_abandoned", result.update_client_stats.abandoned)
        add("cache.reads", cache.reads)
        add("cache.misses", cache.misses)
        add("cache.retries", cache.retries)
        add("cache.invalidations_applied", cache.invalidations_applied)
        add("cache.capacity_evictions", cache.capacity_evictions)
        add("cache.strategy_evictions", cache.strategy_evictions)
        add("core.detections", result.detections_eq1 + result.detections_eq2)
        add("channel.sent", result.channel_stats.sent)
        add("channel.delivered", result.channel_stats.delivered)
        add("channel.dropped", result.channel_stats.dropped)
    for stats in db_stats:
        add("db.commits", stats.committed)
        add("db.aborts", stats.aborted)
        add("db.entry_reads", stats.entry_reads)
        add("db.invalidations_sent", stats.invalidations_sent)
    return counts


class _Workload:
    """A named workload: the fixed list of units one seed stands for."""

    name = ""
    units_per_run = 1

    def __init__(self, scale: float = 1.0) -> None:
        self.scale = scale

    def spec(self, seed: int):  # pragma: no cover - abstract
        raise NotImplementedError

    def units(self, seed: int) -> list:
        """The units of ``seed``; ``scale`` below 1 (smoke runs) also
        shrinks their number, keeping at least two."""
        count = max(2, round(self.units_per_run * self.scale))
        return [self.spec(seed * self.units_per_run + index) for index in range(count)]


# ----------------------------------------------------------------------
# Simulation workloads: one scenario per unit, run in this thread
# ----------------------------------------------------------------------


class _ScenarioWorkload(_Workload):
    """A workload whose unit is one :class:`ScenarioSpec`."""

    def time_setup(self, spec: ScenarioSpec) -> float:
        """One set-up without a run: wiring the scenario."""
        start = time.perf_counter()
        scenario_runner.build_scenario(spec)
        return time.perf_counter() - start

    def execute(
        self, unit: int, spec: ScenarioSpec, spans: SpanRecorder | None = None
    ) -> Execution:
        if spans is not None:
            install_program_spans(spans)
        try:
            start = time.perf_counter()
            # Called through the module so that installed spans see them.
            scenario = scenario_runner.build_scenario(spec)
            built = time.perf_counter()
            scenario.sim.run(until=spec.total_time)
            result = scenario_runner.collect_scenario_result(scenario)
            done = time.perf_counter()
        finally:
            if spans is not None:
                spans.remove()

        outcome = _column_outcome(result.edges, result.fleet.update_commits)
        counts = _layer_counts(result.edges, [b.db_stats for b in result.backends])
        events = scenario.sim.events_executed
        counts["sim.events"] = events
        counts["sim.events_per_txn"] = events / max(outcome.txns, 1)
        monitor = scenario.monitor
        testers = [monitor.tester_for(name) for name in monitor.backend_namespaces]
        counts["monitor.history_updates"] = sum(t.update_count for t in testers)
        counts["monitor.expansions"] = sum(t.expansions for t in testers)

        failures: list[str] = []
        gates = 0
        for edge in scenario.edges:
            protocol = get_protocol(edge.spec.protocol) if edge.spec.protocol else None
            if protocol is not None and protocol.zero_inconsistency:
                gates += 1
                summary = scenario.monitor.source_summaries.get(edge.spec.name)
                inconsistent = summary.read_only.inconsistent if summary else 0
                failure = gate_zero_inconsistency(edge.spec.name, inconsistent)
                if failure:
                    failures.append(failure)
            if hasattr(edge.cache, "served_below_floor"):
                gates += 1
                failure = gate_session_floor(
                    edge.spec.name, edge.cache.served_below_floor
                )
                if failure:
                    failures.append(failure)
        return Execution(
            unit=unit,
            setup_s=built - start,
            run_s=done - built,
            outcome=outcome,
            digest=_digest(normalized_artifact(result)),
            failures=failures,
            operations=1 + gates,
            counts=counts,
        )

    def reference_failures(
        self, executions: list[Execution], units
    ) -> tuple[int, list[str]]:
        """Gates checked after the timed phase: none for simulations."""
        return 0, []

    def close(self) -> None:
        """Release what the workload holds; simulations hold nothing."""


class ColumnWorkload(_ScenarioWorkload):
    """The paper's reference single-edge T-Cache column."""

    name = "column"
    units_per_run = 32

    def spec(self, seed: int) -> ScenarioSpec:
        config = ColumnConfig(
            seed=seed, duration=8.0 * self.scale, warmup=2.0 * self.scale
        )
        workload = ParetoClusterWorkload(n_objects=2000, cluster_size=5, alpha=1.0)
        return ScenarioSpec.from_column(config, workload, name="column")


#: Protocol and invalidation loss of the two edges of each region.
_MIX_EDGES = (
    (("tcache-detector", 0.35), ("locking", 0.1)),
    (("causal", 0.2), ("verified-read", 0.35)),
)
_MIX_OBJECTS = 500


class ProtocolMixWorkload(_ScenarioWorkload):
    """A write-heavy routed fleet racing four consistency protocols."""

    name = "protocol-mix"
    units_per_run = 24

    def spec(self, seed: int) -> ScenarioSpec:
        backends = [BackendSpec(name=f"region{r}-db", shards=4) for r in range(2)]
        edges: list[EdgeSpec] = []
        placement: dict[str, str] = {}
        for region, pair in enumerate(_MIX_EDGES):
            workload = OffsetWorkload(
                ParetoClusterWorkload(
                    n_objects=_MIX_OBJECTS, cluster_size=5, alpha=1.0
                ),
                offset=region * _MIX_OBJECTS,
            )
            for protocol, loss in pair:
                edge = EdgeSpec(
                    name=f"region{region}-{protocol}",
                    workload=workload,
                    protocol=protocol,
                    read_rate=150.0,
                    update_rate=150.0,
                    invalidation_loss=loss,
                    invalidation_latency_mean=0.02 + 0.1 * loss,
                    # Detector and verified-read edges hold a fifth of their
                    # region's keys, so they run larger than their cache.
                    cache_capacity=(
                        _MIX_OBJECTS // 5
                        if protocol in ("tcache-detector", "verified-read")
                        else None
                    ),
                )
                edges.append(edge)
                placement[edge.name] = backends[region].name
        return ScenarioSpec(
            name="protocol-mix",
            edges=edges,
            backends=backends,
            placement=placement,
            seed=seed,
            duration=2.5 * self.scale,
            warmup=0.5 * self.scale,
        )


# ----------------------------------------------------------------------
# Traced sweep through an in-process fleet daemon
# ----------------------------------------------------------------------

#: Dependency-list bounds the sweep's points cycle through (Fig. 7c's axis);
#: half the points track no dependencies, the consistency-unaware baseline.
_SWEEP_DEPLISTS = (0, 1, 0, 2)


class _Fleet:
    """An in-process fleet daemon with a journal directory and its workers."""

    def __init__(self, journal_dir: str, workers: int) -> None:
        self.errors: list[str] = []
        self._threads: list[threading.Thread] = []
        start = time.perf_counter()
        self.daemon = FleetDaemon(
            FleetConfig(journal_dir=journal_dir, poll_interval=0.02)
        )
        try:
            self.daemon.start()
            self.host, self.port = self.daemon.address
            for index in range(workers):
                thread = threading.Thread(
                    target=_worker_thread,
                    args=(self.host, self.port, f"bench-worker-{index}", self.errors),
                    name=f"bench-worker-{index}",
                )
                thread.start()
                self._threads.append(thread)
            deadline = time.monotonic() + 30.0
            while len(self.daemon.health.snapshot()) < workers:
                if self.errors or time.monotonic() > deadline:
                    raise RuntimeError(f"workers failed to connect: {self.errors}")
                time.sleep(0.0005)
        except BaseException:
            self.close()
            raise
        #: Daemon start plus worker handshakes.
        self.setup_s = time.perf_counter() - start

    def close(self) -> None:
        """Stop the daemon and wait for its workers to leave."""
        self.daemon.shutdown()
        for thread in self._threads:
            thread.join(timeout=30.0)
        if any(thread.is_alive() for thread in self._threads):
            self.errors.append("a fleet worker did not stop after daemon shutdown")


class TracedSweepWorkload(_Workload):
    """Short traced column points served by a fleet daemon with two workers."""

    name = "traced-sweep"
    units_per_run = 16
    points = 8
    workers = 2

    def __init__(self, scale: float = 1.0, scratch_parent: str = _ROOT) -> None:
        super().__init__(scale)
        self._scratch_parent = scratch_parent
        #: This instance's own directory of journal directories.
        self._scratch: str | None = None
        self._references: dict[int, str] = {}

    def spec(self, seed: int) -> SweepSpec:
        workload = ParetoClusterWorkload(n_objects=200, cluster_size=5, alpha=1.0)
        return SweepSpec(
            name=f"traced-sweep-{seed}",
            root_seed=seed,
            points=[
                SweepPoint(
                    label=f"point{index}",
                    config=ColumnConfig(
                        seed=seed * self.points + index,
                        duration=0.3 * self.scale,
                        warmup=0.1 * self.scale,
                        monitor_window=0.1 * self.scale,
                        invalidation_loss=0.4,
                        deplist_max=_SWEEP_DEPLISTS[index % len(_SWEEP_DEPLISTS)],
                    ),
                    workload=workload,
                    params={"index": index},
                    trace=True,
                )
                for index in range(self.points)
            ],
        )

    def _journal_dir(self) -> str:
        if self._scratch is None:
            self._scratch = tempfile.mkdtemp(
                prefix=".perfbench-", dir=self._scratch_parent
            )
        return tempfile.mkdtemp(prefix="journal-", dir=self._scratch)

    def time_setup(self, spec: SweepSpec) -> float:
        """One untimed-run set-up: daemon start plus worker handshakes."""
        journal_dir = self._journal_dir()
        try:
            fleet = _Fleet(journal_dir, self.workers)
            fleet.close()
        finally:
            shutil.rmtree(journal_dir, ignore_errors=True)
        return fleet.setup_s

    def execute(
        self, unit: int, spec: SweepSpec, spans: SpanRecorder | None = None
    ) -> Execution:
        journal_dir = self._journal_dir()
        fleet = None
        measured_spans = spans is not None
        if spans is not None:
            install_program_spans(spans)
        try:
            fleet = _Fleet(journal_dir, self.workers)
            start = time.perf_counter()
            result = run_sweep(
                spec,
                dispatch=FleetSpec(
                    host=fleet.host,
                    port=fleet.port,
                    poll_interval=0.01,
                    connect_timeout=10.0,
                    wait_timeout=120.0,
                ),
            )
            done = time.perf_counter()
            if spans is not None:
                spans.remove()
                spans = None
            client = FleetClient(fleet.host, fleet.port)
            counters = client.metrics()["telemetry"]["counters"]
        finally:
            if spans is not None:
                spans.remove()
            if fleet is not None:
                fleet.close()
            # run_sweep hands traced results to the CLI exporter; drop them.
            telemetry.drain_recorded_sweeps()

        journal = journal_path(journal_dir, fleet_sweep_name(spec))
        with open(journal, encoding="utf-8") as handle:
            lines = handle.readlines()
        journal_bytes = os.path.getsize(journal)
        shutil.rmtree(journal_dir, ignore_errors=True)

        failures = list(fleet.errors)
        requeued = counters.get("queue.leases_requeued", 0)
        if requeued:
            failures.append(f"{requeued} lease(s) requeued")
        journal_failure = gate_journal(lines, len(spec.points))
        if journal_failure:
            failures.append(journal_failure)

        results = result.results
        outcome = Outcome()
        for column in results:
            outcome.add(_column_outcome([column], column.db_stats.committed))
        counts = _layer_counts(results, [column.db_stats for column in results])
        events = sum(
            column.telemetry["counters"].get("sim.events_dispatched", 0)
            for column in results
        )
        counts["sim.events"] = events
        counts["sim.events_per_txn"] = events / max(outcome.txns, 1)
        counts["monitor.history_updates"] = sum(
            column.telemetry["counters"].get("sgt.update_commits", 0)
            for column in results
        )
        extra = {
            "dispatch.journal_records": len(lines) - 1,
            "dispatch.journal_bytes": journal_bytes,
            "dispatch.leases_requeued": requeued,
            "dispatch.results_accepted": counters.get("daemon.results_accepted", 0),
            "dispatch.run_end": done,
            "telemetry.records": sum(len(column.trace or ()) for column in results),
        }
        if measured_spans:
            extra["telemetry.trace_bytes"] = sum(
                len(json.dumps(column.trace, separators=(",", ":")))
                for column in results
            )
        artifact = normalized_artifact(result)
        return Execution(
            unit=unit,
            setup_s=fleet.setup_s,
            run_s=done - start,
            outcome=outcome,
            digest=_digest(artifact),
            failures=failures,
            # The run, its points, the lease check and the journal gate.
            operations=1 + len(spec.points) + 2,
            counts=counts,
            extra=extra,
            artifact=artifact,
        )

    def reference_failures(
        self, executions: list[Execution], units
    ) -> tuple[int, list[str]]:
        """The artifact gate, against ``run_sweep(jobs=1)`` of each unit.

        Runs after the timed phase and after peak memory was read.
        """
        failures: list[str] = []
        for execution in executions:
            reference = self._references.get(execution.unit)
            if reference is None:
                serial = run_sweep(units[execution.unit], jobs=1)
                telemetry.drain_recorded_sweeps()
                reference = self._references[execution.unit] = normalized_artifact(
                    serial
                )
            failure = gate_artifact(execution.artifact, reference)
            if failure:
                failures.append(f"unit {execution.unit}: {failure}")
        return len(executions), failures

    def close(self) -> None:
        """Remove this instance's journal directories (and nothing else)."""
        if self._scratch is not None:
            shutil.rmtree(self._scratch, ignore_errors=True)
            self._scratch = None


def _worker_thread(host: str, port: int, name: str, errors: list[str]) -> None:
    try:
        run_worker(host, port, name=name, heartbeat_interval=1.0, connect_timeout=10.0)
    except Exception as exc:  # reported as a failed operation of the run
        errors.append(f"worker {name}: {type(exc).__name__}: {exc}")


WORKLOADS = {
    workload.name: workload
    for workload in (ColumnWorkload, ProtocolMixWorkload, TracedSweepWorkload)
}


def make_workload(name: str, **options):
    """A fresh instance of the workload named ``name``.

    ``scale`` below 1 shrinks simulated durations and unit counts (the
    benchmark's own smoke tests); ``scratch_parent`` (``traced-sweep`` only)
    is where the instance makes its journal directory, the checkout by
    default.
    """
    return WORKLOADS[name](**options)

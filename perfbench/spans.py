"""Timing spans around the program's public calls, installed from outside.

A :class:`SpanRecorder` replaces selected functions and methods of the
``repro`` package with wrappers that time each call, and puts the originals
back on :meth:`SpanRecorder.remove`. Nothing inside ``src/repro`` knows it
is being timed; the modelled outcomes of a spanned run must therefore equal
those of an untimed run, which the benchmark checks.

Accounting
----------
Every span has a name ``"<layer>.<what>"``. While a span is open, the time
spent in spans opened inside it is its children's; a span's *self time* is
its duration minus its children's durations, so summing self times over a
layer never counts the same interval twice. Spans are tracked per thread,
because the fleet workload runs a daemon, its connection handlers and two
workers as threads of one process.

A call into a span of the same name as the innermost open span (a subclass
delegating to ``super()``, a wrapper workload delegating to its inner
workload) adds its time normally but does not count as a further call.

Socket reads and writes made inside ``send_frame``/``recv_frame`` are timed
as the ``io.socket`` span, so a handler blocked waiting for its peer's next
frame is not charged to the dispatch layer's self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from dataclasses import dataclass, field

__all__ = ["SpanRecorder", "SpanTotals", "install_program_spans"]

#: Spans whose per-call durations are kept for percentiles (outermost calls).
SAMPLED_SPANS = ("cache.read", "monitor.check", "sweep.point")


@dataclass(slots=True)
class SpanTotals:
    """Merged totals of one span name over every thread."""

    calls: int = 0
    self_s: float = 0.0
    #: Wall-clock (``perf_counter``) end of the latest call.
    last_end: float = 0.0
    samples: list[float] = field(default_factory=list)


class _ThreadState:
    __slots__ = ("stack", "totals")

    def __init__(self) -> None:
        # Each open span is [name, child seconds].
        self.stack: list[list] = []
        self.totals: dict[str, SpanTotals] = {}


class _SocketProxy:
    """Forwards the two socket calls the frame codec makes, timing them."""

    __slots__ = ("_sock", "_recorder", "bytes_sent")

    def __init__(self, sock, recorder: "SpanRecorder") -> None:
        self._sock = sock
        self._recorder = recorder
        self.bytes_sent = 0

    def sendall(self, data) -> None:
        self.bytes_sent += len(data)
        self._recorder.timed("io.socket", self._sock.sendall, data)

    def recv(self, count: int) -> bytes:
        return self._recorder.timed("io.socket", self._sock.recv, count)


class SpanRecorder:
    """Installs timing wrappers and merges what they measured."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        #: ``(owner, attribute, original object)`` in installation order.
        self._patches: list[tuple[object, str, object]] = []
        #: Targets that could not be found in the program (reported, not
        #: fatal: counts still come from the program's stats objects).
        self.missing: list[str] = []
        #: Bytes written by ``send_frame`` calls.
        self.frame_bytes = 0
        self._frame_bytes_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Measuring
    # ------------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
        return state

    def _close(
        self, state: _ThreadState, name: str, frame: list, nested: bool, start: float
    ) -> None:
        end = time.perf_counter()
        elapsed = end - start
        stack = state.stack
        stack.pop()
        if stack:
            stack[-1][1] += elapsed
        totals = state.totals.get(name)
        if totals is None:
            totals = state.totals[name] = SpanTotals()
        totals.self_s += elapsed - frame[1]
        totals.last_end = end
        if not nested:
            totals.calls += 1
            if name in SAMPLED_SPANS:
                totals.samples.append(elapsed)

    def timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        state = self._state()
        stack = state.stack
        nested = bool(stack) and stack[-1][0] == name
        frame = [name, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(state, name, frame, nested, start)

    def _timed_generator(self, name: str, generator):
        """Drive ``generator``, timing each resumption as one span."""
        value = None
        error: BaseException | None = None
        while True:
            state = self._state()
            stack = state.stack
            nested = bool(stack) and stack[-1][0] == name
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                if error is None:
                    yielded = generator.send(value)
                else:
                    yielded = generator.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self._close(state, name, frame, nested, start)
            try:
                value = yield yielded
                error = None
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:  # delivered into the inner generator
                value = None
                error = exc

    def totals(self) -> dict[str, SpanTotals]:
        """Per-span totals merged over every thread that opened a span."""
        merged: dict[str, SpanTotals] = {}
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for name, totals in state.totals.items():
                into = merged.get(name)
                if into is None:
                    into = merged[name] = SpanTotals()
                into.calls += totals.calls
                into.self_s += totals.self_s
                into.last_end = max(into.last_end, totals.last_end)
                into.samples.extend(totals.samples)
        return merged

    def reset(self) -> None:
        """Forget what was measured; installed wrappers stay."""
        with self._states_lock:
            for state in self._states:
                state.totals.clear()
        with self._frame_bytes_lock:
            self.frame_bytes = 0

    # ------------------------------------------------------------------
    # Installing
    # ------------------------------------------------------------------

    def _wrapper(self, name: str, fn, *, generator: bool = False):
        recorder = self
        if generator:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return recorder._timed_generator(name, fn(*args, **kwargs))

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return recorder.timed(name, fn, *args, **kwargs)

        return wrapper

    def wrap_attribute(
        self, owner, attribute: str, name: str, *, generator: bool = False
    ) -> None:
        """Time calls to ``owner.attribute`` (a class's own method or a
        module's function) as span ``name``."""
        original = vars(owner).get(attribute)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attribute}")
            return
        if isinstance(original, classmethod):
            replacement = classmethod(
                self._wrapper(name, original.__func__, generator=generator)
            )
        elif isinstance(original, staticmethod):
            replacement = staticmethod(
                self._wrapper(name, original.__func__, generator=generator)
            )
        else:
            replacement = self._wrapper(name, original, generator=generator)
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, original))

    def wrap_hierarchy(self, base: type, attribute: str, name: str) -> None:
        """Time ``attribute`` on ``base`` and on every loaded subclass that
        defines its own ``attribute``."""
        seen = set()
        pending = [base]
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            if attribute in vars(cls):
                self.wrap_attribute(cls, attribute, name)

    def wrap_function(
        self, module, attribute: str, name: str, replacement=None
    ) -> None:
        """Time a module-level function everywhere it was imported by name.

        ``from module import fn`` copies the reference into the importing
        module, so the wrapper replaces every ``repro`` module attribute that
        is the original function object.
        """
        original = vars(module).get(attribute)
        if original is None:
            self.missing.append(f"{module.__name__}.{attribute}")
            return
        wrapper = replacement or self._wrapper(name, original)
        functools.update_wrapper(wrapper, original)
        for loaded in list(sys.modules.values()):
            loaded_name = getattr(loaded, "__name__", "")
            if loaded_name != "repro" and not loaded_name.startswith("repro."):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)
                    self._patches.append((loaded, key, original))

    def wrap_frame_function(self, module, attribute: str, name: str) -> None:
        """Like :meth:`wrap_function` for ``send_frame``/``recv_frame``,
        whose socket argument is proxied so that socket time is its own span
        and sent bytes are counted."""
        original = vars(module).get(attribute)
        if original is None:
            self.missing.append(f"{module.__name__}.{attribute}")
            return
        recorder = self

        def wrapper(sock, *args, **kwargs):
            proxy = _SocketProxy(sock, recorder)
            try:
                return recorder.timed(name, original, proxy, *args, **kwargs)
            finally:
                if proxy.bytes_sent:
                    with recorder._frame_bytes_lock:
                        recorder.frame_bytes += proxy.bytes_sent

        self.wrap_function(module, attribute, name, replacement=wrapper)

    def remove(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


def _public_methods(cls: type) -> list[str]:
    return [
        attribute
        for attribute, value in vars(cls).items()
        if not attribute.startswith("_") and inspect.isfunction(value)
    ]


def install_program_spans(recorder: SpanRecorder) -> None:
    """Wrap the public calls of every layer the benchmark reports on.

    Call before the scenario is built: components capture some bound
    methods (commit listeners, invalidation upcalls) at construction time.
    """
    import repro.workloads.synthetic  # noqa: F401 - loads the families
    from repro.cache.base import CacheServer
    from repro.core.deplist import DependencyList
    from repro.db import coordinator, database, locks, participant
    from repro.dispatch import client, codec, journal, protocol
    from repro.experiments import sweep
    from repro.monitor import monitor, sgt
    from repro.protocols import causal, locking, verified
    from repro.scenario import runner
    from repro.sim import channel, core
    from repro.telemetry import tracer
    from repro.workloads.base import Workload

    recorder.wrap_attribute(core.Simulator, "run", "sim.run")

    workload_classes = [
        cls
        for module_name, module in list(sys.modules.items())
        if module_name.startswith("repro.workloads.")
        for cls in vars(module).values()
        if inspect.isclass(cls)
        and cls.__module__ == module_name
        and "access_set" in vars(cls)
        and cls is not Workload
    ]
    for cls in workload_classes:
        recorder.wrap_attribute(cls, "access_set", "workloads.access_set")

    recorder.wrap_hierarchy(CacheServer, "read", "cache.read")
    recorder.wrap_hierarchy(CacheServer, "handle_invalidation", "cache.invalidation")
    recorder.wrap_attribute(DependencyList, "merge", "core.deplist_merge")

    for service, methods in (
        (causal.CausalService, _public_methods(causal.CausalService)),
        (verified.VerifiedReadService, _public_methods(verified.VerifiedReadService)),
        # The locking service's only entry point is its commit listener.
        (locking.LockingService, ["_on_commit"]),
    ):
        for method in methods:
            recorder.wrap_attribute(service, method, "protocols.service")

    recorder.wrap_attribute(database.Database, "read_entry", "db.read_entry")
    recorder.wrap_attribute(database.Database, "execute_update", "db.txn_step")
    recorder.wrap_attribute(
        coordinator.Coordinator, "run_transaction", "db.txn_step", generator=True
    )
    recorder.wrap_attribute(participant.Participant, "read_latest", "db.read_entry")
    for method in _public_methods(participant.Participant):
        if method != "read_latest":
            recorder.wrap_attribute(participant.Participant, method, "db.txn_step")
    recorder.wrap_attribute(locks.LockManager, "acquire", "db.lock_acquire")
    for method in _public_methods(locks.LockManager):
        if method != "acquire":
            recorder.wrap_attribute(locks.LockManager, method, "db.lock")

    recorder.wrap_attribute(channel.Channel, "send", "channel.send")

    recorder.wrap_attribute(
        monitor.ConsistencyMonitor, "record_update", "monitor.record_update"
    )
    recorder.wrap_attribute(
        sgt.SerializationGraphTester, "record_update", "monitor.record_update"
    )
    recorder.wrap_attribute(
        monitor.ConsistencyMonitor, "record_read_only", "monitor.check"
    )
    recorder.wrap_attribute(
        sgt.SerializationGraphTester, "is_consistent", "monitor.check"
    )

    recorder.wrap_function(runner, "build_scenario", "scenario.build")
    recorder.wrap_function(runner, "collect_scenario_result", "scenario.collect")
    recorder.wrap_function(runner, "collect_column_result", "scenario.collect")

    recorder.wrap_function(sweep, "_execute_point", "sweep.point")

    recorder.wrap_function(codec, "encode_result", "dispatch.codec")
    recorder.wrap_function(codec, "decode_result", "dispatch.codec")
    recorder.wrap_attribute(journal.SweepJournal, "record", "dispatch.journal")
    recorder.wrap_frame_function(protocol, "send_frame", "dispatch.frame")
    recorder.wrap_frame_function(protocol, "recv_frame", "dispatch.frame")
    recorder.wrap_attribute(client.FleetClient, "fetch", "dispatch.poll")
    recorder.wrap_attribute(client.FleetClient, "status", "dispatch.poll")

    recorder.wrap_attribute(tracer.Tracer, "record_dicts", "telemetry.record_dicts")
    recorder.wrap_attribute(tracer.Tracer, "snapshot", "telemetry.snapshot")

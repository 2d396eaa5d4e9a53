"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public entry points of each layer (class
attributes and module functions) with counters and ``perf_counter``
spans, and :meth:`Tracer.remove` puts every original back.  A layer's
self time is its spans' duration minus the wrapped spans beneath them,
so ``simcore.self_s`` is the engine's own share of ``Simulator.run``.
Entry points that are generator functions (HDFS block reads/writes,
local-FS I/O) do their work while the simulator resumes them, so they
are counted, not timed.

State is kept per thread (the scheduler's loop, its worker and the
clients all run wrapped code) and merged by :meth:`Tracer.snapshot`.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Callable

from repro.cluster import BigDataCluster
from repro.core.base import IOScheduler
from repro.core.broker import BrokerClient
from repro.core.sfqd2 import DepthController
from repro.dataplane.path import IOPath
from repro.execution.store import ResultStore
from repro.experiments import harness
from repro.hdfs.datanode import BlockService
from repro.localfs.filesystem import LocalFS
from repro.mapreduce.job import Job
from repro.net.fabric import NetFabric
from repro.scenario.runner import ScenarioRunner
from repro.scenario.spec import Scenario
from repro.service import worker
from repro.service.journal import SubmissionJournal
from repro.simcore.engine import Simulator
from repro.simcore.wheel import EventWheel
from repro.storage.device import StorageDevice
from repro.telemetry.bus import TelemetryBus
from repro.yarnsim.resourcemanager import ResourceManager

#: (owner, attribute, key, mode): mode "span" times the call, "count"
#: only counts it.  The key's prefix before the first dot is its layer.
SIMULATION_POINTS = [
    (Simulator, "run", "simcore.run", "span"),
    (EventWheel, "push", "simcore.push", "count"),
    (EventWheel, "withdraw", "simcore.withdraw", "count"),
    (ResourceManager, "release_container", "yarnsim.release", "span"),
    (ResourceManager, "unregister_app", "yarnsim.unregister", "span"),
    (IOScheduler, "submit", "core.submit", "span"),
    (IOScheduler, "cancel", "core.cancel", "span"),
    (DepthController, "update", "core.depth_update", "span"),
    (BrokerClient, "sync", "core.broker_sync", "span"),
    (IOPath, "submit", "dataplane.submit", "span"),
    (TelemetryBus, "publish", "telemetry.publish", "count"),
    (BlockService, "read_block", "hdfs.block_read", "count"),
    (BlockService, "write_block", "hdfs.block_write", "count"),
    (LocalFS, "write", "localfs.write", "count"),
    (LocalFS, "read", "localfs.read", "count"),
    (LocalFS, "servlet_read", "localfs.servlet_read", "count"),
    (Job, "__init__", "mapreduce.job", "count"),
    (ScenarioRunner, "run", "scenario.run", "span"),
    (ScenarioRunner, "materialise", "scenario.materialise", "span"),
    (BigDataCluster, "preload_input", "scenario.preload", "span"),
    (Scenario, "from_dict", "scenario.parse", "span"),
    (ResultStore, "get", "execution.store_get", "span"),
]

#: the §4 calibration, traced while the traced run sets up
CALIBRATION_POINTS = [
    (harness, "calibrate_controller", "core.calibrate", "span"),
]


class _ThreadState:
    __slots__ = ("count", "total", "self", "stack", "sums", "values",
                 "maxima")

    def __init__(self) -> None:
        self.count: dict[str, int] = defaultdict(int)
        #: host seconds inside each span, and outside wrapped children
        self.total: dict[str, float] = defaultdict(float)
        self.self: dict[str, float] = defaultdict(float)
        #: amounts carried by calls (bytes)
        self.sums: dict[str, float] = defaultdict(float)
        #: one child-time accumulator per open span
        self.stack: list[float] = []
        self.values: dict[str, list[float]] = defaultdict(list)
        self.maxima: dict[str, float] = defaultdict(float)


class Tracer:
    """Installs wrappers on :meth:`install`; :meth:`remove` undoes them."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[Any, str, Any]] = []
        self._pending_waits: dict[tuple[int, str], float] = {}

    # ---------------------------------------------------------- state
    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def snapshot(self) -> _ThreadState:
        """Every thread's counts, times and samples, merged."""
        out = _ThreadState()
        with self._lock:
            states = list(self._states)
        for st in states:
            for key, n in st.count.items():
                out.count[key] += n
            for key, t in st.total.items():
                out.total[key] += t
            for key, t in st.self.items():
                out.self[key] += t
            for key, x in st.sums.items():
                out.sums[key] += x
            for key, xs in st.values.items():
                out.values[key].extend(xs)
            for key, m in st.maxima.items():
                out.maxima[key] = max(out.maxima[key], m)
        return out

    def reset(self) -> None:
        with self._lock:
            self._states = []
        self._local = threading.local()

    # ------------------------------------------------------- wrappers
    def _span(self, key: str, fn: Callable,
              before: Callable | None = None) -> Callable:
        perf = time.perf_counter
        state = self._state

        def wrapper(*args, **kwargs):
            st = state()
            st.count[key] += 1
            if before is not None:
                before(st, args, kwargs)
            stack = st.stack
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                st.total[key] += dur
                st.self[key] += dur - stack.pop()
                if stack:
                    stack[-1] += dur
        return wrapper

    def _count(self, key: str, fn: Callable) -> Callable:
        state = self._state

        def wrapper(*args, **kwargs):
            state().count[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner: Any, name: str,
               make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.name`` with ``make(original function)``."""
        original = owner.__dict__[name]
        if isinstance(original, classmethod):
            wrapper = classmethod(make(original.__func__))
        else:
            wrapper = make(original)
        self._patched.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _install_points(self, points) -> None:
        for owner, name, key, mode in points:
            if mode == "span":
                self._patch(owner, name, lambda fn, k=key: self._span(k, fn))
            else:
                self._patch(owner, name, lambda fn, k=key: self._count(k, fn))

    def install_calibration(self) -> "Tracer":
        self._install_points(CALIBRATION_POINTS)
        return self

    def install(self) -> "Tracer":
        """Wrap every simulation, execution and service entry point."""
        self._install_points(SIMULATION_POINTS)
        self._install_special()
        return self

    def remove(self) -> None:
        """Restore every wrapped attribute, last wrapped first."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    # ------------------------------------------- wrappers with payloads
    def _install_special(self) -> None:
        perf = time.perf_counter
        span = self._span

        # YARN: pending depth after each request, simulated wait to grant.
        def wrap_request(fn):
            timed = span("yarnsim.request", fn)

            def request_container(rm, *args, **kwargs):
                ev = timed(rm, *args, **kwargs)
                st = self._state()
                st.maxima["yarnsim.pending_max"] = max(
                    st.maxima["yarnsim.pending_max"], float(len(rm._pending)))
                sim, asked = rm.sim, rm.sim.now
                waits = st.values["yarnsim.wait_sim_s"]
                ev.callbacks.append(lambda _ev: waits.append(sim.now - asked))
                return ev
            return request_container

        self._patch(ResourceManager, "request_container", wrap_request)

        # Storage and network: bytes beside the calls.
        def device_bytes(st, args, kwargs):
            st.sums["storage.bytes"] += (args[2] if len(args) > 2
                                         else kwargs["nbytes"])

        def transfer_bytes(st, args, kwargs):
            if args[1] != args[2]:  # local "transfers" never leave the node
                st.sums["net.bytes"] += args[3]

        self._patch(StorageDevice, "submit",
                    lambda fn: span("storage.submit", fn, device_bytes))
        self._patch(NetFabric, "transfer",
                    lambda fn: span("net.transfer", fn, transfer_bytes))

        # Store writes: the size of what was written.
        def wrap_put(fn):
            timed = span("execution.store_put", fn)

            def put(store, manifest):
                path = timed(store, manifest)
                self._state().values["execution.manifest_kb"].append(
                    path.stat().st_size / 1024.0)
                return path
            return put

        self._patch(ResultStore, "put", wrap_put)

        # Journal writes, and queue wait = journaled submit -> batch start
        # (keyed by journal, since a restarted scheduler reissues ids).
        marks = self._pending_waits

        def on_submit(st, args, kwargs):
            marks[(id(args[0]), args[1].sub_id)] = perf()

        def on_start(st, args, kwargs):
            t = marks.pop((id(args[0]), args[1]), None)
            if t is not None:
                st.values["service.queue_wait_s"].append(perf() - t)

        for name, before in (("record_submit", on_submit),
                             ("record_start", on_start),
                             ("record_done", None), ("record_failed", None)):
            self._patch(SubmissionJournal, name,
                        lambda fn, b=before: span("service.journal", fn, b))

        def batch_size(st, args, kwargs):
            st.values["service.batch_size"].append(float(len(args[0])))

        self._patch(worker, "run_batch",
                    lambda fn: span("service.batch", fn, batch_size))

"""Runs one round of a workload against a live scheduler.

A round starts a ``SchedulerService`` (``jobs=1``, journal and
``ResultStore`` in a fresh directory, loopback ``tcp://``), runs the
workload's phases with one thread per client connection (a closed
loop: each client sends its next operation only after the previous
reply), and stops the scheduler.  The round's time is the sum of its
phases' times, a restart between phases included; the first start and
the last stop belong to set-up.

Every timed interval is also reported in reference seconds
(:mod:`perfbench.speed`): a client that runs alone samples the host's
speed between its operations; clients running together are sampled
around their phase.  The sample that closes one interval opens the
next, so a round takes one sample per interval plus one.
"""

from __future__ import annotations

import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.execution import ResultStore
from repro.service import SchedulerService, ServiceClient, ServiceError

from perfbench.speed import scale_of, speed_sample
from perfbench.workloads import Op, Phase, Workload, recall_phase

#: bound on one wait for a reply; a round that stalls this long fails
RESULT_TIMEOUT = 150.0


@dataclass
class OpResult:
    phase: str
    op: Op
    latency: float
    #: host-speed factor: ``latency * scale`` is in reference seconds
    scale: float = 1.0
    sub_id: Optional[str] = None
    failed: bool = False
    reason: str = ""
    manifest: Any = None


@dataclass
class RoundResult:
    #: summed phase times, raw host seconds and reference seconds
    wall: float
    scaled_wall: float
    ops: list[OpResult]
    #: scenario index -> one manifest answered for it this round
    manifests: dict[int, Any] = field(default_factory=dict)
    #: scenario index -> every metrics_hash answered for it this round
    answers: dict[int, set] = field(default_factory=dict)


class _Clock:
    """Host-speed samples between consecutive timed intervals."""

    def __init__(self) -> None:
        self.last = speed_sample()

    def scale(self) -> float:
        """The scale of the interval since the previous sample."""
        after = speed_sample()
        scale, self.last = scale_of(self.last, after), after
        return scale


def start_service(root: Path) -> SchedulerService:
    return SchedulerService(
        store=ResultStore(root / "results"),
        journal=root / "service" / "journal.jsonl",
        jobs=1,
    ).start("tcp://127.0.0.1:0")


def _one_op(client: ServiceClient, wl: Workload, phase: Phase,
            op: Op) -> OpResult:
    res = OpResult(phase.name, op, 0.0)
    t0 = time.perf_counter()
    try:
        if op.kind == "submit":
            res.sub_id = client.submit(wl.payloads[op.scenario])
        else:
            res.sub_id = op.sub_id
        res.manifest = client.result(res.sub_id, timeout=RESULT_TIMEOUT)
    except ServiceError as exc:
        res.failed = True
        res.reason = (f"F1 completed id forgotten: {exc}"
                      if op.kind == "recall" else f"error: {exc}")
    res.latency = time.perf_counter() - t0
    expected = wl.hashes[op.scenario]
    if not res.failed and res.manifest.scenario_hash != expected:
        res.failed = True
        res.reason = (
            f"{'F2 id reissued' if op.kind == 'recall' else 'wrong manifest'}"
            f": {res.sub_id} answered scenario "
            f"{res.manifest.scenario_hash}, submitted {expected}"
        )
    if not phase.executes:
        res.manifest = None  # answers are many; keep executions only
    return res


def _client(address: str, wl: Workload, phase: Phase, ops: list[Op],
            out: list[OpResult], clock: Optional[_Clock]) -> None:
    """One client connection's closed loop; with ``clock`` (a client
    running alone) each op is scaled by the samples around it."""
    with ServiceClient(address) as client:
        for op in ops:
            res = _one_op(client, wl, phase, op)
            if clock is not None:
                res.scale = clock.scale()
            out.append(res)


def _run_phase(address: str, wl: Workload, phase: Phase,
               clients: list[list[Op]],
               clock: _Clock) -> tuple[list[OpResult], float, float]:
    """Run one phase; returns its ops, its raw time and its time in
    reference seconds."""
    clients = [ops for ops in clients if ops]
    outs: list[list[OpResult]] = [[] for _ in clients]
    errors: list[BaseException] = []
    alone = len(clients) == 1

    def body(ops, out):
        try:
            _client(address, wl, phase, ops, out, clock if alone else None)
        except Exception as exc:  # a client crash fails the round, loudly
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(ops, out),
                                name=f"perfbench-{phase.name}-{i}")
               for i, (ops, out) in enumerate(zip(clients, outs))]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(RESULT_TIMEOUT * 2)
    elapsed = time.perf_counter() - t0
    if any(t.is_alive() for t in threads):
        raise RuntimeError(f"phase {phase.name}: a client did not finish")
    if errors:
        raise RuntimeError(f"phase {phase.name}: client failed: "
                           f"{type(errors[0]).__name__}: {errors[0]}")
    ops = [r for out in outs for r in out]
    if alone:
        # Back-to-back ops: the phase is their sum (the speed samples
        # between them are not part of it).
        return (ops, sum(r.latency for r in ops),
                sum(r.latency * r.scale for r in ops))
    scale = clock.scale()
    for r in ops:
        r.scale = scale
    return ops, elapsed, elapsed * scale


def run_round(wl: Workload, root: Path) -> RoundResult:
    """One round in a fresh directory ``root`` (removed afterwards)."""
    root.mkdir(parents=True)
    service = start_service(root)
    try:
        ops: list[OpResult] = []
        issued: list[tuple[str, int]] = []  # ids the first scheduler issued
        restarted = False
        wall = scaled_wall = 0.0
        clock = _Clock()
        for phase in wl.phases:
            if phase.restart_before:
                t0 = time.perf_counter()
                service.stop()
                service = start_service(root)
                elapsed = time.perf_counter() - t0
                wall += elapsed
                scaled_wall += elapsed * clock.scale()
                restarted = True
            clients = (recall_phase(issued) if phase.name == "recall"
                       else phase.clients)
            results, elapsed, scaled = _run_phase(service.address, wl, phase,
                                                  clients, clock)
            wall += elapsed
            scaled_wall += scaled
            if not restarted:
                issued += [(r.sub_id, r.op.scenario) for r in results
                           if r.op.kind == "submit" and r.sub_id is not None]
            ops += results
    finally:
        service.stop()
        shutil.rmtree(root, ignore_errors=True)
    out = RoundResult(wall, scaled_wall, ops)
    for r in ops:
        if r.manifest is None or r.failed:
            continue
        out.manifests.setdefault(r.op.scenario, r.manifest)
        out.answers.setdefault(r.op.scenario, set()).add(
            r.manifest.metrics_hash())
    return out

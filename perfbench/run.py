#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload swim_trace --seed 1 --seconds 30 --trace 0

The run sets up (several times, in fresh processes, for ``setup_s``),
then repeats whole rounds of the workload until ``--seconds`` have
been measured, checks every answer, and prints one JSON object as the
last line of standard output::

    {"correct": true, "attempted": 1088, "failed": 532,
     "metrics": {"wall_s": {"value": 2.91, "unit": "s"}, ...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` runs each round's inputs untraced, then traced, and
reports the per-layer metrics (per traced round) plus
``trace.overhead_s``.  Times are in reference seconds
(``perfbench/speed.py``).  A readable summary goes to standard error.
Everything the run writes lives in ``.perfbench_work/`` under the
checkout and is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(ROOT))

from perfbench.speed import scale_of, speed_sample, stop_helper  # noqa: E402

#: fresh-process set-ups per run; ``setup_s`` is their median
SETUP_PROBES = 5
PROBE_TIMEOUT = 120.0


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and make sure the
    program imported is the one in this checkout."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from "
                         f"{ROOT / 'src'}: {exc}")
    if Path(repro.__file__).resolve().parents[1] != (ROOT / "src").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from this checkout")


# ------------------------------------------------------------------ set-up
def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """In a fresh process with an empty cache: imports, the cold §4
    calibration, scenario construction, and the service start.
    Returns raw seconds and reference seconds."""
    before = speed_sample()
    t0 = time.perf_counter()
    _import_program()
    from perfbench import driver, workloads

    workloads.build(workload, seed)
    service = driver.start_service(Path(os.environ["REPRO_CACHE_DIR"]) / "svc")
    elapsed = time.perf_counter() - t0
    service.stop()
    return elapsed, elapsed * scale_of(before, speed_sample())


def measure_setups(workload: str, seed: int,
                   work: Path) -> list[tuple[float, float]]:
    out = []
    for k in range(SETUP_PROBES):
        cache = work / f"probe-{k}"
        cache.mkdir()
        env = dict(os.environ, REPRO_CACHE_DIR=str(cache))
        env.pop("IBIS_CACHE_DIR", None)
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        out.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
    return out


# ----------------------------------------------------------------- metrics
def end_to_end(wl, rounds, setups: list[tuple[float, float]],
               rss_mb: float) -> tuple[dict, str]:
    """The end-to-end metrics, times in reference seconds."""
    ops = [r for rnd in rounds for r in rnd.ops]
    phases = {ph.name: ph for ph in wl.phases}
    exec_lat = [r.latency * r.scale for r in ops
                if phases[r.phase].executes and not r.failed]
    hit_lat = [r.latency * r.scale for r in ops
               if not phases[r.phase].executes and r.op.kind == "submit"
               and not r.failed]
    completed = sum(1 for r in ops if r.op.kind == "submit" and not r.failed)
    metrics = {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "wall_s": (statistics.fmean(r.scaled_wall for r in rounds), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "exec_p50_ms": (statistics.median(exec_lat) * 1e3, "ms"),
        "hit_p50_ms": (statistics.median(hit_lat) * 1e3, "ms"),
        "requests_per_s": (completed / sum(r.scaled_wall for r in rounds),
                           "1/s"),
    }
    raw_exec = statistics.median(r.latency for r in ops
                                 if phases[r.phase].executes and not r.failed)
    note = (f"exec_p50_ms from {len(exec_lat)} executions, hit_p50_ms "
            f"from {len(hit_lat)} answers\n"
            f"  raw host time: setup_s "
            f"{statistics.median(r for r, _ in setups):.4g}, wall_s "
            f"{statistics.fmean(r.wall for r in rounds):.4g}, exec_p50_ms "
            f"{raw_exec * 1e3:.4g}; host speed factor "
            f"{sum(r.scaled_wall for r in rounds) / sum(r.wall for r in rounds):.3f}")
    return metrics, note


def per_layer(snap, traced, calibrations: int, calibrate_s: float,
              overhead: float) -> dict:
    """The per-layer metrics of the traced rounds, per round; times in
    reference seconds (host time times the rounds' speed factor)."""
    c, vals = snap.count, snap.values
    n = float(len(traced))
    speed = (sum(r.scaled_wall for r in traced)
             / sum(r.wall for r in traced))
    tot = defaultdict(float, {k: v * speed for k, v in snap.total.items()})
    slf = defaultdict(float, {k: v * speed for k, v in snap.self.items()})

    def per(x):
        return x / n

    def sum_self(*keys):
        return per(sum(slf[k] for k in keys))

    def median_or_zero(xs):
        return statistics.median(xs) if xs else 0.0

    run_s = per(tot["simcore.run"])
    yarn_self = sum_self("yarnsim.request", "yarnsim.release",
                         "yarnsim.unregister")
    batch_sizes = vals["service.batch_size"]
    kb = vals["execution.manifest_kb"]
    return {
        "simcore.events": (per(c["simcore.push"]), "count"),
        "simcore.run_s": (run_s, "s"),
        "simcore.self_s": (sum_self("simcore.run"), "s"),
        "simcore.events_per_s": (c["simcore.push"] / tot["simcore.run"], "1/s"),
        "simcore.tombstones": (per(c["simcore.withdraw"]), "count"),
        "yarnsim.requests": (per(c["yarnsim.request"]), "count"),
        "yarnsim.releases": (per(c["yarnsim.release"]), "count"),
        "yarnsim.self_s": (yarn_self, "s"),
        "yarnsim.share": (yarn_self / run_s, "ratio"),
        "yarnsim.pending_max": (snap.maxima["yarnsim.pending_max"], "count"),
        "yarnsim.wait_p50_sim_s": (median_or_zero(vals["yarnsim.wait_sim_s"]),
                                   "sim_s"),
        "core.submits": (per(c["core.submit"]), "count"),
        "core.cancels": (per(c["core.cancel"]), "count"),
        "core.self_s": (sum_self("core.submit", "core.cancel",
                                 "core.depth_update", "core.broker_sync"), "s"),
        "core.depth_updates": (per(c["core.depth_update"]), "count"),
        "core.broker_syncs": (per(c["core.broker_sync"]), "count"),
        "dataplane.submits": (per(c["dataplane.submit"]), "count"),
        "dataplane.self_s": (sum_self("dataplane.submit"), "s"),
        "storage.submits": (per(c["storage.submit"]), "count"),
        "storage.bytes": (per(snap.sums["storage.bytes"]) / 2**20, "MB"),
        "storage.self_s": (sum_self("storage.submit"), "s"),
        "net.transfers": (per(c["net.transfer"]), "count"),
        "net.bytes": (per(snap.sums["net.bytes"]) / 2**20, "MB"),
        "net.self_s": (sum_self("net.transfer"), "s"),
        "telemetry.published": (per(c["telemetry.publish"]), "count"),
        "hdfs.block_reads": (per(c["hdfs.block_read"]), "count"),
        "hdfs.block_writes": (per(c["hdfs.block_write"]), "count"),
        "localfs.writes": (per(c["localfs.write"]), "count"),
        "localfs.reads": (per(c["localfs.read"]), "count"),
        "localfs.servlet_reads": (per(c["localfs.servlet_read"]), "count"),
        "mapreduce.jobs": (per(c["mapreduce.job"]), "count"),
        "core.calibrations": (float(calibrations), "count"),
        "core.calibrate_s": (calibrate_s, "s"),
        "scenario.runs": (per(c["scenario.run"]), "count"),
        "scenario.parse_s": (per(tot["scenario.parse"]), "s"),
        "scenario.materialise_s": (per(tot["scenario.materialise"]), "s"),
        "scenario.preload_s": (per(tot["scenario.preload"]), "s"),
        "execution.store_gets": (per(c["execution.store_get"]), "count"),
        "execution.store_get_s": (per(tot["execution.store_get"]), "s"),
        "execution.manifest_kb": (statistics.fmean(kb) if kb else 0.0, "KB"),
        "execution.store_puts": (per(c["execution.store_put"]), "count"),
        "execution.store_put_s": (per(tot["execution.store_put"]), "s"),
        "service.journal_writes": (per(c["service.journal"]), "count"),
        "service.journal_s": (per(tot["service.journal"]), "s"),
        "service.batches": (per(c["service.batch"]), "count"),
        "service.batch_size_mean": (
            statistics.fmean(batch_sizes) if batch_sizes else 0.0, "count"),
        "service.batch_s": (per(tot["service.batch"]), "s"),
        "service.queue_wait_p50_ms": (
            median_or_zero(vals["service.queue_wait_s"]) * speed * 1e3, "ms"),
        "trace.overhead_s": (overhead, "s"),
    }


# -------------------------------------------------------------------- main
def run(args, work: Path) -> dict:
    setups = measure_setups(args.workload, args.seed, work)
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")
    os.environ.pop("IBIS_CACHE_DIR", None)
    _import_program()
    from perfbench import driver, workloads
    from perfbench.tracer import Tracer

    tracer = Tracer()
    if args.trace:
        tracer.install_calibration()
    before = speed_sample()
    wl = workloads.build(args.workload, args.seed)
    calib = tracer.snapshot()
    calibrations = calib.count["core.calibrate"]
    calibrate_s = calib.total["core.calibrate"] * scale_of(before,
                                                           speed_sample())
    tracer.remove()
    tracer.reset()

    # Whole rounds until --seconds of rounds are measured; with --trace
    # each round's inputs run untraced, then traced.
    rounds, traced = [], []
    measured = 0.0
    while measured < args.seconds:
        if rounds:
            wl = workloads.build(args.workload, args.seed, len(rounds))
        rnd = driver.run_round(wl, work / f"round-{len(rounds)}")
        rounds.append((wl, rnd))
        measured += rnd.wall
        if args.trace:
            tracer.install()
            try:
                rnd = driver.run_round(wl, work / f"traced-{len(traced)}")
            finally:
                tracer.remove()
            traced.append((wl, rnd))
            measured += rnd.wall
    # Linux reports ru_maxrss in KiB; read before the checks run more.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = workloads.check_rounds(rounds, traced)
    all_ops = [r for _, rnd in rounds + traced for r in rnd.ops]
    attempted = len(all_ops)
    failed = sum(r.failed for r in all_ops)

    if args.trace:
        overhead = statistics.median(
            t.scaled_wall - u.scaled_wall
            for (_, u), (_, t) in zip(rounds, traced))
        metrics = per_layer(tracer.snapshot(), [rnd for _, rnd in traced],
                            calibrations, calibrate_s, overhead)
        note = (f"{len(traced)} traced + {len(rounds)} untraced rounds; "
                f"per-layer values are per traced round")
    else:
        metrics, note = end_to_end(wl, [rnd for _, rnd in rounds], setups,
                                   rss_mb)
    reasons: dict[str, int] = {}
    for r in all_ops:
        if r.failed:
            key = f"{r.phase}: {r.reason.split(':')[0]}"
            reasons[key] = reasons.get(key, 0) + 1
    _log(f"perfbench {wl.name} seed={wl.seed}: {len(rounds) + len(traced)} "
         f"rounds, {attempted} ops, {failed} failed {reasons}")
    _log(f"  setups (reference s): "
         f"{', '.join(f'{s:.3f}' for _, s in setups)}; {note}")
    first_wl, first = rounds[0]
    ref = workloads.reference_hash(wl.name, wl.seed)
    _log(f"  round 0 combined metrics hash "
         f"{workloads.combined_hash(first_wl, workloads.round_hashes(first))}"
         f" (reference: {ref if ref is not None else 'none for this seed'})")
    for name, (value, unit) in metrics.items():
        _log(f"  {name:28s} {value:14.6g} {unit}")
    for p in problems:
        _log(f"  CHECK FAILED: {p}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("swim_trace", "hive_sort", "service_sweep"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        _log(f"perfbench: no program under {ROOT / 'src'}")
        return 2
    # A terminated run still removes its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        result = run(args, work)
    finally:
        stop_helper()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only if no other run is using it
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

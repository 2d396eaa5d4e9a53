#!/usr/bin/env python3
"""Check that the benchmark repeats: run every workload several times
and print each end-to-end metric's median, quartiles and spread next
to its bound in BENCHMARK.json.

    python3 perfbench/steadiness.py --runs 10 --seed-base 100

Every workload of BENCHMARK.json runs for its ``run_seconds``.  Run
``i`` uses seed ``seed-base + i``; the order of the workloads
alternates between runs (forward, then reversed), so no workload
always runs first.  The spread is (Q3 - Q1) / median with the
quartiles of ``statistics.quantiles(values, n=4)``.  A metric is
steady when its spread is below a third of its bound; ``setup_s`` is
reported but judged only by its median.  The share of failed
operations must be identical in every run of a workload.

Exit status: 0 when every run was correct, every failed share repeats
and every spread (except ``setup_s``) is within its bound; 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=100)
    args = ap.parse_args(argv)

    results: dict[str, list[dict]] = {w: [] for w in names}
    for i in range(args.runs):
        order = names if i % 2 == 0 else list(reversed(names))
        for w in order:
            res = run_once(w, args.seed_base + i, bench["run_seconds"])
            results[w].append(res)
            print(f"run {i} {w}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  f"{json.dumps(res['metrics'])}", file=sys.stderr, flush=True)

    ok = True
    for w in names:
        runs = results[w]
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        ok &= correct and len(shares) == 1
        print(f"\n{w}: {len(runs)} runs, correct={correct}, failed share "
              f"{'repeats' if len(shares) == 1 else 'VARIES'}: "
              f"{sorted(shares)}")
        print(f"  {'metric':16s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}  verdict")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            bound = m["bound"]
            if m["name"] == "setup_s":
                verdict = "median only"
            elif spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                ok = False
            print(f"  {m['name']:16s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.3f} {bound:6.2f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

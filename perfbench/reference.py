#!/usr/bin/env python3
"""Regenerate the reference metrics hashes the benchmark checks against.

    python3 perfbench/reference.py                 # seeds already recorded
    python3 perfbench/reference.py --seeds 0-9,7919

For each workload and seed this runs every scenario of the workload
directly (``run_scenario``, no service) and records one combined hash
of their content and metrics hashes in ``perfbench/reference.json``.
A benchmark run whose seed is recorded there reports ``correct: false``
when the simulated statistics differ, so a change meant to be
behaviour-preserving is proven so; a change that truly corrects the
model regenerates the reference with this command and says why.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", help="e.g. 0-9,7919 (default: those recorded)")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="perfbench-ref-") as cache:
        os.environ["REPRO_CACHE_DIR"] = cache
        sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
        from repro.scenario.runner import run_scenario
        from perfbench import workloads

        ref = (json.loads(workloads.REFERENCE.read_text())
               if workloads.REFERENCE.is_file() else {})
        for name in workloads.WORKLOADS:
            seeds = (parse_seeds(args.seeds) if args.seeds
                     else sorted(int(s) for s in ref.get(name, {})))
            for seed in seeds:
                wl = workloads.build(name, seed)
                hashes = {i: run_scenario(s).metrics_hash()
                          for i, s in enumerate(wl.scenarios)}
                value = workloads.combined_hash(wl, hashes)
                ref.setdefault(name, {})[str(seed)] = value
                print(f"{name} seed {seed}: {value}", flush=True)
                workloads.REFERENCE.write_text(
                    json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

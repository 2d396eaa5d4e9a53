"""Put the checkout's program and the benchmark package on the path,
and keep every cache the tests fill in a temporary directory."""

import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="perfbench-tests-")
os.environ.pop("IBIS_CACHE_DIR", None)

"""Host speed, measured with a fixed pure-Python loop in a helper process.

On a shared host the speed of the same Python code drifts with
co-tenant load: a fixed loop timed over 30-second windows for five
minutes on a 2-vCPU Xeon host moved by 17% (quartile distance over
median).  The benchmark brackets every timed interval with
:func:`speed_sample`, run just before and just after it, and reports
the interval *scaled*: multiplied by :data:`REFERENCE_S` over the mean
of the two samples, i.e. in seconds of a host that runs the loop in
exactly :data:`REFERENCE_S`.

The loop runs in a helper process of its own, which shares no
interpreter lock, heap or threads with the program under test.  Only
the host's speed is divided out: a change that slows the benchmark's
process (a thread left spinning on the lock, a polling loop, a larger
heap to collect) slows the measured operations but not the samples.

The loop does what the simulator does most — push and pop a heap of
``(time, seq)`` entries and allocate, look up and drop small slotted
objects — because an arithmetic loop does not slow down with the
simulator: over four minutes of a Fig. 9 scenario repeated on that
host, the drift of 20-second medians was 15% raw, 13% scaled by an
arithmetic loop and 6% scaled by this one.  Standard library only, so
set-up can be sampled before the program is imported.

    python3 perfbench/speed.py      # the helper: one loop time per input line
"""

import atexit
import gc
import heapq
import subprocess
import sys
import time
from typing import Optional

#: entries per sample, and the sample time that defines scale 1.0
#: (about its median in the helper on a 2-vCPU Xeon host with
#: Python 3.11.7)
SPEED_ENTRIES = 6000
REFERENCE_S = 0.010

HELPER_TIMEOUT = 10.0


class _Box:
    __slots__ = ("v", "w")

    def __init__(self, v: int) -> None:
        self.v = v
        self.w = None


def loop_time() -> float:
    """Seconds the fixed reference loop takes in this process."""
    t0 = time.perf_counter()
    heap: list = []
    live = {}
    for i in range(SPEED_ENTRIES):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        live[i] = _Box(i)
    while heap:
        _, i = heapq.heappop(heap)
        box = live.pop(i)
        box.w = (box.v, i)
    return time.perf_counter() - t0


_helper: Optional[subprocess.Popen] = None


def speed_sample() -> float:
    """Seconds the fixed reference loop takes right now, timed in the
    helper process (started on first use, stopped at exit).  A sample
    costs two loops, about 20 ms."""
    global _helper
    if _helper is None:
        _helper = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, bufsize=1,
        )
        atexit.register(stop_helper)
    _helper.stdin.write("\n")
    _helper.stdin.flush()
    line = _helper.stdout.readline()
    if not line:
        raise RuntimeError(f"speed helper exited ({_helper.wait()})")
    return float(line)


def stop_helper() -> None:
    """Stop the helper process, if one runs, and wait for it."""
    global _helper
    proc, _helper = _helper, None
    if proc is None:
        return
    proc.stdin.close()
    try:
        proc.wait(HELPER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def scale_of(before: float, after: float) -> float:
    """The factor that turns host time between two speed samples into
    reference seconds."""
    return REFERENCE_S / ((before + after) / 2.0)


def _serve() -> None:
    # The loop leaves no garbage cycles, and the helper holds nothing
    # else, so the collector stays off.  Each request runs the loop
    # twice and reports the second: the first loop after the helper
    # wakes ran about 10% slower and twice as noisy (quartile distance
    # 0.2-0.3 of the median against 0.1-0.17 for the second).
    gc.disable()
    for _ in sys.stdin:
        loop_time()
        print(repr(loop_time()), flush=True)


if __name__ == "__main__":
    _serve()

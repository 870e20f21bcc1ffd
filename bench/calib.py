"""Host-speed calibration.

On a shared host the same bytecode runs at different speeds from one
minute to the next (CPU time drifts as much as wall time), which swamps
the differences the benchmark is meant to show.  So the benchmark runs a
fixed pure-Python slice next to every timed operation and reports each
time scaled to a reference speed: ``raw * REF_SLICE_NS / local_slice``,
where ``local_slice`` is the median of the slices nearest the operation.
The slice does no fusekit work, so a change to fusekit cannot move it.
Raw times are kept in the run record beside the calibrated ones.
"""

import statistics
import time

# The scale: calibrated figures read as times on a host where one slice
# takes 2.5 ms.  A constant, so figures from different runs and commits
# share one scale.
REF_SLICE_NS = 2_500_000
# Each operation is scaled by the median of this many nearest slices.
WINDOW = 9


def slice_ns():
    """Run the fixed slice once; its wall time in ns.

    Half of it is integer bytecode, half builds and intersects small
    frozensets into a dict, so it allocates the way fusekit does.
    """
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(6_000):
        acc = (acc + i * i) % 1_000_003
    pool = [frozenset((i, i >> 1, i % 13)) for i in range(2_000)]
    index = {}
    for a, b in zip(pool, pool[1:]):
        key = a & b
        index[key] = index.get(key, 0.0) + 1.0
    return time.perf_counter_ns() - t0


def calibrate(raw, slices):
    """Scale raw[i] by the slices around slices[i] (one slice per op)."""
    half = WINDOW // 2
    out = []
    for i, value in enumerate(raw):
        near = slices[max(0, i - half): i + half + 1]
        out.append(value * REF_SLICE_NS / statistics.median(near))
    return out

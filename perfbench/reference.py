"""A fixed reference computation that tracks the speed of a shared machine.

On a host shared with other tenants the same pure-Python work can take
25% longer in one minute than in the next, for every process alike. The
benchmark times `reference_work` between operations and scales each
measured time by REF_S / (median reference time around it), so a time
reads as seconds at the speed where the reference takes REF_S. The scaled
times keep program changes visible and drop most of the machine's drift.
"""

from __future__ import annotations

from time import perf_counter

# Fastest time of reference_work() seen on the 2-core Xeon (2.1 GHz) VM
# with Python 3.11.7 where the benchmark was written.
REF_S = 0.0028


def reference_work(n: int = 12_000) -> int:
    """Interpreter-bound integer, list and dict work, like the program's loops."""
    table = [0] * 1024
    seen = {}
    acc = 1
    for i in range(n):
        acc = (acc * 48271 + i) % 2147483647
        j = acc & 1023
        table[j] += 1
        if table[j] & 7 == 0:
            seen[j] = acc
    return acc + len(seen)


def reference_time() -> float:
    start = perf_counter()
    reference_work()
    return perf_counter() - start

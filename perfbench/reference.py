"""The host-speed reference: a fixed pure-Python kernel that does not touch k3z3.

The benchmark's host lends it vCPUs whose speed switches, for seconds to
about a minute at a time, between a fast and a slow state.  A verify op
takes about 1.85x as long in the slow state, and so does this kernel, a
product of two 22x22 matrices of 41-bit integers held in plain lists (a
pure integer loop slows only about 1.45x).  The benchmark reads the kernel
between ops and scales each op's time by REF_MS over the kernel's time
around it.  The reported times are then those of a host on which the
kernel takes REF_MS, and the share of a run spent in the slow state no
longer moves them.  Raw times stay in the report.

Imports nothing but ``time``, so that a worker can read the kernel before
it imports k3z3 without paying for any module k3z3 needs.
"""

import time

# reference_ms() in the fast state of a 2-vCPU Intel Xeon at 2.0 GHz
REF_MS = 1.65


def _operands():
    """Two fixed 22x22 matrices of 41-bit signed integers (a 64-bit LCG)."""
    x, rows = 0x2545F4914F6CDD1D, []
    for _ in range(44):
        row = []
        for _ in range(22):
            x = (x * 6364136223846793005 + 1442695040888963407) % 2**64
            row.append((x >> 23) - 2**40)
        rows.append(row)
    return rows[:22], rows[22:]


_A, _B = _operands()


def reference_ms(reps: int = 2) -> float:
    """Fastest of `reps` timings of the fixed kernel, in ms."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        cols = list(zip(*_B))
        [[sum(a * b for a, b in zip(r, c)) for c in cols] for r in _A]
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def host_factor(before: float, after: float) -> float:
    """Scale for work done between two reference reads: REF_MS over their mean."""
    return 2 * REF_MS / (before + after)

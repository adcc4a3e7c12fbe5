"""A fixed piece of work timed around every request, to take out the host's speed.

A VM that shares physical cores with other tenants runs at the speed
their load leaves it.  On a 2-vCPU VM the same request took 40 ms in one
minute and 75-85 ms in the next, and the slow spells lasted from a few
seconds to over a minute, so the CPU time of identical 25-second runs
differed by up to a third.  The time of this reference work moves with
the host: its median per run ranged from 1.5 ms to 2.8 ms over forty
runs.

So the reference work is timed before and after every request (and
every set-up), and the request's CPU time is multiplied by ``NOMINAL_S``
over the geometric mean of the two reference times: the times the
benchmark reports are CPU times on a machine that runs the reference in
``NOMINAL_S``.  Over ten seeds per workload the spread (quartile distance
over median) of the unscaled CPU throughput was 0.09-0.44, of the scaled
throughput 0.03-0.07.  Over three runs of each exact-lp request longer
than 0.1 s, the coefficient of variation was 0.12 unscaled, 0.10 scaled
by the reference before the request alone and 0.07 scaled by both.
The match is not exact: exact-lp's large rational tableaux slow down
more than the reference, so its scaled throughput still fell by about a
tenth from the fastest to the slowest host state seen; on the other
workloads it did not move with the host.

The reference uses the standard library only, never the program under
test, so a change to the program moves the scaled times as much as the
raw ones.  The raw CPU and wall figures are in the detail line.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

#: The reference's CPU time on an unloaded 2-vCPU VM; the unit the scaled
#: times are expressed in.
NOMINAL_S = 0.0025


def reference_work() -> int:
    """Rational arithmetic, a tuple-keyed dict, a sort and an integer loop:
    the kinds of work the program's layers do, about 2.5 ms of it."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 300):
        acc += Fraction(i, i + 1)
        table[(i, i * 7 % 13)] = acc.numerator % 97
    total = sum(v for _, v in sorted(table.items(), key=lambda kv: kv[1]))
    for i in range(8000):
        total += i * i % 7
    return total


def reference_s() -> float:
    """CPU seconds the reference takes now."""
    start = time.process_time()
    reference_work()
    return time.process_time() - start


def scale(cpu_s: float, before_s: float, after_s: float) -> float:
    """``cpu_s`` on a machine that runs the reference in ``NOMINAL_S``,
    given the reference's CPU time just before and just after."""
    return cpu_s * NOMINAL_S / math.sqrt(before_s * after_s)

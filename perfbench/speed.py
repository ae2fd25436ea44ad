"""The machine's speed around each timed call, read off a fixed reference
task.

The benchmark's host is shared.  Its speed flickers between a fast and a
slow state (up to 1.7x apart) from one millisecond to the next, as the
other tenants' work comes and goes, and the share of time spent in the
slow state moves from second to second and from run to run.  A reference
task that never calls the program runs before and after every timed
call: once, and then until it has taken a twentieth of the call (before
the call, of the same operation's previous call).  Each call's time is
scaled by the task's time on the reference machine over the task's mean
time in a window around the call, one call length wide on each side, so
that a short call is judged by the runs that frame it and a long one by
the seconds around it; an operation's time at reference speed is the
median of its calls' scaled times (``Reference.scaled``).  A change to
the program moves the figures; the reference task stays put.

Two tasks: a loop in this interpreter for the workloads that call the
library in-process, and a fresh interpreter for ``cli-batch``, whose
calls are mostly process start and imports.
"""

import bisect
import statistics
import subprocess
import sys
import time

import numpy as np

_A = np.full((8, 8), 1.0 / 8.0)


def reference_loop():
    """Fixed interpreter work (integer-keyed dict, float arithmetic) and
    small numpy products, as the program's own calls mix them.  It keeps
    no container alive, so it neither feeds nor waits on the collector."""
    d = {}
    s = 0.0
    for i in range(3000):
        k = i % 97
        d[k] = d.get(k, 0.0) + i * 0.5
        s += d[k] / (i + 1)
    v = np.ones(8)
    w = np.empty(8)
    for _ in range(150):
        np.dot(_A, v, out=w)
        v, w = w, v
    return s + float(v[0])


class Reference:
    """A reference task and its time on the reference machine (see
    README.md, "Reference figures")."""

    SHARE = 0.05     # task time on each side of a call, as a share of the call

    def __init__(self, ref_s, task):
        self.ref_s = ref_s
        self.task = task

    def sample(self, span):
        """Runs the task once, and then until its runs add up to ``SHARE``
        of ``span`` seconds; returns (midpoint, seconds) of each run."""
        out = []
        spent = 0.0
        while not out or spent < self.SHARE * span:
            t0 = time.perf_counter()
            self.task()
            t1 = time.perf_counter()
            out.append(((t0 + t1) / 2, t1 - t0))
            spent += t1 - t0
        return out

    def scaled(self, calls, runs):
        """Time at reference speed of one operation, from its calls
        ``(start, end)`` and the task's runs ``(midpoint, seconds)`` in
        time order: each call's time times ``ref_s`` over the mean time of
        the runs within one call length of the call (the nearest run on
        each side at least), and the median of that over the calls.  The
        median leaves out calls or task runs that the host stalled
        outright."""
        mids = [m for m, _s in runs]
        out = []
        for start, end in calls:
            took = end - start
            lo = max(0, min(bisect.bisect_left(mids, start - took),
                            bisect.bisect_left(mids, start) - 1))
            hi = max(bisect.bisect_right(mids, end + took), bisect.bisect_right(mids, end) + 1)
            out.append(took * self.ref_s / statistics.fmean(s for _m, s in runs[lo:hi]))
        return statistics.median(out)


LOOP = Reference(0.0008, reference_loop)


def start(env):
    """The process-start task: ``python -c pass`` in ``env``."""
    def task():
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                       capture_output=True, timeout=170)
    return Reference(0.07, task)

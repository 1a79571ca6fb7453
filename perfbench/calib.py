"""Host-speed reference: a fixed slice of work timed while the program runs.

The benchmark runs on shared hosts whose speed drifts by up to 1.6x, in
stretches of one to tens of seconds (see README.md).  Scenario times are
therefore scaled by how fast this fixed reference ran during the same
interval:

    normalised = measured * NOMINAL_S / (NOMINAL_S + s * (mean slice - NOMINAL_S))

where ``s`` is the workload's sensitivity (inputs.SENSITIVITY).  The
reference does not touch divchain, so a change to the program leaves it
alone: on a steady host the scaling is a constant factor, and a program that
gets 10% slower reads 10% slower.  On a drifting host the reference slows
together with the program, and the ratio cancels most of the drift.

One slice mixes the two kinds of work that set divchain's pace, about half
each: interpreter-bound Python (parsing, root finding, per-call
bookkeeping) and numpy calls on short arrays (quadrature batches, 1-D
sweeps).  It allocates two small arrays and touches a few kilobytes, so
what the program left in the caches and the allocator barely moves it.

``Sampler`` runs a slice every ``INTERVAL_S`` seconds of wall time from a
SIGALRM handler, so the host's speed is sampled during long scenarios too,
not only between them.  The handler runs between two bytecodes of the main
thread, so the program and the slice never run at the same time; the time
spent in slices is subtracted from every measured interval.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# A slice's time, in seconds, on the host where the metrics read as plain
# seconds.  It only sets the unit: every reading is multiplied by it.
NOMINAL_S = 0.004
INTERVAL_S = 0.1
MIN_OWN_SLICES = 4

_SHORT = np.linspace(0.0, 1.0, 24)


def _python(n=12_000):
    acc, table = 0.0, {}
    for i in range(n):
        x = i * 0.5
        acc += (x * x + 1.0) / (x + 2.0)
        table[i & 63] = acc
    return acc


def _short_arrays(n=400):
    # Written into two buffers allocated once per slice, so the slice's speed
    # does not depend on the state the program left the allocator in.
    a, b = np.empty((2, _SHORT.size))
    acc = 0.0
    for i in range(n):
        np.multiply(_SHORT, i, out=a)
        np.sin(a, out=a)
        np.subtract(_SHORT, 0.5, out=b)
        np.abs(b, out=b)
        np.add(a, b, out=a)
        acc += float(np.dot(a, _SHORT))
    return acc


def run_slice():
    """Run the reference once; (start, seconds)."""
    t0 = time.perf_counter()
    _python()
    _short_arrays()
    return t0, time.perf_counter() - t0


def scale(seconds, sensitivity):
    """Factor that turns measured seconds into normalised seconds, given the
    slice times measured over the same interval.

    ``sensitivity`` is how strongly the measured work follows the slices:
    1 when it slows exactly as they do, 0.5 when it slows half as much (in
    the sense that a slice 2x slower than NOMINAL_S means 1.5x slower work).
    """
    mean = sum(seconds) / len(seconds)
    return NOMINAL_S / (NOMINAL_S + sensitivity * (mean - NOMINAL_S))


def normalise(one_pass, sensitivity):
    """{scenario id: normalised seconds} for one pass of workload.run_pass.

    A scenario is scaled by the slices that ran during it; one too short to
    hold MIN_OWN_SLICES of them is scaled by all the slices of its pass."""
    out = {}
    for row in one_pass["scenarios"]:
        refs = row["ref_s"] if len(row["ref_s"]) >= MIN_OWN_SLICES else one_pass["ref_s"]
        out[row["id"]] = row["seconds"] * scale(refs, sensitivity)
    return out


class Sampler:
    """Reference slices on a wall-clock interval timer; a context manager.

    With ``interval`` 0 no timer is set and only explicit ``tick`` calls run
    slices."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.slices = []       # (start, seconds)
        self.busy = False

    def tick(self, *_):
        if self.busy:          # the timer fired during an explicit tick
            return
        self.busy = True
        try:
            self.slices.append(run_slice())
        finally:
            self.busy = False

    def __enter__(self):
        if self.interval:
            signal.signal(signal.SIGALRM, self.tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def within(self, t0, t1):
        """Seconds of the slices that ran inside [t0, t1]."""
        return [s for start, s in self.slices if t0 <= start and start + s <= t1]

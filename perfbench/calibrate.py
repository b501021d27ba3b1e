"""Host-speed sampling: times are reported at a fixed, nominal host speed.

The benchmark's hosts are shared virtual machines whose CPUs switch
between speeds, up to 1.7x apart, from one tenth of a second to the
next.  A fixed loop's wall time and CPU time move together, so this is
the processor's speed, not time taken from the process, and each virtual
CPU switches on its own.  Raw op times therefore spread by up to a
third between runs of the same code.

``Sampler`` runs a child process on the same CPU as the caller (the
harness pins itself to one CPU, and children inherit that).  Every
``INTERVAL_S`` the child wakes and times ``probe()``, a fixed pure-Python
loop, so it samples the CPU's speed while an op runs.  Each timed
interval is then rescaled to a CPU on which ``probe()`` takes
``PROBE_S``:

    scaled = wall * PROBE_S / mean(probe times sampled during the interval)

The child's wake-ups take about 1-2% of the CPU from the ops, the same
on every commit.  The probe depends on nothing in ``serinarr``, so a
change to the program cannot move it.  Cache-bound code slows somewhat
more than the probe on a slow CPU, so rescaling removes most of the
drift, not all of it.

    python3 calibrate.py    # the sampler child: samples until stdin closes
"""

from __future__ import annotations

import bisect
import json
import select
import statistics
import subprocess
import sys
import time

# Nominal probe time in seconds; times are reported at this host speed.
PROBE_S = 0.00025
INTERVAL_S = 0.02
# Samples this far before and after an interval also count for it, so
# that an interval shorter than INTERVAL_S still has some.
PAD_S = 0.05
# A probe slower than this many times the run's median probe was
# interrupted, not slowed by the CPU's speed, and is left out.
OUTLIER = 3.0


def probe() -> float:
    """Wall seconds of one fixed pure-Python loop of dict reads and writes.
    Its working set is a few kilobytes, so the program's own memory
    traffic barely changes its time; the CPU's speed does."""
    t0 = time.perf_counter()
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(600):
        table[i & 255] = table.get(i & 255, 0.0) + i * 0.5
        acc += table.get((i * 7) & 255, 1.0)
    return time.perf_counter() - t0


def sample(stdin=sys.stdin, stdout=sys.stdout) -> None:
    """Time ``probe()`` every INTERVAL_S until ``stdin`` closes, then write
    the samples, ``[[monotonic time, probe seconds], ...]``, as JSON."""
    out = []
    stdout.write("ready\n")
    stdout.flush()
    while not select.select([stdin], [], [], INTERVAL_S)[0]:
        out.append((time.monotonic(), probe()))
    json.dump(out, stdout)
    stdout.flush()


class Sampler:
    """The sampler child, for the duration of a ``with`` block."""

    def __init__(self):
        self.times: list[float] = []
        self.probes: list[float] = []

    def __enter__(self) -> "Sampler":
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline() != "ready\n":
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("host-speed sampler did not start")
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.proc.stdin.close()
            samples = json.loads(self.proc.stdout.read())
            self.proc.wait(timeout=10)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        if not samples:
            return
        cut = OUTLIER * statistics.median(d for _, d in samples)
        self.times = [t for t, d in samples if d <= cut]
        self.probes = [d for _, d in samples if d <= cut]

    def scale(self, intervals: list[tuple[float, float]]) -> list[float]:
        """Each ``(start, end)`` monotonic interval's length in seconds,
        rescaled to the nominal host speed."""
        return [(end - start) * PROBE_S / self.speed(start, end)
                for start, end in intervals]

    def speed(self, start: float, end: float) -> float:
        """Mean probe time sampled within ``PAD_S`` of ``[start, end]``."""
        lo = bisect.bisect_left(self.times, start - PAD_S)
        hi = bisect.bisect_right(self.times, end + PAD_S)
        if lo == hi:
            raise RuntimeError(f"no host-speed sample within {PAD_S} s of an interval")
        return sum(self.probes[lo:hi]) / (hi - lo)


if __name__ == "__main__":
    sample()

"""Machine-speed probe: a fixed CPU kernel timed in a process of its own.

On a small shared VM the CPU runs up to twice as slow for seconds to minutes
at a time, and every timing of a run moves with it.  The benchmark times a
fixed pure-Python kernel (exact Fraction arithmetic, the program's own kind
of work) right next to the work it measures and reports each time scaled by
REFERENCE_S / (the kernel's median time then): seconds at one fixed machine
speed, that of a machine on which the kernel takes REFERENCE_S (a 2-vCPU VM
when idle).  A change to the program moves the scaled times as it moves the
raw ones; a slow spell of the machine moves them far less than the raw
ones.  Every record keeps the raw pass times and the kernel's median time
in each pass beside the scaled figures.

The kernel runs in its own process, so the program's heap, garbage
collection or threads cannot slow it.

Work in child processes (set-up, cold starts, the verify suites) is partly
interpreter start-up, which a slow spell slows less than it slows the
kernel, so in a slow spell its scaled times read up to about a tenth low.

    probe = Probe(); samples = probe.sample(5); probe.close()
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction
from typing import List, Sequence

REFERENCE_S = 0.00075


def kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i)
    return total


def scale(samples: Sequence[float]) -> float:
    """Factor that turns raw seconds into seconds at the reference speed."""
    return REFERENCE_S / statistics.median(samples)


class Probe:
    """The kernel in a child process; `sample(k)` times k runs of it."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def sample(self, count: int) -> List[float]:
        self.proc.stdin.write("%d\n" % count)
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the speed probe exited (code %s)" % self.proc.wait())
        return [float(x) for x in line.split()]

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve() -> None:
    """Child side: for each line "k", time k kernel runs and print them."""
    clock = time.perf_counter
    for line in sys.stdin:
        times = []
        for _ in range(int(line)):
            start = clock()
            kernel()
            times.append(clock() - start)
        sys.stdout.write(" ".join(repr(t) for t in times) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()

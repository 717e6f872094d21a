"""Machine-speed probe, run in a process of its own next to the program.

Usage (started by ``worker.py`` and ``run.py``)::

    python3 perfbench/probe.py

It prints ``ready`` once, then answers every line it reads on standard
input with the seconds one ``speed_probe()`` took, until standard input
closes.  It imports numpy only, never pstsim, so nothing the program
leaves behind in the worker's process can change what it measures.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np


def speed_probe() -> float:
    """Seconds for a fixed piece of interpreter, small-numpy and BLAS work.

    On a shared machine a CPU switches between a fast and a slow state;
    timing this probe, on the job's CPU, before and after every job
    measures the state, so run.py can report times at a fixed reference
    speed (NOTES.md, "Noise").
    """
    t = time.perf_counter()
    acc = {}
    for i in range(4000):
        acc[i % 97] = acc.get(i % 97, 0) + len(str(i))
    a = np.arange(64.0).reshape(8, 8) / 64.0
    for _ in range(300):
        b = np.abs(a @ a).sum(axis=0)
        a = a + 1e-6 * np.exp(-b)[None, :]
    c = (np.arange(64 * 64).reshape(64, 64) % 7) * (1 + 1j)
    for _ in range(20):
        c @ c
    return time.perf_counter() - t


class Probe:
    """Handle on a probe process; ``measure()`` times one probe there.

    ``env`` is the process environment (default: this process's).
    """

    def __init__(self, env=None):
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, env=env)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("probe process did not start")

    def measure(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def main() -> int:
    speed_probe()                       # warm up imports and caches
    print("ready", flush=True)
    for _ in sys.stdin:
        print(repr(speed_probe()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Machine-speed reference for the benchmark's CPU times.

On the shared 2-vCPU virtual machine the benchmark was tuned on, the CPU
time of a fixed piece of work drifts by up to 2x, and the CPU switches
between a fast and a slow state within seconds, as other tenants load
the host. During the timed ops a ``Sampler`` process, pinned to the CPU
that the worker and its CLI children run on, times a fixed reference
kernel every ``GAP_S`` of wall time. Each timed interval (an op, or one
CLI stage of ``cli_pipeline``) has its CPU time divided by the mean
kernel time of the samples taken during it and of the one on each side,
and multiplied by ``NOMINAL_S``, so it reads as CPU time on a machine
where the kernel takes ``NOMINAL_S``. The kernel mixes what the program
does: small numpy calls, generator creation and Python float arithmetic.
It shares no state with ``genmeas`` and runs with the garbage collector
off.

usage (started by ``Sampler``): python3 bench/speed.py OUT_FILE PARENT_PID
"""

from __future__ import annotations

import bisect
import gc
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

NOMINAL_S = 0.006
GAP_S = 0.03  # wall seconds between the sampler's kernel runs
START_TIMEOUT_S = 60.0


def kernel() -> float:
    """CPU seconds taken by the reference kernel."""
    gc.disable()
    try:
        t = time.process_time()
        u = np.array([[0.6, 0.8j], [0.8j, 0.6]])
        rho = np.eye(2, dtype=np.complex128) / 2
        acc = 0.0
        for k in range(100):
            rho = u @ rho @ u.conj().T
            acc += float(np.linalg.eigvalsh(rho)[0]) + np.random.default_rng([7, k]).random()
        for k in range(20000):
            acc += (k * 0.5) ** 0.5
        return time.process_time() - t
    finally:
        gc.enable()


class Sampler:
    """The kernel, timed every ``GAP_S`` in a child process on this process's CPU.

    Each sample is one line ``start end cpu_seconds``, with start and end on
    the system-wide monotonic clock (``time.monotonic``), so that the
    samples can be matched to intervals timed in this process. The child
    stops by itself when this process is gone.
    """

    def __init__(self, path: Path):
        self.path = path
        self.proc = subprocess.Popen([sys.executable, __file__, str(path), str(os.getpid())],
                                     stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        deadline = time.monotonic() + START_TIMEOUT_S
        while not self.samples():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("the speed sampler wrote no sample")
            time.sleep(0.01)

    def samples(self) -> list[tuple[float, float, float]]:
        try:
            text = self.path.read_text()
        except FileNotFoundError:
            return []
        return [tuple(map(float, line.split())) for line in text.split("\n")[:-1]]

    def stop(self) -> list[tuple[float, float, float]]:
        """Stop the child, wait for it and return its samples."""
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()
        out = self.samples()
        self.path.unlink(missing_ok=True)
        return out


class Timeline:
    """A run's kernel samples; the scale factor of any interval of the run."""

    def __init__(self, samples: list[tuple[float, float, float]]):
        samples = sorted(samples)
        self.mid = [(a + b) / 2 for a, b, _ in samples]
        self.cpu = [k for _, _, k in samples]

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean kernel time during [start, end] and one sample on each side."""
        lo = max(0, bisect.bisect_left(self.mid, start) - 1)
        hi = bisect.bisect_right(self.mid, end) + 1
        return NOMINAL_S / statistics.fmean(self.cpu[lo:hi])

    def median_ms(self) -> float:
        return statistics.median(self.cpu) * 1e3


def _sample(path: Path, parent: int) -> None:
    with open(path, "w") as f:
        while os.getppid() == parent:
            start = time.monotonic()
            cpu = kernel()
            f.write(f"{start!r} {time.monotonic()!r} {cpu!r}\n")
            f.flush()
            time.sleep(GAP_S)


if __name__ == "__main__":
    _sample(Path(sys.argv[1]), int(sys.argv[2]))

"""Calibration that tracks the host's speed.

Host speed on a shared VM drifts between fast and slow phases, about
1.7x apart for interpreter work, that last from milliseconds to
minutes; wall and CPU time both follow them. A minimum over repeats
inside one run cannot remove a phase that covers the run. So every
timed operation is reported as a multiple of a fixed reference
measured around it, scaled to that reference's time in the fast
phase:

    normalised = measured * reference time in the fast phase / reference time around it

That is the time the operation would take on the host in its fast
phase. It falls in proportion when the program gets faster, while a
slow phase stretches the operation and the reference alike. The
reference must slow as the operation does, so there are two:

- `Sampler`, for work in this process: a kernel that mixes interpreter
  work with small-array numpy calls, as speclimit's inner loops do,
  timed right before and after every operation and every INTERVAL_S
  during it from a SIGALRM handler, whose time is not counted.
- `ImportReference`, for fresh interpreter processes (set-up probes,
  CLI subcommands): mostly interpreter start and the numpy/scipy
  import, which a slow phase stretches less (1.45x where the kernel
  takes 1.7x). The reference is a fresh interpreter importing the
  modules speclimit imports from outside the standard library
  (IMPORT_ARGV), timed right before and after every operation.

Neither reference imports speclimit.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time

import numpy as np

# the kernel's time on a 2-core VM (Python 3.11.7, numpy 2.4.6) in its fast phases
REFERENCE_S = 2.2e-4
REPEATS = 3
INTERVAL_S = 0.1

# the modules speclimit imports from outside the standard library
IMPORT_ARGV = ("-c", "import numpy, scipy.optimize, scipy.special, scipy.integrate")
# that import's time, interpreter start included, on the same VM in its fast phases
IMPORT_REFERENCE_S = 0.65

_X = np.linspace(1.0, 2.0, 64)


def _kernel() -> float:
    acc = 0
    for i in range(1200):
        acc = (acc + i * i) % 1000003
    x = _X
    total = 0.0
    for _ in range(50):
        x = np.sqrt(x * 1.0001 + 0.1)
        total += float(x.sum())
    return acc + total


def kernel_seconds() -> float:
    """Fastest of REPEATS back-to-back kernel runs, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Sampler:
    """Kernel samples around and during timed operations.

    Inside `with Sampler() as sampler:`, each `with sampler.timing() as
    timed:` block is one operation; after it `timed.seconds` is its wall
    time without the handler's, `timed.scale` the factor to reference
    host speed, and `timed.normalised` their product.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.in_handler = 0.0
        self.last = None  # the kernel time after the previous operation
        self._previous_handler = None

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.in_handler += time.perf_counter() - start

    def __enter__(self):
        self.last = kernel_seconds()
        self._previous_handler = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        return False

    def timing(self):
        return _Timed(self)


class _Timed:
    def __init__(self, sampler: Sampler):
        self._sampler = sampler
        self.seconds = self.scale = self.normalised = None

    def __enter__(self):
        self._first = len(self._sampler.samples)
        self._in_handler = self._sampler.in_handler
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self._start
        s = self._sampler
        self.seconds = elapsed - (s.in_handler - self._in_handler)
        during = s.samples[self._first:]
        after = kernel_seconds()
        kernels = [s.last, *during, after]
        s.last = after
        self.scale = REFERENCE_S * len(kernels) / sum(kernels)
        self.normalised = self.seconds * self.scale
        return False


class ImportReference:
    """Reference import processes around timed operations.

    Used like `Sampler`; `env` is the environment of the processes.
    """

    def __init__(self, env: dict):
        self.env = env
        self.last = None  # the reference time after the previous operation

    def reference_seconds(self) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, *IMPORT_ARGV], env=self.env, check=True,
                       stdout=subprocess.DEVNULL)
        return time.perf_counter() - start

    def __enter__(self):
        self.last = self.reference_seconds()
        return self

    def __exit__(self, *exc):
        return False

    def timing(self):
        return _Referenced(self)


class _Referenced:
    def __init__(self, reference: ImportReference):
        self._reference = reference
        self.seconds = self.scale = self.normalised = None

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._start
        r = self._reference
        after = r.reference_seconds()
        self.scale = IMPORT_REFERENCE_S * 2.0 / (r.last + after)
        r.last = after
        self.normalised = self.seconds * self.scale
        return False

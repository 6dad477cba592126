"""Machine-speed calibration for timings taken on a shared, drifting host.

On a small shared machine the speed of the CPU itself drifts by 20% and
more within a minute (a fixed pure-Python loop shows it, in CPU time as
much as in wall time), so raw wall times of separate runs spread more than
any useful regression bound.  A short fixed probe that uses no code of
the library runs before every timed request.  Each request's wall time is
divided by the median of the last few probes and multiplied by the probe's
time on the reference machine, so end-to-end timings read as seconds at
reference speed and the drift cancels.  Raw wall times are reported next to
the calibrated ones.

Four probes, because the drift does not slow all kinds of work alike:

* ``small_calls`` -- a pure-Python loop, a numpy sort, small JSON round trips
  and small complex elementwise numpy operations: the per-call work of many
  small documents and requests;
* ``numeric`` -- a two-thread pool whose threads each run elementwise
  complex arithmetic on 8192-element arrays (numpy ufuncs, not BLAS), for
  the large-table workload, whose big SVDs run on two BLAS threads; a
  single-threaded pure-Python probe over-corrects it, as the drift slows
  interpreted code more than vector arithmetic (in eight runs on a 2 vCPU
  host the spread of calibrated pass times was 0.065 with this probe, 0.175
  with a loop-and-sort probe and 0.125 uncalibrated);
* ``threaded`` -- a fresh two-thread pool whose threads each run small
  LAPACK calls (SVD and QR of 2 x 3 complex matrices), which release the
  GIL.  It has the shape of a ``tbi sample --count 2`` request, so it also
  feels whether the host's second core is free, which the single-threaded
  probes cannot (on a 2 vCPU host it cut the drift left in those requests
  after calibration from about 9% to 5%);
* ``cold`` -- a fresh interpreter that imports a fixed set of standard
  modules (about 60 ms), for the fresh ``python -m tbi`` processes of
  cli-small: their time is process start-up and imports, which move with
  the host's load differently from work inside a running process.

No probe uses the library or imports numpy afresh, and none reaches BLAS's
threaded code (the LAPACK calls are on 2 x 3 matrices), so a change to the
library's threading or imports cannot move them.
"""

import json
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Median probe time on the reference machine (2 vCPU x86_64, OpenBLAS,
# Python 3.11, numpy 2.4): calibrated values are seconds on that machine.
REFERENCE_S = {"small_calls": 0.0025, "numeric": 0.0135, "threaded": 0.0046, "cold": 0.063}
WINDOW = 5

_RNG = np.random.default_rng(0)
_DATA = _RNG.standard_normal(120_000)
_DOC = {"rows": [[float(x) for x in _RNG.standard_normal(6)] for _ in range(8)],
        "ints": list(range(40)), "text": "x" * 50}
_SMALL = [_RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4)) for _ in range(4)]
_VECTORS = [_RNG.standard_normal(8192) + 1j * _RNG.standard_normal(8192) for _ in range(2)]
_WIDE = [_RNG.standard_normal((2, 3)) + 1j * _RNG.standard_normal((2, 3)) for _ in range(8)]


def _loop_and_sort(loops, size):
    total = 0
    for i in range(loops):
        total += i * i
    scratch = _DATA[:size].copy()
    scratch.sort()
    return total


def _small_calls():
    total = _loop_and_sort(20_000, 40_000)
    for _ in range(10):
        json.loads(json.dumps(_DOC))
    acc = _SMALL[0]
    for k in range(150):
        acc = (acc * _SMALL[k % 4] + _SMALL[(k + 1) % 4]) / (1.0 + np.abs(acc).max())
    return total


def _lapack_calls(count=60):
    total = 0.0
    for k in range(count):
        matrix = _WIDE[k % 8]
        total += float(np.linalg.svd(matrix, full_matrices=True)[1][0])
        total += float(np.abs(np.linalg.qr(matrix.T)[0]).sum())
    return total


def _threaded():
    with ThreadPoolExecutor(max_workers=2) as pool:
        return sum(pool.map(lambda _: _lapack_calls(), range(2)))


def _arithmetic(steps=150):
    x = _VECTORS[0].copy()
    for _ in range(steps):
        x = x * _VECTORS[1] + _VECTORS[0]
        x /= np.abs(x).max()
    return float(x[0].real)


def _numeric():
    with ThreadPoolExecutor(max_workers=2) as pool:
        return sum(pool.map(lambda _: _arithmetic(), range(2)))


def _cold():
    subprocess.run([sys.executable, "-c", "import argparse, concurrent.futures, decimal, "
                    "email.parser, hashlib, json"], capture_output=True, check=True, timeout=60)


PROBES = {"small_calls": _small_calls, "numeric": _numeric, "threaded": _threaded, "cold": _cold}


class Clock:
    """Probe samples of one run; ``scale`` turns a raw duration measured
    just after a probe into seconds at reference speed."""

    def __init__(self, probe: str):
        self.kernel = PROBES[probe]
        self.reference = REFERENCE_S[probe]
        self.samples: list = []

    def probe(self):
        start = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        """Current slowdown against the reference machine (recent probes)."""
        return statistics.median(self.samples[-WINDOW:]) / self.reference

    def scale(self, seconds: float) -> float:
        return seconds / self.factor()

    def run_factor(self) -> float:
        """Slowdown over the whole run, for the record."""
        return statistics.median(self.samples) / self.reference if self.samples else 1.0

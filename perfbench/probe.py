"""Host-speed probe for timing work on a shared machine.

On a shared host the same work takes 20-30% longer in one minute, or even
one second, than in the next, which hides any change smaller than that.
While an operation runs, a SIGALRM handler times a fixed set of kernels
every INTERVAL_S seconds. The handler's time is subtracted from the
operation's, and

    scaled seconds = net seconds * ref_s / geometric-mean kernel seconds

is the operation's time on a host where that mean is ref_s. Interval
timers are not inherited by forked children, so the handler runs only in
this process.

Each kernel set mirrors the work of the operations it scales:

- INTERPRETED, for the closed-form SEP engine and the optimizer: a
  pure-Python integer loop and scalar calls of scipy special functions
  through numpy. Each alone tracks their slowdowns only in part, and they
  err in opposite directions, so the probe uses the geometric mean of
  their mean times.
- SCALAR, for the quadrature engine, whose integrand is scalar special
  function calls under scipy's quad: the special-function kernel alone.
- VECTORIZED, for the Monte Carlo simulator: gamma and normal draws, a
  searchsorted and ndtr over 20 000-element arrays, the steps of its
  batches in small.
"""
import math
import signal
import time

import numpy as np
from scipy import special

INTERVAL_S = 0.05
LOOP_COUNT = 10_000
SPECIAL_ARGS = tuple(0.01 * i for i in range(60))
VECTOR_SIZE = 20_000
VECTOR_EDGES = np.array([0.5, 1.5, 2.5])


def loop_kernel():
    acc = 0
    for i in range(LOOP_COUNT):
        acc += i * i
    return acc


def special_kernel():
    acc = 0.0
    for x in SPECIAL_ARGS:
        acc += float(special.gammaincc(2.0, x))
        acc += float(0.5 * special.erfc(np.asarray(x, dtype=float) / math.sqrt(2.0)))
        acc += math.exp(-x)
    return acc


def vector_kernel(rng=np.random.default_rng(0)):
    g = np.sqrt(rng.standard_gamma(1.0, size=VECTOR_SIZE))
    r = g * 3.0 + rng.normal(0.0, 0.5, size=VECTOR_SIZE)
    k = np.searchsorted(VECTOR_EDGES, np.abs(r))
    return float(special.ndtr(r).sum()) + int(k.sum())


class Kernels:
    """Kernels timed together, and ``ref_s``, the nominal geometric mean
    of their mean times: about the typical figure on the 2-CPU host the
    README cites."""

    def __init__(self, fns, ref_s):
        self.fns, self.ref_s = fns, ref_s


INTERPRETED = Kernels((loop_kernel, special_kernel), 0.0005)
SCALAR = Kernels((special_kernel,), 0.0003)
VECTORIZED = Kernels((vector_kernel,), 0.0019)


class SpeedProbe:
    """Context manager sampling a kernel set while its block runs.

    ``spent`` is the time taken by the handler, ``kernel_s`` the summed
    times of each kernel and ``samples`` their number.
    """

    def __init__(self, kernels=INTERPRETED):
        self.fns = kernels.fns
        self.spent = 0.0
        self.kernel_s = (0.0,) * len(self.fns)
        self.samples = 0
        self._previous = None

    def _sample(self, _signum, _frame):
        t0 = time.perf_counter()
        times = []
        for fn in self.fns:
            t = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t)
        self.kernel_s = tuple(a + b for a, b in zip(self.kernel_s, times))
        self.samples += 1
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def scale(net_s, kernel_s, samples, kernels=INTERPRETED):
    """Seconds at the nominal host speed; None without a sample."""
    if samples == 0:
        return None
    mean = math.prod(kernel_s) ** (1.0 / len(kernel_s)) / samples
    return net_s * kernels.ref_s / mean

"""Seeded link-level Monte Carlo simulation, SISO and SIMO.

Reproducibility contract: the stream for (snr point p, batch j) is
Philox seeded by SeedSequence(master_seed, spawn_key=(p, j)). Batch
results are summed by index, so for a fixed spec (including batch_size)
the estimate is identical at any worker count.

A batch of n draws, in this order: n symbol magnitudes
``integers(1, M/2 + 1)``; n signs ``integers(0, 2) * 2 - 1``, which are
the values of ``choice([-1, 1])`` and leave the stream where it does; an
(n, n_r) array of gamma fades; and, when the noise variance is positive,
an (n, n_r) array of normals. An SNR point of +inf is the noiseless
limit: its noise variance is 0, so it draws no normals.
"""
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .detector import midpoint_batch, quantize_batch, simo_batch
from .system import _check_count, sigma2_from_snr

__all__ = ["SimSpec", "SimEstimate", "simulate"]


@dataclass(frozen=True)
class SimSpec:
    constellation: object
    quantizer: object
    channel: object
    snr_db: tuple
    trials: int
    n_r: int = 1
    seed: int = 0
    batch_size: int = 200_000

    def __post_init__(self):
        object.__setattr__(self, "snr_db", tuple(float(s) for s in self.snr_db))
        for name, low in (("trials", 1), ("n_r", 1), ("batch_size", 1), ("seed", 0)):
            _check_count(getattr(self, name), name, low)


@dataclass(frozen=True)
class SimEstimate:
    snr_db: float
    trials: int
    errors: int

    @property
    def sep_hat(self):
        return self.errors / self.trials

    @property
    def stderr(self):
        p = self.sep_hat
        return math.sqrt(p * (1.0 - p) / self.trials)


def _draw(rng, amps, m, omega, sigma2, n, n_r):
    """(signed symbol ids, gains (n, n_r), detector inputs (n, n_r)) of one
    batch, drawn in the stream order of the module docstring. Temporaries
    are released before the next draw, to keep a batch's peak memory low."""
    sym_id = rng.integers(1, len(amps) + 1, size=n)
    # the stream and values of rng.choice([-1, 1], size=n)
    sgn = rng.integers(0, 2, size=n)
    sgn *= 2
    sgn -= 1
    x = amps.take(sym_id - 1)
    x *= sgn
    sym_id *= sgn
    del sgn
    h = rng.standard_gamma(m, size=(n, n_r))
    h *= omega / m
    np.sqrt(h, out=h)
    if sigma2 > 0.0:
        r = rng.normal(0.0, math.sqrt(sigma2 / 2.0), size=(n, n_r))
        r += h * x[:, None]
    else:
        r = h * x[:, None]
    return sym_id, h, r


def _run_batch(args):
    amps, bounds, m, omega, sigma2, n, n_r, seed, point, batch = args
    ss = np.random.SeedSequence(seed, spawn_key=(point, batch))
    rng = np.random.Generator(np.random.Philox(ss))
    sym_id, h, r = _draw(rng, amps, m, omega, sigma2, n, n_r)
    yq = quantize_batch(bounds, r)
    del r  # released before the detectors run, as in _draw
    if n_r > 1:
        decided = simo_batch(amps, bounds, h, yq, sigma2)
    else:
        decided = midpoint_batch(amps, bounds, h[:, 0], yq[:, 0])
    return int(np.count_nonzero(decided != sym_id))


def simulate(spec, workers=1):
    """Simulate the SEP at every SNR point of the spec, with the midpoint
    rule for n_r = 1 and the product-likelihood rule otherwise.

    An snr_db of +inf is the noiseless limit: sigma2 = 0, and the detector
    input is |h| x exactly. It wants n_r = 1, as the product-likelihood
    rule needs sigma2 > 0. Every other point must pass sigma2_from_snr.

    The batches of every point go through one process pool of at most
    one worker per batch (or plain map for one worker); counts are summed
    by point.
    """
    _check_count(workers, "workers", 1)
    if math.inf in spec.snr_db and spec.n_r > 1:
        raise ValueError(f"an snr_db of +inf wants n_r = 1, not n_r = {spec.n_r}")
    amps = np.asarray(spec.constellation.amplitudes)
    bounds = np.asarray(spec.quantizer.positive_boundaries)
    ch = spec.channel
    sigma2s = [0.0 if s == math.inf else sigma2_from_snr(spec.constellation, 10.0 ** (s / 10.0))
               for s in spec.snr_db]
    sizes = [min(spec.batch_size, spec.trials - done)
             for done in range(0, spec.trials, spec.batch_size)]
    args = [(amps, bounds, ch.m, ch.omega, sigma2, n, spec.n_r, spec.seed, point, batch)
            for point, sigma2 in enumerate(sigma2s) for batch, n in enumerate(sizes)]
    # the pool starts all its workers at once: start none that would idle
    workers = min(workers, len(args))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(_run_batch, args))
    else:
        counts = list(map(_run_batch, args))
    errs = [sum(counts[i:i + len(sizes)]) for i in range(0, len(counts), len(sizes))]
    return [SimEstimate(s, spec.trials, e) for s, e in zip(spec.snr_db, errs)]

"""ML detection for quantized PAM observations.

Detected symbols are reported as signed indices s*(i+1), where i is the
index into the positive half-constellation and s is the sign of the
symbol; this keeps single-antenna and SIMO detectors comparable.

Each rule has one vectorized kernel (``quantize_batch``,
``midpoint_batch``, ``simo_batch``) over arrays of observations, and
there are no scalar wrappers: a single observation is a one-row call.
``simo_batch`` takes its rows in fixed blocks and evaluates the lower-edge
``ndtr`` only for bins with two finite edges; its decisions and
log-likelihoods are the same floats as a plain per-symbol evaluation of
every bin.
The region geometry of Theorem 1 lives once in ``_region_bounds``;
``decision_region`` and ``noiseless_region`` are its checked forms.
"""
import math

import numpy as np
from scipy.special import ndtr

__all__ = ["decision_region", "noiseless_region"]

# natural-log underflow floor for per-factor likelihoods
LOG_FLOOR = -745.0

# rows per block of simo_batch
_BLOCK_ROWS = 8192


def quantize_batch(bounds, r):
    """Signed output indices of the inputs r (any shape) for the sorted
    positive boundaries; a boundary belongs to the upper region."""
    mag = np.searchsorted(bounds, np.abs(r), side="right") + 1
    return np.where(r >= 0.0, mag, -mag)


def midpoint_batch(amps, bounds, h, y):
    """Midpoint ML rule over equal-shape arrays of gains h and outputs y:
    decode to the sign-matched symbol whose faded amplitude is closest to
    the midpoint of the quantization region. The saturation region
    |y| = K+1 has no finite midpoint; there the rule picks the largest
    symbol."""
    k = len(bounds)
    ay = np.abs(y)
    rho_mids = 0.5 * (amps[:-1] + amps[1:])
    edges = np.concatenate([[0.0], bounds])
    mids = 0.5 * (edges[np.minimum(ay, k) - 1] + edges[np.minimum(ay, k)])
    # ties between two amplitudes go to the lower index
    idx = np.searchsorted(rho_mids, mids / h, side="left")
    idx = np.where(ay == k + 1, len(amps) - 1, idx)
    return np.sign(y) * (idx + 1)


def simo_batch(amps, bounds, h, y, sigma2):
    """Product-likelihood ML rule; h and y have shape (n, n_r).

    Works in the log domain with a per-factor floor; a symbol whose every
    factor underflows loses to any symbol with a finite factor. The rows
    run in blocks of _BLOCK_ROWS, so that the temporaries stay in cache.
    """
    s = math.sqrt(sigma2 / 2.0)
    symbols = np.concatenate([-amps[::-1], amps])  # ascending
    ids = np.concatenate(
        [-np.arange(len(amps), 0, -1), np.arange(1, len(amps) + 1)]
    )
    edges = np.concatenate([[0.0], bounds, [np.inf]])
    decided = np.empty(h.shape[0], dtype=ids.dtype)
    for start in range(0, h.shape[0], _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        ll = _log_likelihoods(symbols, edges, h[rows], y[rows], s)
        # argmax keeps the first maximum: ties go to the lowest symbol
        decided[rows] = ids[np.argmax(ll, axis=1)]
    return decided


def _log_likelihoods(symbols, edges, h, y, s):
    """Log-likelihood of each symbol (columns) for each row of gains h and
    outputs y: the sum over antennas of max(log P(y | h * symbol), LOG_FLOOR)
    at noise deviation s."""
    ay = np.abs(y).ravel()
    inner = ay < len(edges) - 1  # both edges finite
    # inner factors first, so that the ndtr of their lower edge is one slice
    order = np.concatenate([np.flatnonzero(inner), np.flatnonzero(~inner)])
    n_in = np.count_nonzero(inner)
    ay = ay[order]
    lo, hi = edges[ay - 1], edges[ay[:n_in]]
    # bin -y at mean mu is bin y at mean -mu mirrored: fold sign(y) into h
    hy = np.where(y > 0, h, -h).ravel()[order]
    mean, a, p = (np.empty(order.size) for _ in range(3))
    b = np.empty(n_in)
    lp = np.empty(y.shape)
    ll = np.empty((y.shape[0], len(symbols)))
    for j, sym in enumerate(symbols):
        np.multiply(hy, sym, out=mean)
        np.divide(np.subtract(lo, mean, out=a), s, out=a)
        np.divide(np.subtract(hi, mean[:n_in], out=b), s, out=b)
        # mirror bins whose center is right of the mean: Phi(b) - Phi(a)
        # cancels when both are near 1, so take Phi(b') - Phi(a') with
        # a' = min(a, -b) <= 0 and b' = min(b, -a); p holds b', b holds a'.
        # A saturation bin has b = inf: a' = -inf, Phi(a') = 0 and b' = -a.
        np.negative(a, out=p)
        np.minimum(b, p[:n_in], out=p[:n_in])
        np.minimum(a[:n_in], np.negative(b, out=b), out=b)
        ndtr(p, out=p)
        p[:n_in] -= ndtr(b, out=b)
        # log(0) = -inf falls to the floor; fmax also floors a NaN
        with np.errstate(divide="ignore", invalid="ignore"):
            np.fmax(np.log(p, out=p), LOG_FLOOR, out=p)
        lp.reshape(-1)[order] = p
        ll[:, j] = lp.sum(axis=1)
    return ll


def _region_bounds(amps, q, y, i, reach=False):
    """Unchecked (lower, upper) of D_(y,i), or of its intersection with A_(y,i)
    when reach (see noiseless_region)."""
    last = i == len(amps) - 1
    if y == q.K + 1:
        lower, upper = 0.0, math.inf if last else 0.0
    else:
        qsum = q.boundary(y - 1) + q.boundary(y)
        lower = 0.0 if last else (qsum / (amps[i] + amps[i + 1])) ** 2
        upper = math.inf if i == 0 else (qsum / (amps[i] + amps[i - 1])) ** 2
    if reach:
        lower = max(lower, (q.boundary(y - 1) / amps[i]) ** 2)
        upper = max(lower, min(upper, (q.boundary(y) / amps[i]) ** 2))
    return lower, upper


def _checked_region(c, q, y, i, reach):
    if not 1 <= y <= q.K + 1:
        raise ValueError("y out of range")
    if not 0 <= i < c.half_size:
        raise IndexError("symbol index out of range")
    return _region_bounds(c.amplitudes, q, y, i, reach)


def decision_region(c, q, y, i):
    """(lower, upper) of the region D_(y,i) on the z = |h|^2 axis where
    positive output y in [1 .. K+1] decodes to symbol i; empty when
    lower >= upper."""
    return _checked_region(c, q, y, i, reach=False)


def noiseless_region(c, q, y, i):
    """Intersection D_(y,i) with the noiseless reachability region A_(y,i)
    = (q_(y-1)^2 / rho_i^2, q_y^2 / rho_i^2); may be empty."""
    return _checked_region(c, q, y, i, reach=True)

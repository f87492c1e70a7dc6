"""ML detection for quantized PAM observations.

Detected symbols are reported as signed indices s*(i+1), where i is the
index into the positive half-constellation and s is the sign of the
symbol; this keeps single-antenna and SIMO detectors comparable.

Each rule has one vectorized kernel (``quantize_batch``,
``midpoint_batch``, ``simo_batch``) over arrays of observations, and
there are no scalar wrappers: a single observation is a one-row call.
``simo_batch`` takes its rows in fixed blocks. A row whose outputs all
share one sign scores only that sign's M/2 symbols, and a per-row
Chernoff bound on the other half (``_opposite_bound``) sends every row
it cannot clear (mixed signs, ties, zero gains, floored factors) to the
full M-symbol evaluation. One likelihood routine serves both: it
evaluates the lower-edge ``ndtr`` only for bins with two finite edges and
adds the antennas in NumPy's row-sum order (``_row_sums``). Its
decisions and log-likelihoods are the same floats as a plain per-symbol
evaluation of every bin followed by a row sum and an argmax.
The region geometry of Theorem 1 lives once in ``_region_bounds``;
``decision_region`` and ``noiseless_region`` are its checked forms.
"""
import math

import numpy as np
from scipy.special import ndtr

__all__ = ["decision_region", "noiseless_region"]

# natural-log underflow floor for per-factor likelihoods
LOG_FLOOR = -745.0
_LN2 = math.log(2.0)

# rows per block of simo_batch
_BLOCK_ROWS = 8192


def quantize_batch(bounds, r):
    """Signed output indices of the inputs r (any shape) for the sorted
    positive boundaries; a boundary belongs to the upper region, and an
    input that is not >= 0 (negative or NaN) gets a negative index."""
    mag = np.asarray(np.searchsorted(bounds, np.abs(r), side="right"))
    # in place: no batch-sized temporaries beyond the one result
    mag += 1
    np.negative(mag, out=mag, where=~np.greater_equal(r, 0.0))
    return mag


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
    factor underflows loses to any symbol with a finite factor, and ties
    go to the lowest symbol. The rows run in blocks of _BLOCK_ROWS, so
    that the temporaries stay in cache.

    Sign halves: a row whose outputs all have one sign scores only that
    sign's M/2 symbols. For y < 0 and symbol -rho the mean (-h)(-rho) is
    the float h*rho, so the half runs on |y| and +rho.
    Guard: with x_k = (h_k rho_1)/s, every opposite-sign symbol scores at
    most U = sum_k max(-x_k^2/2 - ln 2, LOG_FLOOR) (_opposite_bound):
      1. its mean puts the bin's near edge at a >= x_k, in floats too;
      2. the mirrored upper end is b' <= -a, so the factor is <= ndtr(-x_k);
      3. Phi(-x) <= exp(-x^2/2)/2 for x >= 0 (Chernoff).
    Fallback: a row keeps its half's winner only when that beats
    U + 1e-9 (1 + |U|). Mixed-sign rows and the rest (ties, zero gains,
    every factor floored, NaN) score all M symbols.
    Sum order: both paths add the antennas in the order of NumPy's row sum
    (_row_sums), so every log-likelihood and decision is the float that a
    plain per-symbol evaluation, row sum and argmax give.
    """
    s = math.sqrt(sigma2 / 2.0)
    half = len(amps)
    symbols = np.concatenate([-amps[::-1], amps])  # ascending
    ids = np.concatenate([-np.arange(half, 0, -1), np.arange(1, half + 1)])
    edges = np.concatenate([[0.0], bounds, [np.inf]])
    decided = np.empty(h.shape[0], dtype=ids.dtype)
    for start in range(0, h.shape[0], _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        # antennas along the first axis: each is a contiguous row of the block
        h_blk, y_blk = np.ascontiguousarray(h[rows].T), np.ascontiguousarray(y[rows].T)
        pos, neg = y_blk[0] > 0, y_blk[0] < 0
        for yk in y_blk[1:]:
            pos &= yk > 0
            neg &= yk < 0
        n_pos = np.count_nonzero(pos)
        same = np.concatenate([np.flatnonzero(pos), np.flatnonzero(neg)])
        h_same = h_blk.take(same, axis=1)
        ll = _log_likelihoods(amps, edges, h_same, np.abs(y_blk.take(same, axis=1)), s)
        # the first maximum in ascending symbol order; for the negative
        # rows that order runs from the last amplitude down
        best_pos, arg_pos = _first_max(ll[:, :n_pos])
        best_neg, arg_neg = _first_max(ll[::-1, n_pos:])
        best = np.concatenate([best_pos, best_neg])
        bound = _opposite_bound(h_same, amps[0], s)
        kept = best > bound + 1e-9 * (1.0 + np.abs(bound))
        out = decided[rows]
        out[same[kept]] = np.concatenate([arg_pos + 1, arg_neg - half])[kept]
        full = np.concatenate([np.flatnonzero(~(pos | neg)), same[~kept]])
        y_full, h_full = y_blk.take(full, axis=1), h_blk.take(full, axis=1)
        # bin -y at mean mu is bin y at mean -mu mirrored: fold sign(y) into h
        ll = _log_likelihoods(symbols, edges, np.where(y_full > 0, h_full, -h_full),
                              np.abs(y_full), s)
        out[full] = ids[_first_max(ll)[1]]
    return decided


def _opposite_bound(h, rho_1, s):
    """U >= the log-likelihood of every symbol of the sign opposite to all
    of a row's outputs (see simo_batch), for gains h (n_r, n), smallest
    amplitude rho_1 and noise deviation s. A factor is <= 1 at any gain,
    so a negative x_k adds 0, and a NaN one makes U NaN, which no row
    beats; the terms add in the likelihoods' order."""
    x = h * rho_1 / s
    return _row_sums(np.where(x < 0.0, 0.0, np.maximum(-0.5 * x * x - _LN2, LOG_FLOOR)))


def _first_max(ll):
    """(maximum, index of its first row) of each column of ll."""
    best = ll[0].copy()
    arg = np.zeros(ll.shape[1], dtype=np.intp)
    for j in range(1, len(ll)):
        np.copyto(arg, j, where=ll[j] > best)
        np.maximum(best, ll[j], out=best)
    return best, arg


def _row_sums(lp):
    """Sum over the first axis of lp, in the order of NumPy's pairwise row
    sum ``lp.T.sum(axis=1)`` of a C-contiguous array: in turn below 8
    terms, in 8 strided partial sums up to 128, halved above."""
    n = len(lp)
    if n < 8:
        total = lp[0].copy()
        for part in lp[1:]:
            total += part
        return total
    if n <= 128:
        stop = n - n % 8
        acc = lp[:8].copy()
        for i in range(8, stop, 8):
            acc += lp[i:i + 8]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for part in lp[stop:]:
            total += part
        return total
    mid = n // 2 - (n // 2) % 8
    return _row_sums(lp[:mid]) + _row_sums(lp[mid:])


def _log_likelihoods(symbols, edges, hy, ay, s):
    """Log-likelihood of each symbol (rows) for each column of sign-folded
    gains hy and output magnitudes ay, both (n_r, n): the sum over antennas
    of max(log P(ay | hy * symbol), LOG_FLOOR) at noise deviation s."""
    flat = ay.ravel()
    inner = flat < len(edges) - 1  # both edges finite
    # inner factors first, so that the ndtr of their lower edge is one slice
    order = np.concatenate([np.flatnonzero(inner), np.flatnonzero(~inner)])
    n_in = np.count_nonzero(inner)
    flat = flat[order]
    lo, hi = edges[flat - 1], edges[flat[:n_in]]
    hy = hy.ravel()[order]
    mean, a, p = (np.empty(order.size) for _ in range(3))
    b = np.empty(n_in)
    lp = np.empty(ay.shape)
    ll = np.empty((len(symbols), ay.shape[1]))
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
        ll[j] = _row_sums(lp)
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

"""ML detection for quantized PAM observations.

Detected symbols are reported as signed indices s*(i+1), where i is the
index into the positive half-constellation and s is the sign of the
symbol; this keeps single-antenna and SIMO detectors comparable.

Each rule has one vectorized kernel (``quantize_batch``,
``midpoint_batch``, ``simo_batch``) over arrays of observations, and
there are no scalar wrappers: a single observation is a one-row call.
The quantizer and the midpoint rule run no masked pass and no binary
search call, whose branches mispredict on random data. Both count sorted
entries with ``_sorted_count``: a fixed number of halving passes of
compares and adds, equal to ``np.searchsorted`` with a NaN counted above
every entry. Both apply signs by two's complement, (v ^ n) - n with
n = -1 where negative (``_negate_where``).
``simo_batch`` takes its rows in fixed blocks, which work in views of
one set of fixed-capacity buffers (``_Buffers``). A row whose outputs all
share one sign scores only that sign's M/2 symbols, and a per-row
Chernoff bound on the other half (``_opposite_bound``) sends every row
it cannot clear (mixed signs, ties, zero gains, floored factors) to the
full M-symbol evaluation. One likelihood routine serves both: it
evaluates the lower-edge ``ndtr`` only for bins with two finite edges and
adds the antennas in NumPy's row-sum order (``_row_sums``). Its
decisions and log-likelihoods are the same floats as a plain per-symbol
evaluation of every bin followed by a row sum and an argmax. The first
maximum, the bound and the sign fold use arithmetic, not masked copies
or selects.
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


def _sorted_count(table, a, strict=False):
    """Entries of the ascending array table at or below each element of a (below,
    when strict): ``np.searchsorted(table, a, side="right")`` (``"left"``),
    with a NaN counted above every entry. The table holds 2^j - 1 entries,
    as a quantizer's boundaries and a constellation's amplitude midpoints
    do. Branch-free: each of j halving passes adds its step where the probed
    entry is not above a (``~(edge > a)``, which also holds for a NaN), and
    the steps sum to len(table)."""
    k = len(table)
    if k < 1 or k & (k + 1):
        raise ValueError(f"a sorted-count table holds 2^j - 1 entries, not {k}")
    step = (k + 1) >> 1
    above = np.greater_equal if strict else np.greater
    count = np.empty(np.shape(a), dtype=np.intp)
    # the first probe is one entry for every element
    np.multiply(~above(table[step - 1], a), step, out=count)
    while step > 1:
        step >>= 1
        count += step * ~above(table.take(count + (step - 1)), a)
    return count


def _negate_where(mag, negative):
    """mag with the elements where the boolean negative holds negated, in
    place, by two's complement: (mag ^ n) - n with n = -negative."""
    n = np.negative(negative.view(np.int8))
    mag ^= n
    mag -= n
    return mag


def quantize_batch(bounds, r):
    """Signed output indices of the inputs r (any shape) for the sorted
    positive boundaries; a boundary belongs to the upper region, and an
    input that is not >= 0 (negative or NaN) gets a negative index."""
    mag = _sorted_count(bounds, np.abs(r))
    mag += 1
    return _negate_where(mag, ~np.greater_equal(r, 0.0))


def midpoint_batch(amps, bounds, h, y):
    """Midpoint ML rule over equal-shape arrays of gains h and outputs
    y in +-[1 .. K+1]: decode to the sign-matched symbol whose faded
    amplitude is closest to the midpoint of the quantization region. The
    saturation region |y| = K+1 has no finite midpoint; there the rule
    picks the largest symbol."""
    k = len(bounds)
    ay = np.abs(y)
    rho_mids = 0.5 * (amps[:-1] + amps[1:])
    edges = np.concatenate([[0.0], bounds])
    mids = 0.5 * (edges[:-1] + edges[1:])
    # indexed by |y|; the entries at 0 and at the saturation region K+1
    # are placeholders, and the max below overrides the latter
    mids = np.concatenate([mids[:1], mids, mids[-1:]])
    ratio = mids.take(ay)
    ratio /= h
    # ties between two amplitudes go to the lower index
    idx = _sorted_count(rho_mids, ratio, strict=True)
    np.maximum(idx, (len(amps) - 1) * (ay > k), out=idx)
    idx += 1
    return _negate_where(idx, y < 0)


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
    n, n_r = h.shape
    buf = _Buffers(max(n_r, len(symbols)) * min(n, _BLOCK_ROWS))
    decided = np.empty(n, dtype=ids.dtype)
    for start in range(0, n, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        k = min(_BLOCK_ROWS, n - start)
        # antennas along the first axis: each is a contiguous row of the block
        h_blk, y_blk = buf("h_blk", (n_r, k)), buf("y_blk", (n_r, k), y.dtype)
        np.copyto(h_blk, h[rows].T)
        np.copyto(y_blk, y[rows].T)
        pos, neg = y_blk[0] > 0, y_blk[0] < 0
        for yk in y_blk[1:]:
            pos &= yk > 0
            neg &= yk < 0
        n_pos = np.count_nonzero(pos)
        same = np.concatenate([np.flatnonzero(pos), np.flatnonzero(neg)])
        h_same, ay_same = buf.take("h_sel", h_blk, same), buf.take("y_sel", y_blk, same)
        ll = _log_likelihoods(amps, edges, h_same, np.abs(ay_same, out=ay_same), s, buf)
        # the first maximum in ascending symbol order; for the negative
        # rows that order runs from the last amplitude down
        best_pos, arg_pos = _first_max(ll[:, :n_pos])
        best_neg, arg_neg = _first_max(ll[::-1, n_pos:])
        best = np.concatenate([best_pos, best_neg])
        bound = _opposite_bound(h_same, amps[0], s, buf)
        kept = best > bound + 1e-9 * (1.0 + np.abs(bound))
        out = decided[rows]
        # the full evaluation below overwrites the rows that the half leaves
        out[same] = np.concatenate([arg_pos + 1, arg_neg - half])
        full = np.concatenate([np.flatnonzero(~(pos | neg)), same[~kept]])
        h_full, y_full = buf.take("h_sel", h_blk, full), buf.take("y_sel", y_blk, full)
        # bin -y at mean mu is bin y at mean -mu mirrored: fold sign(y) into h
        h_full *= np.sign(y_full)
        ll = _log_likelihoods(symbols, edges, h_full, np.abs(y_full, out=y_full), s, buf)
        out[full] = ids[_first_max(ll)[1]]
    return decided


class _Buffers:
    """Flat arrays of one capacity, each allocated on first use under its
    name; callers work in views of their leading entries. simo_batch keeps
    one set for all its blocks, so that no temporary's size varies with a
    block's counts of same-sign and fallback rows."""

    def __init__(self, capacity):
        self._capacity = capacity
        self._arrays = {}

    def __call__(self, name, shape, dtype=float):
        arr = self._arrays.get(name)
        if arr is None:
            arr = self._arrays[name] = np.empty(self._capacity, dtype)
        return arr[:math.prod(shape)].reshape(shape)

    def take(self, name, a, cols):
        """The columns cols of the 2-d a, into the buffer name; the
        indices are in range by construction, which mode="clip" trusts."""
        return np.take(a, cols, axis=1, out=self(name, (len(a), len(cols)), a.dtype),
                       mode="clip")


def _opposite_bound(h, rho_1, s, buf=None):
    """U >= the log-likelihood of every symbol of the sign opposite to all
    of a row's outputs (see simo_batch), for gains h (n_r, n), smallest
    amplitude rho_1 and noise deviation s. A factor is <= 1 at any gain,
    so a negative x_k adds 0, and a NaN one makes U NaN, which no row
    beats; the terms add in the likelihoods' order."""
    buf = buf or _Buffers(h.size)
    x = np.multiply(h, rho_1, out=buf("x", h.shape))
    x /= s
    t = np.multiply(x, -0.5, out=buf("t", h.shape))
    t *= x
    t -= _LN2
    np.maximum(t, LOG_FLOOR, out=t)
    # t is finite where x < 0, so t - t is +0.0 there; elsewhere t - (-0.0) is t
    t -= np.multiply(t, x < 0.0, out=x)
    return _row_sums(t)


def _first_max(ll):
    """(maximum, index of its first row) of each column of ll. The index
    is the last row that raised the running maximum, the largest of the
    j * (ll[j] > best) terms."""
    best = ll[0].copy()
    arg = np.zeros(ll.shape[1], dtype=np.intp)
    for j in range(1, len(ll)):
        np.maximum(arg, j * (ll[j] > best), out=arg)
        np.maximum(best, ll[j], out=best)
    return best, arg


def _row_sums(lp, out=None):
    """Sum over the first axis of lp, in the order of NumPy's pairwise row
    sum ``lp.T.sum(axis=1)`` of a C-contiguous array: in turn below 8
    terms, in 8 strided partial sums up to 128, halved above."""
    n = len(lp)
    if out is None:
        out = np.empty(lp.shape[1:])
    if n < 8:
        np.copyto(out, lp[0])
        for part in lp[1:]:
            out += part
        return out
    if n <= 128:
        stop = n - n % 8
        acc = lp[:8].copy()
        for i in range(8, stop, 8):
            acc += lp[i:i + 8]
        np.add((acc[0] + acc[1]) + (acc[2] + acc[3]), (acc[4] + acc[5]) + (acc[6] + acc[7]),
               out=out)
        for part in lp[stop:]:
            out += part
        return out
    mid = n // 2 - (n // 2) % 8
    return np.add(_row_sums(lp[:mid]), _row_sums(lp[mid:]), out=out)


def _log_likelihoods(symbols, edges, hy, ay, s, buf=None):
    """Log-likelihood of each symbol (rows) for each column of sign-folded
    gains hy and output magnitudes ay, both (n_r, n): the sum over antennas
    of max(log P(ay | hy * symbol), LOG_FLOOR) at noise deviation s. The
    result is a view into buf's "ll" buffer."""
    n_r, n = ay.shape
    size = ay.size
    buf = buf or _Buffers(max(n_r, len(symbols)) * n)
    flat = ay.reshape(-1)
    inner = flat < len(edges) - 1  # both edges finite
    # inner factors first, so that the ndtr of their lower edge is one slice
    order = np.concatenate([np.flatnonzero(inner), np.flatnonzero(~inner)])
    n_in = np.count_nonzero(inner)
    bins = np.take(flat, order, out=buf("bins", (size,), flat.dtype), mode="clip")
    # edges[bins - 1], and edges[bins] of the inner bins
    lo = np.take(np.concatenate([edges[-1:], edges[:-1]]), bins, out=buf("lo", (size,)),
                 mode="clip")
    hi = np.take(edges, bins[:n_in], out=buf("hi", (n_in,)), mode="clip")
    hy = np.take(hy.reshape(-1), order, out=buf("hy", (size,)), mode="clip")
    mean, a, p = buf("mean", (size,)), buf("a", (size,)), buf("p", (size,))
    b = buf("b", (n_in,))
    lp = buf("lp", (n_r, n))
    ll = buf("ll", (len(symbols), n))
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
        _row_sums(lp, out=ll[j])
    return ll


def _region_bounds(amps, edges, y, i, reach=False):
    """Unchecked (lower, upper) of D_(y,i), or of its intersection with A_(y,i)
    when reach (see noiseless_region), for the positive amplitudes amps and the
    quantizer's edges (q_0 = 0, ..., q_(K+1) = inf)."""
    last = i == len(amps) - 1
    if y == len(edges) - 1:
        lower, upper = 0.0, math.inf if last else 0.0
    else:
        qsum = edges[y - 1] + edges[y]
        lower = 0.0 if last else (qsum / (amps[i] + amps[i + 1])) ** 2
        upper = math.inf if i == 0 else (qsum / (amps[i] + amps[i - 1])) ** 2
    if reach:
        lower = max(lower, (edges[y - 1] / amps[i]) ** 2)
        upper = max(lower, min(upper, (edges[y] / amps[i]) ** 2))
    return lower, upper


def _checked_region(c, q, y, i, reach):
    if not 1 <= y <= q.K + 1:
        raise ValueError("y out of range")
    if not 0 <= i < c.half_size:
        raise IndexError("symbol index out of range")
    return _region_bounds(c.amplitudes, q.edges, y, i, reach)


def decision_region(c, q, y, i):
    """(lower, upper) of the region D_(y,i) on the z = |h|^2 axis where
    positive output y in [1 .. K+1] decodes to symbol i; empty when
    lower >= upper."""
    return _checked_region(c, q, y, i, reach=False)


def noiseless_region(c, q, y, i):
    """Intersection D_(y,i) with the noiseless reachability region A_(y,i)
    = (q_(y-1)^2 / rho_i^2, q_y^2 / rho_i^2); may be empty."""
    return _checked_region(c, q, y, i, reach=True)

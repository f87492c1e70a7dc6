"""Detection rules and decision regions: the midpoint rule, its region
form, the noiseless intersection regions, and the multi-antenna
product-likelihood rule. Each rule runs through its batch kernel, on
one-row arrays where a test looks at a single observation."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from pamq import Constellation, Quantizer, decision_region, noiseless_region
from pamq.system import MAX_BITS
from pamq.detector import (
    LOG_FLOOR,
    _BLOCK_ROWS,
    _log_likelihoods,
    _opposite_bound,
    _row_sums,
    _sorted_count,
    midpoint_batch,
    quantize_batch,
    simo_batch,
)

C13 = Constellation((1.0, 3.0))
Q2 = Quantizer((2.0,), bits=2)
Q3 = Quantizer((0.5, 1.0, 1.5), bits=3)


def quantize(q, r):
    """The quantizer kernel on one input."""
    return int(quantize_batch(np.asarray(q.positive_boundaries), r))


def midpoint(c, q, h, y):
    """The midpoint kernel on one observation."""
    return int(midpoint_batch(np.asarray(c.amplitudes), np.asarray(q.positive_boundaries),
                              np.array([h]), np.array([y]))[0])


def simo(c, q, h, y, sigma2):
    """The product-likelihood kernel on one row of per-antenna gains and outputs."""
    return int(simo_batch(np.asarray(c.amplitudes), np.asarray(q.positive_boundaries),
                          np.array([h], dtype=float), np.array([y]), sigma2)[0])


def reference_simo(amps, bounds, h, y, sigma2):
    """The unblocked product-likelihood kernel, frozen as first written:
    (decisions, per-symbol log-likelihoods). simo_batch must reproduce
    both bit for bit."""
    s = math.sqrt(sigma2 / 2.0)
    symbols = np.concatenate([-amps[::-1], amps])  # ascending
    ids = np.concatenate(
        [-np.arange(len(amps), 0, -1), np.arange(1, len(amps) + 1)]
    )
    edges = np.concatenate([[0.0], bounds, [np.inf]])
    ay = np.abs(y)
    lo = np.where(y > 0, edges[ay - 1], -edges[ay])
    hi = np.where(y > 0, edges[ay], -edges[ay - 1])
    ll = np.empty((h.shape[0], len(symbols)))
    for j, sym in enumerate(symbols):
        mean = h * sym
        a, b = (lo - mean) / s, (hi - mean) / s
        flip = a + b > 0.0
        a, b = np.where(flip, -b, a), np.where(flip, -a, b)
        p = ndtr(b) - ndtr(a)
        lp = np.where(p > 0.0, np.log(np.maximum(p, 5e-324)), LOG_FLOOR)
        ll[:, j] = np.maximum(lp, LOG_FLOOR).sum(axis=1)
    return ids[np.argmax(ll, axis=1)], ll


def kernel_log_likelihoods(amps, bounds, h, y, sigma2):
    """The log-likelihoods simo_batch computes, as (full, half), each with
    the reference's (n, M) columns. full is the all-symbol evaluation on
    every row; half is the own-sign evaluation of each same-sign row,
    NaN wherever it does not evaluate."""
    s = math.sqrt(sigma2 / 2.0)
    half_size = len(amps)
    symbols = np.concatenate([-amps[::-1], amps])
    edges = np.concatenate([[0.0], bounds, [np.inf]])
    full = _log_likelihoods(symbols, edges, np.where(y > 0, h, -h).T, np.abs(y).T, s).T
    half = np.full(full.shape, np.nan)
    # amplitude i is reference column half_size + i, and its negative is
    # column half_size - 1 - i
    for rows, cols in (((y > 0).all(axis=1), np.arange(half_size, 2 * half_size)),
                       ((y < 0).all(axis=1), np.arange(half_size - 1, -1, -1))):
        half[np.ix_(rows, cols)] = _log_likelihoods(amps, edges, h[rows].T,
                                                    np.abs(y[rows]).T, s).T
    return full, half


def assert_matches_reference(amps, bounds, h, y, sigma2):
    """simo_batch's decisions, and every log-likelihood it can evaluate,
    equal the frozen reference's; returns the reference's (decisions, ll)."""
    want, want_ll = reference_simo(amps, bounds, h, y, sigma2)
    got = simo_batch(amps, bounds, h, y, sigma2)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    full, half = kernel_log_likelihoods(amps, bounds, h, y, sigma2)
    assert np.array_equal(full, want_ll)
    scored = ~np.isnan(half)
    assert np.array_equal(half[scored], want_ll[scored])
    return want, want_ll


def faded_observations(M, bits, n, n_r, sigma2, seed):
    """Unit-energy equidistant M-PAM through Rayleigh fading and noise,
    quantized by the uniform b-bit quantizer that spans the constellation:
    (amps, bounds, h, y)."""
    rng = np.random.default_rng(seed)
    amps = np.arange(1.0, M, 2.0)
    amps /= math.sqrt(np.sum(amps ** 2))
    k = 2 ** (bits - 1) - 1
    bounds = np.arange(1, k + 1) * (amps[-1] / k)
    x = rng.choice(np.concatenate([-amps, amps]), size=(n, 1))
    h = np.sqrt(rng.standard_gamma(1.0, size=(n, n_r)))
    r = h * x + rng.normal(0.0, math.sqrt(sigma2 / 2.0), size=(n, n_r))
    return amps, bounds, h, quantize_batch(bounds, r)


def likelihood(q, y, h_mag, x, sigma2):
    """Probability that h*x + noise lands in quantization bin y, computed
    in high precision so far-tail candidates stay distinguishable."""
    s = mpmath.sqrt(mpmath.mpf(sigma2) / 2)
    if y > 0:
        lo, hi = q.boundary(y - 1), q.boundary(y)
    else:
        lo, hi = -q.boundary(-y), -q.boundary(-y - 1)
    mean = mpmath.mpf(h_mag) * mpmath.mpf(x)
    qf = lambda t: mpmath.erfc(t / mpmath.sqrt(2)) / 2
    a, b = (lo - mean) / s, (hi - mean) / s
    if a + b > 0:  # evaluate via the far tail to avoid 1 - tiny cancellation
        return qf(a) - qf(b)
    return qf(-b) - qf(-a)


def brute_force_detect(c, q, h_mag, y, sigma2):
    symbols = [(-(i + 1), -a) for i, a in enumerate(c.amplitudes)]
    symbols += [(i + 1, a) for i, a in enumerate(c.amplitudes)]
    with mpmath.workdps(60):
        return max(symbols, key=lambda t: likelihood(q, y, h_mag, t[1], sigma2))[0]


class TestQuantize:
    def test_interior(self):
        assert quantize(Q2, 0.5) == 1

    def test_saturation(self):
        assert quantize(Q2, 2.5) == 2

    def test_negative_side(self):
        assert quantize(Q2, -0.5) == -1
        assert quantize(Q2, -3.0) == -2

    def test_boundary_goes_up(self):
        assert quantize(Q2, 2.0) == 2
        assert quantize(Q3, 1.0) == 3

    def test_zero_goes_to_first_positive(self):
        assert quantize(Q2, 0.0) == 1

    def test_batch_matches_signed_search(self):
        # the branch-free kernel against the plain two-branch form, edges
        # and non-finite inputs included, from 2 to MAX_BITS bits
        for bits in (2, 3, 5, 8, MAX_BITS):
            step = 3.0 / 2 ** (bits - 1)
            bounds = np.asarray(Quantizer.uniform(step, bits).positive_boundaries)
            edges = np.concatenate([bounds, np.nextafter(bounds, 0.0), np.nextafter(bounds, 9.0)])
            r = np.concatenate([np.random.default_rng(3).normal(0.0, 1.5, 5000), edges, -edges,
                                [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]])
            mag = np.searchsorted(bounds, np.abs(r), side="right") + 1
            want = np.where(r >= 0.0, mag, -mag)
            got = quantize_batch(bounds, r.reshape(-1, 1))
            assert got.dtype == want.dtype and got.shape == (r.size, 1)
            assert np.array_equal(got[:, 0], want)
            assert quantize_batch(bounds, np.nan) == -(len(bounds) + 1)
            assert quantize_batch(bounds, -0.0) == 1


class TestSortedCount:
    """The branch-free count against np.searchsorted on both sides, at table
    sizes up to a MAX_BITS quantizer's 2^15 - 1 boundaries. Sizes 2 and 5
    are no 2^j - 1: those tables are rejected."""

    SIZES = [1, 2, 3, 5, 7, 15, 31, 127, 1023, 2 ** (MAX_BITS - 1) - 1]

    @staticmethod
    def count(table, a, strict):
        """_sorted_count(table, a, strict), or None after checking that a table
        of a size other than 2^j - 1 is rejected."""
        if len(table) & (len(table) + 1):
            with pytest.raises(ValueError, match=f"2\\^j - 1 entries, not {len(table)}"):
                _sorted_count(table, a, strict)
            return None
        return _sorted_count(table, a, strict)

    @staticmethod
    def inputs(table, rng):
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan]
        return np.concatenate([rng.uniform(table[0] - 1.0, table[-1] + 1.0, 4000), table,
                               np.nextafter(table, -np.inf), np.nextafter(table, np.inf),
                               specials])

    @pytest.mark.parametrize("k", SIZES)
    @pytest.mark.parametrize("strict,side", [(False, "right"), (True, "left")])
    def test_matches_searchsorted(self, k, strict, side):
        rng = np.random.default_rng(k)
        for table in (np.sort(rng.normal(0.0, 2.0, k)), np.arange(1.0, k + 1), np.arange(-k, 0.0)):
            a = self.inputs(table, rng)
            want = np.searchsorted(table, a, side=side)
            got = self.count(table, a[:, None], strict)
            if got is not None:
                assert got.dtype == want.dtype
                assert np.array_equal(got[:, 0], want)

    @pytest.mark.parametrize("k", SIZES)
    def test_zero_dim(self, k):
        table = np.arange(1.0, k + 1)
        for strict, side in ((False, "right"), (True, "left")):
            for a in (np.nan, np.inf, -np.inf, 0.0, 1.0, float(k), k + 0.5):
                got = self.count(table, np.float64(a), strict)
                if got is not None:
                    assert np.shape(got) == ()
                    assert got == np.searchsorted(table, a, side=side)

    @pytest.mark.parametrize("k", [0, 4, 6, 8])
    def test_rejects_other_sizes(self, k):
        with pytest.raises(ValueError, match=f"2\\^j - 1 entries, not {k}"):
            _sorted_count(np.arange(1.0, k + 1), np.zeros(3))


def reference_midpoint(amps, bounds, h, y):
    """The midpoint kernel frozen as it was with np.searchsorted and
    masked selection; midpoint_batch must reproduce it exactly."""
    k = len(bounds)
    ay = np.abs(y)
    rho_mids = 0.5 * (amps[:-1] + amps[1:])
    edges = np.concatenate([[0.0], bounds])
    mids = 0.5 * (edges[np.minimum(ay, k) - 1] + edges[np.minimum(ay, k)])
    idx = np.searchsorted(rho_mids, mids / h, side="left")
    idx = np.where(ay == k + 1, len(amps) - 1, idx)
    return np.sign(y) * (idx + 1)


class TestMidpointFrozen:
    """midpoint_batch against the frozen kernel, output for output."""

    @staticmethod
    def check(amps, bounds, h, y):
        with np.errstate(divide="ignore", invalid="ignore"):
            want = reference_midpoint(amps, bounds, h, y)
            got = midpoint_batch(amps, bounds, h, y)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("M", [4, 8, 16, 64])
    @pytest.mark.parametrize("bits", [2, 3, 5, 9])
    def test_random(self, M, bits):
        rng = np.random.default_rng(M * 100 + bits)
        amps = np.cumsum(rng.uniform(0.2, 2.0, M // 2))
        bounds = np.cumsum(rng.uniform(0.05, 1.0, 2 ** (bits - 1) - 1))
        k = len(bounds)
        n = 20_000
        y = rng.integers(1, k + 2, n) * rng.choice([-1, 1], n)
        h = rng.exponential(1.0, n)
        h[::97] = 0.0
        h[1::97] = np.inf
        h[2::97] = np.nan
        h[3::97] = 1e-300
        self.check(amps, bounds, h, y)

    def test_ties_at_amplitude_midpoints(self):
        # a region midpoint over h lands exactly on a rho_mid: the lower symbol wins
        amps = np.array([1.0, 3.0, 5.0, 7.0])  # rho_mids 2, 4, 6
        bounds = np.arange(1.0, 8.0)  # region midpoints 0.5, 1.5, ..., 6.5
        # (y, h, symbol): 0.5/0.25 = 2, 0.5/0.125 = 4, 1.5/0.75 = 2, 1.5/0.25 = 6, 2.5/0.625 = 4
        cases = [(1, 0.25, 1), (1, 0.125, 2), (2, 0.75, 1), (2, 0.25, 3), (3, 0.625, 2)]
        y, h, want = (np.array(col) for col in zip(*cases))
        y, h, want = np.concatenate([y, -y]), np.concatenate([h, h]), np.concatenate([want, -want])
        assert np.array_equal(midpoint_batch(amps, bounds, h, y), want)
        self.check(amps, bounds, h, y)

    def test_saturation_and_edge_gains(self):
        amps = np.array([1.0, 3.0])
        bounds = np.array([1.5])
        h = np.array([0.0, np.inf, np.nan, 1.0, -0.0, 0.5, 0.0, np.inf, np.nan])
        y = np.array([2, -2, 2, -2, 1, -1, -1, 1, -1])
        self.check(amps, bounds, h, y)


class TestMidpointRule:
    def test_inner_bin(self):
        # bin midpoint 1.0 is closer to h*1 than h*3
        assert midpoint(C13, Q2, 1.0, 1) == 1

    def test_saturation_largest_symbol(self):
        assert midpoint(C13, Q2, 1.0, 2) == 2
        assert brute_force_detect(C13, Q2, 1.0, 2, 1.0) == 2

    def test_saturation_weak_channel(self):
        got = midpoint(C13, Q2, 0.4, 2)
        assert got == brute_force_detect(C13, Q2, 0.4, 2, 1.0)

    def test_negative_mirror(self):
        pos = midpoint(C13, Q3, 0.7, 2)
        neg = midpoint(C13, Q3, 0.7, -2)
        assert neg == -pos

    @settings(max_examples=200, deadline=None)
    @given(
        h=st.floats(0.05, 5.0, allow_nan=False),
        y=st.integers(1, 4),
        sigma2=st.sampled_from([0.1, 1.0, 10.0]),
    )
    def test_matches_likelihood_argmax(self, h, y, sigma2):
        # the midpoint rule is noise-level-free; the likelihood argmax
        # must agree for every sigma wherever the argmax is unambiguous
        got = midpoint(C13, Q3, h, y)
        with mpmath.workdps(60):
            symbols = [(-1, -1.0), (-2, -3.0), (1, 1.0), (2, 3.0)]
            ps = {s: likelihood(Q3, y, h, x, sigma2) for s, x in symbols}
            ordered = sorted(ps.values(), reverse=True)
            assume(ordered[0] > (1 + mpmath.mpf("1e-12")) * ordered[1])
            want = max(ps, key=ps.get)
        assert got == want

    @settings(max_examples=200, deadline=None)
    @given(h=st.floats(0.05, 5.0, allow_nan=False), y=st.integers(1, 4))
    def test_region_rule_equivalence(self, h, y):
        i = abs(midpoint(C13, Q3, h, y)) - 1
        lower, upper = decision_region(C13, Q3, y, i)
        assert lower <= h * h <= upper


class TestDecisionRegion:
    def test_plug_in(self):
        lower, upper = decision_region(C13, Q2, 1, 1)
        assert lower == 0.0
        assert upper == pytest.approx(0.25)

    def test_saturation_regions(self):
        lower, upper = decision_region(C13, Q2, 2, 0)
        assert lower >= upper
        assert decision_region(C13, Q2, 2, 1) == (0.0, math.inf)

    def test_tiling(self):
        c = Constellation((1.0, 2.0, 4.0, 8.0))
        q = Quantizer((0.5, 1.5, 3.0), bits=3)
        for y in range(1, q.K + 1):
            regs = sorted(decision_region(c, q, y, i) for i in range(4))
            assert regs[0][0] == 0.0
            assert regs[-1][1] == math.inf
            for (_, a_upper), (b_lower, _) in zip(regs, regs[1:]):
                assert a_upper == pytest.approx(b_lower, rel=1e-14)

    def test_noiseless_subset(self):
        for y in range(1, Q3.K + 2):
            for i in range(2):
                d_lower, d_upper = decision_region(C13, Q3, y, i)
                n_lower, n_upper = noiseless_region(C13, Q3, y, i)
                if n_lower >= n_upper:
                    continue
                assert d_lower <= n_lower + 1e-15
                assert n_upper <= d_upper + 1e-15

    def test_noiseless_nonempty_at_optimum(self):
        q = Quantizer((1.5722,), bits=2)
        lower, upper = noiseless_region(C13, q, 1, 0)
        assert lower < upper

    @pytest.mark.parametrize("region", [decision_region, noiseless_region])
    def test_range_checks(self, region):
        # y runs over [1, K+1] = [1, 4] for Q3, i over [0, M/2) = [0, 2) for C13
        for y in (0, -1, Q3.K + 2):
            with pytest.raises(ValueError):
                region(C13, Q3, y, 0)
        for i in (-1, C13.half_size):
            with pytest.raises(IndexError):
                region(C13, Q3, 1, i)
        region(C13, Q3, Q3.K + 1, C13.half_size - 1)


class TestSimoRule:
    def test_reduces_to_single_antenna(self):
        for h in (0.3, 0.9, 2.0):
            for y in (1, 2, -1):
                single = simo(C13, Q2, [h], [y], 1.0)
                assert single == brute_force_detect(C13, Q2, h, y, 1.0)

    def test_matches_midpoint_rule_at_one_antenna(self):
        # at n_r = 1 the product likelihood is the single-antenna ML rule,
        # which the midpoint rule implements
        rng = np.random.default_rng(11)
        amps = np.asarray(C13.amplitudes)
        bounds = np.asarray(Q2.positive_boundaries)
        sigma2 = 0.5
        x = rng.choice(np.concatenate([-amps, amps]), size=(20_000, 1))
        h = np.sqrt(rng.standard_gamma(1.0, size=x.shape))
        y = quantize_batch(bounds, h * x + rng.normal(0.0, math.sqrt(sigma2 / 2.0), x.shape))
        mid = midpoint_batch(amps, bounds, h[:, 0], y[:, 0])
        assert np.array_equal(mid, simo_batch(amps, bounds, h, y, sigma2))

    def test_repeated_observation_agrees(self):
        for h in (0.5, 1.1):
            for y in (1, 2):
                one = simo(C13, Q2, [h], [y], 0.8)
                two = simo(C13, Q2, [h, h], [y, y], 0.8)
                assert one == two

    @settings(max_examples=200, deadline=None)
    @given(
        h1=st.floats(0.05, 4.0, allow_nan=False),
        h2=st.floats(0.05, 4.0, allow_nan=False),
        y1=st.integers(-2, 2).filter(lambda v: v != 0),
        y2=st.integers(-2, 2).filter(lambda v: v != 0),
        sigma2=st.sampled_from([0.2, 1.0, 5.0]),
    )
    def test_matches_brute_force(self, h1, h2, y1, y2, sigma2):
        got = simo(C13, Q2, [h1, h2], [y1, y2], sigma2)
        with mpmath.workdps(60):
            scored = []
            for sid, x in [(-2, -3.0), (-1, -1.0), (1, 1.0), (2, 3.0)]:
                p1 = likelihood(Q2, y1, h1, x, sigma2)
                p2 = likelihood(Q2, y2, h2, x, sigma2)
                scored.append((sid, p1, p2))
            best = max(scored, key=lambda t: t[1] * t[2])
        # the implementation floors underflowed factors; only compare when
        # the exact winner is representable in double precision and clear
        assume(min(best[1], best[2]) > mpmath.mpf("1e-280"))
        runner_up = sorted(
            (float(p1 * p2) for _, p1, p2 in scored), reverse=True
        )[1]
        assume(float(best[1] * best[2]) > (1.0 + 1e-9) * runner_up)
        assert got == best[0]


class TestSimoOracle:
    """The kernel against the frozen one: the same decisions, and the same
    log-likelihood floats in every column it evaluates, on the own-sign
    half and on the full evaluation alike."""

    @pytest.mark.parametrize("M,bits", [(4, 2), (8, 3), (8, 4), (16, 4)])
    @pytest.mark.parametrize("n_r", [1, 2, 3, 4, 8, 9])
    def test_matches_reference(self, M, bits, n_r):
        for seed, sigma2 in enumerate([1e-6, 1e-3, 0.1, 1.0, 30.0]):
            amps, bounds, h, y = faded_observations(M, bits, 1500, n_r, sigma2, seed)
            assert_matches_reference(amps, bounds, h, y, sigma2)

    @pytest.mark.parametrize("n", [2 * _BLOCK_ROWS + 77, _BLOCK_ROWS - 1, 0])
    def test_block_edges(self, n):
        amps, bounds, h, y = faded_observations(4, 2, n, 2, 0.5, 7)
        assert_matches_reference(amps, bounds, h, y, 0.5)

    def test_structural_ties(self):
        amps = np.asarray(C13.amplitudes)
        bounds = np.asarray(Q2.positive_boundaries)
        h = np.array([[100.0, 100.0], [100.0, 100.0], [100.0, 100.0], [0.0, 0.0], [0.0, 0.0]])
        y = np.array([[1, 1], [-1, 1], [2, 2], [1, 1], [-2, 1]])
        want, want_ll = assert_matches_reference(amps, bounds, h, y, 1e-6)
        # rows 0-1: every factor of every symbol floored, so the lowest
        # symbol wins; row 2: p = 1 for both positive symbols, so the
        # lower of them wins; rows 3-4: a zero gain ties all four symbols
        assert np.all(want_ll[:2] == 2 * LOG_FLOOR)
        assert want_ll[2, 2] == want_ll[2, 3] == 0.0
        assert want.tolist() == [-2, -2, 1, -2, -2]

    def test_fallback_rows(self):
        # same-sign rows that the own-sign half cannot decide: a zero gain
        # ties all symbols, and a row with every factor floored ties them at
        # the floor; both go to the lowest symbol, of the opposite sign
        amps = np.asarray(C13.amplitudes)
        bounds = np.asarray(Q2.positive_boundaries)
        h = np.array([[0.0, 0.0], [0.0, 0.0], [100.0, 100.0], [100.0, 100.0], [100.0, 100.0]])
        y = np.array([[1, 1], [2, 2], [1, 1], [-1, -1], [-2, -2]])
        want, want_ll = assert_matches_reference(amps, bounds, h, y, 1e-6)
        assert np.all(want_ll[2:4] == 2 * LOG_FLOOR)
        # the last row ties the two negative symbols at p = 1: the lower
        # of them, -3, wins on the own-sign half
        assert want_ll[4, 0] == want_ll[4, 1] == 0.0
        assert want.tolist() == [-2, -2, -2, -2, -2]

    @pytest.mark.parametrize("sigma2", [0.5, 1e-3])
    def test_negative_and_nan_gains(self, sigma2):
        # outside the gains a channel draws, the bound still holds: a
        # negative gain bounds its factor by 1, a NaN one sends the row on
        amps = np.asarray(C13.amplitudes)
        bounds = np.asarray(Q2.positive_boundaries)
        h = np.array([[np.nan, 1.0], [-1.0, -2.0], [-1.0, 2.0], [0.5, np.nan], [-3.0, -3.0]])
        y = np.array([[1, 1], [1, 2], [-1, -1], [-2, -2], [2, 2]])
        assert_matches_reference(amps, bounds, h, y, sigma2)

    @pytest.mark.parametrize("n_r", [8, 9])
    def test_fallback_rows_many_antennas(self, n_r):
        # mixed-sign and zero-gain rows at 8 and 9 antennas, where NumPy's
        # row sum stops adding in turn
        amps, bounds, h, y = faded_observations(8, 3, 400, n_r, 2.0, 5)
        h[::7] = 0.0
        y[::7] = np.abs(y[::7])
        assert_matches_reference(amps, bounds, h, y, 2.0)
        assert np.all(simo_batch(amps, bounds, h[::7], y[::7], 2.0) == -len(amps))

    @pytest.mark.parametrize("n", [*range(1, 20), 127, 128, 129, 130, 136, 257, 300])
    def test_row_sums_keep_numpy_order(self, n):
        rng = np.random.default_rng(n)
        lp = -np.exp(rng.normal(0.0, 6.0, size=(200, n))) * rng.choice([1e-9, 1.0, 1e9], (200, n))
        assert np.array_equal(_row_sums(np.ascontiguousarray(lp.T)), lp.sum(axis=1))


class TestSimoGuard:
    """_opposite_bound is an upper bound on the reference log-likelihood of
    every symbol whose sign is opposite to all of a row's outputs."""

    @settings(max_examples=300, deadline=None)
    @given(
        M=st.sampled_from([4, 8, 16]),
        bits=st.integers(1, 5),
        data=st.data(),
        sigma2=st.floats(1e-12, 100.0),
        sign=st.sampled_from([1, -1]),
    )
    def test_bound_covers_opposite_symbols(self, M, bits, data, sigma2, sign):
        n_r = data.draw(st.integers(1, 9))
        h = np.array([data.draw(st.lists(st.floats(0.0, 50.0), min_size=n_r, max_size=n_r))])
        amps = np.arange(1.0, M, 2.0) / math.sqrt(np.sum(np.arange(1.0, M, 2.0) ** 2))
        k = 2 ** (bits - 1) - 1
        bounds = np.arange(1, k + 1) * (amps[-1] / k) if k else np.empty(0)
        y = sign * np.array([data.draw(st.lists(st.integers(1, k + 1), min_size=n_r,
                                                max_size=n_r))])
        _, ll = reference_simo(amps, bounds, h, y, sigma2)
        opposite = ll[0, : M // 2] if sign > 0 else ll[0, M // 2:]
        bound = _opposite_bound(h.T, amps[0], math.sqrt(sigma2 / 2.0))
        assert bound[0] >= opposite.max()

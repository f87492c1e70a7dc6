"""Scalar special functions: Gaussian tail, incomplete gammas, the
truncated-moment integral and its interplay."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from pamq import (
    f_integral,
    lower_gamma_reg,
    q_func,
    specfun,
    upper_gamma_reg,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


class TestQFunc:
    def test_zero(self):
        assert q_func(0.0) == 0.5

    def test_deep_tail(self):
        assert q_func(40.0) < 1e-300

    def test_one(self):
        # high-precision reference: erfc(1/sqrt(2))/2 at 40 digits
        assert q_func(1.0) == pytest.approx(0.1586552539314570514, abs=1e-15)

    def test_monotone_decreasing(self):
        xs = np.linspace(-8.0, 8.0, 200)
        vals = [q_func(x) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_symmetry(self):
        for x in (0.3, 1.7, 4.2):
            assert q_func(x) + q_func(-x) == pytest.approx(1.0, abs=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_float_form_has_the_same_bits(self, x):
        # the SEP series calls the Python-float form; it must be q_func, bit for bit
        got, want = specfun._q_float(x), float(q_func(x))
        assert type(got) is float
        assert got.hex() == want.hex()


class TestIncompleteGamma:
    def test_exponential_tail(self):
        for x in (0.0, 0.5, 2.0, 10.0):
            assert upper_gamma_reg(1.0, x) == pytest.approx(math.exp(-x), rel=1e-14)
            assert lower_gamma_reg(1.0, x) == pytest.approx(-math.expm1(-x), abs=1e-14)

    def test_full_mass_at_zero(self):
        for m in (0.5, 1.0, 3.7):
            assert upper_gamma_reg(m, 0.0) == 1.0

    def test_pinned_value(self):
        # (1 + 3) e^{-3}, 40-digit reference
        assert upper_gamma_reg(2.0, 3.0) == pytest.approx(
            0.1991482734714557719, abs=1e-15
        )
        assert lower_gamma_reg(2.0, 3.0) == pytest.approx(
            1.0 - 0.1991482734714557719, abs=1e-15
        )

    def test_domain_error(self):
        with pytest.raises(ValueError):
            upper_gamma_reg(0.0, 1.0)
        with pytest.raises(ValueError):
            lower_gamma_reg(-1.0, 1.0)

    def test_strictly_decreasing_in_x(self):
        xs = np.linspace(0.0, 20.0, 50)
        vals = [upper_gamma_reg(2.5, x) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @given(
        m=st.floats(0.5, 20.0, allow_nan=False),
        x=st.floats(0.0, 50.0, allow_nan=False),
    )
    def test_pair_sums_to_one(self, m, x):
        # each of scipy's pair is good to about 1e-13 relative against mpmath: at
        # m = 0.501953125, x = 1.0 gammaincc is 6.5e-14 off and the sum 1.03e-14,
        # and the sum misses 1 by up to 1.25e-14 for m just above 1/2 near x = 1
        assert upper_gamma_reg(m, x) + lower_gamma_reg(m, x) == pytest.approx(
            1.0, abs=1e-13
        )

    def test_pair_against_mpmath(self):
        # where the sum strays most: each of the pair within 1e-13 relative
        for m, x in ((0.501953125, 1.0), (0.5002093134105342, 0.9873042094589985)):
            with mpmath.workdps(30):
                ref = mpmath.gammainc(m, 0, x, regularized=True)
                lower, upper = float(ref), float(1 - ref)
            assert lower_gamma_reg(m, x) == pytest.approx(lower, rel=1e-13)
            assert upper_gamma_reg(m, x) == pytest.approx(upper, rel=1e-13)


class TestFIntegral:
    def test_empty_interval(self):
        for a in (-2.0, 0.0, 3.5):
            for l in (0, 1, 4):
                assert f_integral(a, a, l) == 0.0

    def test_half_line_first_moment(self):
        assert f_integral(math.inf, 0.0, 1) == pytest.approx(1.0, rel=1e-14)

    def test_pinned_value(self):
        # 40-digit quadrature reference for the l = 3 moment on [-0.5, 1.5]
        assert f_integral(1.5, -0.5, 3) == pytest.approx(
            0.6058450445423533048, abs=1e-12
        )

    def test_antisymmetry(self):
        assert f_integral(2.0, -1.0, 4) == pytest.approx(
            -f_integral(-1.0, 2.0, 4), rel=1e-14
        )

    def test_zeroth_moment_matches_q(self):
        for a, b in ((1.0, -1.0), (3.0, 0.5), (0.2, -4.0)):
            assert f_integral(a, b, 0) == pytest.approx(
                SQRT_2PI * (q_func(b) - q_func(a)), rel=1e-13
            )

    def test_infinite_endpoints(self):
        assert f_integral(math.inf, -math.inf, 0) == pytest.approx(
            SQRT_2PI, rel=1e-14
        )
        assert f_integral(math.inf, -math.inf, 1) == pytest.approx(0.0, abs=1e-14)

    @settings(max_examples=150, deadline=None)
    @given(
        a=st.floats(-6.0, 6.0, allow_nan=False),
        b=st.floats(-6.0, 6.0, allow_nan=False),
        l=st.integers(0, 8),
    )
    def test_matches_quadrature(self, a, b, l):
        expect, _ = quad(lambda u: u**l * math.exp(-0.5 * u * u), b, a)
        assert f_integral(a, b, l) == pytest.approx(expect, abs=1e-9)

    @given(
        lo=st.floats(-5.0, 5.0, allow_nan=False),
        mid=st.floats(-5.0, 5.0, allow_nan=False),
        hi=st.floats(-5.0, 5.0, allow_nan=False),
        l=st.integers(0, 6),
    )
    def test_interval_additivity(self, lo, mid, hi, l):
        total = f_integral(hi, lo, l)
        split = f_integral(mid, lo, l) + f_integral(hi, mid, l)
        assert total == pytest.approx(split, abs=1e-11)

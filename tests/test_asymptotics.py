"""Decay-exponent analytics: exact theoretical values, slope fitting,
bit-scaling of the optimized floor, and vanishing-floor schedules."""
import math
from fractions import Fraction

import numpy as np
import pytest

from pamq import (
    ChannelModel,
    Constellation,
    Quantizer,
    dq_metric,
    dq_successive_slopes,
    dvo_fit,
    dvo_theory,
    floor_schedule,
    optimal_floor_log2,
    sep_closed_form,
)


class TestDvoTheory:
    def test_pinned_values(self):
        assert dvo_theory(1, 2, 4) == Fraction(1, 2)
        assert dvo_theory(1, 3, 4) == Fraction(3, 4)
        assert dvo_theory(2, 2, 4, "nonuniform", n_r=3) == Fraction(3)
        assert dvo_theory(1, 3, 4, "uniform") == Fraction(1, 2)
        assert dvo_theory(1.5, 3, 4, "uniform") == Fraction(3, 4)  # float shape, as the CLI passes

    def test_regime_errors(self):
        with pytest.raises(ValueError):
            dvo_theory(1, 2, 8)  # 2^b <= M - 2
        with pytest.raises(ValueError):
            dvo_theory(1, 3, 8, "uniform")  # uniform derived for M = 4
        with pytest.raises(ValueError):
            dvo_theory(1, 3, 4, "uniform", n_r=2)  # uniform is SISO-only
        for n_r in (0, -1):
            with pytest.raises(ValueError):
                dvo_theory(1, 2, 4, "nonuniform", n_r)

    def test_strictly_below_full_diversity(self):
        for m in (1, 2, 3):
            for M in (4, 8):
                prev = Fraction(0)
                for b in range(int(math.log2(M - 2)) + 1, 10):
                    if 2**b <= M - 2:
                        continue
                    d = dvo_theory(m, b, M)
                    assert d < m
                    assert d > prev
                    prev = d

    def test_simo_cumulation_exact(self):
        for n_r in (1, 2, 3, 5):
            assert dvo_theory(2, 3, 4, "nonuniform", n_r) == n_r * dvo_theory(
                2, 3, 4, "nonuniform", 1
            )


class TestDvoFit:
    def test_exact_power_law(self):
        curve = [(sdb, 3.7 * (10.0 ** (sdb / 10.0)) ** -0.75)
                 for sdb in range(10, 51, 5)]
        est = dvo_fit(curve, (10, 50))
        assert est.slope == pytest.approx(0.75, abs=1e-9)
        assert est.r2 == pytest.approx(1.0, abs=1e-12)

    def test_insufficient_points(self):
        curve = [(20.0, 1e-2), (30.0, 1e-3), (40.0, 1e-4)]
        with pytest.raises(ValueError):
            dvo_fit(curve, (20, 40))

    def test_floor_flattens_slope(self):
        curve = [(sdb, 1e-3 + (10.0 ** (sdb / 10.0)) ** -1.0)
                 for sdb in range(40, 81, 5)]
        est = dvo_fit(curve, (40, 80))
        assert est.slope < 0.2

    def test_numerical_floor_filter(self):
        curve = [(sdb, 10.0 ** -(sdb / 10.0)) for sdb in range(10, 51, 5)]
        curve += [(90.0, 1e-13), (100.0, 1e-14)]  # below the floor, dropped
        est = dvo_fit(curve, (10, 100))
        assert est.points_used == 9
        assert est.slope == pytest.approx(1.0, abs=1e-9)

    def test_fine_quantizer_recovers_full_diversity(self):
        # near-perfect resolution proxy: a 12-bit geometric boundary chain
        # puts the floor at ~5e-11, far below the fit window, so the
        # fitted slope approaches the full fading diversity m = 1
        cons = Constellation((1.0, 3.0)).normalized()
        k = 2**11 - 1
        ratio = (10.0 / 1e-5) ** (1.0 / (k - 1))
        bounds = tuple(1e-5 * ratio ** np.arange(k))
        quant = Quantizer(bounds, bits=12)
        ch = ChannelModel(1, 1.0)
        curve = []
        for sdb in np.arange(30.0, 50.0 + 1e-9, 2.5):
            snr = 10.0 ** (sdb / 10.0)
            curve.append((sdb, sep_closed_form(cons, quant, ch, snr).value))
        est = dvo_fit(curve, (30, 50))
        assert est.slope == pytest.approx(1.0, abs=0.05)


class TestBitScaling:
    def test_synthetic_exponential(self):
        assert dq_metric(lambda b: 2.0 ** (-3 * b), range(2, 10)) == pytest.approx(
            3.0, abs=1e-9
        )

    def test_uniform_floor_slope(self):
        for m in (1, 2):
            slope = dq_metric(
                lambda b: 2.0 ** optimal_floor_log2(m, b, "uniform"),
                range(4, 11),
            )
            assert slope == pytest.approx(2 * m, abs=0.3)

    def test_nonuniform_double_exponential_signature(self):
        inc = dq_successive_slopes(
            lambda b: optimal_floor_log2(1, b, "nonuniform"), range(2, 9)
        )
        assert all(a < b for a, b in zip(inc, inc[1:]))

    def test_nonuniform_beats_uniform(self):
        for b in (3, 4, 5):
            assert optimal_floor_log2(1, b, "nonuniform") < optimal_floor_log2(
                1, b, "uniform"
            )


class TestFloorSchedule:
    def test_strictly_decreasing(self):
        ch = ChannelModel(1, 1.0)
        out = floor_schedule([0.5, 0.3, 0.1, 0.05], a=4.0, b=3, M=4, ch=ch)
        vals = [v for _, v in out]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_open_interval_enforced(self):
        ch = ChannelModel(1, 1.0)
        with pytest.raises(ValueError):
            floor_schedule([0.1], a=2.0, b=3, M=4, ch=ch)  # a = M - 2
        with pytest.raises(ValueError):
            floor_schedule([0.1], a=8.0, b=3, M=4, ch=ch)  # a = 2^b

    def test_top_boundary_beyond_float(self):
        # at b = 10, rho^(K-1) underflows for rho = 0.1: the top tail is then 0
        # and the bound is its lower tail, as the earlier closed form gave
        ch = ChannelModel(1, 1.0)
        [(_, val)] = floor_schedule([0.1], a=4.0, b=10, M=4, ch=ch)
        assert val == pytest.approx(0.004975083125415971, rel=1e-13)

    def test_uniform_variant_decreasing(self):
        ch = ChannelModel(1, 1.0)
        out = floor_schedule(
            [0.5, 0.3, 0.1, 0.05], a=3.0, b=3, M=4, ch=ch, uniform=True
        )
        vals = [v for _, v in out]
        assert all(x > y for x, y in zip(vals, vals[1:]))

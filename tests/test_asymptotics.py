"""Decay-exponent analytics: exact theoretical values, slope fitting,
bit-scaling of the optimized floor, and vanishing-floor schedules."""
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from pamq import asymptotics, optimizer
from pamq import (
    ChannelModel,
    Constellation,
    Quantizer,
    dq_metric,
    dq_successive_slopes,
    dvo_experiment,
    dvo_fit,
    dvo_theory,
    floor_geometric,
    floor_schedule,
    optimal_floor_log2,
    sep_closed_form,
    sep_noiseless,
)
from pamq.asymptotics import _warm_start

RAYLEIGH = ChannelModel(1, 1.0)


class TestDvoTheory:
    def test_pinned_values(self):
        assert dvo_theory(1, 2, 4) == Fraction(1, 2)
        assert dvo_theory(1, 3, 4) == Fraction(3, 4)
        assert dvo_theory(2, 2, 4, n_r=3) == Fraction(3)
        assert dvo_theory(1, 3, 4, uniform=True) == Fraction(1, 2)
        # a float shape, as the CLI passes
        assert dvo_theory(1.5, 3, 4, uniform=True) == Fraction(3, 4)

    def test_regime_errors(self):
        with pytest.raises(ValueError):
            dvo_theory(1, 2, 8)  # 2^b <= M - 2
        with pytest.raises(ValueError):
            dvo_theory(1, 3, 8, uniform=True)  # uniform derived for M = 4
        with pytest.raises(ValueError):
            dvo_theory(1, 3, 4, uniform=True, n_r=2)  # uniform is SISO-only
        for n_r in (0, -1):
            with pytest.raises(ValueError):
                dvo_theory(1, 2, 4, n_r=n_r)

    @pytest.mark.parametrize("n_r", [2.5, True])
    def test_antenna_count_is_an_integer(self, n_r, monkeypatch):
        # once 1.25 and 1/2; dvo_experiment ran its whole sweep before SimSpec refused it
        with pytest.raises(TypeError, match="n_r must be an integer"):
            dvo_theory(1, 2, 4, n_r=n_r)
        monkeypatch.setattr(optimizer, "optimize", lambda *a, **k: pytest.fail("designed"))
        with pytest.raises(TypeError, match="n_r must be an integer"):
            dvo_experiment(1, 2, 4, n_r, [20.0, 25.0, 30.0, 35.0], budget=1000)

    @pytest.mark.parametrize("m", [-1, 0, 0.25, 0.4999, math.inf, math.nan])
    def test_shape_domain(self, m):
        # ChannelModel's rule: a finite m >= 1/2
        with pytest.raises(ValueError, match="Nakagami shape m"):
            dvo_theory(m, 3, 4)
        with pytest.raises(ValueError, match="Nakagami shape m"):
            ChannelModel(m)

    def test_shape_domain_edge(self):
        assert dvo_theory(0.5, 3, 4) == Fraction(3, 8)

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
            assert dvo_theory(2, 3, 4, n_r=n_r) == n_r * dvo_theory(2, 3, 4)


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


def test_dvo_experiment_checks_budget_before_designing(monkeypatch):
    monkeypatch.setattr(asymptotics, "optimize_sweep", lambda *a, **k: pytest.fail("designed"))
    with pytest.raises(ValueError, match="budget must be >= 1"):
        dvo_experiment(1, 2, 4, 2, [20.0, 25.0, 30.0, 35.0], budget=0)


class TestBitScaling:
    def test_synthetic_exponential(self):
        assert dq_metric(lambda b: -3.0 * b, range(2, 10)) == pytest.approx(3.0, abs=1e-9)

    def test_uniform_floor_slope(self):
        for m in (1, 2):
            slope = dq_metric(lambda b: optimal_floor_log2(m, b, uniform=True), range(4, 11))
            assert slope == pytest.approx(2 * m, abs=0.3)

    def test_floor_below_float_range(self):
        # the non-uniform floor at b = 10 is below 2^-1074, so only its log2 has a value;
        # over three equally spaced b the fitted slope is half the end-to-end drop
        log2s = [optimal_floor_log2(1, b) for b in range(8, 11)]
        assert log2s[-1] < -1074
        slope = dq_metric(lambda b: optimal_floor_log2(1, b), range(8, 11))
        assert slope == pytest.approx((log2s[0] - log2s[-1]) / 2.0, rel=1e-12)

    def test_nonuniform_double_exponential_signature(self):
        inc = dq_successive_slopes(
            lambda b: optimal_floor_log2(1, b), range(2, 9)
        )
        assert all(a < b for a, b in zip(inc, inc[1:]))

    @pytest.mark.parametrize("m,omega", [(0.25, 1.0), (-1, 1.0), (math.nan, 1.0)])
    def test_channel_domain(self, m, omega):
        # ChannelModel's rule on m; m = -1 once gave -inf
        with pytest.raises(ValueError, match="Nakagami shape m"):
            ChannelModel(m, omega)
        with pytest.raises(ValueError, match="Nakagami shape m"):
            optimal_floor_log2(m, 3)

    def test_floor_past_ten_bits(self):
        # the floor keeps falling double-exponentially where log q_1* is below -600
        inc = dq_successive_slopes(lambda b: optimal_floor_log2(1, b), range(10, 13))
        assert 0 < inc[0] < inc[1]

    @pytest.mark.parametrize("uniform", [False, True], ids=["nonuniform", "uniform"])
    @pytest.mark.parametrize("bits", [2, 3, 4])
    @pytest.mark.parametrize("m", [0.5, 1, 2.5])
    def test_closed_form_minimizes_sep_noiseless(self, m, bits, uniform):
        # q_1*^2 = ln(9 r^2) / (r^2 - 1/9), r = q_K / q_1, on the engine's own floor
        k = 2 ** (bits - 1) - 1
        r = k if uniform else 3.0 ** (k - 1)
        q1 = math.sqrt(math.log(9 * r * r) / (r * r - 1 / 9))
        if bits == 2:
            assert q1**2 == pytest.approx(9 / 8 * math.log(9), rel=1e-15)
        ch = ChannelModel(m, 1.0)

        def sep_at(q):
            quant = (Quantizer.uniform(q, bits) if uniform
                     else Quantizer(tuple(q * 3.0**y for y in range(k)), bits))
            return sep_noiseless(Constellation((1.0, 3.0)), quant, ch).value

        floor = sep_at(q1)
        assert floor == pytest.approx(2 ** optimal_floor_log2(m, bits, uniform=uniform),
                                      rel=1e-12, abs=1e-15)
        if floor > 1e-10:  # above sep_noiseless's cancellation limit
            assert min(sep_at(q1 * (1 - 1e-3)), sep_at(q1 * (1 + 1e-3))) > floor

    def test_nonuniform_beats_uniform(self):
        for b in (3, 4, 5):
            assert optimal_floor_log2(1, b) < optimal_floor_log2(1, b, uniform=True)


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

    @pytest.mark.parametrize("uniform, a", [(False, 4.0), (True, 3.5)])
    def test_bits_past_float_range(self, uniform, a):
        at = [floor_schedule([0.5, 0.1], a=a, b=b, M=4, ch=RAYLEIGH, uniform=uniform)
              for b in (60, 1025)]
        assert at[1] == at[0]

    def test_uniform_variant_decreasing(self):
        ch = ChannelModel(1, 1.0)
        out = floor_schedule(
            [0.5, 0.3, 0.1, 0.05], a=3.0, b=3, M=4, ch=ch, uniform=True
        )
        vals = [v for _, v in out]
        assert all(x > y for x, y in zip(vals, vals[1:]))


# every input the geometric design family rejects, at each function that takes one
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: dvo_theory(1, 3, 8, uniform=True), "derived for M = 4",
                 id="dvo_theory-uniform-M8"),
    pytest.param(lambda: floor_geometric(0.3, 8, 0.1, RAYLEIGH, 3, uniform=True),
                 "derived for M = 4", id="floor_geometric-uniform-M8"),
    pytest.param(lambda: floor_schedule([0.3], 6.5, 3, 8, RAYLEIGH, uniform=True),
                 "derived for M = 4", id="floor_schedule-uniform-M8"),
    pytest.param(lambda: dvo_theory(1, 2, 8), "2^b > M - 2", id="dvo_theory-levels"),
    pytest.param(lambda: floor_geometric(0.3, 8, 0.1, RAYLEIGH, 2), "2^b > M - 2",
                 id="floor_geometric-levels"),
    pytest.param(lambda: floor_schedule([0.3], 6.5, 2, 8, RAYLEIGH), "2^b > M - 2",
                 id="floor_schedule-levels"),
    pytest.param(lambda: dvo_theory(1, 1, 4), "bits must be >= 2", id="dvo_theory-b1"),
    pytest.param(lambda: dvo_theory(1, 1, 4, uniform=True), "bits must be >= 2",
                 id="dvo_theory-b1-uniform"),
    pytest.param(lambda: floor_geometric(0.3, 4, 0.1, RAYLEIGH, 1), "bits must be >= 2",
                 id="floor_geometric-b1"),
    pytest.param(lambda: floor_geometric(0.3, 4, 0.1, RAYLEIGH, 1, uniform=True),
                 "bits must be >= 2", id="floor_geometric-b1-uniform"),
    pytest.param(lambda: floor_schedule([0.3], 2.5, 1, 4, RAYLEIGH), "bits must be >= 2",
                 id="floor_schedule-b1"),
    pytest.param(lambda: floor_schedule([0.3], 2.5, 1, 4, RAYLEIGH, uniform=True),
                 "bits must be >= 2", id="floor_schedule-b1-uniform"),
    pytest.param(lambda: dvo_theory(1, 3, 4, uniform=True, n_r=2), "single-antenna",
                 id="dvo_theory-uniform-nr2"),
    pytest.param(lambda: floor_schedule([0.3], 2.0, 3, 4, RAYLEIGH), "open interval",
                 id="floor_schedule-a-at-M-2"),
    pytest.param(lambda: floor_schedule([0.3], 8.0, 3, 4, RAYLEIGH), "open interval",
                 id="floor_schedule-a-at-2^b"),
    pytest.param(lambda: floor_schedule([0.3], 2.0, 3, 4, RAYLEIGH, uniform=True),
                 "open interval", id="floor_schedule-uniform-a-at-M-2"),
    pytest.param(lambda: floor_schedule([0.3], 4.0, 3, 4, RAYLEIGH, uniform=True),
                 "open interval", id="floor_schedule-uniform-a-at-4"),
    pytest.param(lambda: dvo_theory(1, 3, 6), "M must be a power of 2", id="dvo_theory-M6"),
    pytest.param(lambda: dvo_theory(1, 4, 12), "M must be a power of 2", id="dvo_theory-M12"),
])
def test_family_rejections(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


# a quantizer kind passed by position, as the functions once took it, raises
# TypeError: uniform is keyword-only, so a kind string is never read as a flag
@pytest.mark.parametrize("call", [
    pytest.param(lambda: dvo_theory(1, 3, 4, "uniform"), id="dvo_theory"),
    pytest.param(lambda: dvo_theory(1, 2, 4, "nonuniform", 1), id="dvo_theory-n_r"),
    pytest.param(lambda: dvo_experiment(1, 3, 4, "uniform", 1, [20.0, 22.5, 25.0, 27.5]),
                 id="dvo_experiment"),
    pytest.param(lambda: optimal_floor_log2(1, 3, "unifrom"), id="optimal_floor_log2"),
    pytest.param(lambda: optimal_floor_log2(1, 3, "uniform", 1.0),
                 id="optimal_floor_log2-omega"),
    pytest.param(lambda: floor_schedule([0.3], 3.0, 3, 4, RAYLEIGH, "uniform"),
                 id="floor_schedule"),
    pytest.param(lambda: floor_geometric(0.3, 4, 0.1, RAYLEIGH, 3, "nonuniform"),
                 id="floor_geometric"),
])
def test_positional_kind_string_raises(call):
    with pytest.raises(TypeError, match="positional argument"):
        call()


class TestFamilyBits:
    """float.hex of the geometric family's designs and floors, as computed before the
    family had one constellation type and one rule."""

    @pytest.mark.parametrize("uniform, amplitudes, boundaries", [
        (False, ["0x1.47160e42b0cb4p-2", "0x1.e52d8f6383e2cp-1"],
         ["0x1.7bcd6a0e41917p-3", "0x1.19afd75a6e7acp-1", "0x1.a1d5ef92ff59dp+0"]),
        (True, ["0x1.2ee13dfa70037p-3", "0x1.fa5eb2840327fp-1"],
         ["0x1.879fb4f644e8cp-2", "0x1.879fb4f644e8cp-1", "0x1.25b7c7b8b3ae9p+0"]),
    ])
    def test_warm_start(self, uniform, amplitudes, boundaries):
        cons, quant = _warm_start(1, 3, 4, 1e3, uniform)
        assert [a.hex() for a in cons.amplitudes] == amplitudes
        assert [q.hex() for q in quant.positive_boundaries] == boundaries

    def test_acceptance_schedules(self):
        # the two floor_schedule calls of acceptance criterion 7
        rho_grid = [10.0 ** e for e in np.linspace(-0.3, -3.0, 10)]
        out = floor_schedule(rho_grid, a=4.0, b=3, M=4, ch=RAYLEIGH)
        assert [v.hex() for _, v in out] == [
            "0x1.c6e9379ccee54p-4", "0x1.f4e95191dd9c8p-6", "0x1.019f3ad2e8011p-7",
            "0x1.04628693b17dfp-9", "0x1.0603521cac487p-11", "0x1.075b785912bd3p-13",
            "0x1.08a2644783205p-15", "0x1.09e61ad8e58e4p-17", "0x1.0b2a27ac40822p-19",
            "0x1.0c6f713f9249dp-21"]
        out = floor_schedule(rho_grid, a=3.5, b=3, M=4, ch=ChannelModel(2, 1.0), uniform=True)
        assert [v.hex() for _, v in out] == [
            "0x1.45f4b5b21527ap-4", "0x1.b7de9a77e2aa6p-7", "0x1.ece9ed14bd1c7p-10",
            "0x1.01e3da101d132p-12", "0x1.074a5c23c19dap-15", "0x1.0a749c4142af6p-18",
            "0x1.0cd1a9c456b1bp-21", "0x1.0ee74366abea7p-24", "0x1.10e58c50bdc61p-27",
            "0x1.12ddc6f9488b5p-30"]

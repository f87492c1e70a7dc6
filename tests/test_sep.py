"""SEP engines: the fading-averaged tail integral (series and quadrature),
closed-form/quadrature/noiseless SEP, floor bounds, and the AQNM baseline."""
import math
import sys

import numpy as np
import pytest

from pamq import (
    ChannelModel,
    Constellation,
    Quantizer,
    default_alpha,
    floor_bounds,
    floor_geometric,
    h_function,
    h_function_quad,
    lloyd_max_gaussian,
    optimal_floor_log2,
    q_func,
    sep_and_grad,
    sep_aqnm,
    sep_closed_form,
    sep_noiseless,
    sep_quadrature,
    sigma2_from_snr,
    symbol_energy,
    xg_design,
)
from pamq import sep
from pamq.system import _schedule_q1

C13 = Constellation((1.0, 3.0))
RAYLEIGH = ChannelModel(1, 1.0)

# optimal 2-bit boundary and floor for {+-1,+-3} over Rayleigh:
# q*^2 = (9/8) ln 9, floor = (1 + 9^(-9/8) - 9^(-1/8)) / 2 (40-digit refs)
Q1_STAR = 1.5722206109523074
FLOOR_STAR = 0.1622952508215144


class TestHFunction:
    def test_empty_interval(self):
        assert h_function(2, 1.0, 0.5, 1.0, 0.7, 0.7) == 0.0

    def test_constant_integrand(self):
        for c in (0.5, 2.0):
            assert h_function(1, 1.0, 0.0, c, 0.0, math.inf) == pytest.approx(
                q_func(-c), rel=1e-14
            )

    def test_pinned_zero_offset(self):
        # m=1, omega=1, b=1, c=0 over (0, inf): (1 - sqrt(1/3)) / 2
        assert h_function(1, 1.0, 1.0, 0.0, 0.0, math.inf) == pytest.approx(
            0.2113248654051871, abs=1e-14
        )

    def test_matches_quadrature_random(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            m = int(rng.integers(1, 5))
            omega = float(rng.uniform(0.3, 3.0))
            b = float(rng.uniform(0.0, 50.0))
            c = float(rng.uniform(0.0, 8.0))
            z_lo = float(rng.uniform(0.0, 2.0))
            z_hi = z_lo + float(rng.uniform(0.0, 5.0))
            if rng.random() < 0.3:
                z_hi = math.inf
            exact = h_function(m, omega, b, c, z_lo, z_hi)
            approx, _ = h_function_quad(m, omega, b, c, z_lo, z_hi)
            assert exact == pytest.approx(approx, abs=1e-9)

    def test_quad_half_integer_shape(self):
        # no closed form at m = 0.5; sanity-check against a plain
        # Monte Carlo average of the integrand
        rng = np.random.default_rng(1)
        z = rng.standard_gamma(0.5, size=10**6) * (1.0 / 0.5)
        b, c, lo, hi = 2.0, 1.0, 0.2, 3.0
        sample = q_func(-c + np.sqrt(b * z)) * ((z > lo) & (z <= hi))
        mc, stderr = sample.mean(), sample.std() / 1000.0
        val, _ = h_function_quad(0.5, 1.0, b, c, lo, hi)
        assert abs(val - mc) < 3 * stderr

    def test_monotone_in_c(self):
        vals = [
            h_function(2, 1.0, 3.0, c, 0.1, 2.0) for c in (0.0, 0.5, 1.0, 2.0)
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_infinite_c_is_region_mass(self):
        from pamq import lower_gamma_reg, upper_gamma_reg

        m, omega, lo, hi = 2, 1.5, 0.3, 1.7
        mass = upper_gamma_reg(m, m * lo / omega) - upper_gamma_reg(m, m * hi / omega)
        assert h_function(m, omega, 1.0, math.inf, lo, hi) == pytest.approx(
            mass, rel=1e-12
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            h_function(0, 1.0, 1.0, 1.0, 0.0, 1.0)
        for m in (1.5, 2.5):  # not cut to the integer below
            with pytest.raises(ValueError, match="integer m"):
                h_function(m, 1.0, 1.0, 1.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            h_function(1, 1.0, 1.0, 1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            h_function(1, 1.0, 1.0, 1.0, -0.5, 1.0)  # z_lo < 0
        for omega in (0.0, -1.0):
            with pytest.raises(ValueError):
                h_function(1, omega, 1.0, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("omega", [math.inf, math.nan])
    def test_channel_domain(self, omega):
        # ChannelModel's rule: h_function once returned -5.55e-17 at omega = +inf, and
        # h_function_quad raised a bare "math domain error"
        with pytest.raises(ValueError, match="omega must be positive and finite"):
            h_function(1, omega, 1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="omega must be positive and finite"):
            h_function_quad(1.5, omega, 1.0, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("b, c", [(-1.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.nan)])
    def test_b_and_c_nonnegative(self, b, c):
        # one rule for both kernels: h_function_quad once raised a bare "math domain
        # error" for b < 0 and integrated c < 0, and both returned NaN for a NaN b or c
        for kernel, m in ((h_function, 1), (h_function_quad, 1.5)):
            with pytest.raises(ValueError, match="b and c must be nonnegative"):
                kernel(m, 1.0, b, c, 0.0, 1.0)


def _odd_pam(M, bits):
    """Amplitudes 1, 3, ..., M-1 and boundaries y * M / 2^(bits-1)."""
    step = M / 2 ** (bits - 1)
    return (
        Constellation(tuple(2.0 * i + 1.0 for i in range(M // 2))),
        Quantizer(tuple(step * y for y in range(1, 2 ** (bits - 1))), bits=bits),
    )


class TestBitIdentity:
    """float.hex of SEPs, pinned so that a speed-up of the engines cannot
    move a bit (and with it the optimizer's path or any CLI output byte)."""

    CLOSED_FORM_DB = (0, 20, 40, 60)
    CLOSED_FORM = {
        (4, 2, 1): ("0x1.daae007ce3b9cp-2", "0x1.873c000c88e40p-3",
                    "0x1.823c4ed1d6018p-3", "0x1.822fde6434558p-3"),
        (4, 3, 1): ("0x1.cb63222f77dd4p-2", "0x1.d9fe94e094d40p-5",
                    "0x1.af61c222888f0p-5", "0x1.af3eba192d0e0p-5"),
        (8, 3, 2): ("0x1.5e38a64cbf86dp-1", "0x1.c94ed8c21e6e8p-3",
                    "0x1.9bdbf4efcc550p-3", "0x1.9bd0a8874b500p-3"),
        (8, 4, 4): ("0x1.57cf71c9f3ff4p-1", "0x1.a715474f4f730p-5",
                    "0x1.bdeb4cfa37e00p-7", "0x1.bd50fbc244a00p-7"),
    }
    QUADRATURE_DB = (0, 15, 30)
    QUADRATURE = {
        (4, 2, 0.5): ("0x1.032727b592ce6p-1", "0x1.296d8fa579634p-2", "0x1.17915aa6a5456p-2"),
        (4, 3, 1.5): ("0x1.bb39fe790c850p-2", "0x1.b1065ab0198b0p-5", "0x1.7e12dd56efe00p-6"),
        (8, 4, 2.5): ("0x1.5a5e43c1abf6fp-1", "0x1.6784280b4f390p-3", "0x1.01e0f0e5e5190p-5"),
    }

    @pytest.mark.parametrize("M,bits,m", sorted(CLOSED_FORM))
    def test_closed_form(self, M, bits, m):
        c, q = _odd_pam(M, bits)
        got = tuple(
            sep_closed_form(c, q, ChannelModel(m), 10.0 ** (db / 10.0)).value.hex()
            for db in self.CLOSED_FORM_DB
        )
        assert got == self.CLOSED_FORM[M, bits, m]

    NOISELESS = {
        (4, 2, 1): "0x1.822fbe3b8e91bp-3", (4, 2, 1.5): "0x1.250473106821ep-3",
        (4, 3, 1): "0x1.af3e5f82e0b17p-5", (4, 3, 1.5): "0x1.7bcfc18ee07e1p-6",
        (8, 4, 1): "0x1.a57084df72ab3p-4", (8, 4, 1.5): "0x1.f5a2617fec09fp-5",
    }

    @pytest.mark.parametrize("M,bits,m", sorted(NOISELESS))
    def test_noiseless(self, M, bits, m):
        c, q = _odd_pam(M, bits)
        assert sep_noiseless(c, q, ChannelModel(m)).value.hex() == self.NOISELESS[M, bits, m]

    # h_function_quad's (value, error estimate) at (m, omega, b, c, z_lo, z_hi): its z <= 0
    # branch, its knee and its tail split, which the SEP pins reach only in a few regions
    H_QUAD = {
        # the m = 1/2 density is singular at z_lo = 0; the knee c^2/b = 0.845 is past z_hi
        (0.5, 1.0, 2.0, 1.3, 0.0, 0.7): ("0x1.d014929ccebc2p-2", "0x1.1000000000000p-47"),
        # singular at 0, the knee inside, then an infinite tail
        (0.5, 1.0, 2.0, 1.3, 0.0, math.inf): ("0x1.2461608fdaffbp-1", "0x1.438e235eb2a80p-41"),
        # b = 0: no knee
        (0.5, 2.0, 0.0, 0.4, 0.0, 1.5): ("0x1.9bc482ceb650dp-2", "0x1.9c00000000000p-47"),
        # c = 0: the knee is z = 0
        (2.5, 1.0, 4.0, 0.0, 0.2, 3.0): ("0x1.59bb87b269ea3p-5", "0x1.cc4dd12d3c000p-48"),
        (2.5, 1.0, 4.0, 0.0, 0.0, math.inf): ("0x1.a18b4a7bedacep-5", "0x1.33985f5cf2e2bp-44"),
        # the knee 4/3 inside a finite interval
        (2.5, 2.0, 3.0, 2.0, 0.5, 5.0): ("0x1.6632fda3ce9fdp-2", "0x1.12b3daa9df358p-46"),
        # the knee inside, then the tail split at omega (1 + 10 / sqrt(m))
        (2.5, 1.0, 3.0, 2.0, 0.5, math.inf): ("0x1.bddd8bd3383a2p-2", "0x1.a55fdbe06f8ecp-45"),
        # an interval that starts past the tail split
        (2.5, 1.0, 0.5, 3.0, 9.0, math.inf): ("0x1.8cfe1c95a763cp-27", "0x1.0bde1f2d74e1ap-48"),
    }

    @pytest.mark.parametrize("args", sorted(H_QUAD), ids=str)
    def test_h_function_quad(self, args):
        assert tuple(x.hex() for x in h_function_quad(*args)) == self.H_QUAD[args]

    @pytest.mark.parametrize("M,bits,m", sorted(QUADRATURE))
    def test_quadrature(self, M, bits, m):
        c, q = _odd_pam(M, bits)
        got = tuple(
            sep_quadrature(c, q, ChannelModel(m), 10.0 ** (db / 10.0)).value.hex()
            for db in self.QUADRATURE_DB
        )
        assert got == self.QUADRATURE[M, bits, m]


def _random_design(rng, M, bits):
    amps = np.sort(rng.uniform(0.1, 3.0, M // 2))
    bounds = np.sort(rng.uniform(0.1, 3.0, 2 ** (bits - 1) - 1))
    return Constellation(tuple(amps)), Quantizer(tuple(bounds), bits)


class TestSepAndGrad:
    """sep_and_grad: its value is the engine's, bit for bit, and its gradient a
    four-point central difference of the engine's SEP, at fixed sigma."""

    GRID = [(M, bits, m) for M in (4, 8) for bits in (2, 3, 4) for m in (1, 2, 5)]
    SHAPES = (0.5, 1.0, 1.5, 3.0)

    @pytest.mark.parametrize("M,bits,m", GRID)
    def test_value_is_closed_form(self, M, bits, m):
        rng = np.random.default_rng([M, bits, m])
        for _ in range(4):
            c, q = _random_design(rng, M, bits)
            snr = 10.0 ** (rng.uniform(0.0, 40.0) / 10.0)
            ch = ChannelModel(m, float(rng.uniform(0.5, 2.0)))
            assert sep_and_grad(c, q, ch, snr)[0] == sep_closed_form(c, q, ch, snr).value
        c, q = _odd_pam(M, bits)
        for db in TestBitIdentity.CLOSED_FORM_DB:
            assert sep_and_grad(c, q, ChannelModel(m), 10.0 ** (db / 10.0))[0] == (
                sep_closed_form(c, q, ChannelModel(m), 10.0 ** (db / 10.0)).value)

    @pytest.mark.parametrize("m", SHAPES)
    def test_value_is_noiseless(self, m):
        rng = np.random.default_rng(int(2 * m))
        for M in (4, 8):
            for bits in (2, 3, 4):
                c, q = _random_design(rng, M, bits)
                ch = ChannelModel(m, float(rng.uniform(0.5, 2.0)))
                assert sep_and_grad(c, q, ch, None)[0] == sep_noiseless(c, q, ch).value

    @staticmethod
    def _check_gradient(c, q, ch, snr, rel_step):
        _, grad_q, grad_rho = sep_and_grad(c, q, ch, snr)
        es = symbol_energy(c)

        def sep_at(amps, bounds):
            c2, q2 = Constellation(tuple(amps)), Quantizer(tuple(bounds), q.bits)
            if snr is None:
                return sep_noiseless(c2, q2, ch).value
            # the same sigma: snr scaled with the symbol energy
            return sep_closed_form(c2, q2, ch, snr * symbol_energy(c2) / es).value

        amps, bounds = list(c.amplitudes), list(q.positive_boundaries)
        for vec, grad, is_q in ((bounds, grad_q, True), (amps, grad_rho, False)):
            for k, g in enumerate(grad):
                h = rel_step * vec[k]

                def at(d):
                    moved = list(vec)
                    moved[k] += d
                    return sep_at(amps, moved) if is_q else sep_at(moved, bounds)

                fd = (8.0 * (at(h) - at(-h)) - (at(2 * h) - at(-2 * h))) / (12.0 * h)
                assert g == pytest.approx(fd, rel=1e-5, abs=1e-9), (is_q, k)

    @pytest.mark.parametrize("M,bits,m", GRID)
    def test_gradient_matches_difference(self, M, bits, m):
        rng = np.random.default_rng([M, bits, m, 1])
        for db in (0.0, 10.0, 20.0, 30.0, 40.0):
            c, q = _random_design(rng, M, bits)
            self._check_gradient(c, q, ChannelModel(m, float(rng.uniform(0.5, 2.0))),
                                 10.0 ** (db / 10.0), 1e-5)

    @pytest.mark.parametrize("m", SHAPES)
    def test_noiseless_gradient_matches_difference(self, m):
        rng = np.random.default_rng(int(4 * m) + 7)
        for M in (4, 8):
            for bits in (2, 3, 4):
                c, q = _random_design(rng, M, bits)
                self._check_gradient(c, q, ChannelModel(m, float(rng.uniform(0.5, 2.0))),
                                     None, 1e-6)

    def test_h_series_derivatives(self):
        # _h_series gives h_function's value, and series parts only where the series runs;
        # _h_series_grad passes the value on, and its dH/dc and dH/db match a difference of
        # h_function, also at b = 0 (dH/dc only) and c = +inf (no dependence)
        rng = np.random.default_rng(3)
        cases = [(int(rng.integers(1, 6)), float(rng.uniform(0.3, 3.0)),
                  float(rng.uniform(0.1, 50.0)), float(rng.uniform(0.5, 8.0)),
                  *sorted(rng.uniform(0.0, 2.0, 2))) for _ in range(30)]
        cases += [(2, 1.0, 0.0, 1.5, 0.2, 0.9), (2, 1.0, 0.0, 1.5, 0.2, math.inf),
                  (3, 1.5, 4.0, math.inf, 0.1, math.inf),
                  (1, 1.0, 2.0, 0.7, 0.3, math.inf)]
        for m, omega, b, c, z_lo, z_hi in cases:
            g_lo, g_hi = (ChannelModel(m, omega).survival(z) for z in (z_lo, z_hi))
            value, parts = sep._h_series(m, omega, b, c, z_lo, z_hi, g_lo, g_hi)
            assert value == h_function(m, omega, b, c, z_lo, z_hi)
            assert (parts is None) == (math.isinf(c) or b == 0.0)
            got, d_c, d_b = sep._h_series_grad(sep._grad_plan(m, omega), b, c, z_lo, z_hi,
                                               g_lo, g_hi)
            assert got == value
            if math.isinf(c):
                assert d_c == d_b == 0.0
                continue
            h = 1e-5 * c
            fd_c = (h_function(m, omega, b, c + h, z_lo, z_hi)
                    - h_function(m, omega, b, c - h, z_lo, z_hi)) / (2.0 * h)
            assert d_c == pytest.approx(fd_c, rel=1e-6, abs=1e-10)
            if b > 0.0:
                h = 1e-5 * b
                fd_b = (h_function(m, omega, b + h, c, z_lo, z_hi)
                        - h_function(m, omega, b - h, c, z_lo, z_hi)) / (2.0 * h)
                assert d_b == pytest.approx(fd_b, rel=1e-6, abs=1e-10)

    @pytest.mark.parametrize("M", (4, 8, 16))
    def test_regions_meet_where_likelihoods_tie(self, M):
        # why the finite-SNR gradient has no region-endpoint terms: for an output y,
        # D_(y,i) ends where D_(y,i-1) begins, and there both symbols give y with the same
        # probability, up to the rounding of the Q factors' arguments
        rng = np.random.default_rng([M, 2])
        for bits in (2, 3, 4):
            for _ in range(10):
                c, q = _random_design(rng, M, bits)
                sigma2 = sigma2_from_snr(c, 10.0 ** (rng.uniform(0.0, 50.0) / 10.0))
                regions = {(y, i): (lower, upper, b_i, c_hi, c_lo) for
                           y, i, lower, upper, b_i, c_hi, c_lo, _, _
                           in sep._series_regions(c.amplitudes, q.edges, RAYLEIGH, sigma2)}
                for (y, i), (_, z, b_i, c_hi, c_lo) in regions.items():
                    if y > q.K or i == 0:
                        continue
                    lower, _, b_next, _, _ = regions[y, i - 1]
                    assert lower == z
                    p_i, p_next = (float(q_func(-c_hi + math.sqrt(b * z)))
                                   - float(q_func(-c_lo + math.sqrt(b * z)))
                                   for b in (b_i, b_next))
                    scale = max(1.0, c_hi, math.sqrt(b_i * z), math.sqrt(b_next * z))
                    assert abs(p_i - p_next) <= 4.0 * sys.float_info.epsilon * scale

    # float.hex of (value, dSEP/dq_1..q_K, dSEP/drho_0..), the odd-PAM designs of
    # TestBitIdentity; snr in dB, or None for the noiseless limit
    GRADIENT_BITS = {
        (4, 2, 1, 0): (
            "0x1.daae007ce3b9cp-2 -0x1.337a94e985800p-7 0x1.7269ca96daa73p-7 "
            "-0x1.1cbb8fd6b0625p-4"),
        (4, 2, 1, 20): (
            "0x1.873c000c88e40p-3 0x1.9b1605f27218ap-4 0x1.42c42b0271641p-4 "
            "-0x1.84c4b921c59a0p-4"),
        (4, 2, 1, 40): (
            "0x1.823c4ed1d6018p-3 0x1.b15a684bc985ap-4 0x1.2c53bfe57e8a1p-4 "
            "-0x1.85139c9118ec1p-4"),
        (4, 3, 1, 0): (
            "0x1.cb63222f77dd4p-2 -0x1.0220feb8d6960p-9 0x1.b5e3bc1665100p-12 "
            "-0x1.2ac40538d5da0p-9 0x1.1763acb6b2bf0p-8 -0x1.4a93dcfafb5b3p-4"),
        (4, 3, 1, 20): (
            "0x1.d9fe94e094d40p-5 0x1.203d7439693d7p-4 0x1.0841f46d6cd10p-7 "
            "-0x1.14e41d5853000p-11 0x1.a323e597a89a8p-7 -0x1.41c5a7eab01b0p-5"),
        (4, 3, 1, 40): (
            "0x1.af61c222888f0p-5 0x1.97384af9df3f3p-4 0x0.0p+0 "
            "-0x1.85abe15830900p-12 0x1.241d9942d8640p-10 -0x1.0f921582c9d42p-5"),
        (8, 4, 4, 0): (
            "0x1.57cf71c9f3ff4p-1 -0x1.aa140f0c215cdp-13 -0x1.9af260b648a58p-15 "
            "0x1.38ba793ca0ab0p-14 -0x1.4c6ff0d16ef80p-15 0x1.c2db9de13f400p-15 "
            "0x1.b837702b2aa00p-15 -0x1.1c8ecb6c5f530p-10 -0x1.a8244c2fdbb06p-14 "
            "0x1.b8b75e0d6dec0p-20 0x1.e5338d35f6e2ap-12 -0x1.b90a71fa0bbb0p-6"),
        (8, 4, 4, 20): (
            "0x1.a715474f4f730p-5 -0x1.b338c725cc0e8p-6 0x1.c76a2a7e66e3fp-7 "
            "-0x1.74a57841ae2a8p-9 0x1.1cb09085a9f2cp-8 0x1.f1860fba3f750p-9 "
            "0x1.a259a34820950p-9 -0x1.166b5ee710c28p-6 0x1.f23fca00c7b80p-7 "
            "-0x1.467eb9261be4ap-10 0x1.9aa8eef39099ep-6 -0x1.712e03f974232p-6"),
        (8, 4, 4, 40): (
            "0x1.bdeb4cfa37e00p-7 0x1.f517dc03f28b6p-19 0x1.7dc426fe36154p-12 "
            "0x1.eb2445597a25cp-9 0x1.8136c2fa3f000p-14 0x1.3000000000000p-52 "
            "0x1.0000000000000p-57 -0x1.22457a1468d34p-6 0x1.8ff9d409af8a7p-50 "
            "0x1.105dce460c1c0p-18 0x1.974a9c2f24ebep-6 -0x1.db231e33f5b60p-10"),
        (4, 2, 1, None): (
            "0x1.822fbe3b8e91bp-3 0x1.b1932e3bea3eep-4 0x1.2c155b8213cf4p-4 "
            "-0x1.8513e7fdf819bp-4"),
        (4, 2, 1.5, None): (
            "0x1.250473106821ep-3 0x1.18d25a6afa660p-3 0x1.50bf7affd41fap-5 "
            "-0x1.ae8db7b9468d4p-4"),
        (4, 3, 1, None): (
            "0x1.af3e5f82e0b17p-5 0x1.9740563a79d57p-4 0x0.0p+0 "
            "-0x1.8436b37b97e87p-12 0x1.2329069cb1ee5p-10 -0x1.0f80397c5138fp-5"),
        (4, 3, 1.5, None): (
            "0x1.7bcfc18ee07e1p-6 0x1.0a32d57ae3664p-4 0x0.0p+0 "
            "-0x1.ad1ebe3d4060cp-16 0x1.41d70eadf0489p-14 -0x1.62ee71f92f330p-6"),
        (8, 4, 1, None): (
            "0x1.a57084df72ab3p-4 0x1.479cd8cce2cfap-7 0x1.34280c76971a8p-6 "
            "0x1.a164ff56c2b90p-6 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.5e9f3f2744f8ap-6 0x1.e545e49ca93c4p-67 "
            "0x1.00ea551961c2bp-8 0x1.c455653ff84bap-6 -0x1.22543755b365cp-6"),
        (8, 4, 1.5, None): (
            "0x1.f5a2617fec09fp-5 0x1.80225e1a5e2a4p-9 0x1.5e6d93a565720p-7 "
            "0x1.5247f56d5cd17p-6 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 -0x1.68ab80ea0645ep-6 0x1.5a4049b582e09p-98 "
            "0x1.46b7bd534a7c1p-10 0x1.ecaf9d614f96dp-6 -0x1.93cbeda0390c7p-7"),
    }

    @pytest.mark.parametrize("M,bits,m,db", sorted(GRADIENT_BITS, key=str))
    def test_gradient_bits(self, M, bits, m, db):
        c, q = _odd_pam(M, bits)
        snr = None if db is None else 10.0 ** (db / 10.0)
        value, grad_q, grad_rho = sep_and_grad(c, q, ChannelModel(m), snr)
        got = " ".join(x.hex() for x in (value, *grad_q, *grad_rho))
        assert got == self.GRADIENT_BITS[M, bits, m, db]

    def test_noiseless_optimum_is_stationary(self):
        _, grad_q, _ = sep_and_grad(C13, Quantizer((Q1_STAR,), bits=2), RAYLEIGH, None)
        assert abs(grad_q[0]) < 1e-15

    def test_noisy_gradient_needs_integer_m(self):
        with pytest.raises(ValueError, match="integer m"):
            sep_and_grad(C13, Quantizer((1.5,), bits=2), ChannelModel(1.5), 10.0)


class TestSepEngines:
    def test_random_guessing_limit(self):
        q = Quantizer((1.5,), bits=2)
        res = sep_closed_form(C13, q, RAYLEIGH, 1e-9)
        assert res.value == pytest.approx(0.75, abs=1e-4)

    def test_closed_form_matches_quadrature_sweep(self):
        # boundary sweep at 10 dB; subset of the acceptance grid
        snr = 10.0 / symbol_energy(C13) * symbol_energy(C13)  # 10 linear
        for q1 in np.linspace(0.3, 5.0, 12):
            q = Quantizer((q1,), bits=2)
            cf = sep_closed_form(C13, q, RAYLEIGH, 10.0)
            qd = sep_quadrature(C13, q, RAYLEIGH, 10.0)
            assert cf.value == pytest.approx(qd.value, abs=1e-9)

    def test_quadrature_non_integer_m(self):
        q = Quantizer((0.5, 1.0, 1.5), bits=3)
        ch = ChannelModel(1.5, 1.0)
        res = sep_quadrature(C13.normalized(), q, ch, 10.0)
        assert 0.0 < res.value < 1.0
        assert res.method == "quadrature"

    def test_noiseless_limit(self):
        q = Quantizer((Q1_STAR,), bits=2)
        high = sep_closed_form(C13, q, RAYLEIGH, 1e12)
        assert high.value == pytest.approx(FLOOR_STAR, abs=1e-3)

    def test_omega_invariance_at_fixed_product(self):
        # omega * snr fixed at 10 dB, boundary scaled by sqrt(omega)
        vals = []
        for omega in (0.5, 1.0, 2.0):
            ch = ChannelModel(1, omega)
            q = Quantizer((1.3 * math.sqrt(omega),), bits=2)
            vals.append(sep_closed_form(C13, q, ch, 10.0 / omega).value)
        assert max(vals) - min(vals) < 1e-12


class TestNoiseless:
    def test_optimal_floor_value(self):
        q = Quantizer((Q1_STAR,), bits=2)
        assert sep_noiseless(C13, q, RAYLEIGH).value == pytest.approx(
            FLOOR_STAR, abs=1e-12
        )

    def test_matches_explicit_formula(self):
        for q1 in (0.8, 1.5722, 3.0):
            q = Quantizer((q1,), bits=2)
            want = 0.5 * (1.0 + math.exp(-q1 * q1) - math.exp(-q1 * q1 / 9.0))
            assert sep_noiseless(C13, q, RAYLEIGH).value == pytest.approx(
                want, abs=1e-13
            )

    @pytest.mark.parametrize("m,bits", [(1, 4), (1, 5), (1, 6), (2, 5), (4, 4)])
    def test_matches_mpmath_floor(self, m, bits):
        # optimal_floor_log2's design: ratio-3 boundaries from its closed-form q_1*, with
        # floors down to 1e-28. At m = 1 the float boundaries leave middle collision
        # intervals open by an ulp, which mpmath takes as closed: 2.6e-5 relative at 5 bits
        k = 2 ** (bits - 1) - 1
        r2 = 9.0 ** (k - 1)
        q1 = math.sqrt(math.log(9.0 * r2) / (r2 - 1.0 / 9.0))
        q = Quantizer(tuple(q1 * 3.0 ** j for j in range(k)), bits)
        assert sep_noiseless(C13, q, ChannelModel(m)).value == pytest.approx(
            2.0 ** optimal_floor_log2(m, bits), rel=1e-4, abs=0.0)

    def test_resolution_improves_floor(self):
        # optimized ratio-1/3 boundary chains: higher b strictly better
        prev = 1.0
        for bits in (2, 3, 4):
            k = 2 ** (bits - 1) - 1
            q1 = Q1_STAR / 3.0 ** ((k - 1) // 2)  # chain centered on q*
            bounds = tuple(q1 * 3.0**j for j in range(k))
            val = sep_noiseless(C13, Quantizer(bounds, bits), RAYLEIGH).value
            assert val < prev
            prev = val


class TestFloorBounds:
    @pytest.mark.parametrize("m", [0.5, 1, 2.5])
    def test_lower_bound_is_the_floor_at_four_pam(self, m):
        # at M = 4 and 2 bits f_L sums sep_noiseless' two collision masses, bit for bit
        ch = ChannelModel(m)
        for q1 in np.linspace(0.2, 4.0, 20):
            q = Quantizer((float(q1),), 2)
            assert sep_noiseless(C13, q, ch).value == floor_bounds(C13, q, ch)[0].value

    def test_equality_at_four_pam(self):
        q = Quantizer((Q1_STAR,), bits=2)
        f_lo, f_hi = floor_bounds(C13, q, RAYLEIGH)
        exact = sep_noiseless(C13, q, RAYLEIGH).value
        assert f_lo.value == pytest.approx(exact, abs=1e-12)
        assert f_hi.value == pytest.approx(exact, abs=1e-12)

    def test_top_boundary_beyond_float_square(self):
        # (1e200)^2 overflows a float; the high tail is then exactly 0
        f_lo, f_hi = floor_bounds(C13, Quantizer((1.0, 2.0, 1e200), 3), RAYLEIGH)
        low = 0.5 * -math.expm1(-1.0 / 9.0)
        assert f_lo.value == pytest.approx(low, rel=1e-15)
        assert f_hi.value == pytest.approx(low, rel=1e-15)

    def test_sandwich_at_eight_pam(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            rho = float(rng.uniform(0.2, 0.7))
            cons = Constellation.geometric(rho, 8)
            q1 = float(rng.uniform(0.2, 1.0)) * cons.amplitudes[0]
            bounds = tuple(q1 / rho**j for j in range(3))
            q = Quantizer(bounds, bits=3)
            ch = ChannelModel(int(rng.integers(1, 4)), 1.0)
            f_lo, f_hi = floor_bounds(cons, q, ch)
            exact = sep_noiseless(cons, q, ch).value
            assert f_lo.value <= exact + 1e-12
            assert exact <= f_hi.value + 1e-12

    def test_bounds_vanish_with_bits(self):
        prev = 1.0
        for bits in (2, 3, 4):
            k = 2 ** (bits - 1) - 1
            q1 = Q1_STAR / 3.0 ** ((k - 1) // 2)
            bounds = tuple(q1 * 3.0**j for j in range(k))
            _, f_hi = floor_bounds(C13, Quantizer(bounds, bits), RAYLEIGH)
            assert f_hi.value < prev
            prev = f_hi.value


class TestFloorGeometric:
    def test_vanishes_along_schedule(self):
        ch = RAYLEIGH
        prev = 1.0
        for rho in (0.5, 0.3, 0.1, 0.03):
            val = floor_geometric(rho, 4, _schedule_q1(rho, 4, 4.0), ch, bits=3)
            assert val < prev
            prev = val
        assert prev < 1e-3

    def test_decreasing_in_bits(self):
        q1 = 0.5 * Constellation.geometric(0.8, 4).amplitudes[0]
        vals = [floor_geometric(0.8, 4, q1, RAYLEIGH, bits=b) for b in (3, 4, 5)]
        assert vals[0] > vals[1] > vals[2]

    def test_uniform_variant(self):
        q1 = _schedule_q1(0.3, 4, 3.0)
        val = floor_geometric(0.3, 4, q1, RAYLEIGH, bits=3, uniform=True)
        assert 0.0 < val < 1.0

    def test_regime_error(self):
        with pytest.raises(ValueError):
            floor_geometric(0.3, 8, 0.1, RAYLEIGH, bits=2)  # 2^b <= M - 2

    @pytest.mark.parametrize("q1", [math.nan, math.inf, 0.0])
    def test_q1_positive_and_finite(self, q1):
        # a NaN q1 once raised ArithmeticError, and +inf returned 0.5
        with pytest.raises(ValueError, match="q1 must be positive and finite"):
            floor_geometric(0.3, 4, q1, RAYLEIGH, 2)

    def test_vacuous_bound_is_one(self):
        # the raw bound here is 1.48: vacuous, and 1 is still a valid bound
        assert floor_geometric(0.9, 8, 0.1, RAYLEIGH, 3) == 1.0

    @pytest.mark.parametrize("uniform", [False, True])
    def test_bits_beyond_quantizer_maximum(self, uniform):
        # only q_1 and q_K are formed, so b is not held to MAX_BITS; the top tail
        # is 0 from b = 16 on, and the bound is its lower tail alone
        vals = [floor_geometric(0.3, 4, 0.01, RAYLEIGH, b, uniform=uniform) for b in (16, 20)]
        low = -math.expm1(-(0.01 / Constellation.geometric(0.3, 4).amplitudes[1]) ** 2)
        assert vals[0] == vals[1] == pytest.approx(0.5 * low, rel=1e-13)

    @pytest.mark.parametrize("uniform", [False, True])
    @pytest.mark.parametrize("bits", [1025, 2000])
    def test_bits_past_float_range(self, bits, uniform):
        # K = 2^(b-1) - 1 no longer converts to a float: q_K is +inf
        at = [floor_geometric(0.3, 4, 0.1, RAYLEIGH, b, uniform=uniform) for b in (60, bits)]
        assert at[1] == at[0]

    @pytest.mark.parametrize("rho, M, q1, m, omega, bits, uniform, value", [
        # values of the tail formula floor_geometric used before it called floor_bounds
        (0.3, 4, 0.05, 1, 1.0, 3, False, 0.013261507367351022),
        (0.5, 8, 0.02, 2, 1.5, 4, False, 0.00026799908022287293),
        (0.3, 4, 0.1, 1, 1.0, 3, True, 0.17352865197901027),
    ])
    def test_is_floor_bounds_upper_on_the_design(self, rho, M, q1, m, omega, bits, uniform,
                                                  value):
        ch = ChannelModel(m, omega)
        quant = Quantizer.uniform(q1, bits) if uniform else xg_design(rho, q1, M, bits)[1]
        got = floor_geometric(rho, M, q1, ch, bits, uniform=uniform)
        assert got == floor_bounds(Constellation.geometric(rho, M), quant, ch)[1].value
        assert got == pytest.approx(value, rel=1e-13)


class TestAqnm:
    def test_perfect_resolution_no_floor(self):
        c = C13.normalized()
        assert sep_aqnm(c, 1e12, 1.0).value < 1e-5

    def test_coarse_resolution_floor(self):
        c = C13.normalized()
        lo = sep_aqnm(c, 1e10, 0.9).value
        hi = sep_aqnm(c, 1e14, 0.9).value
        assert lo == pytest.approx(hi, rel=1e-3)
        assert lo > 1e-3

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            sep_aqnm(C13, 10.0, 0.0)
        with pytest.raises(ValueError):
            sep_aqnm(C13, 10.0, 1.2)

    @pytest.mark.parametrize("snr", [0.0, -1.0, math.nan, math.inf])
    def test_snr_positive_and_finite(self, snr):
        # the noise variance comes from sigma2_from_snr, as in every noisy engine
        with pytest.raises(ValueError, match="SNR must be positive and finite"):
            sep_aqnm(C13, snr, 0.9)

    def test_lloyd_max_known_table(self):
        # classic minimum-distortion Gaussian quantizer gains
        for bits, alpha in ((1, 0.6366), (2, 0.8825), (3, 0.96546), (4, 0.990503)):
            assert default_alpha(bits) == pytest.approx(alpha, abs=5e-4)

    def test_lloyd_max_one_bit_analytic(self):
        # 1-bit optimum: levels +-sqrt(2/pi), distortion 1 - 2/pi
        bounds, levels, distortion = lloyd_max_gaussian(1)
        assert levels[-1] == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-9)
        assert distortion == pytest.approx(1.0 - 2.0 / math.pi, abs=1e-9)

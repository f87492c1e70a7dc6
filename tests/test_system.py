"""Data model: constellations, quantizers, channel, energy/SNR bookkeeping."""
import math

import mpmath
import numpy as np
import pytest

from pamq import (
    ChannelModel,
    Constellation,
    Quantizer,
    equidistant_constellation,
    sigma2_from_snr,
    symbol_energy,
)
from pamq.system import MAX_BITS


class TestConstellation:
    def test_symbol_energy_equidistant(self):
        assert symbol_energy(Constellation((1.0, 3.0))) == pytest.approx(5.0)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            Constellation((1.0,))

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Constellation((3.0, 1.0))
        with pytest.raises(ValueError):
            Constellation((-1.0, 3.0))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_finite_enforced(self, bad):
        # Quantizer's rule: positive, finite, strictly increasing
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            Constellation((1.0, bad))

    def test_power_of_two(self):
        with pytest.raises(ValueError):
            Constellation((1.0, 2.0, 3.0))

    def test_normalized_unit_energy(self):
        c = Constellation((1.0, 3.0)).normalized()
        assert sum(a * a for a in c.amplitudes) == pytest.approx(1.0, abs=1e-14)

    def test_equidistant_shape(self):
        c = equidistant_constellation(8)
        assert c.amplitudes == (1.0, 3.0, 5.0, 7.0)


class TestGeometric:
    def test_normalization_constraint(self):
        # the top amplitude is C * rho
        rho = 0.5
        c = Constellation.geometric(rho, 4).amplitudes[-1] / rho
        total = c**2 * sum(rho ** (2 * i) for i in range(1, 3))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_unit_energy(self):
        for rho, M in ((0.5, 4), (0.3, 8), (0.8, 4)):
            c = Constellation.geometric(rho, M)
            assert symbol_energy(c) == pytest.approx(2.0 / M, abs=1e-12)

    def test_adjacent_ratio_exact(self):
        c = Constellation.geometric(0.4, 8)
        a = c.amplitudes
        for lo, hi in zip(a, a[1:]):
            assert lo / hi == pytest.approx(0.4, abs=1e-14)

    def test_ratio_domain(self):
        with pytest.raises(ValueError):
            Constellation.geometric(1.0, 4)
        with pytest.raises(ValueError):
            Constellation.geometric(0.0, 4)

    @pytest.mark.parametrize("M", [0, 2, 5, 6])
    def test_size_domain(self, M):
        with pytest.raises(ValueError, match="power of 2"):
            Constellation.geometric(0.5, M)

    @pytest.mark.parametrize("rho, M, amplitudes", [
        # float.hex of the amplitudes of the separate geometric type this replaced
        (0.3, 4, ["0x1.263e862c542d5p-2", "0x1.ea6834f48c4b8p-1"]),
        (0.4, 8, ["0x1.e0ace88101a6ap-5", "0x1.2c6c1150a1082p-3", "0x1.778715a4c94a3p-2",
                  "0x1.d568db0dfb9cap-1"]),
        (0.2, 16, ["0x1.a4d1b2bb71d73p-17", "0x1.07030fb527267p-14", "0x1.48c3d3a270f01p-12",
                   "0x1.9af4c88b0d2c0p-10", "0x1.00d8fd56e83b8p-7", "0x1.410f3caca24a6p-5",
                   "0x1.91530bd7cadcfp-3", "0x1.f5a7cecdbd942p-1"]),
    ])
    def test_bits(self, rho, M, amplitudes):
        assert [a.hex() for a in Constellation.geometric(rho, M).amplitudes] == amplitudes


class TestQuantizer:
    def test_boundary_count(self):
        q = Quantizer((0.5, 1.0, 1.5), bits=3)
        assert q.K == 3
        with pytest.raises(ValueError):
            Quantizer((0.5, 1.0), bits=3)

    def test_implicit_edges(self):
        q = Quantizer((1.0,), bits=2)
        assert q.boundary(0) == 0.0
        assert q.boundary(1) == 1.0
        assert q.boundary(2) == math.inf

    @pytest.mark.parametrize("y", [-1, -2, 3])
    def test_boundary_index_out_of_range(self, y):
        # a negative y would otherwise index the edges from the end
        with pytest.raises(IndexError, match="boundary index"):
            Quantizer((1.0,), bits=2).boundary(y)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Quantizer((1.0, 0.5, 2.0), bits=3)

    def test_uniform_materialization(self):
        q = Quantizer.uniform(0.25, bits=3)
        assert q.positive_boundaries == (0.25, 0.5, 0.75)
        for step in (0.0, -0.25):
            with pytest.raises(ValueError, match="step must be positive"):
                Quantizer.uniform(step, bits=3)
        for bits in (1, 0, -1):
            with pytest.raises(ValueError, match="bits must be >= 2"):
                Quantizer.uniform(0.25, bits)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_finite_enforced(self, bad):
        with pytest.raises(ValueError, match="boundaries must be finite"):
            Quantizer((1.0, 2.0, bad), bits=3)

    def test_bits_maximum(self):
        assert Quantizer.uniform(1.0, MAX_BITS).K == 2 ** (MAX_BITS - 1) - 1
        too_many = MAX_BITS + 1  # one above: a missing check costs little memory
        for build in (lambda: Quantizer((1.0,), too_many),
                      lambda: Quantizer.uniform(1.0, too_many)):
            with pytest.raises(ValueError, match=f"bits must be <= {MAX_BITS}"):
                build()


class TestChannelAndSnr:
    def test_snr_round_trip(self):
        c = Constellation((1.0, 3.0))  # E_s = 5
        assert sigma2_from_snr(c, 10.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("snr", [0.0, -1.0, math.inf, math.nan])
    def test_snr_positive_and_finite(self, snr):
        # the noiseless limit is snr=None in the SEP engines, not snr=inf
        with pytest.raises(ValueError, match="SNR must be positive and finite"):
            sigma2_from_snr(Constellation((1.0, 3.0)), snr)

    def test_shape_domain(self):
        for m in (0.4, math.inf, math.nan):
            with pytest.raises(ValueError, match="Nakagami shape m must be finite and >= 1/2"):
                ChannelModel(m, 1.0)
        ChannelModel(0.5, 1.0)  # boundary value allowed

    @pytest.mark.parametrize("omega", [0.0, -1.0, math.inf, math.nan])
    def test_omega_positive_and_finite(self, omega):
        # NaN and +inf once passed the check omega <= 0 and failed in the SEP engines
        with pytest.raises(ValueError, match="omega must be positive and finite"):
            ChannelModel(1, omega)


def _law_reference(m, omega, z):
    """(P(Z > z), P(Z <= z), f_Z(z)) of Z ~ Gamma(m, omega/m) at 30 digits, each tail
    taken on its own side."""
    with mpmath.workdps(30):
        m, omega, z = mpmath.mpf(m), mpmath.mpf(omega), mpmath.mpf(z)
        x = m * z / omega
        upper = mpmath.gammainc(m, x, mpmath.inf, regularized=True)
        lower = mpmath.gammainc(m, 0, x, regularized=True)
        if mpmath.isinf(z):
            pdf = 0
        elif z == 0 and m < 1:
            pdf = mpmath.inf  # z^(m-1) at 0, which mpmath does not raise to a negative power
        else:
            pdf = (m / omega) ** m * z ** (m - 1) * mpmath.exp(-x) / mpmath.gamma(m)
        return float(upper), float(lower), float(pdf)


class TestChannelLaw:
    """ChannelModel owns Z's law: survival, cdf and density against mpmath, and
    gains against the draw Monte Carlo made before it moved there."""

    @pytest.mark.parametrize("z", [0.0, 1e-3, 1.0, 30.0, math.inf])
    @pytest.mark.parametrize("omega", [0.5, 2.0])
    @pytest.mark.parametrize("m", [0.5, 1, 2.5, 40])
    def test_against_mpmath(self, m, omega, z):
        # the tolerance tests/test_specfun.py allows scipy's incomplete gamma pair
        ch = ChannelModel(m, omega)
        upper, lower, pdf = _law_reference(m, omega, z)
        assert ch.survival(z) == pytest.approx(upper, rel=1e-13)
        assert ch.cdf(z) == pytest.approx(lower, rel=1e-13)
        assert ch.density(z) == pytest.approx(pdf, rel=1e-13)

    @pytest.mark.parametrize("lo, hi", [(0.0, 1e-12), (1e-6, 2e-6), (0.3, 3.0), (0.5, math.inf),
                                        (30.0, 31.0), (40.0, math.inf), (2.0, 2.0)])
    @pytest.mark.parametrize("m", [0.5, 1, 2.5])
    def test_mass_on_its_small_side(self, m, lo, hi):
        # tail masses keep their relative precision: 1 - survival or 1 - cdf would not
        with mpmath.workdps(30):
            x = [m * mpmath.mpf(z) for z in (lo, hi)]
            want = mpmath.gammainc(m, x[0], x[1], regularized=True)
        assert ChannelModel(m).mass(lo, hi) == pytest.approx(float(want), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("m, omega", [(0.5, 2.0), (1, 1.0), (2.5, 0.5)])
    def test_gains_are_the_gamma_draw(self, m, omega):
        # the draw montecarlo made itself before: standard_gamma(m) scaled by omega / m
        ss = np.random.SeedSequence(7, spawn_key=(1, 2))
        a, b = (np.random.Generator(np.random.Philox(ss)) for _ in range(2))
        want = a.standard_gamma(m, size=(1000, 2))
        want *= omega / m
        got = ChannelModel(m, omega).gains(b, (1000, 2))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert a.integers(0, 2**62) == b.integers(0, 2**62)

"""Data model: PAM constellations (equidistant, geometric or given), symmetric
quantizers, the fading channel, which owns the law of the fade Z, and the
geometric design family's one rule.

All amplitudes and boundaries are dimensionless and stored raw; unit-energy
normalization is always an explicit step, never implicit. Types are frozen
dataclasses and safe to share between workers.
"""
import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy import special

__all__ = [
    "Constellation",
    "Quantizer",
    "ChannelModel",
    "equidistant_constellation",
    "symbol_energy",
    "sigma2_from_snr",
]

MAX_BITS = 16  # largest ADC resolution: 2^15 - 1 boundaries


def _boundary_count(bits, max_bits=MAX_BITS):
    """K = 2^(b-1) - 1 positive boundaries of a b-bit quantizer, 2 <= b <= max_bits."""
    if not 2 <= bits <= max_bits:
        raise ValueError("bits must be >= 2" if bits < 2 else f"bits must be <= {max_bits}")
    return 2 ** (bits - 1) - 1


def _geometric_boundary(q1, rho, y):
    """q_y = q1 / rho^(y-1) of boundary ratio rho, or +inf where that leaves float64."""
    r = rho ** (y - 1)
    return q1 / r if r > 0.0 else math.inf


def _check_size(M):
    """Reject a constellation size M that is not a power of 2, M >= 4."""
    if M < 4 or M & (M - 1):
        raise ValueError("M must be a power of 2, M >= 4")


def _check_count(value, name, low, high=math.inf):
    """Reject a count or seed that is not an integer (a bool is not one) from low to high."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, not {value!r}")
    if not low <= value <= high:
        raise ValueError(f"{name} must be >= {low}" if high == math.inf
                         else f"{name} must be {low} to {high}")


def _geometric_scale(rho, M):
    """C of the geometric constellation of ratio rho in (0, 1) and size M."""
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    _check_size(M)
    return 1.0 / math.sqrt(float(np.sum(rho ** (2 * np.arange(1, M // 2 + 1)))))


def _schedule_q1(rho, M, a):
    """q_1 = sqrt(C^2 rho^a) of the geometric design family at exponent a."""
    return math.sqrt(_geometric_scale(rho, M) ** 2 * rho ** a)


def _family_levels(M, bits, uniform):
    """Quantizer levels of the geometric design family, b >= 2: 2^b with matching-ratio
    boundaries, or 4 for the uniform step, derived for M = 4 only; more than M - 2."""
    _check_size(M)
    _boundary_count(bits, max_bits=math.inf)
    if uniform and M != 4:
        raise ValueError("the uniform step is derived for M = 4 only")
    levels = 4 if uniform else 2**bits
    if levels <= M - 2:
        raise ValueError("the geometric design family requires 2^b > M - 2")
    return levels


def _as_tuple(values):
    return tuple(float(v) for v in values)


def _check_levels(values, name):
    """Reject positive levels (amplitudes or boundaries) that are not positive,
    finite and strictly increasing: the rule of Constellation and Quantizer."""
    if values[0] <= 0:
        raise ValueError(f"{name} must be positive")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{name} must be finite")
    for a, b in zip(values, values[1:]):
        if a >= b:
            raise ValueError(f"{name} must be strictly increasing")


@dataclass(frozen=True)
class Constellation:
    """Positive half of a symmetric M-PAM constellation {+-rho_i}.

    ``amplitudes`` holds the M/2 positive finite amplitudes in strictly
    increasing order; the full constellation is the union with its mirror image.
    """

    amplitudes: tuple = field()

    def __post_init__(self):
        amps = _as_tuple(self.amplitudes)
        object.__setattr__(self, "amplitudes", amps)
        _check_size(2 * len(amps))
        _check_levels(amps, "amplitudes")

    @property
    def M(self):
        return 2 * len(self.amplitudes)

    @property
    def half_size(self):
        return len(self.amplitudes)

    def normalized(self):
        """Rescaled copy with unit total energy (sum of rho_i^2 = 1)."""
        return Constellation(_unit_energy(self.amplitudes))

    @classmethod
    def geometric(cls, rho, M):
        """Geometric constellation X_g of ratio rho in (0, 1): amplitudes C * rho^(M/2 - i),
        with C^2 * sum_{i=1}^{M/2} rho^(2i) = 1, so the positive half has unit energy."""
        c = _geometric_scale(rho, M)
        return cls(tuple(c * rho ** (M // 2 - i) for i in range(M // 2)))


def equidistant_constellation(M):
    """Standard equidistant M-PAM: amplitudes {2i+1}."""
    _check_size(M)
    return Constellation(tuple(2 * i + 1 for i in range(M // 2)))


@dataclass(frozen=True)
class Quantizer:
    """Symmetric b-bit quantizer given by its K = 2^(b-1) - 1 positive
    finite boundaries; q_0 = 0 and q_(K+1) = +inf are implicit.

    Output indices are signed: y in {-(K+1), ..., -1, 1, ..., K+1}.
    """

    positive_boundaries: tuple
    bits: int

    def __post_init__(self):
        bounds = _as_tuple(self.positive_boundaries)
        object.__setattr__(self, "positive_boundaries", bounds)
        k = _boundary_count(self.bits)
        if len(bounds) != k:
            raise ValueError(f"expected {k} boundaries for {self.bits} bits")
        _check_levels(bounds, "boundaries")

    @classmethod
    def uniform(cls, step, bits):
        """Uniform quantizer with step delta: q_y = y * delta."""
        if step <= 0:
            raise ValueError("step must be positive")
        return cls(tuple(step * y for y in range(1, _boundary_count(bits) + 1)), bits)

    @property
    def K(self):
        return len(self.positive_boundaries)

    @property
    def edges(self):
        """(q_0, q_1, ..., q_(K+1)) = (0, the positive boundaries, +inf): q_y is edges[y]."""
        return (0.0, *self.positive_boundaries, math.inf)

    def boundary(self, y):
        """q_y for y in [0 .. K+1], with q_0 = 0 and q_(K+1) = +inf."""
        if not 0 <= y <= self.K + 1:
            raise IndexError(f"boundary index {y} outside 0 to {self.K + 1}")
        return self.edges[y]


@dataclass(frozen=True)
class ChannelModel:
    """Nakagami-m fading, |h| ~ Nakagami(m, omega), so Z = |h|^2 ~ Gamma(m, omega/m): every
    engine evaluates and draws Z's law here, on an unchecked float z >= 0 (+inf included)."""

    m: float
    omega: float = 1.0

    def __post_init__(self):
        if not 0.5 <= self.m < math.inf:
            raise ValueError("Nakagami shape m must be finite and >= 1/2")
        if not 0 < self.omega < math.inf:
            raise ValueError("omega must be positive and finite")

    @property
    def integer_m(self):
        return float(self.m).is_integer()

    def survival(self, z):
        """P(Z > z), 0 at +inf without a scipy call."""
        return float(special.gammaincc(self.m, self.m * z / self.omega)) if z < math.inf else 0.0

    def cdf(self, z):
        """P(Z <= z), 0 at z = 0 and 1 at +inf without a scipy call."""
        if 0.0 < z < math.inf:
            return float(special.gammainc(self.m, self.m * z / self.omega))
        return 0.0 if z == 0.0 else 1.0

    @functools.cached_property
    def _density_terms(self):
        """(m ln(m/omega), m - 1, ln Gamma(m)) of ln f_Z, computed once per channel."""
        return self.m * math.log(self.m / self.omega), self.m - 1.0, float(special.gammaln(self.m))

    def density(self, z):
        """f_Z(z); at z = 0 its limit, m/omega for m = 1 and +inf for m < 1."""
        lead, m1, lg = self._density_terms
        if 0.0 < z < math.inf:
            return math.exp(lead + m1 * math.log(z) - self.m * z / self.omega - lg)
        if z == 0.0 and m1 <= 0.0:
            return math.exp(lead - lg) if m1 == 0.0 else math.inf
        return 0.0

    def gains(self, rng, shape):
        """An array of draws of Z of the given shape from the NumPy Generator rng."""
        z = rng.standard_gamma(self.m, size=shape)
        z *= self.omega / self.m
        return z


def _sum_squares(values):
    """sum(v^2), bit for bit np.sum(np.asarray(values) ** 2): in order below 8 terms."""
    if len(values) >= 8:
        return float(np.sum(np.asarray(values) ** 2))
    return functools.reduce(lambda total, v: total + v * v, values, 0.0)


def _unit_energy(amps):
    """amps over the square root of their sum of squares: normalized()'s floats."""
    norm = math.sqrt(_sum_squares(amps))
    return tuple(a / norm for a in amps)


def symbol_energy(c):
    """Average symbol energy E_s = (2/M) * sum(rho_i^2), sigma^2 at SNR 1."""
    return _sigma2(c.amplitudes, 1.0)


def sigma2_from_snr(c, snr_linear):
    """Noise variance realizing a given linear SNR: sigma^2 = E_s / SNR.

    sigma^2 is the complex-noise variance; the in-phase branch seen by the
    ADC has variance sigma^2 / 2.
    """
    return _sigma2(c.amplitudes, snr_linear)


def _sigma2(amps, snr_linear):
    """sigma2_from_snr of the positive amplitudes amps."""
    if not 0 < snr_linear < math.inf:
        raise ValueError("SNR must be positive and finite")
    return 2.0 * _sum_squares(amps) / (2 * len(amps)) / snr_linear

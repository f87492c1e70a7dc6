"""Scalar special functions used by the error-probability engines.

Pure functions of real scalars (q_func and the incomplete gamma pair also
broadcast over ndarrays); the SEP engines call _q_float and moment_primitive
unchecked, and take the fade's law from ChannelModel. Incomplete gamma functions
follow the integrand t^(m-1) e^(-t); the regularized pair sums to 1.
"""
import math

import numpy as np
from scipy import special

__all__ = [
    "q_func",
    "upper_gamma_reg",
    "lower_gamma_reg",
    "f_integral",
]

SQRT2 = math.sqrt(2.0)
SQRT_2PI = math.sqrt(2.0 * math.pi)


def q_func(x):
    """Gaussian tail probability Q(x) = P(N(0,1) > x).

    Computed through erfc so both tails keep full relative accuracy.
    Takes a real scalar or an ndarray (not a list); returns float64.
    """
    return 0.5 * special.erfc(x / SQRT2)


def _q_float(x):
    """q_func(x) of a Python float as a Python float, bit for bit, without a NumPy
    scalar in between; unchecked."""
    return 0.5 * float(special.erfc(x / SQRT2))


def upper_gamma_reg(m, x):
    """Regularized upper incomplete gamma Gamma(m, x) / Gamma(m).

    Decreasing in x, equals 1 at x = 0. Requires m > 0, x >= 0.
    """
    if np.any(np.asarray(m) <= 0):
        raise ValueError("shape parameter m must be positive")
    if np.any(np.asarray(x) < 0):
        raise ValueError("x must be nonnegative")
    return special.gammaincc(m, x)


def lower_gamma_reg(m, x):
    """Regularized lower incomplete gamma gamma(m, x) / Gamma(m)."""
    if np.any(np.asarray(m) <= 0):
        raise ValueError("shape parameter m must be positive")
    if np.any(np.asarray(x) < 0):
        raise ValueError("x must be nonnegative")
    return special.gammainc(m, x)


def moment_primitive(u, l):
    """Integral of t^l exp(-t^2/2) from 0 to float u (may be +-inf); unchecked."""
    if u == 0.0:
        return 0.0
    s = 0.5 * (l + 1)
    if math.isinf(u):
        tail = special.gamma(s)
    else:
        tail = special.gammainc(s, 0.5 * u * u) * special.gamma(s)
    val = 2.0 ** (0.5 * (l - 1)) * tail
    # even l: odd primitive in u; odd l: even primitive (sgn(u)^(l+1) factor)
    if l % 2 == 0 and u < 0.0:
        val = -val
    return val


def f_integral(a, b, l):
    """Gaussian moment integral of u^l exp(-u^2/2) from b to a.

    Endpoints may be +-inf. Antisymmetric in (a, b). The closed form uses
    the lower incomplete gamma; for even l the constant sqrt(pi)(l-1)!!/sqrt(2)
    is Gamma((l+1)/2) * 2^((l-1)/2), which is folded into the primitive.
    """
    l = int(l)
    if l < 0:
        raise ValueError("moment order l must be >= 0")
    return moment_primitive(float(a), l) - moment_primitive(float(b), l)

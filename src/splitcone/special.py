"""Bessel functions J0, Y0, K0, K_n, the renormalized family Kt_n, and
the complex Gamma function.

The evaluators are thin wrappers over `scipy.special`: they check the
domain (rejecting NaN), keep the Gamma poles an error, and return a Python
float for scalar input.  Kt_n and its closed-form derivative are built on
top of `bessel_kn`.

The hyperbolic integral representations (sin/cos of u*cosh t, cos of
u*sinh t, exp of -u*cosh t) are wired up in `oracles` as independent
checks; they never feed the production values.
"""

from __future__ import annotations

import numpy as np
from scipy import special as sp

__all__ = [
    "bessel_j0",
    "bessel_y0",
    "bessel_k0",
    "bessel_kn",
    "ktilde",
    "ktilde_deriv_2r",
    "gamma_complex",
]


def _as_positive_array(u, name, allow_zero=False):
    x = np.asarray(u, dtype=float)
    if allow_zero:
        if not np.all(x >= 0):
            raise ValueError(f"{name} requires a nonnegative argument")
    else:
        if not np.all(x > 0):
            raise ValueError(f"{name} requires a positive argument")
    return x


def _like_input(out):
    return out if out.ndim else float(out)


def bessel_j0(u):
    """Bessel function of the first kind, order zero, u >= 0."""
    return _like_input(sp.j0(_as_positive_array(u, "bessel_j0", allow_zero=True)))


def bessel_y0(u):
    """Bessel function of the second kind, order zero, u > 0."""
    return _like_input(sp.y0(_as_positive_array(u, "bessel_y0")))


def bessel_k0(u):
    """Modified Bessel function of the second kind, order zero, u > 0."""
    return _like_input(sp.k0(_as_positive_array(u, "bessel_k0")))


def bessel_kn(n, u):
    """K_n for integer n of either sign (K_{-n} = K_n); an integer array of
    orders broadcasts against u."""
    x = _as_positive_array(u, "bessel_kn")
    return _like_input(sp.kn(np.abs(np.asarray(n, dtype=int)), x))


def ktilde(n, r):
    """Renormalized K-Bessel: Kt_n(r) = 2^n r^-n K_n(r), any integer n.

    Negative orders use K_{-n} = K_n with the same renormalization, which is
    the unique convention under which the three-term recurrence
    r^2 Kt_{n+1}(2r) = n Kt_n(2r) + Kt_{n-1}(2r) holds across n = 0.
    """
    r = _as_positive_array(r, "ktilde")
    n = int(n)
    return (2.0**n) * r ** (-float(n)) * bessel_kn(n, r)


def ktilde_deriv_2r(n, r):
    """Closed form of d/dr Kt_n(2r), namely -2r Kt_{n+1}(2r)."""
    r = _as_positive_array(r, "ktilde_deriv_2r")
    return -2.0 * r * ktilde(n + 1, 2.0 * r)


def gamma_complex(z):
    """Gamma function for complex argument; poles (nonpositive integers)
    are rejected."""
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise ValueError(f"gamma_complex pole at z = {z}")
    return complex(sp.gamma(z))

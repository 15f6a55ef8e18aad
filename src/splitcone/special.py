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
    """u as a float array, checked once per public call (NaN fails)."""
    x = np.asarray(u, dtype=float)
    if allow_zero:
        if not (x >= 0).all():
            raise ValueError(f"{name} requires a nonnegative argument")
    elif not (x > 0).all():
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


def _kn(n, x):
    """K_n on an already checked argument; K_{-n} = K_n."""
    return sp.kn(np.abs(np.asarray(n, dtype=int)), x)


def _ktilde(n, x, kn):
    """Kt_n(x) from K_n(x), integer n."""
    return (2.0**n) * x ** (-float(n)) * kn


def bessel_kn(n, u):
    """K_n for integer n of either sign (K_{-n} = K_n); an integer array of
    orders broadcasts against u."""
    return _like_input(_kn(n, _as_positive_array(u, "bessel_kn")))


def ktilde(n, r):
    """Renormalized K-Bessel: Kt_n(r) = 2^n r^-n K_n(r), any integer n.

    Negative orders use K_{-n} = K_n with the same renormalization, which is
    the unique convention under which the three-term recurrence
    r^2 Kt_{n+1}(2r) = n Kt_n(2r) + Kt_{n-1}(2r) holds across n = 0.

    A sequence of orders gives one row per order, each bit for bit the
    single-order value, from one K_n call.
    """
    x = _as_positive_array(r, "ktilde")
    if np.ndim(n):
        kns = _kn(np.reshape(n, (-1,) + (1,) * x.ndim), x)
        return np.stack([_ktilde(int(m), x, kn) for m, kn in zip(n, kns)])
    n = int(n)
    return _ktilde(n, x, _kn(n, x))


def ktilde_deriv_2r(n, r):
    """Closed form of d/dr Kt_n(2r), namely -2r Kt_{n+1}(2r)."""
    r = _as_positive_array(r, "ktilde_deriv_2r")
    n, x = int(n + 1), 2.0 * r
    return -2.0 * r * _ktilde(n, x, _kn(n, x))


def gamma_complex(z):
    """Gamma function for complex argument; poles (nonpositive integers)
    are rejected."""
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise ValueError(f"gamma_complex pole at z = {z}")
    return complex(sp.gamma(z))

"""Independent integral-representation oracles for the Bessel functions.

These follow the hyperbolic representations

    J0(u) = (2/pi) int_0^inf sin(u cosh t) dt,
    Y0(u) = -(2/pi) int_0^inf cos(u cosh t) dt,
    K0(u) = int_0^inf cos(u sinh t) dt = int_0^inf exp(-u cosh t) dt,
    K_n(u) = int_0^inf exp(-u cosh t) cosh(n t) dt,

computed through the oscillatory engine or decaying-integrand quadrature,
never through the `scipy.special` evaluators in `special` that they are
meant to check.

`j0_oracle`, `y0_oracle` and `k0_oracle_cos` take a scalar or an array of
u: an array is one batched H call, whose elements are each bit for bit
their scalar values, and a scalar gives a Python float.  `k0_oracle_exp`
and `kn_oracle` take one u at a time.
"""

from __future__ import annotations

import numpy as np

from .numerics import integrate_decaying
from .quadrature import hyperbolic_oscillatory

__all__ = [
    "j0_oracle",
    "y0_oracle",
    "k0_oracle_cos",
    "k0_oracle_exp",
    "kn_oracle",
]


def _positive(u):
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise ValueError("oracle requires u > 0")
    return u


def _cosh_phase_integral(u):
    # int_-inf^inf exp(i u cosh t) dt, u > 0
    return hyperbolic_oscillatory(0.5 * u, 0.5 * u)


def _sinh_phase_integral(u):
    # int_-inf^inf exp(i u sinh t) dt, u > 0
    return hyperbolic_oscillatory(0.5 * u, -0.5 * u)


def j0_oracle(u):
    return (1.0 / np.pi) * _cosh_phase_integral(_positive(u)).imag


def y0_oracle(u):
    return -(1.0 / np.pi) * _cosh_phase_integral(_positive(u)).real


def k0_oracle_cos(u):
    return 0.5 * _sinh_phase_integral(_positive(u)).real


def k0_oracle_exp(u):
    if u <= 0:
        raise ValueError("oracle requires u > 0")
    f = lambda t: np.exp(-u * np.cosh(t))
    return float(np.real(integrate_decaying(f, 0.0, 1.0)))


def kn_oracle(n, u):
    if u <= 0:
        raise ValueError("oracle requires u > 0")
    n = abs(int(n))
    f = lambda t: np.exp(-u * np.cosh(t)) * np.cosh(n * t)
    return float(np.real(integrate_decaying(f, 0.0, 1.0)))

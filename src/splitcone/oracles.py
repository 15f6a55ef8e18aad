"""Independent integral-representation oracles for the Bessel functions.

These follow the hyperbolic representations

    J0(u) = (2/pi) int_0^inf sin(u cosh t) dt,
    Y0(u) = -(2/pi) int_0^inf cos(u cosh t) dt,
    K0(u) = int_0^inf cos(u sinh t) dt = int_0^inf exp(-u cosh t) dt,
    K_n(u) = int_0^inf exp(-u cosh t) cosh(n t) dt,

computed through the oscillatory engine or one fixed trapezoidal rule,
never through the `scipy.special` evaluators in `special` that they are
meant to check.

Every oracle takes a scalar or an array of u > 0 (finite): an array gives
an array whose elements are each bit for bit their scalar values, and a
scalar gives a Python float.  The H-based oracles make one batched H call.
"""

from __future__ import annotations

import numpy as np

from .quadrature import hyperbolic_oscillatory

__all__ = [
    "j0_oracle",
    "y0_oracle",
    "k0_oracle_cos",
    "kn_oracle",
]


def _positive(u):
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u) & (u > 0)):
        raise ValueError("oracle requires finite u > 0")
    return u


def _cosh_phase_integral(u):
    # int_-inf^inf exp(i u cosh t) dt, u > 0
    return hyperbolic_oscillatory(0.5 * u, 0.5 * u)[0]


def _sinh_phase_integral(u):
    # int_-inf^inf exp(i u sinh t) dt, u > 0
    return hyperbolic_oscillatory(0.5 * u, -0.5 * u)[0]


def j0_oracle(u):
    return (1.0 / np.pi) * _cosh_phase_integral(_positive(u)).imag


def y0_oracle(u):
    return -(1.0 / np.pi) * _cosh_phase_integral(_positive(u)).real


def k0_oracle_cos(u):
    return 0.5 * _sinh_phase_integral(_positive(u)).real


def kn_oracle(n, u):
    """K_n(u) = int_0^inf exp(-u cosh t) cosh(n t) dt by the trapezoidal
    rule: 64 equal steps on [0, T], halved weight at t = 0, where
    cosh T = 1 + (50 + 8|n|)/u puts the integrand below e^-50 (the 8|n|
    covers the growth of cosh(n t)).  The integrand is even and analytic
    in t, so the rule converges exponentially; against mpmath it is within
    1.3e-14 relative for u in [0.05, 200] and n = 0..5.
    """
    u = _positive(u)
    n = abs(int(n))
    h = np.arccosh(1.0 + (50.0 + 8.0 * n) / u) / 64
    t = h[..., None] * np.arange(65)
    f = np.exp(-u[..., None] * np.cosh(t)) * np.cosh(n * t)
    f[..., 0] *= 0.5
    k = h * f.sum(axis=-1)
    return k.item() if k.ndim == 0 else k

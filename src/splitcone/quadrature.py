"""Oscillatory quadrature engine.

The workhorse is the hyperbolic-phase primitive

    H(p, q, delta) = int_-inf^inf exp(i (p e^x + q e^-x)) exp(-delta e^-x) dx,

with p*q != 0 and delta >= 0.  Every oscillatory integral in the package
(the hyperbolic Bessel representations, the four kernel identities, and the
epsilon-regularized Fourier transforms) is an instance of H.

Strategy: a finite window around the phase minimum is integrated with
Gauss-Legendre panels whose lengths track the local frequency.  Past the
window, v = e^x (right) or v = e^-x (left) turns each end into
int_v0^inf exp(k v + b'/v) dv/v with Re k <= 0; on the complex ray
v = v0 - conj(k) t / |k| the factor exp(k v) decays like e^{-|k| t} and no
longer oscillates, so one fixed Gauss-Laguerre rule integrates it (steepest
descent after Huybrechs & Vandewalle, SIAM J. Numer. Anal. 44, 2006).
Panel sums run in fixed order; results are bit-stable regardless of worker
count.

The settings are module constants, not parameters: the window uses
Gauss-Legendre order 12 on at most PANEL_BUDGET panels, the tails start
at a phase rate of at least 40, and the gap between the 16- and 8-node
Laguerre rules must stay below 1e-6.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import panel_nodes, stable_sum

__all__ = [
    "PANEL_BUDGET",
    "QuadratureError",
    "hyperbolic_oscillatory",
]

# Panels per 1-d window before H gives up with QuadratureError.
PANEL_BUDGET = 4000

_GL_ORDER = 12
# Smallest phase rate at which the ray tails take over from the window.
_U_FLOOR = 40.0
# Largest tail truncation estimate H accepts.
_TAIL_BUDGET = 1e-6
_EPS = np.finfo(float).eps


class QuadratureError(RuntimeError):
    """Raised when an integral cannot be certified within its budget."""


# Gauss-Laguerre rules on [0, inf) for the tails: the 16-node rule gives
# the value, its gap to the 8-node rule the error estimate.
_LAGUERRE = (np.polynomial.laguerre.laggauss(16), np.polynomial.laguerre.laggauss(8))


def _ray_tail(k, b, d, v0):
    """int_v0^inf exp(k v + (i b - d)/v) dv/v for Re k <= 0, k != 0.

    Integrated on the ray v = v0 + c t, c = -conj(k)/|k|, which stays in
    Re v >= v0 and on which exp(k v) = exp(k v0) e^{-|k| t} decays without
    oscillating.  Returns (value, |16-node - 8-node|).
    """
    r = abs(k)
    c = -k.conjugate() / r
    scale = np.exp(k * v0) * c / r
    g = 1j * b - d
    sums = []
    for s, w in _LAGUERRE:
        v = v0 + (c / r) * s
        sums.append(scale * np.dot(w, np.exp(g / v) / v))
    val, coarse = sums
    return val, abs(val - coarse)


def _tails(p, q, delta, x_left, x_right):
    """Both ends of H outside [x_left, x_right], with v = e^x on the right
    and v = e^-x on the left; the damping rides on k (left) or on the 1/v
    term (right).  Returns (value, error estimate)."""
    t_right, e_right = _ray_tail(1j * p, q, delta, math.exp(x_right))
    t_left, e_left = _ray_tail(1j * q - delta, p, 0.0, math.exp(-x_left))
    return t_right + t_left, e_right + e_left


def _phase(p, q, x):
    return p * np.exp(x) + q * np.exp(-x)


def _dphase(p, q, x):
    return p * np.exp(x) - q * np.exp(-x)


def _build_breaks(p, q, delta, x_from, x_to, budget):
    """Breakpoints marching from x_from to x_to (either direction), tracking
    local frequency, phase curvature and the damping profile."""
    if x_to == x_from:
        return [x_from]
    sgn = 1.0 if x_to > x_from else -1.0
    # phase'' = phase and phase^2 = phase'^2 + E, so the quadratic phase
    # change of a panel, |phase| step^2 / 2, can pass pi under the frequency
    # rule below only near a strong saddle, where E > E_saddle
    E = 4.0 * p * q
    saddle = E > (2.0 * math.pi / 0.4**2) ** 2 - (math.pi / 0.4) ** 2
    xs = [x_from]
    x = x_from
    for _ in range(budget):
        freq = abs(_dphase(p, q, x))
        step = min(0.4, math.pi / max(1.0, freq))
        if saddle:
            curv = math.sqrt(freq * freq + E)
            if 0.5 * curv * step * step > math.pi:
                step = math.sqrt(2.0 * math.pi / curv)
        damp = delta * math.exp(-x) if delta > 0 else 0.0
        if damp > 1.0:
            step = min(step, 1.0 / damp)
        x = x + sgn * step
        if (x_to - x) * sgn <= 0:
            xs.append(x_to)
            return xs
        xs.append(x)
    raise QuadratureError("panel budget exhausted in oscillatory window")


def _window(p, q, delta):
    """Ends (x_left, x_right) of H's panel window, for p > 0.  Past them the
    ray tails take over, where the phase rate has reached u_cut."""
    E = 4.0 * p * q
    x_c = 0.5 * math.log(abs(q) / p)
    u_cut = max(_U_FLOOR, 3.6 * math.sqrt(abs(E)), 1.6 * delta * p)

    # Right window end: first x >= x_c with phase' >= u_cut (phase ~ p e^x).
    x_right = math.log((u_cut + math.sqrt(u_cut * u_cut + abs(E) + 4.0)) / (2.0 * p))
    x_right = max(x_right, x_c + 0.5)

    # Left side, mirrored (y = -x): integrand exp(i(q e^y + p e^-y)) with
    # damping delta*e^y now on the growing exponential.
    uq_cut = max(_U_FLOOR, 3.6 * math.sqrt(abs(E)), 2.0 * delta * p)
    y_right = math.log((uq_cut + math.sqrt(uq_cut * uq_cut + abs(E) + 4.0)) / (2.0 * abs(q)))
    y_right = max(y_right, -x_c + 0.5)
    return -y_right, x_right


def _undamped_error_bound(p, q):
    """Error bound for H(p, q, 0): the tails' two-rule gap plus a rounding
    of a few ulp in each window node's phase, up to u_cut."""
    if p < 0.0:  # H(p, q) = conj H(-p, -q)
        p, q = -p, -q
    x_left, x_right = _window(p, q, 0.0)
    tails = _tails(p, q, 0.0, x_left, x_right)[1]
    # integral of 1 + |phase| over the window, with |phase| <= p e^x + |q| e^-x
    span = (x_right - x_left) + p * (math.exp(x_right) - math.exp(x_left))
    span += abs(q) * (math.exp(-x_left) - math.exp(-x_right))
    return tails + 8.0 * _EPS * span


def hyperbolic_oscillatory(p, q, delta=0.0):
    """H(p, q, delta) as defined in the module docstring.  p*q != 0."""
    p = float(p)
    q = float(q)
    delta = float(delta)
    if not (math.isfinite(p) and math.isfinite(q) and math.isfinite(delta)):
        raise ValueError("hyperbolic_oscillatory requires finite p, q, delta")
    if p == 0.0 or q == 0.0:
        raise ValueError("hyperbolic_oscillatory requires p*q != 0")
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    if p < 0.0:
        return np.conj(hyperbolic_oscillatory(-p, -q, delta))

    x_left, x_right = _window(p, q, delta)
    # Window integral with panels tracking frequency and damping.
    breaks = _build_breaks(p, q, delta, x_left, x_right, PANEL_BUDGET)
    nodes, weights = panel_nodes(breaks, _GL_ORDER)
    vals = np.exp(1j * _phase(p, q, nodes))
    if delta > 0:
        vals = vals * np.exp(-delta * np.exp(-nodes))
    window = stable_sum((vals * weights).reshape(-1, _GL_ORDER).sum(axis=1))
    tails, est = _tails(p, q, delta, x_left, x_right)
    if est > _TAIL_BUDGET:
        raise QuadratureError(
            f"hyperbolic_oscillatory tail estimate {est:.2e} above budget"
        )
    return complex(window + tails)

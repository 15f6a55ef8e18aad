"""Oscillatory quadrature engine.

The workhorse is the hyperbolic-phase primitive

    H(p, q, delta) = int_-inf^inf exp(i (p e^x + q e^-x)) exp(-delta e^-x) dx,

with p*q != 0 and delta >= 0.  Every oscillatory integral in the package
(the hyperbolic Bessel representations, the four kernel identities, and the
epsilon-regularized Fourier transforms) is an instance of H.

Strategy: a finite window around the phase minimum is integrated with
Gauss-Legendre panels whose lengths track the local frequency; both ends
are finished with exact tails.  After the substitution u = phase(x) the
tail integrand is exp(iu) (or exp((c - i)u) when a damping factor rides on
the growing exponential) times a function with an explicit series in 1/u,
so the tails reduce to generalized exponential integrals E_n evaluated by
continued fraction.  Panel sums run in fixed order; results are bit-stable
regardless of worker count.

The settings are module constants, not parameters: the window uses
Gauss-Legendre order 12 on at most PANEL_BUDGET panels, the tails start
at a phase rate of at least 40 and must estimate their truncation below
1e-6.  EPSILON_LADDER is the regularization ladder of the delta
functionals in `kernels`; the Fourier transforms need none.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import exp1

from .numerics import panel_nodes, stable_sum

__all__ = [
    "EPSILON_LADDER",
    "PANEL_BUDGET",
    "QuadratureError",
    "expn_complex",
    "hyperbolic_oscillatory",
]

# +-i eps ladder of the delta functionals (kernels.delta_quadric_apply),
# strictly decreasing by the ratio 2 that their Richardson pass assumes.
EPSILON_LADDER = (0.2, 0.1, 0.05, 0.025, 0.0125)
# Panels per 1-d window before H gives up with QuadratureError.
PANEL_BUDGET = 4000

_GL_ORDER = 12
# Smallest phase rate at which the exact tails take over from the window.
_U_FLOOR = 40.0
# Largest tail truncation estimate H accepts.
_TAIL_BUDGET = 1e-6
_EPS = np.finfo(float).eps
_TAIL_ORDER = 16


class QuadratureError(RuntimeError):
    """Raised when an integral cannot be certified within its budget."""


def _expn_cf(n, z, max_iter=500):
    """Continued fraction for E_n(z) (NR form), |arg z| < pi, z != 0."""
    tiny = 1e-290
    b = z + n
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, max_iter):
        a = -i * (n - 1 + i)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        if c == 0:
            c = tiny
        delta = c * d
        h = h * delta
        if abs(delta - 1.0) < 1e-16:
            return h * np.exp(-z)
    raise QuadratureError("En continued fraction did not converge")


def expn_complex(nmax, z):
    """[E_1(z), ..., E_nmax(z)] for complex z off the negative real axis.

    E_nmax comes from a continued fraction; the rest follow by the downward
    recurrence E_n = (e^-z - n E_{n+1}) / z, which is stable in this
    direction.  E_1 is cross-checked against scipy's exp1.
    """
    z = complex(z)
    if z == 0:
        raise ValueError("E_n undefined at z = 0")
    out = [0j] * (nmax + 1)
    out[nmax] = _expn_cf(nmax, z)
    ez = np.exp(-z)
    for n in range(nmax - 1, 0, -1):
        out[n] = (ez - n * out[n + 1]) / z
    ref = exp1(z)
    if abs(out[1] - ref) > 1e-10 * max(1.0, abs(ref)):
        out_fix = [0j] * (nmax + 1)
        out_fix[1] = complex(ref)
        for n in range(1, nmax):
            out_fix[n + 1] = (ez - z * out_fix[n]) / n
        return out_fix[1:]
    return out[1:]


def _sqrt_one_minus_coeffs(m):
    """Coefficients D_k of 1 - sqrt(1-z) = sum_{k>=1} D_k z^k."""
    d = [0.0] * (m + 1)
    d[1] = 0.5
    for k in range(1, m):
        d[k + 1] = d[k] * (2 * k - 1) / (2 * (k + 1))
    return d


def _inv_sqrt_coeffs(m):
    """Coefficients C_k of (1-z)^(-1/2) = sum_{k>=0} C_k z^k."""
    c = [1.0]
    for k in range(m):
        c.append(c[-1] * (2 * k + 1) / (2 * (k + 1)))
    return c


def _poly_mul(a, b, m):
    out = np.zeros(m + 1)
    for i, ai in enumerate(a[: m + 1]):
        if ai == 0.0:
            continue
        hi = min(len(b), m + 1 - i)
        out[i : i + hi] += ai * np.asarray(b[:hi])
    return out


def _poly_exp(h, m):
    """exp of a series with zero constant term, via b' = h' b."""
    b = np.zeros(m + 1)
    b[0] = 1.0
    for k in range(1, m + 1):
        acc = 0.0
        for j in range(1, k + 1):
            if j < len(h) and h[j] != 0.0:
                acc += j * h[j] * b[k - j]
        b[k] = acc / k
    return b


def _osc_tail(p1, q1, d_decay, d_grow, x0, order=_TAIL_ORDER):
    """Exact-series tail  int_x0^inf e^{i(p1 e^x + q1 e^-x)}
    e^{-d_decay e^-x} e^{-d_grow e^x} dx  with p1 > 0.

    Uses u = p1 e^x + q1 e^-x, giving amplitude (u^2-E)^(-1/2) with
    E = 4 p1 q1, the explicit series of e^{+-x} in 1/u, and E_n integrals.
    """
    E = 4.0 * p1 * q1
    U = p1 * math.exp(x0) + q1 * math.exp(-x0)
    if U <= 0 or U * U <= 1.44 * abs(E):
        raise QuadratureError("oscillatory tail started before its validity range")
    m = order
    # S(w) ~ u - sqrt(u^2-E): sum_k D_k E^k w^(2k-1);  T(w) ~ e^-x series.
    D = _sqrt_one_minus_coeffs(m)
    S = np.zeros(m + 1)
    T = np.zeros(m + 1)
    for k in range(1, m // 2 + 1):
        if 2 * k - 1 <= m:
            S[2 * k - 1] = D[k] * E**k
            T[2 * k - 1] = 2.0 * p1 * D[k] * E ** (k - 1)
    # amplitude (u^2-E)^(-1/2) = w * (1 - E w^2)^(-1/2)
    C = _inv_sqrt_coeffs(m // 2)
    A = np.zeros(m + 1)
    for k in range(m // 2 + 1):
        if 2 * k + 1 <= m:
            A[2 * k + 1] = C[k] * E**k
    # exponent series: -d_decay*T(w) + (d_grow/(2 p1))*S(w); linear part of
    # the growing damping, e^{-(d_grow/p1) u}, moves into the E_n argument.
    # Undamped, the series is zero and its exponential is exactly 1.
    if d_decay == 0.0 and d_grow == 0.0:
        G = A
    else:
        h = -d_decay * T + (d_grow / (2.0 * p1)) * S
        G = _poly_mul(A, _poly_exp(h, m), m)
    # int_U^inf e^{-(c-i)u} u^-j du = U^(1-j) E_j((c-i)U)
    z = (d_grow / p1 - 1j) * U
    ens = expn_complex(m + 1, z)
    total = 0j
    terms = []
    for j in range(1, m + 1):
        if G[j] != 0.0:
            terms.append(G[j] * U ** (1 - j) * ens[j - 1])
    if terms:
        total = stable_sum(np.array(terms))
    # Truncation estimate: magnitude of the last nonzero retained band
    # (undamped, G holds only odd powers, so G[m] is zero for even m).
    nz = np.flatnonzero(G)
    j = int(nz[-1]) if nz.size else 0
    est = abs(G[j] * U ** (1 - j) * ens[j - 1]) if j else 0.0
    return total, est


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
    exact tails take over, where the phase rate has reached u_cut."""
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
    """Error bound for H(p, q, 0): the last retained band of each exact
    tail, with |E_j(-iU)| <= 2/U, plus a rounding of a few ulp in each
    window node's phase, up to u_cut."""
    if p < 0.0:  # H(p, q) = conj H(-p, -q)
        p, q = -p, -q
    x_left, x_right = _window(p, q, 0.0)
    E = 4.0 * p * q
    k = (_TAIL_ORDER - 1) // 2  # the last band is w^(2k+1) = u^-(2k+1)
    c_k = _inv_sqrt_coeffs(k)[k]
    tails = sum(
        2.0 * c_k * abs(E) ** k / u ** (2 * k + 1)
        for u in (abs(_phase(p, q, x_left)), abs(_phase(p, q, x_right)))
    )
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
    y_right = -x_left

    # Window integral with panels tracking frequency and damping.
    breaks = _build_breaks(p, q, delta, x_left, x_right, PANEL_BUDGET)
    nodes, weights = panel_nodes(breaks, _GL_ORDER)
    vals = np.exp(1j * _phase(p, q, nodes))
    if delta > 0:
        vals = vals * np.exp(-delta * np.exp(-nodes))
    window = stable_sum((vals * weights).reshape(-1, _GL_ORDER).sum(axis=1))

    # Exact tails. Right: damping sits on the decaying exponential.
    t_right, e_right = _osc_tail(p, q, delta, 0.0, x_right)
    # Left: mirrored; p-role is q.  Conjugate trick if q < 0.
    if q > 0:
        t_left, e_left = _osc_tail(q, p, 0.0, delta, y_right)
    else:
        t_left, e_left = _osc_tail(-q, -p, 0.0, delta, y_right)
        t_left = np.conj(t_left)
    total = window + t_right + t_left
    est = e_right + e_left
    if est > _TAIL_BUDGET:
        raise QuadratureError(
            f"hyperbolic_oscillatory tail estimate {est:.2e} above budget"
        )
    return complex(total)

"""Kernels Psi0 / Phi0+, the epsilon-regularized Fourier transforms of
(N(X) +- R^2 +- i eps)^-2, their closed-form branch table, the cone/
hyperboloid delta functionals, and the four oscillatory kernel identities.

The production path for the regularized transform follows the exact
dimensional reduction of the defining 4-d integral: integrating the two
transverse variables leaves

    -pi i sign_eps / (4 pi^2) * J,
    J = lim_{eps->0+} iint e^{i(r1 x1 + r2 x3)}
        / (x1^2 - x3^2 + sign_R2 R^2 + sign_eps i eps) dx1 dx3,

and in light-cone variables u = x1+x3, v = x1-x3 the inner v-integral is a
single simple pole evaluated exactly at finite eps, leaving one hyperbolic-
phase oscillatory integral:

    I(eps) = -1/4 int_0^inf exp(i(a eta w - b eta sR R^2 / w))
             exp(-|b| eps / w) dw/w,
    a = (r1+r2)/2,  b = (r1-r2)/2,  eta = -sign(b) sign_eps.

I(eps) is continuous at eps = 0 (H integrates the conditionally
convergent ends on complex rays where they decay), so the limit is the
single undamped H call I(0); only the delta functionals use the epsilon
ladder.  No Bessel identity enters this path, so agreement with the
closed-form branch table is a genuine two-route check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import special
from .geometry import ConePoint, DualVector, cone_embed, pair
from .numerics import gauss_legendre, panel_nodes, richardson_limit, stable_sum
from .quadrature import EPSILON_LADDER, _undamped_error_bound, hyperbolic_oscillatory

__all__ = [
    "psi0",
    "phi0_plus",
    "FtResult",
    "ft_regularized",
    "ft_closed_form",
    "corollary_kernels",
    "lemma_kernel_integrals",
    "DeltaResult",
    "delta_cone_apply",
    "delta_hyperboloid_apply",
    "ft_bruteforce_damped",
]


def _finite_argument(t, name):
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError(f"{name} requires a finite argument")
    return t


def psi0(t):
    """Kernel Psi0: Y0(2 sqrt(2t)) for t > 0, -(2/pi) K0(2 sqrt(-2t)) for t < 0.

    Scalar or array t; t = 0 (a logarithmic singularity) and non-finite t
    are rejected.
    """
    t = _finite_argument(t, "Psi0")
    if np.any(t == 0.0):
        raise ValueError("Psi0 has a logarithmic singularity at t = 0")
    out = np.empty_like(t)
    pos = t > 0
    neg = ~pos
    if np.any(pos):
        out[pos] = special.bessel_y0(2.0 * np.sqrt(2.0 * t[pos]))
    if np.any(neg):
        out[neg] = -(2.0 / math.pi) * special.bessel_k0(
            2.0 * np.sqrt(-2.0 * t[neg])
        )
    return out if out.ndim else float(out)


def phi0_plus(t):
    """Kernel Phi0+: J0(2 sqrt(2t)) for t > 0, 0 for t <= 0; non-finite t
    is rejected."""
    t = _finite_argument(t, "Phi0+")
    out = np.zeros_like(t)
    pos = t > 0
    if np.any(pos):
        out[pos] = special.bessel_j0(2.0 * np.sqrt(2.0 * t[pos]))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class FtResult:
    value: complex
    error_estimate: float

    def __complex__(self):
        return complex(self.value)


def _polar_radii(xi):
    if isinstance(xi, ConePoint):
        xi = cone_embed(xi)
    if isinstance(xi, DualVector):
        return xi.polar_radii
    arr = np.asarray(xi, dtype=float)
    return float(np.hypot(arr[0], arr[1])), float(np.hypot(arr[2], arr[3]))


def _check_signs(sign_R2, sign_eps):
    if sign_R2 not in (-1, 1) or sign_eps not in (-1, 1):
        raise ValueError("sign_R2 and sign_eps must be +-1")


def _check_radius(R):
    if not (math.isfinite(R) and R > 0):
        raise ValueError("R must be positive and finite")


def ft_regularized(R, xi, sign_R2, sign_eps):
    """lim_{eps->0+} (1/4pi^2) int e^{i xi.X} (N(X) + sign_R2 R^2
    + sign_eps i eps)^-2 dV, as the undamped reduced integral I(0).

    Returns an FtResult carrying H's error bound (the tails' two-rule gap
    plus rounding); non-convergence raises QuadratureError instead of returning
    a silent value.
    """
    _check_signs(sign_R2, sign_eps)
    _check_radius(R)
    r1, r2 = _polar_radii(xi)
    if not (math.isfinite(r1) and math.isfinite(r2)):
        raise ValueError("xi must be finite")
    q = r1 * r1 - r2 * r2
    if q == 0.0:
        raise ValueError("ft_regularized requires <xi, xi> != 0 (cone excluded)")
    a = 0.5 * (r1 + r2)
    b = 0.5 * (r1 - r2)
    eta = -math.copysign(1.0, b) * sign_eps
    pq = (a * eta, -b * eta * sign_R2 * R * R)
    h = hyperbolic_oscillatory(*pq, 0.0)
    return FtResult(complex(-0.25 * h), 0.25 * _undamped_error_bound(*pq))


def ft_closed_form(R, q, sign_R2, sign_eps):
    """Closed-form branch table of the regularized transform.

    sign_R2 = -1 (denominator N - R^2 +- i eps):
        q > 0: (pi/4) Y0(R sqrt(q)) +- i (pi/4) J0(R sqrt(q))
        q < 0: -(1/2) K0(R sqrt(-q))
    sign_R2 = +1 (denominator N + R^2 +- i eps):
        q > 0: -(1/2) K0(R sqrt(q))
        q < 0: (pi/4) Y0(R sqrt(-q)) -+ i (pi/4) J0(R sqrt(-q))
    """
    _check_signs(sign_R2, sign_eps)
    _check_radius(R)
    q = float(q)
    if not math.isfinite(q):
        raise ValueError("q must be finite")
    if q == 0.0:
        raise ValueError("closed form is singular on the cone q = 0")
    root = R * math.sqrt(abs(q))
    if sign_R2 == -1:
        if q > 0:
            return complex(
                0.25 * math.pi * special.bessel_y0(root),
                sign_eps * 0.25 * math.pi * special.bessel_j0(root),
            )
        return complex(-0.5 * special.bessel_k0(root), 0.0)
    if q > 0:
        return complex(-0.5 * special.bessel_k0(root), 0.0)
    return complex(
        0.25 * math.pi * special.bessel_y0(root),
        -sign_eps * 0.25 * math.pi * special.bessel_j0(root),
    )


def corollary_kernels(R, xi: ConePoint, xi2: ConePoint):
    """The two sign-combined transforms at xi - xi' for cone points.

    Returns (symmetric, antisymmetric) where

      symmetric     = F(+i eps) + F(-i eps) evaluated at R = 2,
      antisymmetric = F(+i eps) - F(-i eps) at the given R,

    which must equal (pi/2) Psi0(-<xi,xi'>) and
    (pi i/2) Phi0+(-(R^2/4) <xi,xi'>) respectively.  Uses
    <xi-xi', xi-xi'> = -2 <xi,xi'>; lightlike-separated pairs are rejected.
    """
    d = cone_embed(xi) - cone_embed(xi2)
    inner = pair(cone_embed(xi), cone_embed(xi2))
    if inner == 0.0:
        raise ValueError("lightlike-separated cone points are excluded")
    f_plus_2 = ft_regularized(2.0, d, -1, +1)
    f_minus_2 = ft_regularized(2.0, d, -1, -1)
    sym = f_plus_2.value + f_minus_2.value
    if R == 2.0:
        f_plus_R, f_minus_R = f_plus_2, f_minus_2
    else:
        f_plus_R = ft_regularized(R, d, -1, +1)
        f_minus_R = ft_regularized(R, d, -1, -1)
    anti = f_plus_R.value - f_minus_R.value
    return sym, anti


@dataclass(frozen=True)
class LemmaValues:
    """Numerical values of the four oscillatory identities and references."""

    integrals: tuple  # four t-integral values
    references: tuple  # Psi0(+), Psi0(-), Phi0+(+), Phi0+(-) closed forms
    r1: float
    r2: float


def lemma_kernel_integrals(R, xi: ConePoint, xi2: ConePoint):
    """The four oscillatory t-integrals built on r1, r2 of xi - xi',
    compared against Psi0 / Phi0+ at +-(R^2/4) <xi, xi'>.

        -(1/pi) int cos(R r1 sinh t + R r2 cosh t) dt  vs  Psi0(+.)
        -(1/pi) int cos(R r1 cosh t + R r2 sinh t) dt  vs  Psi0(-.)
        +(1/pi) int sin(R r1 sinh t + R r2 cosh t) dt  vs  Phi0+(+.)
        +(1/pi) int sin(R r1 cosh t + R r2 sinh t) dt  vs  Phi0+(-.)
    """
    if not R > 0:
        raise ValueError("R must be positive")
    d = cone_embed(xi) - cone_embed(xi2)
    r1, r2 = d.polar_radii
    if r1 == 0.0 and r2 == 0.0:
        raise ValueError("coincident points: r1 = r2 = 0")
    if r1 == r2:
        raise ValueError("lightlike separation r1 = r2 is excluded")
    inner = pair(cone_embed(xi), cone_embed(xi2))

    # phase A sinh t + B cosh t  ->  p = (B+A)/2, q = (B-A)/2
    h_a = hyperbolic_oscillatory(
        0.5 * R * (r2 + r1), 0.5 * R * (r2 - r1), 0.0
    )  # A = R r1, B = R r2
    h_b = hyperbolic_oscillatory(
        0.5 * R * (r1 + r2), 0.5 * R * (r1 - r2), 0.0
    )  # A = R r2, B = R r1
    vals = (
        -(1.0 / math.pi) * h_a.real,
        -(1.0 / math.pi) * h_b.real,
        (1.0 / math.pi) * h_a.imag,
        (1.0 / math.pi) * h_b.imag,
    )
    targ = 0.25 * R * R * inner
    refs = (
        psi0(targ),
        psi0(-targ),
        phi0_plus(targ),
        phi0_plus(-targ),
    )
    return LemmaValues(vals, refs, r1, r2)


@dataclass(frozen=True)
class DeltaResult:
    surface: complex
    volume: complex
    volume_error: float

    @property
    def rel_difference(self):
        scale = max(abs(self.surface), abs(self.volume), 1e-300)
        return abs(self.surface - self.volume) / scale


def _angular_grid(n):
    th = np.arange(n) * (2.0 * np.pi / n)
    return th


def delta_quadric_apply(psi, offset=0.0):
    """Two-route evaluation of the delta functional of N(X) - offset.

    Surface route: (1/2) int psi dS/|X| over {N = offset}, i.e.
    (1/2) iiint psi(X(r2, th1, th2)) r2 dr2 dth1 dth2 with
    r1 = sqrt(r2^2 + offset), on 16 x 16 angles and 80 Gauss-Legendre
    nodes in r2 on [0, 6.5].  Volume route: the +-i eps difference
    (1/pi) eps / ((N-offset)^2 + eps^2) integrated over R^4 in bipolar
    coordinates with the pole resolved by mu = eps tan(phi), at each eps
    of quadrature.EPSILON_LADDER plus two further halvings, then fitted to
    eps -> 0 with a log-aware basis; the gap to a plain Richardson pass
    enters the error estimate.  `psi` maps an (..., 4) array to values.
    """
    n_theta, n_radial, radial_max = 16, 80, 6.5
    th1 = _angular_grid(n_theta)
    th2 = _angular_grid(n_theta)
    T1, T2 = np.meshgrid(th1, th2, indexing="ij")
    w_ang = (2.0 * np.pi / n_theta) ** 2

    # surface route
    xg, wg = gauss_legendre(n_radial)
    r2 = 0.5 * radial_max * (xg + 1.0)
    wr = 0.5 * radial_max * wg
    r1 = np.sqrt(r2 * r2 + offset)
    X = np.empty(r2.shape + T1.shape + (4,))
    X[..., 0] = r1[:, None, None] * np.cos(T1)[None]
    X[..., 1] = r1[:, None, None] * np.sin(T1)[None]
    X[..., 2] = r2[:, None, None] * np.cos(T2)[None]
    X[..., 3] = r2[:, None, None] * np.sin(T2)[None]
    vals = np.asarray(psi(X))
    surface = 0.5 * w_ang * stable_sum(
        (vals.sum(axis=(1, 2)) * r2 * wr)
    )

    # volume route per epsilon
    nu_max = 2.0 * radial_max * radial_max + abs(offset) + 4.0

    def _nu_grid(eps):
        """Panels refined on scale eps around nu = offset, where the
        mu-integral is a smoothed step."""
        marks = {0.0, nu_max}
        m = eps
        while m < nu_max:
            for cand in (offset - m, offset + m):
                if 0.0 < cand < nu_max:
                    marks.add(cand)
            m *= 2.0
        if 0.0 < offset < nu_max:
            marks.add(offset)
        marks.update(np.linspace(0.0, nu_max, 30).tolist())
        return panel_nodes(sorted(marks), 10)

    def _phi_panels(mu_lo, mu_hi, eps):
        """Panel breakpoints in phi = atan(mu/eps), geometric in mu/eps so
        both the Lorentzian core and the psi-scale wings are resolved."""
        marks = [0.0]
        m = 1.0
        top = max(abs(mu_lo), abs(mu_hi)) / eps
        while m < top:
            marks.append(m)
            m *= 2.0
        mus = sorted(
            {mu_lo, mu_hi}
            | {eps * v for v in marks if mu_lo < eps * v < mu_hi}
            | {-eps * v for v in marks if mu_lo < -eps * v < mu_hi}
        )
        return np.arctan(np.asarray(mus) / eps)

    def volume_at(eps):
        nu_nodes, nu_w = _nu_grid(eps)
        acc = np.zeros(len(nu_nodes), dtype=complex)
        for i, nu in enumerate(nu_nodes):
            mu_lo, mu_hi = -nu - offset, nu - offset
            ph, wph = panel_nodes(_phi_panels(mu_lo, mu_hi, eps), 8)
            mu = eps * np.tan(ph)
            rho = np.clip(0.5 * (nu + mu + offset), 0.0, None)
            sig = np.clip(0.5 * (nu - mu - offset), 0.0, None)
            rr1 = np.sqrt(rho)
            rr2 = np.sqrt(sig)
            Xp = np.empty((len(mu),) + T1.shape + (4,))
            Xp[..., 0] = rr1[:, None, None] * np.cos(T1)[None]
            Xp[..., 1] = rr1[:, None, None] * np.sin(T1)[None]
            Xp[..., 2] = rr2[:, None, None] * np.cos(T2)[None]
            Xp[..., 3] = rr2[:, None, None] * np.sin(T2)[None]
            v = np.asarray(psi(Xp)).sum(axis=(1, 2))
            acc[i] = np.dot(v, wph)
        return (1.0 / (8.0 * math.pi)) * w_ang * stable_sum(acc * nu_w)

    # two extra halvings sharpen the log-aware fit below the stated ladder
    ladder = EPSILON_LADDER + (EPSILON_LADDER[-1] / 2.0, EPSILON_LADDER[-1] / 4.0)
    vols = np.array([volume_at(e) for e in ladder])
    # The cone corner (the chart boundary sigma = 0 crossing N = offset)
    # puts eps*log(eps) terms in the limit; fit with the log-aware basis.
    terms = [
        lambda e: np.ones_like(e),
        lambda e: e * np.log(e),
        lambda e: e,
        lambda e: e * e * np.log(e),
        lambda e: e * e,
        lambda e: e**3 * np.log(e),
    ]
    eps_arr = np.array(ladder)
    A = np.stack([t(eps_arr) for t in terms], axis=1)
    coef, *_ = np.linalg.lstsq(A, vols, rcond=None)
    vol = coef[0]
    fit_resid = float(np.max(np.abs(A @ coef - vols)))
    poly, _ = richardson_limit(list(vols), ratio=2.0, order=3)
    err = max(fit_resid, float(abs(vol - poly)) * 0.1)
    return DeltaResult(complex(surface), complex(vol), float(err))


def delta_cone_apply(psi):
    """Cone delta functional, surface vs regularized volume routes."""
    return delta_quadric_apply(psi, 0.0)


def delta_hyperboloid_apply(psi, R):
    """Same two-route check on the hyperboloid N(X) = R^2."""
    if not R > 0:
        raise ValueError("R must be positive")
    return delta_quadric_apply(psi, R * R)


def ft_bruteforce_damped(R, xi, sign_R2, sign_eps, eps=0.4):
    """Low-accuracy spot-check oracle for the regularized transform at one
    finite eps; the default `kernels` suite runs it in its
    `ft.reduction_oracle` checks.

    Both angular planes of the defining 4-d integral are reduced exactly in
    polar coordinates, leaving

        (1/4) iint J0(r1 sqrt(u)) J0(r2 sqrt(v)) (u - v + c)^-2 du dv,

    c = sign_R2 R^2 + i sign_eps eps, computed by direct panel quadrature:
    the inner u-integral clusters panels at the pole shadow, the outer
    integral (in s = sqrt(v)) is truncated at s = 120 with half-period
    averaging of the slowest beat phase.  Compare against the damped
    production value at the same eps; expect ~1e-3 relative.
    """
    _check_signs(sign_R2, sign_eps)
    r1, r2 = _polar_radii(xi)
    if r1 <= 0 or r2 <= 0 or r1 == r2:
        raise ValueError("oracle wants r1, r2 > 0 and r1 != r2")
    c = sign_R2 * R * R + 1j * sign_eps * eps

    def inner(v):
        """int_0^inf J0(r1 sqrt(u)) (u - v + c)^-2 du."""
        u0 = max(v - sign_R2 * R * R, 0.0)
        pts = [0.0]
        if u0 > 0:
            down = u0
            widths = []
            wdt = max(eps / 3.0, 1e-3)
            while down > 0:
                widths.append(min(wdt, down))
                down -= wdt
                wdt *= 1.7
            for wd in reversed(widths):
                pts.append(pts[-1] + wd)
            pts[-1] = u0
        u = pts[-1]
        wdt = max(eps / 3.0, 1e-3)
        u_cap = max(u0 * 6.0 + 50.0, (120.0 / r1) ** 2, 400.0)
        while u < u_cap:
            osc_cap = 4.0 * math.sqrt(max(u, 1.0)) / r1
            step = min(wdt, osc_cap)
            u += step
            pts.append(u)
            wdt *= 1.6
        nodes, wq = panel_nodes(pts, 10)
        f = special.bessel_j0(r1 * np.sqrt(nodes)) * (nodes - v + c) ** -2.0
        return np.dot(f, wq)

    s_max = 120.0
    beat = 2.0 * math.pi / abs(r1 - r2)
    s_end = s_max + 0.5 * beat
    # outer panels in s = sqrt(v), aligned so s_max and s_end are boundaries
    n_pan = int(math.ceil(s_max / min(0.5, 2.0 / (r1 + r2 + 1.0))))
    s_breaks = np.linspace(0.0, s_max, n_pan + 1)
    n_pan2 = max(4, int(math.ceil(0.5 * beat / (s_breaks[1] - s_breaks[0]))))
    s_breaks2 = np.linspace(s_max, s_end, n_pan2 + 1)

    def outer_sum(breaks):
        nodes, wq = panel_nodes(breaks, 10)
        vals = np.array([inner(s * s) for s in nodes])
        f = special.bessel_j0(r2 * nodes) * 2.0 * nodes * vals
        return np.dot(f, wq)

    main = outer_sum(s_breaks)
    extra = outer_sum(s_breaks2)
    # average of the truncations at s_max and s_max + beat/2
    return 0.25 * (main + 0.5 * extra)

"""Kernels Psi0 / Phi0+, the epsilon-regularized Fourier transforms of
(N(X) +- R^2 +- i eps)^-2 and their closed form in those kernels, the cone/
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

One routine computes I(eps) as a single H call: `ft_bruteforce_damped`
checks it at eps = 0.4, and `ft_regularized` takes it at eps = 0, where
it is continuous (H integrates the conditionally convergent ends on a
contour where they decay).  An epsilon ladder is left only in the delta
functionals' volume route, where a rung is a set of exact Lorentzian
weights on one sampling of psi.  No Bessel identity enters this path, so
agreement with the closed form

    F(+-i eps) = (pi/4) (Psi0(t) -+ i sign_R2 Phi0+(t)),
    t = -sign_R2 <xi, xi> R^2 / 8,

is a genuine two-route check; the sum and difference over the sign of eps
are the paper's (pi/2) Psi0 and (pi i/2) Phi0+.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import hankel1e, hankel2e, kve

from . import special
from .geometry import cone_embed, pair
from .numerics import Estimate, gauss_legendre, panel_nodes
from .quadrature import hyperbolic_oscillatory

__all__ = [
    "psi0",
    "phi0_plus",
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


def _polar_radii(xi):
    """(r1, r2) of one or stacked (..., 4) coordinates."""
    arr = np.asarray(xi, dtype=float)
    return np.hypot(arr[..., 0], arr[..., 1]), np.hypot(arr[..., 2], arr[..., 3])


def _check_signs(sign_R2, sign_eps):
    if not (np.all(np.abs(sign_R2) == 1) and np.all(np.abs(sign_eps) == 1)):
        raise ValueError("sign_R2 and sign_eps must be +-1")


def _check_radius(R):
    R = np.asarray(R, dtype=float)
    if not np.all(np.isfinite(R) & (R > 0)):
        raise ValueError("R must be positive and finite")


def _reduced_transform(R, xi, sign_R2, sign_eps, eps):
    """Estimate of the reduced integral I(eps) of the module docstring: one
    H pass at the damping |b| eps, broadcast over R, xi and the signs."""
    _check_signs(sign_R2, sign_eps)
    _check_radius(R)
    r1, r2 = _polar_radii(xi)
    if not (np.all(np.isfinite(r1)) and np.all(np.isfinite(r2))):
        raise ValueError("xi must be finite")
    if np.any(r1 * r1 - r2 * r2 == 0.0):
        raise ValueError("ft_regularized requires <xi, xi> != 0 (cone excluded)")
    a = 0.5 * (r1 + r2)
    b = 0.5 * (r1 - r2)
    eta = -np.copysign(1.0, b) * sign_eps
    p, q = a * eta, -b * eta * sign_R2 * R * R
    h, est = hyperbolic_oscillatory(p, q, np.abs(b) * eps)
    return Estimate(-0.25 * h, 0.25 * est)


def ft_regularized(R, xi, sign_R2, sign_eps):
    """lim_{eps->0+} (1/4pi^2) int e^{i xi.X} (N(X) + sign_R2 R^2
    + sign_eps i eps)^-2 dV, as the undamped reduced integral I(0).

    R, the signs and xi (one or stacked (..., 4) off-cone coordinates)
    broadcast: a batch of transforms is one H call, and each value is bit
    for bit what it would be alone.  Returns an `Estimate` whose estimate
    is that of the same H pass (the gap to its half rule plus rounding),
    as arrays for a batch; non-convergence anywhere in the batch raises
    QuadratureError instead of returning a silent value.
    """
    return _reduced_transform(R, xi, sign_R2, sign_eps, 0.0)


def ft_closed_form(R, q, sign_R2, sign_eps):
    """Closed form of the regularized transform at q = <xi, xi>:

        (pi/4) (Psi0(t) - i sign_R2 sign_eps Phi0+(t)),  t = -sign_R2 q R^2/8,

    that is (pi/4) (Y0 -+ i J0)(R sqrt|q|) where sign_R2 q < 0 and
    -(1/2) K0(R sqrt|q|) where sign_R2 q > 0.  R, q and both signs
    broadcast, each element bit for bit its scalar value; scalar input
    gives a complex.  A bad value anywhere in the batch (q = 0 on the
    cone among them) raises ValueError.
    """
    _check_signs(sign_R2, sign_eps)
    _check_radius(R)
    t = -0.125 * sign_R2 * np.asarray(q, dtype=float) * R * R
    return 0.25 * math.pi * (psi0(t) - 1j * sign_R2 * sign_eps * phi0_plus(t))


def corollary_kernels(R, xi, xi2):
    """The two sign-combined transforms at xi - xi' for cone points.

    Returns (symmetric, antisymmetric) where

      symmetric     = F(+i eps) + F(-i eps) evaluated at R = 2,
      antisymmetric = F(+i eps) - F(-i eps) at the given R,

    which must equal (pi/2) Psi0(-<xi,xi'>) and
    (pi i/2) Phi0+(-(R^2/4) <xi,xi'>) respectively.  Uses
    <xi-xi', xi-xi'> = -2 <xi,xi'>; lightlike-separated pairs are rejected.

    xi and xi2 are ConePoints or stacked (..., 3) chart coordinates, with
    R a scalar or one value per pair; the pairs' four transforms each are
    one `ft_regularized` batch, and the results are arrays for stacks.
    """
    a, b = cone_embed(xi), cone_embed(xi2)
    if np.any(pair(a, b) == 0.0):
        raise ValueError("lightlike-separated cone points are excluded")
    R = np.asarray(R, dtype=float)
    shape = np.broadcast_shapes(R.shape, a.shape[:-1])
    # rows: (R = 2, +i eps), (R = 2, -i eps), (R, +i eps), (R, -i eps)
    radii = np.stack([np.broadcast_to(v, shape) for v in (2.0, 2.0, R, R)])
    signs = np.array([1, -1, 1, -1]).reshape((4,) + (1,) * len(shape))
    f = ft_regularized(radii, (a - b)[None], -1, signs).value
    return f[0] + f[1], f[2] - f[3]


@dataclass(frozen=True)
class LemmaValues:
    """Numerical values of the four oscillatory identities and references."""

    integrals: tuple  # four t-integral values
    references: tuple  # Psi0(+), Psi0(-), Phi0+(+), Phi0+(-) closed forms
    r1: float
    r2: float


def lemma_kernel_integrals(R, xi, xi2):
    """The four oscillatory t-integrals built on r1, r2 of xi - xi',
    compared against Psi0 / Phi0+ at +-(R^2/4) <xi, xi'>.

        -(1/pi) int cos(R r1 sinh t + R r2 cosh t) dt  vs  Psi0(+.)
        -(1/pi) int cos(R r1 cosh t + R r2 sinh t) dt  vs  Psi0(-.)
        +(1/pi) int sin(R r1 sinh t + R r2 cosh t) dt  vs  Phi0+(+.)
        +(1/pi) int sin(R r1 cosh t + R r2 sinh t) dt  vs  Phi0+(-.)

    xi and xi2 are ConePoints or stacked (..., 3) chart coordinates, with
    R a scalar or one value per pair; both phases of every pair are one H
    batch, and each field of the result is then an array over the pairs.
    """
    R = np.asarray(R, dtype=float)
    if not np.all(R > 0):
        raise ValueError("R must be positive")
    a, b = cone_embed(xi), cone_embed(xi2)
    r1, r2 = _polar_radii(a - b)
    if np.any((r1 == 0.0) & (r2 == 0.0)):
        raise ValueError("coincident points: r1 = r2 = 0")
    if np.any(r1 == r2):
        raise ValueError("lightlike separation r1 = r2 is excluded")
    inner = pair(a, b)

    # phase A sinh t + B cosh t  ->  p = (B+A)/2, q = (B-A)/2; rows
    # (A, B) = (R r1, R r2) and (R r2, R r1)
    h_a, h_b = hyperbolic_oscillatory(
        0.5 * R * np.stack([r2 + r1, r1 + r2]),
        0.5 * R * np.stack([r2 - r1, r1 - r2]), 0.0)[0]
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
    """`volume_error` estimates the volume route's eps -> 0 extrapolation
    error; for smooth psi it bounds |volume - surface| (kinked psi, such as
    a clipped support, is not covered)."""

    surface: complex
    volume: complex
    volume_error: float


# Volume route: +-i eps rungs 0.2/2^k, k = 4..11; the fit to eps -> 0 takes
# the last 7, its estimate the first 7; 8 mu panels of 10 nodes per nu node.
_DELTA_LADDER = 0.2 / 2.0 ** np.arange(4, 12)
_MU_PANELS = 8
_MU_X, _MU_W = gauss_legendre(10)
# inverse of V[j, k] = x_j^k: maps moments to interpolatory weights
_MU_VINV = np.linalg.inv(np.vander(_MU_X, increasing=True))


def _angular_sum(psi, r1, r2):
    """Sum of psi over 16 x 16 angles at X = (r1 e^{i th1}, r2 e^{i th2}),
    for radius arrays r1, r2 of one shape."""
    th = np.arange(16) * (2.0 * np.pi / 16)
    c, s = np.cos(th), np.sin(th)
    r1, r2 = r1[..., None, None], r2[..., None, None]
    parts = np.broadcast_arrays(r1 * c[:, None], r1 * s[:, None], r2 * c, r2 * s)
    return np.asarray(psi(np.stack(parts, axis=-1))).sum(axis=(-2, -1))


def _lorentz_weights(c, h, eps):
    """Weights w (last axis: the nodes c + h x_j) with sum_j w_j f(c + h x_j)
    = int_{c-h}^{c+h} f(mu) eps / (mu^2 + eps^2) dmu for polynomials f of
    degree < 10; broadcasts over c, h and eps.

    With mu = c + h x and z = (i eps - c)/h the weight is Im 1/(x - z) on
    [-1, 1], whose moments q_k = int x^k / (x - z) dx follow from
    q_0 = log(1-z) - log(-1-z), q_k = z q_(k-1) + (1 - (-1)^k)/k.  Far
    from the pole (|z| > 3) Gauss weights times the Lorentzian suffice.
    """
    z = (1j * eps - c) / h
    q = [np.log(1.0 - z) - np.log(-1.0 - z)]
    for k in range(1, len(_MU_X)):
        q.append(z * q[-1] + (k % 2) * 2.0 / k)
    near = np.einsum("...k,kj->...j", np.stack(q, axis=-1).imag, _MU_VINV)
    far = _MU_W * (1.0 / (_MU_X - z[..., None])).imag
    return np.where(np.abs(z)[..., None] > 3.0, far, near)


def _eps_limit(eps, vals):
    """eps -> 0 value of a least-squares fit through the rungs.  The cone
    corner (the chart boundary sigma = 0 crossing N = offset) puts
    eps log(eps) terms in the limit, so the basis is log-aware."""
    lg = np.log(eps)
    A = np.stack([eps**0, eps * lg, eps, eps**2 * lg, eps**2, eps**3 * lg], axis=1)
    return np.linalg.lstsq(A, vals, rcond=None)[0][0]


def delta_quadric_apply(psi, offset=0.0):
    """Two-route evaluation of the delta functional of N(X) - offset.

    Surface route: (1/2) int psi dS/|X| over {N = offset}, i.e.
    (1/2) iiint psi(X(r2, th1, th2)) r2 dr2 dth1 dth2 with
    r1 = sqrt(r2^2 + offset), on 16 x 16 angles and 80 Gauss-Legendre
    nodes in r2 on [0, 6.5].

    Volume route: the +-i eps difference (1/pi) eps / ((N-offset)^2 + eps^2)
    integrated over R^4 in nu = r1^2 + r2^2 and mu = N - offset
    (dV = dnu dmu dth1 dth2 / 8).  The angular sum of psi is sampled once:
    on nu panels graded toward nu = offset on the scale of the smallest
    eps, and at each nu node on 8 equal mu panels of 10 Gauss-Legendre
    nodes.  Each eps of _DELTA_LADDER only changes the product-integration
    weights of the exact Lorentzian (Atkinson, The Numerical Solution of
    Integral Equations of the Second Kind, CUP 1997).  The last 7 rungs are
    fitted to eps -> 0; `volume_error` is the gap to the same fit one rung
    coarser.  `psi` maps an (..., 4) array to values; `offset` must be
    finite and nonnegative (the surface route's r1 = sqrt(r2^2 + offset)).
    """
    if not (math.isfinite(offset) and offset >= 0.0):
        raise ValueError("delta functional offset must be finite and >= 0")
    w_ang = (2.0 * np.pi / 16) ** 2
    radial_max = 6.5

    # surface route
    xg, wg = gauss_legendre(80)
    r2 = 0.5 * radial_max * (xg + 1.0)
    wr = 0.5 * radial_max * wg
    vals = _angular_sum(psi, np.sqrt(r2 * r2 + offset), r2)
    surface = 0.5 * w_ang * np.add.reduce(vals * r2 * wr)

    # volume route: the mu-integral is a step smoothed on scale eps around
    # nu = offset; the marks eps_min 2^k contain every coarser rung's marks
    nu_max = 2.0 * radial_max * radial_max + abs(offset) + 4.0
    marks = set(np.linspace(0.0, nu_max, 30).tolist())
    if 0.0 < offset < nu_max:
        marks.add(offset)
    m = _DELTA_LADDER[-1]
    while m < nu_max:
        marks.update(x for x in (offset - m, offset + m) if 0.0 < x < nu_max)
        m *= 2.0
    nu, nu_w = panel_nodes(sorted(marks), 10)
    # mu runs over [-nu - offset, nu - offset], where rho, sigma >= 0
    h = nu / _MU_PANELS
    c = (h - nu - offset)[:, None] + 2.0 * h[:, None] * np.arange(_MU_PANELS)
    mu = c[..., None] + h[:, None, None] * _MU_X
    rho = np.clip(0.5 * (nu[:, None, None] + mu + offset), 0.0, None)
    sig = np.clip(0.5 * (nu[:, None, None] - mu - offset), 0.0, None)
    Psi = np.array([_angular_sum(psi, a, b)
                    for a, b in zip(np.sqrt(rho), np.sqrt(sig))])
    w = _lorentz_weights(c, h[:, None], _DELTA_LADDER[:, None, None])
    vols = np.einsum("rnpj,npj,n->r", w, Psi, nu_w) * (w_ang / (8.0 * math.pi))
    vol, coarser = (_eps_limit(_DELTA_LADDER[k:k + 7], vols[k:k + 7])
                    for k in (1, 0))
    return DeltaResult(complex(surface), complex(vol), float(abs(vol - coarser)))


def delta_cone_apply(psi):
    """Cone delta functional, surface vs regularized volume routes."""
    return delta_quadric_apply(psi, 0.0)


def delta_hyperboloid_apply(psi, R):
    """Same two-route check on the hyperboloid N(X) = R^2."""
    if not R > 0:
        raise ValueError("R must be positive")
    return delta_quadric_apply(psi, R * R)


# Where the reduction oracle's path turns down; the value does not depend on it
_ORACLE_TURN = 20.0


def ft_bruteforce_damped(R, xi, sign_R2, sign_eps, eps=0.4):
    """Independent value at finite eps of the reduced transform (1/4) iint
    J0(r1 sqrt u) J0(r2 sqrt v) (u - v + c)^-2 du dv, c = sign_R2 R^2 + i sign_eps
    eps.  The u-integral is r1 K1(r1 a)/a, a = sqrt(c - v) on the principal branch
    (Gradshteyn & Ryzhik 6.565.4, nu = 0, mu = 1); r1 > r2 by I(r1, r2, c) =
    I(r2, r1, -c).  In s = sqrt(v) the rest runs on s = x - i sig tanh x, sig =
    sign(Im c), x in [0, S] (8 order-16 panels per unit), then on geometric panels
    down s(S) - i sig t, t in [0, 50/(r1 - r2)], where both Hankel halves of J0
    decay; scaled K1 and Hankel functions, exponents summed, cannot overflow.
    Supported range, else ValueError: r1, r2 in [0.05, 3], |r1 - r2| >= 1e-4 (r1 +
    r2), R in [0.1, 3], eps in [0.01, 3]; there it is within 5e-13 of damped H."""
    _check_signs(sign_R2, sign_eps)
    r1, r2 = _polar_radii(xi)
    if not (0.05 <= r1 <= 3 and 0.05 <= r2 <= 3 and 0.1 <= R <= 3
            and 0.01 <= eps <= 3 and abs(r1 - r2) >= 1e-4 * (r1 + r2)):
        raise ValueError("ft_bruteforce_damped: outside the supported range")
    c = sign_R2 * R * R + 1j * sign_eps * eps
    if r1 < r2:
        r1, r2, c = r2, r1, -c
    sig, S = math.copysign(1.0, c.imag), _ORACLE_TURN
    x, wx = panel_nodes(np.linspace(0.0, S, int(8 * S) + 1), 16)
    t0, t1 = 0.25 / max(1.0, r1 + r2), 50.0 / (r1 - r2)
    ray = np.geomspace(t0, t1, int(4 * math.log(t1 / t0)) + 2)
    t, wt = panel_nodes(np.r_[0.0, ray], 16)
    z = np.r_[x - 1j * sig * np.tanh(x), S - 1j * sig * (math.tanh(S) + t)]
    w = np.r_[wx * (1.0 - 1j * sig / np.cosh(x) ** 2), -1j * sig * wt]
    a = np.sqrt(c - z * z)
    return 0.25 * np.dot(z * r1 * kve(1, r1 * a) / a * (
        hankel1e(0, r2 * z) * np.exp(1j * r2 * z - r1 * a)
        + hankel2e(0, r2 * z) * np.exp(-1j * r2 * z - r1 * a)), w)

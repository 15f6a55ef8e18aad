"""Named verification suites.

Each builder returns a list of CheckResult and is deterministic for a
fixed SuiteConfig (randomized points come from SplitMix64 streams on the
seed, read in blocks in a fixed draw order).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from . import kalgebra, kernels, mellin, operators, oracles, special
from .geometry import (
    ConePoint,
    cone_embed,
    cone_half_measure_weight,
    cone_measure_weight,
    homogeneous_power,
    matrix_realization,
    norm,
    pair,
    quaternion_gradient_identity_residual,
    w0_act,
)
from .numerics import SplitMix64, gauss_legendre, unit_floats
from .operators import DecayCertificate
from .report import make_check

@dataclass(frozen=True)
class SuiteConfig:
    suite: str = "all"
    rho_list: tuple = (0.3, 0.7, 1.0, 2.0)
    R_list: tuple = (0.5, 1.0, 2.0)
    eps_parity: str = "both"  # "0" | "1" | "both"
    tol_scale: float = 1.0
    seed: int = 2024
    workers: int = 1

    def __post_init__(self):
        if self.eps_parity not in ("0", "1", "both"):
            raise ValueError("eps parity must be '0', '1' or 'both'")
        for name, vals in (("rho", self.rho_list), ("R", self.R_list)):
            if not vals:
                raise ValueError(f"{name} list must not be empty")
            if not all(math.isfinite(v) for v in vals):
                raise ValueError(f"{name} values must be finite")
            # a repeated value would repeat its check IDs
            if len(set(vals)) < len(vals):
                raise ValueError(f"{name} values must not repeat")
        # the mellin_ratio end-to-end checks (ray table on s in [1e-3, 400])
        # miss their 5e-5 from |rho| = 0.025 and 2.84 outward (both at
        # R = 4); rho = 0 is excluded with them
        if not all(0.2 <= abs(rho) <= 2.0 for rho in self.rho_list):
            raise ValueError("|rho| values must lie in [0.2, 2]")
        # and from R = 0.217 and 4.68 outward (both at |rho| = 2)
        if not all(0.4 <= R <= 4.0 for R in self.R_list):
            raise ValueError("R values must lie in [0.4, 4]")
        if not (math.isfinite(self.tol_scale) and self.tol_scale > 0):
            raise ValueError("tol scale must be positive and finite")
        # SplitMix64 keeps a seed's low 64 bits and truncates a fraction, so
        # other seeds would repeat the checks of another while echoing their
        # own; a worker count below 1 would be echoed but run as 1
        for name in ("seed", "workers"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must lie in [0, 2^64)")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")

    def parities(self):
        if self.eps_parity == "both":
            return (0, 1)
        return (int(self.eps_parity),)


def _sample_offcone_dual(rng, n):
    """n points (R, xi, q): R in [0.5, 2], stacked (n, 4) xi at random
    angles with <xi, xi> drawn in [0.25, 16] of random sign, and q the
    `pair` of the float xi.  A point is 6 words: R, |<xi, xi>|, the sign
    (the word's low bit), sigma, two angles."""
    w = rng.words((n, 6))
    lo, hi = np.array([(0.5, 2.0), (0.25, 16.0), (0.0, 1.0), (1.0, 4.0),
                       (0.0, 2 * math.pi), (0.0, 2 * math.pi)]).T
    R, q, _, sig, a1, a2 = (lo + (hi - lo) * unit_floats(w)).T
    q = q * np.where(w[:, 2] & np.uint64(1), 1.0, -1.0)
    sig = np.where(np.abs(q) > sig * sig, np.sqrt(np.abs(q)) * 1.3, sig)
    r1, r2 = 0.5 * (sig + q / sig), 0.5 * (sig - q / sig)
    xi = np.stack([r1 * np.cos(a1), r1 * np.sin(a1),
                   r2 * np.cos(a2), r2 * np.sin(a2)], axis=-1)
    return R, xi, pair(xi, xi)


# ranges of a cone chart's (r, theta1, theta2) draws
_CHART_LO, _CHART_HI = np.array([(0.3, 2.0), (0.0, 2 * math.pi), (0.0, 2 * math.pi)]).T


def _cone_pair_block(u):
    """Chart coordinates (..., 2, 3) of cone pairs from unit draws (..., 6),
    each pair's two (r, theta1, theta2) in stream order; draws (..., 3)
    give single points (..., 1, 3)."""
    return _CHART_LO + (_CHART_HI - _CHART_LO) * u.reshape(u.shape[:-1] + (-1, 3))


def _window_embeddings(u):
    """`cone_embed` of the chart of every 3-draw window of u, (len(u) - 2,
    4): each draw scaled as an r and as an angle once, and each angle's
    cos and sin taken once, for the two windows that read it."""
    m = len(u) - 2
    r = _CHART_LO[0] + (_CHART_HI[0] - _CHART_LO[0]) * u[:m]
    angle = _CHART_LO[1] + (_CHART_HI[1] - _CHART_LO[1]) * u[1:]
    cos, sin = np.cos(angle), np.sin(angle)
    e = np.empty((m, 4))
    e[:, 0], e[:, 1] = r * cos[:-1], r * sin[:-1]
    e[:, 2], e[:, 3] = r * cos[1:], r * sin[1:]
    return e


def _pick_pairs(rng, n, accept, size=6, extra=0):
    """The first n candidates that `accept` passes, in stream order: their
    chart pairs (n, 2, 3) and the unit draws after each pair.  A candidate
    is `size` draws, its pair first, and an accepted one takes `extra`
    more.  `accept` maps <xi, xi'> and the gap |r1 - r2| / max(r1, r2) of
    the polar radii of xi - xi' (0 where r1 or r2 is 0) to booleans.  The
    stream is read in blocks until n are accepted."""
    u, picked = np.empty(0), []
    while len(picked) < n:
        u = np.r_[u, rng.uniforms(4 * n * (size + extra))]
        # each 3-draw chart window embedded once: the candidate at offset i
        # pairs rows i and i + 3
        e = _window_embeddings(u)
        xi, xi2 = e[:-3], e[3:]
        r1, r2 = kernels._polar_radii(xi - xi2)
        gap = np.where(np.minimum(r1, r2) > 0,
                       np.abs(r1 - r2) / np.maximum(r1, r2), 0.0)
        ok = accept(pair(xi, xi2), gap).tolist()
        picked, i = [], 0
        while len(picked) < n and i + size + extra <= len(u):
            if ok[i]:
                picked.append(i)
                i += extra
            i += size
    u = u[np.add.outer(picked, np.arange(size + extra))]
    return _cone_pair_block(u[:, :6]), u[:, 6:]


def _corollary_points(rng, n):
    """Chart pairs (n, 2, 3) and R in [0.5, 2] of the corollary suite: a
    pair is kept when |<xi, xi'>| >= 0.05 and then draws its R."""
    charts, u = _pick_pairs(rng, n, lambda inner, gap: np.abs(inner) >= 0.05, extra=1)
    return charts, 0.5 + 1.5 * u[:, 0]


def _lemma_identity_points(rng, n):
    """Chart pairs (n, 2, 3) and R in [0.5, 2] of the lemma identities: a
    pair is drawn with its R and kept when the radii of xi - xi' are 20%
    apart."""
    charts, u = _pick_pairs(rng, n, lambda inner, gap: gap > 0.2, size=7)
    return charts, 0.5 + 1.5 * u[:, 0]


def _lemma_sine_points(rng, n):
    """Chart pairs (n, 2, 3) of the vanishing sine identity: kept when
    <xi, xi'> < -0.1 and the radii of xi - xi' are 25% apart."""
    return _pick_pairs(rng, n, lambda inner, gap: (inner < -0.1) & (gap > 0.25))[0]


# --------------------------------------------------------------- bessel


def suite_bessel(cfg: SuiteConfig):
    checks = []
    us = np.exp(np.linspace(math.log(0.1), math.log(20.0), 20))
    j0s, y0s = oracles.j0_oracle(us), oracles.y0_oracle(us)
    # one K0 oracle call for the points above, the two forms and the overlap
    two_us, window = (0.5, 1.0, 3.0), np.linspace(10.0, 16.0, 13)
    k0_us, k0_two, k0_window = np.split(
        oracles.kn_oracle(0, np.r_[us, two_us, window]), [20, 23])
    for i, u in enumerate(us):
        checks.append(make_check(
            f"bessel.j0_oracle.{i:02d}", "S5.eq-JY", {"u": u},
            special.bessel_j0(u), j0s[i], 1e-8))
        checks.append(make_check(
            f"bessel.y0_oracle.{i:02d}", "S5.eq-JY", {"u": u},
            special.bessel_y0(u), y0s[i], 1e-8))
        checks.append(make_check(
            f"bessel.k0_oracle.{i:02d}", "S5.eq-K", {"u": u},
            special.bessel_k0(u), k0_us[i], 1e-8))
    k0s = oracles.k0_oracle_cos(np.array(two_us))
    for i, u in enumerate(two_us):
        checks.append(make_check(
            f"bessel.k_two_forms.{i}", "S5.eq-K", {"u": u},
            k0s[i], k0_two[i], 1e-9))
    for i, n in enumerate((2, 3, 5)):
        checks.append(make_check(
            f"bessel.kn_oracle.{i}", "S5.eq-K", {"n": n, "u": 1.5},
            special.bessel_kn(n, 1.5), oracles.kn_oracle(n, 1.5), 1e-9))

    # three-term recurrence of the renormalized family, n in [-5, 5]:
    # rows of kt are the orders -6..6 at the points 2r.  K_n itself is built
    # by the equivalent recurrence for K (`special._k_table`), so besides a
    # wrong table step this checks Kt's normalization 2^n x^-n and its
    # negative-order convention
    r = np.linspace(0.1, 5.0, 21)
    kt = special.ktilde(range(-6, 7), 2 * r)
    n = np.arange(-5, 6)[:, None]
    lhs = r * r * kt[2:]
    rhs = n * kt[1:-1] + kt[:-2]
    checks.append(make_check(
        "bessel.ktilde_recurrence", "S4.K-rel", {"n_range": "[-5,5]"},
        np.max(np.abs(lhs - rhs) / np.abs(kt[1:-1])), 0.0, 1e-10))

    # derivative relation d/dr Kt_n(2r) = -2r Kt_(n+1)(2r) (finite differences)
    r = np.array([0.3, 1.0, 2.0])
    h = 1e-5 * np.maximum(1.0, r)
    ns = (-2, 0, 1, 3)
    fd = (special.ktilde(ns, 2 * (r + h)) - special.ktilde(ns, 2 * (r - h))) / (2 * h)
    cf = -2.0 * r * special.ktilde([n + 1 for n in ns], 2 * r)
    checks.append(make_check(
        "bessel.ktilde_derivative", "S4.K-deriv", {"h": "1e-5*max(1,r)"},
        np.max(np.abs(fd - cf) / np.maximum(np.abs(cf), 1e-300)), 0.0, 1e-6))

    # iterated relation (-2 d/(r dr))^m Kt_n(r) = Kt_(n+m)(r), m = 1, 2,
    # one row per n in (-1, 0, 2)
    r = np.array([0.8, 1.6, 3.0])
    h = 1e-4 * np.maximum(1.0, r)

    def op(f, x):
        return -2.0 * (f(x + h) - f(x - h)) / (2 * h) / x

    def g1(x):
        return op(lambda y: special.ktilde((-1, 0, 2), y), x)

    kt1, kt2 = special.ktilde((0, 1, 3), r), special.ktilde((1, 2, 4), r)
    worst = max(np.max(np.abs(g1(r) - kt1) / np.abs(kt1)),
                np.max(np.abs(op(g1, r) - kt2) / np.abs(kt2)))
    checks.append(make_check(
        "bessel.ktilde_iterated_derivative", "S4.K-deriv", {"m": "1,2"},
        worst, 0.0, 1e-6))

    # gamma function identities
    rho = 0.7
    refl = special.gamma_complex(0.5 - 1j * rho) * special.gamma_complex(0.5 + 1j * rho)
    checks.append(make_check(
        "gamma.reflection", "S6.gamma-chain", {"rho": rho},
        refl, math.pi / math.cosh(math.pi * rho), 1e-12, kind="rel"))
    checks.append(make_check(
        "gamma.gamma1", "S6.gamma-chain", {}, special.gamma_complex(1.0), 1.0,
        1e-13))
    checks.append(make_check(
        "gamma.gamma_half", "S6.gamma-chain", {}, special.gamma_complex(0.5),
        math.sqrt(math.pi), 1e-13))
    worst = 0.0
    for x, y in SplitMix64(cfg.seed).uniforms(
            (20, 2), (-3.5, -10.0), (4.0, 10.0)).tolist():
        z = complex(x, y)
        if abs(z.imag) < 0.05 and z.real <= 0:
            z += 0.5j
        lhs = special.gamma_complex(z + 1.0)
        rhs = z * special.gamma_complex(z)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    checks.append(make_check(
        "gamma.recurrence", "S6.gamma-chain", {"n_points": 20},
        worst, 0.0, 1e-11))

    # worst production-vs-oracle difference over 13-point windows
    xs = np.linspace(6.0, 12.0, 13)
    dj = np.max(np.abs(special.bessel_j0(xs) - oracles.j0_oracle(xs)))
    dy = np.max(np.abs(special.bessel_y0(xs) - oracles.y0_oracle(xs)))
    dk = np.max(np.abs(special.bessel_k0(window) / k0_window - 1.0))
    checks.append(make_check(
        "bessel.overlap_j0", "S5.eq-JY", {"window": "[6,12]"}, dj, 0.0,
        2e-6))
    checks.append(make_check(
        "bessel.overlap_y0", "S5.eq-JY", {"window": "[6,12]"}, dy, 0.0,
        2e-6))
    checks.append(make_check(
        "bessel.overlap_k0", "S5.eq-K", {"window": "[10,16]"}, dk,
        0.0, 1e-8))

    # first positive zero of J0 bracketed near 2.4048
    lo, hi = 2.0, 3.0
    j0_lo = special.bessel_j0(lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        j0_mid = special.bessel_j0(mid)
        if j0_lo * j0_mid <= 0:
            hi = mid
        else:
            lo, j0_lo = mid, j0_mid
    checks.append(make_check(
        "bessel.j0_first_zero", "S5.eq-JY", {}, 0.5 * (lo + hi),
        2.404825557695773, 1e-9))
    checks.append(make_check(
        "bessel.j0_at_zero", "S5.eq-JY", {}, special.bessel_j0(0.0), 1.0,
        1e-15))

    # large-argument sanity bound K0(u) e^u sqrt(u) -> sqrt(pi/2)
    u = 200.0
    checks.append(make_check(
        "bessel.k0_asymptotic_scale", "S5.eq-K", {"u": u},
        special.bessel_k0(u) * math.exp(u) * math.sqrt(u),
        math.sqrt(math.pi / 2.0), 1e-3))
    return checks


# --------------------------------------------------------------- kernels


def _gaussian_family():
    return {
        "plain": lambda X: np.exp(-(X**2).sum(axis=-1)),
        "x1sq": lambda X: np.exp(-(X**2).sum(axis=-1)) * X[..., 0] ** 2,
        "cross": lambda X: np.exp(-0.7 * (X**2).sum(axis=-1))
        * (1 + X[..., 2] * X[..., 3]),
        "shifted": lambda X: np.exp(
            -0.5 * ((X - np.array([0.3, 0, 0.2, 0])) ** 2).sum(axis=-1)
        )
        + np.exp(-0.5 * ((X + np.array([0.3, 0, 0.2, 0])) ** 2).sum(axis=-1)),
        "cosine": lambda X: np.exp(-(X**2).sum(axis=-1))
        * np.cos(X[..., 0] + X[..., 1]),
    }


def suite_kernels(cfg: SuiteConfig):
    checks = []
    # kernel branch values
    checks.append(make_check(
        "psi0.neg_branch", "S3.eq-Psi0", {"t": -0.5}, kernels.psi0(-0.5),
        -(2.0 / math.pi) * oracles.kn_oracle(0, 2.0), 1e-9))
    checks.append(make_check(
        "psi0.pos_branch", "S3.eq-Psi0", {"t": 0.5}, kernels.psi0(0.5),
        oracles.y0_oracle(2.0), 1e-9))
    checks.append(make_check(
        "phi0.neg_branch", "S6.eq-Phi0", {"t": -3.0}, kernels.phi0_plus(-3.0),
        0.0, 0.0))
    checks.append(make_check(
        "phi0.zero_limit", "S6.eq-Phi0", {"t": "1e-12"},
        kernels.phi0_plus(1e-12), 1.0, 1e-5))
    checks.append(make_check(
        "phi0.pos_branch", "S6.eq-Phi0", {"t": 0.5}, kernels.phi0_plus(0.5),
        special.bessel_j0(2.0), 1e-12))

    # logarithmic divergence toward the cone: both branches fall off like
    # -(1/pi) log(1/|t|), i.e. slope +1/pi against log|t|, matching rates
    slopes = {}
    for label, sgn in (("pos", 1.0), ("neg", -1.0)):
        tsmall = sgn * 10.0 ** -np.arange(3, 7, dtype=float)
        vals = np.array([kernels.psi0(t) for t in tsmall])
        slopes[label] = np.polyfit(np.log(np.abs(tsmall)), vals, 1)[0]
        checks.append(make_check(
            f"psi0.log_rate_{label}", "S3.eq-Psi0", {"side": label},
            slopes[label], 1.0 / math.pi, 2e-3))
    checks.append(make_check(
        "psi0.log_rate_match", "S3.eq-Psi0", {}, slopes["pos"],
        slopes["neg"], 2e-3))

    # delta functional two-route agreement (cone and hyperboloid)
    for name, psi in _gaussian_family().items():
        res = kernels.delta_cone_apply(psi)
        checks.append(make_check(
            f"delta_cone.two_routes.{name}", "S2.delta-cone", {"psi": name},
            res.volume, res.surface, 1e-5, kind="rel"))
    odd = lambda X: X[..., 0] * np.exp(-(X**2).sum(axis=-1))
    res = kernels.delta_cone_apply(odd)
    checks.append(make_check(
        "delta_cone.odd_vanishes", "S2.delta-cone", {"psi": "odd"},
        abs(res.surface) + abs(res.volume), 0.0, 1e-8))
    away = lambda X: np.exp(-(X**2).sum(axis=-1)) * np.clip(
        norm(X) - 1.0, 0.0, None) ** 2
    res = kernels.delta_cone_apply(away)
    checks.append(make_check(
        "delta_cone.support_away", "S2.delta-cone", {"psi": "off-cone"},
        abs(res.surface) + abs(res.volume), 0.0, 1e-6))
    res = kernels.delta_hyperboloid_apply(_gaussian_family()["plain"], 1.0)
    checks.append(make_check(
        "delta_hyperboloid.two_routes", "S2.delta-hyperboloid", {"R": 1.0},
        res.volume, res.surface, 1e-5, kind="rel"))

    # production reduction vs the polar-reduced finite-eps oracle
    xi = np.array([1.5, 0.0, 0.5, 0.0])
    for sR, se in ((-1, 1), (1, 1)):
        got = kernels.ft_bruteforce_damped(1.0, xi, sR, se, eps=0.4)
        ref = kernels._reduced_transform(1.0, xi, sR, se, 0.4).value
        checks.append(make_check(
            f"ft.reduction_oracle.sR{sR:+d}", "S5.eq-ft-reduction",
            {"eps": 0.4, "sign_R2": sR}, got, ref, 1e-12, kind="rel"))
    return checks


# --------------------------------------------------------------- fourier


# the check ID part of each (sign_R2, sign_eps), in check order
_FT_SIGN_IDS = [f".sR{sR:+d}.se{se:+d}" for sR in (-1, 1) for se in (-1, 1)]


def suite_fourier(cfg: SuiteConfig):
    R, xi, q = _sample_offcone_dual(SplitMix64(cfg.seed), 50)
    # conjugation symmetry and real spacelike branches on a subsample
    subsample = _sample_offcone_dual(SplitMix64(cfg.seed + 1), 6)

    # every transform of the suite is one batch, in check order
    batch = [(R_i, xi_i, sR, se) for R_i, xi_i in zip(R, xi)
             for sR in (-1, 1) for se in (-1, 1)]
    for R_i, xi_i, q_i in zip(*subsample):
        sR = 1 if q_i > 0 else -1  # K-branch (purely real) for this q
        batch += [(R_i, xi_i, -1, +1), (R_i, xi_i, -1, -1), (R_i, xi_i, sR, +1)]
    ft = kernels.ft_regularized(*(np.array(column) for column in zip(*batch)))
    values, estimates = iter(ft.value.tolist()), iter(ft.error_estimate.tolist())
    # the 200 closed-form references are one more batch, in check order
    signs = np.array([-1, 1])
    refs = iter(kernels.ft_closed_form(
        R[:, None, None], q[:, None, None], signs[:, None], signs).ravel().tolist())

    checks = []
    for i, (R_i, q_i) in enumerate(zip(R.tolist(), q.tolist())):
        for signs in _FT_SIGN_IDS:
            ref = next(refs)
            tol = 1e-13 * max(abs(ref), 1.0)
            checks.append(make_check(
                f"ft.closed_form.{i:02d}{signs}", "S5.prop-ft", {"R": R_i, "q": q_i},
                next(values), ref, tol, estimate=next(estimates)))
    for i, (R_i, _, q_i) in enumerate(zip(*(v.tolist() for v in subsample))):
        plus, minus, val = next(values), next(values), next(values)
        checks.append(make_check(
            f"ft.conjugation.{i}", "S5.prop-ft", {"R": R_i, "q": q_i},
            minus, np.conj(plus), 1e-9))
        checks.append(make_check(
            f"ft.spacelike_real.{i}", "S5.prop-ft", {"R": R_i, "q": q_i},
            val.imag, 0.0, 1e-6))
    return checks


# --------------------------------------------------------------- corollary


def suite_corollary(cfg: SuiteConfig):
    charts, Rs = _corollary_points(SplitMix64(cfg.seed + 2), 20)
    e = cone_embed(charts)
    inners = pair(e[:, 0], e[:, 1])
    syms, antis = kernels.corollary_kernels(Rs, charts[:, 0], charts[:, 1])
    ref_syms = 0.5 * math.pi * kernels.psi0(-inners)
    ref_antis = 0.5j * math.pi * kernels.phi0_plus(-0.25 * Rs * Rs * inners)

    checks = []
    for count, (inner, R) in enumerate(zip(inners.tolist(), Rs.tolist())):
        sym, anti = syms[count], antis[count]
        checks.append(make_check(
            f"corollary.symmetric.{count:02d}", "S5.cor-kernels",
            {"inner": inner}, sym, ref_syms[count], 1e-4, kind="rel"))
        if inner > 0:
            checks.append(make_check(
                f"corollary.antisym_vanishes.{count:02d}", "S5.cor-kernels",
                {"inner": inner, "R": R}, anti, 0.0, 1e-6))
        else:
            ref = ref_antis[count]
            # absolute floor keeps the comparison meaningful at J0 zeros
            checks.append(make_check(
                f"corollary.antisym_j0.{count:02d}", "S5.cor-kernels",
                {"inner": inner, "R": R}, anti, ref,
                1e-4 * max(abs(ref), 1e-2)))
    # pair identity <xi-xi', xi-xi'> = -2 <xi, xi'>
    e = cone_embed(_cone_pair_block(SplitMix64(cfg.seed + 3).uniforms((200, 6))))
    d = e[:, 0] - e[:, 1]
    worst = float(np.max(np.abs(pair(d, d) + 2 * pair(e[:, 0], e[:, 1]))))
    checks.append(make_check(
        "corollary.pair_identity", "S5.cor-kernels", {"n": 200}, worst, 0.0,
        1e-12))
    return checks


# --------------------------------------------------------------- lemma


def suite_lemma(cfg: SuiteConfig):
    identity, Rs = _lemma_identity_points(SplitMix64(cfg.seed + 4), 10)
    # reduction r2 = 0: the second identity becomes the Y0 representation
    # (same r and theta2: r2_diff = 0 exactly)
    reduction, reduction_R = np.array([[[1.0, 0.4, 1.1], [1.0, 2.2, 1.1]]]), 1.2
    # vanishing sine identity on the sinh-dominant side (inner < 0)
    sine = _lemma_sine_points(SplitMix64(cfg.seed + 5), 3)
    sine_Rs = 1.0 + 0.3 * np.arange(3)

    charts = np.concatenate([identity, reduction, sine])
    lv = kernels.lemma_kernel_integrals(
        np.r_[Rs, reduction_R, sine_Rs], charts[:, 0], charts[:, 1])
    checks = []
    for count, R in enumerate(Rs.tolist()):
        refs = [ref[count] for ref in lv.references]
        scale = max(abs(x) for x in refs) + 1e-12
        params = {"R": R, "r1": float(lv.r1[count]), "r2": float(lv.r2[count])}
        for j, ref in enumerate(refs):
            checks.append(make_check(
                f"lemma.identity{j+1}.{count:02d}", "S5.lemma-integrals",
                params, lv.integrals[j][count], ref, 1e-3 * scale))
    k = len(identity)
    R, r1d, r2d = reduction_R, float(lv.r1[k]), float(lv.r2[k])
    checks.append(make_check(
        "lemma.r2_zero_reduction", "S5.eq-JY", {"R": R, "r1": r1d, "r2": r2d},
        lv.integrals[1][k], special.bessel_y0(R * r1d), 1e-9))
    e = cone_embed(sine)
    for found, (R, inner) in enumerate(zip(sine_Rs.tolist(),
                                           pair(e[:, 0], e[:, 1]).tolist())):
        checks.append(make_check(
            f"lemma.sine_vanishes.{found}", "S5.lemma-integrals",
            {"inner": inner, "R": R}, lv.integrals[2][k + 1 + found], 0.0, 1e-6))
    return checks


# --------------------------------------------------------------- operators


def _generic_vs_ray_checks(fexp):
    """The shipped operators (cone route) against `ray_values` (ray route),
    for the test function fexp at the base point (1, 0.7, 0.3)."""
    cases = [(f"op_fc.generic_vs_ray.s{s}", "S3.operators", {"s": s},
              operators.op_FC(fexp, ConePoint(s, 0.7, 0.3)),
              operators.ray_values(fexp, "fc", [s])[0]) for s in (0.5, 1.7)]
    cases.append((
        "op_pl.generic_vs_ray", "S6.plhat", {"s": 0.5, "R": 1.3},
        operators.op_PlHatPrime(fexp, 1.3, ConePoint(0.5, 0.7, 0.3)),
        operators.ray_values(fexp, "pl", [0.5], 1.3)[0]))
    return [make_check(*case, 5e-5 * abs(case[-1])) for case in cases]


def suite_operators(cfg: SuiteConfig):
    checks = []
    base = ConePoint(1.0, 0.7, 0.3)
    s_grid = np.exp(np.linspace(math.log(0.2), math.log(2.0), 7))
    for e in cfg.parities():
        f = operators.make_f_xi_eps(base, e)
        # parity of the angular factor (reflection and antipodal)
        th = np.linspace(0.1, 2.0 * math.pi, 17)
        refl = np.max(np.abs(
            f.angular_psi(-th, -th[::-1]) - (-1.0) ** e * f.angular_psi(th, th[::-1])))
        anti = np.max(np.abs(
            f.angular_psi(th + math.pi, th[::-1] + math.pi)
            - (-1.0) ** e * f.angular_psi(th, th[::-1])))
        checks.append(make_check(
            f"fxi.parity_reflection.e{e}", "S6.f-xi-eps", {"eps": e}, refl,
            0.0, 1e-13))
        checks.append(make_check(
            f"fxi.parity_antipodal.e{e}", "S6.f-xi-eps", {"eps": e}, anti,
            0.0, 1e-13))
        checks.append(make_check(
            f"fxi.angular_constant_parity.e{e}", "S6.f-xi-eps", {"eps": e},
            f.c_minus, (-1.0) ** e * f.c_plus, 1e-12))
        # L2 membership: ||f||^2 (radial integral in closed form, int m^2 =
        # 1/2) against the polar disc rule of its angular integral
        disc = sum(operators._angular_constants(base, f.center, f.width, e, 2))
        checks.append(make_check(
            f"fxi.l2_membership.e{e}", "S6.f-xi-eps", {"eps": e},
            operators.l2_norm_sq(f), disc / (4.0 * base.r * base.r), 1e-9, kind="rel"))

        # ray-restriction fidelity against the reference chains
        for R in (1.0, 2.0):
            pl = operators.ray_values(f, "pl", s_grid, R)
            ch = np.array([operators.chain_pl(s, R, e) for s in s_grid])
            resid = np.max(np.abs(pl - f.c_plus * ch)) / np.max(np.abs(pl))
            checks.append(make_check(
                f"op_pl.chain_fidelity.e{e}.R{R}", "S6.plhat-chain",
                {"eps": e, "R": R}, resid, 0.0, 1e-3))
        fc = operators.ray_values(f, "fc", s_grid)
        ch = np.array([operators.chain_fc(s, e) for s in s_grid])
        resid = np.max(np.abs(fc - f.c_plus * ch)) / np.max(np.abs(fc))
        checks.append(make_check(
            f"op_fc.chain_fidelity.e{e}", "S6.fc-chain", {"eps": e}, resid,
            0.0, 1e-3))
        # the same single constant calibrates both operators (Python
        # scalars, so the division is CPython's)
        s0, s_small = 0.5, 1e-3
        pl = operators.ray_values(f, "pl", [s0, s_small], 1.0)
        fc = operators.ray_values(f, "fc", [s0, s_small])
        c_pl = complex(pl[0]) / operators.chain_pl(s0, 1.0, e)
        c_fc = float(fc[0].real) / operators.chain_fc(s0, e)
        checks.append(make_check(
            f"op.common_constant.e{e}", "S6.plhat-chain", {"eps": e, "s": s0},
            c_pl, c_fc, 1e-6 * abs(c_fc)))
        # s -> 0 behavior along the ray matches the chain integrand limits
        ref = f.c_plus * operators.chain_fc(s_small, e)
        checks.append(make_check(
            f"op_fc.small_s.e{e}", "S6.fc-chain", {"eps": e, "s": s_small},
            fc[1], ref, 1e-4 * abs(ref)))
        ref = f.c_plus * operators.chain_pl(s_small, 1.0, e)
        checks.append(make_check(
            f"op_pl.small_s.e{e}", "S6.plhat-chain", {"eps": e, "s": s_small},
            pl[1], ref, 1e-4 * abs(ref)))
        # center parity: evaluation at the antipodal point flips by (-1)^e
        if e == 1:
            fexp_e = operators.make_f_xi_eps(base, e, radial="exponential")
            v_ray = operators.op_FC(fexp_e, ConePoint(0.6, 0.7, 0.3))
            v_anti = operators.op_FC(
                fexp_e, ConePoint(0.6, 0.7 + math.pi, 0.3 + math.pi))
            checks.append(make_check(
                f"op_fc.center_parity.e{e}", "S6.f-xi-eps", {"eps": e},
                v_anti, (-1.0) ** e * v_ray, 1e-12 * abs(v_ray)))

    # generic quadrature path vs the separable ray path (exp profile)
    fexp = operators.make_f_xi_eps(base, 0, radial="exponential")
    checks += _generic_vs_ray_checks(fexp)

    # kernel support: f concentrated in <xi, xi'> > 0 gives zero output
    def one_bump(r, th1, th2):
        d2 = operators._torus_dist(th1, fexp.center[0]) ** 2 \
            + operators._torus_dist(th2, fexp.center[1]) ** 2
        t = np.asarray(r) * operators._pairing(base, th1, th2)
        bump = operators._bump(np.broadcast_to(d2, t.shape).copy(), 0.5)
        return bump * np.exp(-np.abs(t))

    val = operators.op_PlHatPrime(
        operators.ConeFunction(one_bump, fexp.decay), 1.0,
        ConePoint(0.8, 0.7, 0.3))
    checks.append(make_check(
        "op_pl.half_space_support", "S6.eq-Phi0", {}, val, 0.0, 1e-12))

    # rotational equivariance of both kernels on a generic smooth function
    gauss = operators.ConeFunction(
        lambda r, t1, t2: np.exp(-np.asarray(r) ** 2 * (1.0 + 0 * t1))
        * (1.0 + 0.5 * np.cos(t1) + 0.3 * np.sin(t2)),
        DecayCertificate("gaussian", rate=1.0),
    )
    shift = (0.9, -0.6)
    gauss_rot = operators.ConeFunction(
        lambda r, t1, t2: gauss.values(r, t1 - shift[0], t2 - shift[1]),
        gauss.decay,
    )
    v0s = {}
    for name, op in (("fcstar", operators.op_FCstar), ("fc", operators.op_FC)):
        v0 = v0s[name] = op(gauss, ConePoint(0.9, 0.5, 1.2))
        v1 = op(gauss_rot, ConePoint(0.9, 0.5 + shift[0], 1.2 + shift[1]))
        checks.append(make_check(
            f"op_{name}.equivariance", "S3.operators", {"shift": str(shift)},
            v1, v0, 2e-6 * max(abs(v0), 1e-3)))

    # scaling covariance: rescaled input against rescaled evaluation radius.
    lam = 2.0
    gauss_scaled = operators.ConeFunction(
        lambda r, t1, t2: gauss.values(lam * np.asarray(r), t1, t2),
        DecayCertificate("gaussian", rate=lam * lam),
    )
    # With kernel K(<xi,xi'>) and density r' dr', f(lam .) at xi/lam picks
    # up exactly lam^-2 relative to f at xi under xi' -> xi'/lam.
    v_plain = operators.op_FC(gauss, ConePoint(0.8, 0.5, 1.2))
    v_scaled = operators.op_FC(gauss_scaled, ConePoint(0.8 * lam, 0.5, 1.2))
    checks.append(make_check(
        "op_fc.scaling", "S3.operators", {"lambda": lam},
        v_scaled, v_plain / lam**2, 2e-6 * max(abs(v_plain), 1e-3)))

    # self-consistency of the generic grid under refinement; the coarse
    # value is the equivariance check's
    v_coarse = v0s["fcstar"]
    v_fine = operators.op_FCstar(gauss, ConePoint(0.9, 0.5, 1.2), refine=1.6)
    checks.append(make_check(
        "op_fcstar.grid_refinement", "S3.operators", {},
        v_coarse, v_fine, 1e-5 * max(abs(v_fine), 1e-3)))

    # angular mode block-diagonality: outputs of pure modes are pure modes
    for (l, k) in ((1, 0), (0, 1)):
        mode = operators.ConeFunction(
            lambda r, t1, t2, l=l, k=k: np.exp(-np.asarray(r) ** 2)
            * np.exp(1j * (l * t1 + k * t2)),
            DecayCertificate("gaussian", rate=1.0),
        )
        thetas = [(0.0, 0.0), (1.3, 0.4), (2.1, 3.9), (4.4, 2.6)]
        outs = []
        for t1, t2 in thetas:
            v = operators.op_FC(mode, ConePoint(0.9, t1, t2))
            outs.append(v * np.exp(-1j * (l * t1 + k * t2)))
        spread = max(abs(o - outs[0]) for o in outs)
        checks.append(make_check(
            f"op_fc.mode_diagonal.l{l}k{k}", "S6.plhat-l2", {"l": l, "k": k},
            spread, 0.0, 1e-6))
    return checks


# --------------------------------------------------------------- mellin


# Tail terms (at 0, at infinity) of the per-theta chain integrands, the
# Phi0+ s^(1/2) (a - b s) / (1 + c s)^3 and the Psi0 (1 + b s^(1/2))^-3 + ...
_PER_THETA_PL_TAILS = ((0.5, 1.5, 2.5), (-1.5, -2.5, -3.5))
_PER_THETA_FC_TAILS = ((0, 0.5, 1, 1.5), (-1.5, -2, -2.5, -3))


def suite_mellin_ratio(cfg: SuiteConfig):
    checks = []
    parities = cfg.parities()
    # closed-form grid
    for e in parities:
        for rho in cfg.rho_list:
            for R in cfg.R_list:
                checks.append(make_check(
                    f"ratio.closed.e{e}.rho{rho}.R{R}", "S6.ratio",
                    {"rho": rho, "R": R, "eps": e},
                    mellin.closed_form_ratio(rho, R, e),
                    mellin.reference_ratio(rho, R, e), 1e-8, kind="rel"))
    # end-to-end grid: each ray-table ratio against its reference on its own
    table = mellin.RayTable(parities, cfg.R_list)
    rho0, R0 = cfg.rho_list[0], cfg.R_list[0]
    # the calibration checks the factor that the ratio divides out: the Pl
    # sum at (rho0, R0) is C+ times the per-theta image at theta = 0 times
    # B(1 - i rho0, 1/2)/2, the integral of cosh^-(2 - 2i rho0) over [0, inf)
    beta0 = (special.gamma_complex(1.0 - 1j * rho0) * math.sqrt(math.pi)
             / special.gamma_complex(1.5 - 1j * rho0) / 2.0)
    for e in parities:
        m_pl = mellin.per_theta_mellin_closed_forms(rho0, R0, 0.0, e)[0]
        checks.append(make_check(
            f"ratio.e2e_calibration.e{e}", "S6.ratio-e2e",
            {"rho0": rho0, "R0": R0, "eps": e},
            table.pl_sum(rho0, R0, e) / (table.c_plus[e] * m_pl * beta0), 1.0,
            5e-5, kind="rel"))
        # one "fc" Mellin sum per rho, shared by the ratios at every R
        rows = [table.ratio(rho, cfg.R_list, e) for rho in cfg.rho_list]
        for rho, row in zip(cfg.rho_list, rows):
            for R, value in zip(cfg.R_list, row):
                checks.append(make_check(
                    f"ratio.e2e.e{e}.rho{rho}.R{R}", "S6.ratio-e2e",
                    {"rho": rho, "R": R, "eps": e}, value,
                    mellin.reference_ratio(rho, R, e), 5e-5, kind="rel"))
    # intermediate Gamma/trig identities at random rho
    rhos = SplitMix64(cfg.seed + 6).uniforms(10, 0.05, 3.0)
    for i, rho in enumerate(rhos.tolist()):
        for e in (0, 1):
            res = mellin.gamma_chain_identities(rho, e)
            for name, val in res.items():
                checks.append(make_check(
                    f"gamma_chain.{name}.e{e}.{i:02d}", "S6.gamma-chain",
                    {"rho": rho, "eps": e}, val, 0.0, 1e-10))
    # per-theta closed forms against numerical Mellin of the chain
    # integrands: one transform of each chain at every (parity, theta)
    rho, R = 0.7, 1.3
    cases = [(e, theta) for e in parities for theta in (0.0, 0.8)]
    num_pl = mellin.mellin(lambda s: np.array([
        operators.chain_pl_theta_integrand(theta, s, R, e) for e, theta in cases]),
        rho, *_PER_THETA_PL_TAILS)
    num_fc = mellin.mellin(lambda s: np.array([
        operators.chain_fc_theta_integrand(theta, s, e) for e, theta in cases]),
        rho, *_PER_THETA_FC_TAILS)
    for (e, theta), v_pl, est_pl, v_fc, est_fc in zip(
            cases, num_pl.value.tolist(), num_pl.error_estimate.tolist(),
            num_fc.value.tolist(), num_fc.error_estimate.tolist()):
        m_pl, m_fc = mellin.per_theta_mellin_closed_forms(rho, R, theta, e)
        checks.append(make_check(
            f"mellin.per_theta_pl.e{e}.th{theta}", "S6.plhat-mellin",
            {"theta": theta, "rho": rho, "R": R}, v_pl, m_pl, 1e-10, kind="rel",
            estimate=est_pl))
        checks.append(make_check(
            f"mellin.per_theta_fc.e{e}.th{theta}", "S6.fc-mellin",
            {"theta": theta, "rho": rho}, v_fc, m_fc, 1e-10, kind="rel",
            estimate=est_fc))
    # theta-independence of the closed-form ratio
    for e in parities:
        vals = []
        for th in (0.0, 0.5, 1.5):
            m_pl, m_fc = mellin.per_theta_mellin_closed_forms(0.9, 1.1, th, e)
            vals.append(m_pl / m_fc)
        spread = max(abs(v - vals[0]) for v in vals)
        checks.append(make_check(
            f"ratio.theta_independent.e{e}", "S6.ratio", {"eps": e}, spread,
            0.0, 1e-12))
    # basic Mellin identities
    g = special.gamma_complex
    # f analytic at 0 (terms 1, s, s^2) and, for exp(-a s), with no upper tail
    r = mellin.mellin(lambda s: np.exp(-1.7 * s), 0.8, (0, 1, 2), ())
    checks.append(make_check(
        "mellin.exponential", "S6.mellin", {"a": 1.7, "rho": 0.8}, r.value,
        1.7 ** -(1 - 0.8j) * g(1 - 0.8j), 1e-7, kind="rel",
        estimate=r.error_estimate))
    r = mellin.mellin(lambda s: (1 + 0.9 * s) ** -2.5, 0.6, (0, 1, 2),
                      (-2.5, -3.5, -4.5))
    ref = 0.9 ** -(1 - 0.6j) * g(1 - 0.6j) * g(2.5 - 1 + 0.6j) / g(2.5)
    checks.append(make_check(
        "mellin.gr8384", "S6.gr8384", {"a": 0.9, "nu": 2.5, "rho": 0.6},
        r.value, ref, 1e-7, kind="rel", estimate=r.error_estimate))
    r = mellin.mellin(lambda s: np.exp(-s), 0.0, (0, 1, 2), ())
    checks.append(make_check(
        "mellin.rho_zero", "S6.mellin", {}, r.value, 1.0, 1e-8,
        estimate=r.error_estimate))
    # tabulated definite integrals
    for i, (a, b, tol) in enumerate(((1.0, 0.0, 1e-12), (1.0, 1.0, 1e-12),
                                     (2.0, 1.0, 1e-10))):
        (qs, qc), (cs, cc) = mellin.gr_2667_integrals(a, b)
        checks.append(make_check(
            f"gr2667.sin.{i}", "S6.gr2667", {"a": a, "b": b}, qs, cs, tol))
        checks.append(make_check(
            f"gr2667.cos.{i}", "S6.gr2667", {"a": a, "b": b}, qc, cc, tol))
    # large-rho modulus -> R^-2, both parities
    for e in parities:
        ref = mellin.reference_ratio(8.0, 1.0, e)
        checks.append(make_check(
            f"ratio.large_rho.e{e}", "S6.ratio", {"rho": 8.0}, abs(ref), 1.0,
            1e-9))
    # coth * tanh = 1 consistency of the two parities
    v0 = mellin.reference_ratio(1.0, 1.0, 0)
    v1 = mellin.reference_ratio(1.0, 1.0, 1)
    checks.append(make_check(
        "ratio.parity_product", "S6.ratio", {"rho": 1.0, "R": 1.0}, v0 * v1,
        1.0 ** complex(-4, 4) * 2.0 ** (-4j), 1e-12))
    # exponent dictionary: R-power of the reference equals R^(4l), 2l = -1+i rho
    rho = 1.4
    ref = mellin.reference_ratio(rho, 2.0, 0) / mellin.reference_ratio(rho, 1.0, 0)
    l = complex(-0.5, 0.5 * rho)
    checks.append(make_check(
        "ratio.homogeneity_exponent", "S2.thm-ratio", {"rho": rho},
        ref, 2.0 ** (4 * l), 1e-12))
    return checks


# --------------------------------------------------------------- ktypes


def suite_ktypes(cfg: SuiteConfig):
    checks = []
    m = 20
    u = SplitMix64(cfg.seed + 7).uniforms(3 * m).reshape(3, m)
    r = 0.2 + (3.0 - 0.2) * u[0]
    t1, t2 = 2 * math.pi * u[1:]
    pts = cone_embed(np.stack([r, t1, t2], axis=-1))

    def relerr(x, y, floor):
        scale = max(np.maximum(np.abs(x), np.abs(y)).max(), floor)
        return float(np.abs(x - y).max() / scale)

    worst_mult = 0.0
    worst_p = 0.0
    worst_ladder = 0.0
    elems = []
    for l in range(0, 5):
        for k in range(0, 5):
            for n in range(-2, min(l, k) + 1):
                for s1 in ((1,) if l == 0 else (1, -1)):
                    for s2 in ((1,) if k == 0 else (1, -1)):
                        elems.append(kalgebra.KBasisElement.from_powers(n, l, k, s1, s2))
    for key in elems:
        v = kalgebra.KVector({key: kalgebra.ONE_G})
        base_vals = v.evaluate(r, t1, t2)
        floor = 1e-8 * float(np.abs(base_vals).max())
        for j in (1, 2, 3, 4):
            w = kalgebra.apply_mult_xi(j, v)
            worst_mult = max(worst_mult, relerr(
                2 * pts[:, j - 1] * base_vals, w.evaluate(r, t1, t2), floor))
        amb2 = kalgebra.AmbientBasis(key, "r2")
        amb1 = kalgebra.AmbientBasis(key, "r1")
        oracle = {j: amb.p_j(j, pts)
                  for j, amb in ((1, amb2), (2, amb2), (3, amb1), (4, amb1))}
        for j in (1, 2, 3, 4):
            w = kalgebra.apply_P(j, v)
            worst_p = max(worst_p, relerr(oracle[j], w.evaluate(r, t1, t2),
                                          floor))
        for plane in (1, 2):
            for sgn in (1, -1):
                w = kalgebra.apply_raise_lower(sgn, v, plane)
                comp = kalgebra.apply_raise_lower(sgn, v, plane, composite=True)
                if w != comp:
                    worst_ladder = max(worst_ladder, 1.0)
                direct = w.evaluate(r, t1, t2)
                # oracle: 2(xi +- i xi') + (1/2)(P +- i P') applied numerically
                j = 2 * plane - 1
                mult = (pts[:, j - 1] + 1j * sgn * pts[:, j]) * base_vals * 2.0
                pcmb = oracle[j] + 1j * sgn * oracle[j + 1]
                # judge against the operand scale: the combination cancels
                # its largest terms on lattice boundaries by design
                op_scale = max(float(np.abs(mult).max()),
                               float(np.abs(pcmb).max()), floor)
                worst_ladder = max(worst_ladder,
                                   relerr(mult + 0.5 * pcmb, direct, op_scale))
    checks.append(make_check(
        "ktypes.mult_rewrites", "S4.mult-rules",
        {"elements": len(elems), "points": m}, worst_mult, 0.0, 1e-7))
    checks.append(make_check(
        "ktypes.p_rewrites", "S4.P1-display",
        {"elements": len(elems), "points": m}, worst_p, 0.0, 1e-7))
    checks.append(make_check(
        "ktypes.ladder_rewrites", "S4.prop-ladders",
        {"elements": len(elems), "points": m}, worst_ladder, 0.0, 1e-7))

    # highest-weight annihilation is exact at n = k
    annihilated = True
    for k in range(0, 4):
        for l in range(k, 5):
            # n = k: the plane-1 raising coefficient 2(k - n) vanishes
            v = kalgebra.KVector.basis(k, l, k)
            if len(kalgebra.apply_raise_lower(1, v, 1)) != 0:
                annihilated = False
            # mirrored: n = l kills the plane-2 raise
            v2 = kalgebra.KVector.basis(k, k, l)
            if len(kalgebra.apply_raise_lower(1, v2, 2)) != 0:
                annihilated = False
    checks.append(make_check(
        "ktypes.highest_weight", "S4.prop-kfinite", {}, 1.0 if annihilated
        else 0.0, 1.0, 0.0))

    # paper's unreduced multiplication step reproduced symbolically
    v = kalgebra.KVector.basis(2, 3, 1)
    raw = kalgebra.apply_plane_mult(v, 1, -1, use_krel=False)
    expect = {(kalgebra.KBasisElement(2, 2, 1), 1): kalgebra.ONE_G}
    ok_raw = raw == expect
    reduced = kalgebra.reduce_symbolic_r2(raw)
    ok_red = reduced == kalgebra.KVector({
        kalgebra.KBasisElement(1, 2, 1): kalgebra.GaussianInt(1, 0),
        kalgebra.KBasisElement(0, 2, 1): kalgebra.ONE_G,
    })
    checks.append(make_check(
        "ktypes.krel_intermediate", "S4.mult-rules", {},
        1.0 if (ok_raw and ok_red) else 0.0, 1.0, 0.0))

    # linearity at the coefficient level
    va = kalgebra.KVector.basis(1, 2, 1, kalgebra.GaussianInt(2, 1))
    vb = kalgebra.KVector.basis(0, -1, 2, kalgebra.GaussianInt(0, -3))
    lin_ok = True
    for opf in (lambda x: kalgebra.apply_P(1, x),
                lambda x: kalgebra.apply_mult_xi(2, x),
                lambda x: kalgebra.apply_raise_lower(-1, x, 2)):
        lhs = opf(va + vb)
        rhs = opf(va) + opf(vb)
        lin_ok = lin_ok and lhs == rhs
    checks.append(make_check(
        "ktypes.linearity", "S4.mult-rules", {}, 1.0 if lin_ok else 0.0, 1.0,
        0.0))

    # rotation generators: eigenvalues and the mixed-pair bracket
    key = kalgebra.KBasisElement(1, 2, -1)
    v = kalgebra.KVector({key: kalgebra.ONE_G})
    w = kalgebra.apply_X(1, 2, v)
    got = list(w.terms.values())[0]
    checks.append(make_check(
        "ktypes.x12_eigenvalue", "S3.x-generators", {"a": 2},
        complex(got), 2j, 0.0))
    amb = kalgebra.AmbientBasis(key, "r2")
    pts2 = pts[:4]
    h = 1e-5

    def diff_op(fn, p, j, k_):
        ej = np.zeros(4)
        ej[j - 1] = h
        ek = np.zeros(4)
        ek[k_ - 1] = h
        dk = (fn(p + ek) - fn(p - ek)) / (2 * h)
        dj = (fn(p + ej) - fn(p - ej)) / (2 * h)
        eps_j = 1.0 if j in (1, 2) else -1.0
        eps_k = 1.0 if k_ in (1, 2) else -1.0
        return eps_j * eps_k * p[..., j - 1] * dk - p[..., k_ - 1] * dj

    br = diff_op(lambda p: amb.x_jk(1, 3, p), pts2, 1, 2) - diff_op(
        lambda p: amb.x_jk(1, 2, p), pts2, 1, 3)
    x23 = amb.x_jk(2, 3, pts2)
    checks.append(make_check(
        "ktypes.bracket_x12_x13", "S3.x-generators", {},
        float(np.abs(br + x23).max() / np.abs(x23).max()), 0.0, 1e-6))

    # skew-symmetry of X12 in the r/2 measure on truncated smooth vectors
    xg, wg = gauss_legendre(40)
    rr = 3.0 * 0.5 * (xg + 1.0)
    wr = 3.0 * 0.5 * wg
    nth = 24
    th = np.arange(nth) * (2 * math.pi / nth)
    T1g, T2g = np.meshgrid(th, th, indexing="ij")
    bump = np.exp(-((rr - 1.2) ** 2) * 4.0)
    u_modes = [(1, 0, 1.0), (2, 1, 0.5)]
    v_modes = [(1, 0, 0.7), (0, 2, -0.3)]

    def field(modes):
        out = np.zeros((len(rr), nth, nth), dtype=complex)
        for a, b, c in modes:
            out += c * bump[:, None, None] * np.exp(
                1j * (a * T1g + b * T2g))[None]
        return out

    def x12(modes):
        return [(a, b, 1j * a * c) for a, b, c in modes]

    def inner(fu, fv):
        w_ang = (2 * math.pi / nth) ** 2
        return np.einsum("rab,rab,r->", fu, np.conj(fv),
                         wr * 0.5 * rr) * w_ang

    lhs = inner(field(x12(u_modes)), field(v_modes))
    rhs = inner(field(u_modes), field(x12(v_modes)))
    checks.append(make_check(
        "ktypes.x12_skew", "S3.x-generators", {}, lhs + rhs, 0.0, 1e-10))

    # certificates and orbit dimensions
    checks.append(make_check(
        "ktypes.certificate_inside", "S4.prop-kfinite", {"elem": "(0,2,3)"},
        1.0 if kalgebra.kfinite_certificate((0, 2, 3)) else 0.0, 1.0,
        0.0))
    checks.append(make_check(
        "ktypes.certificate_boundary", "S4.prop-kfinite", {"elem": "(1,1,1)"},
        1.0 if kalgebra.kfinite_certificate((1, 1, 1)) else 0.0, 1.0,
        0.0))
    checks.append(make_check(
        "ktypes.certificate_outside", "S4.prop-kfinite", {"elem": "(2,1,1)"},
        0.0 if kalgebra.kfinite_certificate((2, 1, 1)) else 1.0, 1.0,
        0.0))
    # the ladder walk against the closed-form orbit O(D), label by label
    dims = {}
    closed_form = True
    for l in range(0, 4):
        for k in range(0, 4):
            for n in range(-2, min(l, k) + 1):
                elem = kalgebra.KBasisElement(n, l, k)
                labels, dims[(n, l, k)] = kalgebra.orbit_closure(elem)
                closed_form = closed_form and labels == kalgebra.orbit_labels(elem)
    checks.append(make_check(
        "ktypes.orbit_dims_stable", "S4.prop-kfinite", {"orbits": len(dims)},
        1.0 if closed_form else 0.0, 1.0, 0.0))
    checks.append(make_check(
        "ktypes.orbit_dim_023", "S4.prop-kfinite", {"elem": "(0,2,3)"},
        float(dims[(0, 2, 3)]), 286.0, 0.0))

    # ambient box operator against 4th-order finite differences
    amb = kalgebra.AmbientBasis(kalgebra.KBasisElement(1, 2, 1), "r2")
    fd = kalgebra.box22_fd(amb.value, pts2)
    cf = amb.box22(pts2)
    checks.append(make_check(
        "ktypes.box22_fd", "S4.bipolar-box", {},
        float(np.abs(fd - cf).max() / np.abs(cf).max()), 0.0, 1e-6))

    # quaternionic gradient convention identity on polynomials
    polys = [
        (lambda x: x[0] ** 2 * x[2], lambda x: np.array([2 * x[0] * x[2], 0, x[0] ** 2, 0])),
        (lambda x: x[1] * x[3] ** 2 + x[0],
         lambda x: np.array([1.0, x[3] ** 2, 0, 2 * x[1] * x[3]])),
    ]
    Xs = SplitMix64(cfg.seed + 8).uniforms((len(polys), 5, 4), -2, 2)
    worst = 0.0
    for (poly, grad), block in zip(polys, Xs):
        for X in block:
            worst = max(worst, quaternion_gradient_identity_residual(poly, grad, X))
    checks.append(make_check(
        "ktypes.gradient_identity", "S3.xdx-identity", {}, worst, 0.0,
        1e-12))

    # w0 action block: 10000 points, then 30 per degree, off the cone
    rngw = SplitMix64(cfg.seed + 9)
    X = rngw.uniforms((10000, 4), -2, 2)
    X = X[np.abs(norm(X)) >= 0.05]
    phi = lambda X: np.exp(-np.abs(X).sum(axis=-1)) + X[..., 0]
    twice, ref = w0_act(lambda Y: w0_act(phi, Y), X), phi(X)
    worst = np.max(np.abs(twice - ref) / np.maximum(np.abs(ref), 1e-10), initial=0.0)
    checks.append(make_check(
        "w0.involution", "S3.w0-action", {"n_points": 10000}, worst, 0.0,
        1e-10))
    worst = 0.0
    for two_l, X in zip((-1.0, complex(-1.0, 1.4), 0.0, 2.0),
                        rngw.uniforms((4, 30, 4), -2, 2)):
        l = two_l / 2.0
        X = X[norm(X) >= 0.05]
        ang = lambda Y: 1.0 + 0.3 * Y[..., 0] / np.sqrt((Y**2).sum(axis=-1))
        hom = lambda Y: homogeneous_power(Y, l) * ang(Y)
        got = w0_act(hom, X)
        ref = 2.0 ** (4 * l + 2) * homogeneous_power(X, -2 * l - 1) * hom(X)
        worst = max(worst, np.max(np.abs(got - ref) / np.abs(ref), initial=0.0))
    checks.append(make_check(
        "w0.homogeneous_multiplier", "S3.w0-action", {"degrees": "4"},
        worst, 0.0, 1e-10))
    X = SplitMix64(cfg.seed + 10).uniforms((50, 4), -2, 2)
    det = np.linalg.det(matrix_realization(X))
    worst = np.max(np.abs(det.real - norm(X)) + np.abs(det.imag))
    checks.append(make_check(
        "geometry.det_realization", "S3.identification", {"n": 50}, worst,
        0.0, 1e-12))

    # cone measure density against the thin-shell oracle
    for r0 in (0.5, 1.0, 2.0):
        ratio = _shell_oracle_ratio(r0)
        checks.append(make_check(
            f"geometry.cone_measure.r{r0}", "S4.hilbert-iso", {"r": r0},
            ratio, 1.0, 1e-6, kind="rel"))
        checks.append(make_check(
            f"geometry.half_density.r{r0}", "S4.hilbert-iso", {"r": r0},
            2.0 * cone_half_measure_weight(ConePoint(r0, 0.0, 0.0)),
            cone_measure_weight(ConePoint(r0, 0, 0)),
            1e-14))
    return checks


def _shell_oracle_ratio(r0, width=0.1):
    """Thin-shell volume oracle for the dS/|xi| radial density.

    Computes lim_{h->0} (1/h) int_{|N|<h} f dV for a separable bump
    f = g(r1) g(r2) concentrated near r = r0 (only flat polar volume
    measure is used), and divides by the claimed chart value
    (2 pi)^2 int g(r)^2 w(r) dr with w(r) = r.  Returns ~1 iff the density
    claim holds.
    """
    xg, wg = gauss_legendre(60)

    def g(x):
        return np.exp(-(((x - r0) / width) ** 2))

    lo, hi = max(r0 - 6 * width, 0.05 * r0), r0 + 6 * width
    hs = (0.02 * r0 * r0, 0.01 * r0 * r0, 0.005 * r0 * r0)
    shell_vals = []
    for h in hs:
        r2 = 0.5 * (hi + lo) + 0.5 * (hi - lo) * xg
        w2 = 0.5 * (hi - lo) * wg
        acc = 0.0
        for rv, wv in zip(r2, w2):
            a = math.sqrt(max(rv * rv - h, 0.0))
            b = math.sqrt(rv * rv + h)
            r1 = 0.5 * (a + b) + 0.5 * (b - a) * xg
            w1 = 0.5 * (b - a) * wg
            acc += wv * g(rv) * rv * np.dot(g(r1) * r1, w1)
        shell_vals.append((2.0 * math.pi) ** 2 * acc / h)
    # the expansion is even in h: the quadratic in h^2 through the three
    # values, at h = 0
    shell = np.polynomial.polynomial.polyfit(np.square(hs), shell_vals, 2)[0]
    rq = 0.5 * (hi + lo) + 0.5 * (hi - lo) * xg
    wq = 0.5 * (hi - lo) * wg
    claimed = (2.0 * math.pi) ** 2 * np.dot(
        g(rq) ** 2 * np.array([cone_measure_weight(ConePoint(v, 0, 0)) for v in rq]),
        wq)
    return float(shell) / float(claimed)


SUITE_BUILDERS = {
    "bessel": suite_bessel,
    "kernels": suite_kernels,
    "fourier": suite_fourier,
    "corollary": suite_corollary,
    "lemma": suite_lemma,
    "operators": suite_operators,
    "mellin_ratio": suite_mellin_ratio,
    "ktypes": suite_ktypes,
}
SUITE_NAMES = tuple(SUITE_BUILDERS)


def build_suite(cfg: SuiteConfig):
    """All checks of the configured suite ('all' concatenates every suite)."""
    if cfg.suite == "all":
        names = SUITE_NAMES
    elif cfg.suite in SUITE_BUILDERS:
        names = (cfg.suite,)
    else:
        raise KeyError(f"unknown suite {cfg.suite!r}")
    if cfg.workers > 1 and len(names) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            parts = list(pool.map(lambda n: SUITE_BUILDERS[n](cfg), names))
    else:
        parts = [SUITE_BUILDERS[n](cfg) for n in names]
    checks = [_scale_tolerance(c, cfg.tol_scale) for part in parts for c in part]
    return sorted(checks, key=lambda c: c.check_id)


def _scale_tolerance(check, scale):
    """`check` with its tolerance times `scale`; an exact check (tolerance
    0) tightened below scale 1 gets -1.0, so that it fails too.  A check
    whose tolerance does not change (scale 1) is returned as it is."""
    tol = check.tolerance
    if tol > 0:
        tol *= scale
    elif scale < 1:
        tol = -1.0
    if tol == check.tolerance:
        return check
    return replace(check, tolerance=tol)

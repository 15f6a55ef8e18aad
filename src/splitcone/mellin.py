"""Mellin-transform machinery and the ratio of the two operators' images.

The transform convention is M f(rho) = int_0^inf f(s) s^(1-i rho) ds/s.
Every Mellin sum is a `MellinRule`: log-s Gauss panels on a window, and
beyond each edge tail terms s^p (log s)^k that are facts of the
integrand, the exponents of its expansions at 0 and at infinity.

The ratio M Pl / M FC must equal `reference_ratio`, R^(-2+2i rho)
2^(-2i rho) times coth(pi rho/2) for even parity or tanh(pi rho/2) for
odd parity.  It is computed two ways:

  * `closed_form_ratio`: the per-theta Mellin images of the two ray chains
    are explicit Gamma-function expressions, taken at theta = 0.  That
    their ratio does not depend on theta is a check of its own
    (`ratio.theta_independent.e*` in the `mellin_ratio` suite).
  * `RayTable.ratio`: both operators are applied on the ray s -> s xi0
    at the nodes of a rule on s in [1e-3, 400] and transformed by it.
    The `mellin_ratio` suite compares each such ratio to the reference on
    its own, with no fitted constant.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import ConePoint
from .numerics import Estimate, panel_nodes
from .operators import _with_parity, make_f_xi_eps, ray_rows, ray_values
from .special import gamma_complex

__all__ = [
    "MellinRule",
    "mellin",
    "gr_2667_integrals",
    "per_theta_mellin_closed_forms",
    "closed_form_ratio",
    "RayTable",
    "reference_ratio",
    "gamma_chain_identities",
]


class MellinRule:
    """M f(rho) from the values of f at the rule's nodes `s`: one row of
    values, or a 2-D array of rows, each transformed.

    Inside [s_lo, s_hi]: Gauss-Legendre of order 8 on equal panels in
    log s, at most `step` long.  Beyond each edge f is a sum of the tail
    terms `lower` (at 0) or `upper` (at infinity), a number p standing for
    s^p and a pair (p, 1) for s^p log s.  Their coefficients c are fitted
    by least squares on the edge panel's nodes.  With mu = p + 1 - i rho a
    term's tail is c e^mu / mu at the edge e, times (log e - 1/mu) for a
    log term, negated above.  A call gives an `Estimate` whose estimate is
    the last fitted term of each tail.  Supported: 0 < s_lo < s_hi < inf,
    0 < step < inf, tail terms of log power 0 or 1 whose tails converge
    (p + 1 > 0 below, p + 1 < 0 above, for every rho) and a finite rho;
    ValueError otherwise.
    """

    def __init__(self, lower, upper, s_lo, s_hi, step):
        if not (0.0 < s_lo < s_hi < math.inf and 0.0 < step < math.inf):
            raise ValueError("a Mellin rule needs 0 < s_lo < s_hi < inf "
                             "and a finite step > 0")
        x_lo, x_hi = math.log(s_lo), math.log(s_hi)
        breaks = np.linspace(x_lo, x_hi, math.ceil((x_hi - x_lo) / step) + 1)
        self._x, self._w = panel_nodes(breaks, 8)
        self.s = np.exp(self._x)
        # (sign, edge, [(p, k)], edge nodes, least-squares map to the
        # coefficients); the sign is -1 above, where a tail is negated
        self._tails = []
        for sign, edge, terms, idx in ((1.0, s_lo, lower, slice(0, 8)),
                                       (-1.0, s_hi, upper, slice(-8, None))):
            terms = [t if isinstance(t, tuple) else (t, 0) for t in terms]
            for p, k in terms:
                if k not in (0, 1):
                    raise ValueError("a tail term has log power 0 or 1")
                if not sign * (p + 1.0) > 0.0:
                    raise ValueError(f"the tail of s^{p} past {edge} diverges")
            if terms:
                s = self.s[idx]
                A = np.array([s**p * np.log(s) if k else s**p for p, k in terms])
                scale = np.abs(A).max(axis=1, keepdims=True)
                u, sv, vt = np.linalg.svd((A / scale).T, full_matrices=False)
                fit = (vt.T / sv) @ u.T / scale
                self._tails.append((sign, edge, terms, idx, fit))

    def __call__(self, values, rho):
        if not math.isfinite(rho):
            raise ValueError("a Mellin sum needs a finite rho")
        values = np.asarray(values, dtype=complex)
        total = values * np.exp((1.0 - 1j * rho) * self._x) @ self._w
        last = 0.0
        for sign, edge, terms, idx, fit in self._tails:
            tails = []
            for c, (p, k) in zip(fit @ values[..., idx].T, terms):
                # the exponent of s in f(s) s^(1-i rho)/s ds, integrated
                mu = p + 1.0 - 1j * rho
                tail = c * edge**mu / mu
                if k:
                    tail *= math.log(edge) - 1.0 / mu
                tails.append(tail if sign > 0.0 else -tail)
            total = total + sum(tails)
            last = last + abs(tails[-1])
        return Estimate(total, last)


def mellin(f, rho, lower, upper):
    """M f(rho) by the `MellinRule` of the tail terms lower and upper on
    s in [1e-6, 1e6] at panels of 0.65 in log s.  The estimate adds to the
    rule's own the gap to the same rule at 1.3, half the resolution."""
    full, half = (rule(f(rule.s), rho) for rule in (
        MellinRule(lower, upper, 1e-6, 1e6, step) for step in (0.65, 1.3)))
    return Estimate(full.value,
                    abs(full.value - half.value) + full.error_estimate)


def gr_2667_integrals(a, b):
    """(int_0^inf t^2 e^{-at} sin(bt) dt, ... cos(bt) dt) by quadrature,
    with the rational closed forms 2b(3a^2-b^2)/(a^2+b^2)^3 and
    2a(a^2-3b^2)/(a^2+b^2)^3 attached for comparison.

    Returns ((sin_quad, cos_quad), (sin_closed, cos_closed))."""
    if not a > 0:
        raise ValueError("requires a > 0")
    t_max = (math.log(1e16) + 12.0) / a
    step = min(t_max / 40.0, math.pi / max(1.0, abs(b)) / 3.0)
    n_pan = int(math.ceil(t_max / step))
    t, w = panel_nodes(np.linspace(0.0, t_max, n_pan + 1), 12)
    base = t * t * np.exp(-a * t)
    sin_q = float(np.dot(base * np.sin(b * t), w))
    cos_q = float(np.dot(base * np.cos(b * t), w))
    den = (a * a + b * b) ** 3
    sin_c = 2.0 * b * (3.0 * a * a - b * b) / den
    cos_c = 2.0 * a * (a * a - 3.0 * b * b) / den
    return (sin_q, cos_q), (sin_c, cos_c)


def per_theta_mellin_closed_forms(rho, R, theta, parity_eps):
    """The two per-theta Mellin images of the ray chains, via Gamma values.

    Returns (m_pl, m_fc):
      m_pl = (-1)^(e+1) (2/pi) rho(1-2i rho)/cosh(pi rho)
             * (sqrt2 R cosh th)^(-2+2i rho)
      m_fc = (8i/pi) rho(1-2i rho)/cosh(pi rho) * (2 sqrt2 cosh th)^(-2+2i rho)
             * (i tanh(pi rho/2) if e = 0 else -i coth(pi rho/2))
    using cos(pi i rho) = cosh(pi rho), tan(pi i rho/2) = i tanh(pi rho / 2),
    cot(pi i rho/2) = -i coth(pi rho/2).
    """
    if rho == 0.0:
        raise ValueError("rho = 0 degenerates the trigonometric factor")
    if parity_eps not in (0, 1):
        raise ValueError("parity_eps must be 0 or 1")
    ch = math.cosh(theta)
    core = rho * (1.0 - 2j * rho) / math.cosh(math.pi * rho)
    p_pl = (math.sqrt(2.0) * R * ch) ** complex(-2.0, 2.0 * rho)
    sign = -1.0 if parity_eps == 0 else 1.0  # (-1)^(e+1)
    m_pl = sign * (2.0 / math.pi) * core * p_pl
    p_fc = (2.0 * math.sqrt(2.0) * ch) ** complex(-2.0, 2.0 * rho)
    trig = (
        1j * math.tanh(0.5 * math.pi * rho)
        if parity_eps == 0
        else -1j / math.tanh(0.5 * math.pi * rho)
    )
    m_fc = (8j / math.pi) * core * p_fc * trig
    return m_pl, m_fc


def gamma_chain_identities(rho, parity_eps=0):
    """Residuals of the three Gamma/trigonometric identities used by the
    closed-form evaluation.  Returns a dict of relative residuals."""
    g = gamma_complex
    i = 1j
    # (i) 3 G(3/2-ir)G(3/2+ir) - G(5/2-ir)G(1/2+ir)
    #     = G(1/2-ir)G(1/2+ir)(1/2-ir) * 4 i rho
    lhs1 = 3.0 * g(1.5 - i * rho) * g(1.5 + i * rho) - g(2.5 - i * rho) * g(
        0.5 + i * rho
    )
    rhs1 = g(0.5 - i * rho) * g(0.5 + i * rho) * (0.5 - i * rho) * (4j * rho)
    # (ii) 2 G(2-2ir)G(1+2ir) + (-1)^e (G(1-ir)G(2+ir) - 3 G(2-ir)G(1+ir))
    #      = i rho [4(1-2ir)G(1-2ir)G(2ir) + (-1)^e G(1-ir)G(ir)((1+ir)-3(1-ir))]
    s = -1.0 if parity_eps else 1.0
    lhs2 = 2.0 * g(2.0 - 2j * rho) * g(1.0 + 2j * rho) + s * (
        g(1.0 - i * rho) * g(2.0 + i * rho) - 3.0 * g(2.0 - i * rho) * g(1.0 + i * rho)
    )
    rhs2 = (1j * rho) * (
        4.0 * (1.0 - 2j * rho) * g(1.0 - 2j * rho) * g(2j * rho)
        + s * g(1.0 - i * rho) * g(i * rho) * ((1.0 + i * rho) - 3.0 * (1.0 - i * rho))
    )
    # (iii) 2/sin(2 pi i rho) - (-1)^e/sin(pi i rho)
    #       = (1/cos(pi i rho)) * (tan(pi i rho / 2) if e=0 else cot)
    x = math.pi * rho
    lhs3 = 2.0 / (1j * math.sinh(2.0 * x)) - s / (1j * math.sinh(x))
    trig = 1j * math.tanh(0.5 * x) if parity_eps == 0 else -1j / math.tanh(0.5 * x)
    rhs3 = trig / math.cosh(x)
    out = {}
    for name, lhs, rhs in (
        ("gamma_product", lhs1, rhs1),
        ("duplication_chain", lhs2, rhs2),
        ("trig_reduction", lhs3, rhs3),
    ):
        out[name] = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    return out


def reference_ratio(rho, R, parity_eps):
    """R^(-2+2i rho) 2^(-2i rho) coth(pi rho/2) (even) / tanh (odd)."""
    if rho == 0.0:
        raise ValueError("rho = 0 excluded")
    fac = R ** complex(-2.0, 2.0 * rho) * 2.0 ** complex(0.0, -2.0 * rho)
    t = math.tanh(0.5 * math.pi * rho)
    return fac * ((1.0 / t) if parity_eps == 0 else t)


def _check_rho_R(rho, R):
    if not (math.isfinite(rho) and rho != 0.0 and math.isfinite(R) and R > 0):
        raise ValueError("rho must be finite and nonzero, R finite and positive")


def closed_form_ratio(rho, R, parity_eps):
    """M Pl / M FC from the per-theta Gamma expressions at theta = 0 (the
    ratio does not depend on theta; the module docstring names the check)."""
    _check_rho_R(rho, R)
    m_pl, m_fc = per_theta_mellin_closed_forms(rho, R, 0.0, parity_eps)
    return m_pl / m_fc


# Tail terms (at 0, at infinity) of the ray values for the weight
# W(u) = 2 u^2 e^-u of "sqrt_exponential": the poles of the rows'
# Mellin-Barnes form int_0^inf W(u) k(c u) du = (1/2 pi i) int M[W](1 - z)
# M[k](z) c^-z dz, c^2 ~ s (Bleistein & Handelsman, Asymptotic Expansions
# of Integrals, 1975, ch. 4).  At 0 those of M[k]: double at z = 0, -2, -4
# for K0 and Y0 (1, log s, s, s log s, s^2, s^2 log s), simple for J0 (1,
# s, s^2, s^3).  At infinity those of M[W](1 - z) = 2 Gamma(3 - z), z = 3,
# 4, ... (terms s^(-z/2)), less the zeros of M[k]: M[J0](z) = 2^(z-1)
# Gamma(z/2) / Gamma(1 - z/2) at z = 4, 6, 8, M[Y0] at z = 3, 5 (K0 has none).
_FC_ROW_TAILS = ((0, (0, 1), 1, (1, 1), 2, (2, 1)), (-1.5, -2, -2.5, -3))
_PL_ROW_TAILS = ((0, 1, 2, 3), (-1.5, -2.5, -3.5, -4.5))
# s in [1e-3, 400] by 10 panels: the 80 nodes the rays are evaluated on
_RAY_WINDOW = (1e-3, 400.0, 1.3)


class RayTable:
    """Ray evaluations of both operators at the nodes of a log-s
    `MellinRule`, for each parity and R given; `ratio` gives M Pl / M FC
    and `pl_sum` its numerator.

    The operators act on the test function of each parity at the base
    point (1, 0.7, 0.3), radial profile "sqrt_exponential"; its bump
    placement does not depend on the parity, so it is searched once.  The
    radial rows do not depend on the parity either, so the "fc" rows are
    built once, and the "pl" rows of every R in one call; for this profile
    they are closed forms, with no Bessel function evaluated (`ray_rows`).
    On the 80 nodes, 558 of those 560 rows at R = 0.4, 0.5, 1, 2, 4 are
    mpmath's rounded to float, and a Y0 and a J0 row are a unit in the last
    place off, so the ratios are within 4.8e-16 of those from mpmath's rows.
    The table keeps the values, in `fc` (by parity) and `pl` (by parity
    and R), and each test function's angular constant C+ in `c_plus` (by
    parity), the factor that the ratio divides out.  The Mellin sums fit
    the values' tails with the terms of `_FC_ROW_TAILS` and
    `_PL_ROW_TAILS`: both chains close like s^(-3/2), and the Psi0 ("fc")
    values open like A + B log s, the Phi0+ ("pl") ones like a constant.
    Over |rho| in [0.2, 2] and R in [0.4, 4] the ratio is within 1.21e-5 of
    `reference_ratio`, 2.6e-7 on the suite's default lists.
    """

    def __init__(self, parities, R_list):
        self._fc_rule = MellinRule(*_FC_ROW_TAILS, *_RAY_WINDOW)
        self._pl_rule = MellinRule(*_PL_ROW_TAILS, *_RAY_WINDOW)
        s, radial = self._fc_rule.s, "sqrt_exponential"
        fc_rows = ray_rows(radial, "fc", s)
        j0_rows, = ray_rows(radial, "pl", s, np.reshape(R_list, (-1, 1)))
        self.fc, self.pl, self.c_plus = {}, {}, {}
        f = None
        for e in parities:
            # one bump placement search serves both parities
            f = (make_f_xi_eps(ConePoint(1.0, 0.7, 0.3), e, radial)
                 if f is None else _with_parity(f, e))
            self.c_plus[e] = f.c_plus
            self.fc[e] = ray_values(f, "fc", s, rows=fc_rows)
            for R, row in zip(R_list, j0_rows):
                self.pl[e, R] = ray_values(f, "pl", s, R, [row])

    def pl_sum(self, rho, R, parity_eps):
        """M Pl(rho) at R for the parity, from the table's "pl" values."""
        if (parity_eps, R) not in self.pl:
            raise ValueError(f"ray table has no values at R = {R}")
        return self._pl_rule(self.pl[parity_eps, R], rho).value

    def ratio(self, rho, R, parity_eps):
        """M Pl / M FC at (rho, R, parity) from the table's values.  For a
        sequence of R, a list of the ratios at each, over one "fc" sum."""
        Rs = list(R) if np.ndim(R) else [R]
        for each in Rs:
            _check_rho_R(rho, each)
        if parity_eps not in self.fc:
            raise ValueError(f"ray table has no parity {parity_eps}")
        fc = self._fc_rule(self.fc[parity_eps], rho).value
        out = [self.pl_sum(rho, each, parity_eps) / fc for each in Rs]
        return out if np.ndim(R) else out[0]

"""Mellin-transform machinery and the ratio of the two operators' images.

The transform convention is M f(rho) = int_0^inf f(s) s^(1-i rho) ds/s.
The ratio M Pl / M FC must equal `reference_ratio`, R^(-2+2i rho)
2^(-2i rho) times coth(pi rho/2) for even parity or tanh(pi rho/2) for
odd parity.  It is computed two ways:

  * `closed_form_ratio`: the per-theta Mellin images of the two ray chains
    are explicit Gamma-function expressions, whose ratio must not depend
    on theta.
  * `RayTable.ratio`: both operators are applied on the ray s -> s xi0
    over a log-s Gauss grid and Mellin-transformed numerically (with
    analytic power-law tail corrections).  The `mellin_ratio` suite
    compares it to the reference after calibrating one overall constant
    at its first rho and R, and reports the constant (it should be 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ConePoint
from .numerics import panel_nodes
from .operators import make_f_xi_eps, ray_rows, ray_values
from .special import gamma_complex

__all__ = [
    "MellinResult",
    "MellinRule",
    "mellin",
    "mellin_power_tail",
    "gr_2667_integrals",
    "per_theta_mellin_closed_forms",
    "closed_form_ratio",
    "RayTable",
    "reference_ratio",
    "gamma_chain_identities",
]


@dataclass(frozen=True)
class MellinResult:
    rho: float
    value: complex
    error_estimate: float


class MellinRule:
    """M f(rho) by order-12 Gauss-Legendre panels in log s, 10 per octave,
    on a certified window: the rule is built once, and each call applies
    it to one f.

    Below s_lo, f is taken as the constant f(s_lo) and that tail is added
    in closed form.  The caller certifies that f contributes less than the
    target accuracy above s_hi (power-law windows can be corrected
    separately with `mellin_power_tail`).  The error estimate is the
    difference from a half-resolution pass plus the size of the lower tail.
    Supported: finite s_lo and s_hi with 0 < s_lo < s_hi, and a finite rho;
    ValueError otherwise.
    """

    def __init__(self, rho, s_lo=1e-8, s_hi=1e8):
        if not (0.0 < s_lo < s_hi < math.inf and math.isfinite(rho)):
            raise ValueError(
                "mellin needs 0 < s_lo < s_hi < inf and a finite rho")
        self.rho, self.s_lo = rho, s_lo
        x_lo, x_hi = math.log(s_lo), math.log(s_hi)
        n_pan = max(8, int(math.ceil((x_hi - x_lo) * 10 / math.log(2.0))))
        # (s, s^(1-i rho) ds/s in log s, weights) at full and half resolution
        self._passes = []
        for npan in (n_pan, max(4, n_pan // 2)):
            x, w = panel_nodes(np.linspace(x_lo, x_hi, npan + 1), 12)
            self._passes.append((np.exp(x), np.exp((1.0 - 1j * rho) * x), w))

    def __call__(self, f):
        f_lo = np.asarray(f(np.full(1, self.s_lo)), dtype=complex).ravel()[0]
        tail = mellin_power_tail(complex(f_lo), 0.0, self.rho, self.s_lo, "lower")
        v1, v0 = (complex(np.dot(np.asarray(f(s), dtype=complex) * kernel, w))
                  + tail for s, kernel, w in self._passes)
        return MellinResult(float(self.rho), v1, abs(v1 - v0) + abs(tail))


def mellin(f, rho, s_lo=1e-8, s_hi=1e8):
    """M f(rho) by one `MellinRule(rho, s_lo, s_hi)`, with its window, its
    range and its error estimate."""
    return MellinRule(rho, s_lo, s_hi)(f)


def mellin_power_tail(coeff, power, rho, s_edge, side):
    """Closed-form M-contribution of coeff * s^power beyond a window edge.

    side="lower": int_0^s_edge; side="upper": int_s_edge^inf.  Used to
    correct truncated numerical windows when the asymptotic exponents of
    the integrand are known.  Supported: a finite s_edge > 0 and a tail that
    converges, Re mu > 0 below and Re mu < 0 above, mu = power + 1 - i rho;
    ValueError otherwise (a divergent tail has no value to return).
    """
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper', not {side!r}")
    if not (math.isfinite(s_edge) and s_edge > 0.0):
        raise ValueError("the window edge must be finite and positive")
    mu = power + 1.0 - 1j * rho  # exponent of s in f(s) s^(1-i rho)/s ds
    if not (mu.real > 0.0 if side == "lower" else mu.real < 0.0):
        raise ValueError(f"the {side} tail of s^{power} diverges")
    if side == "lower":
        return coeff * s_edge**mu / mu
    return -coeff * s_edge**mu / mu


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


_THETAS = (0.0, 0.5, 1.5)  # the angles closed_form_ratio compares


def closed_form_ratio(rho, R, parity_eps):
    """M Pl / M FC from the per-theta Gamma expressions; raises
    ArithmeticError unless it is the same at every angle of _THETAS."""
    _check_rho_R(rho, R)
    vals = [m_pl / m_fc for m_pl, m_fc in (
        per_theta_mellin_closed_forms(rho, R, th, parity_eps) for th in _THETAS)]
    if max(abs(v - vals[0]) for v in vals) > 1e-11 * abs(vals[0]):
        raise ArithmeticError("closed-form ratio is not theta-independent")
    return vals[0]


class RayTable:
    """Ray evaluations of both operators on a log-s Gauss grid, with the
    power laws fitted at the grid's edges, for each parity and R given.

    The operators act on the test function of each parity at the base point
    (1, 0.7, 0.3).  The radial rows behind the values do not depend on the
    parity, so the "fc" rows are built once, and the "pl" rows of every R
    in one call that evaluates J0 on one x grid.  The grid of s doubles as
    the Mellin quadrature rule (10 Gauss-Legendre panels of order 8 in log
    s on [s_lo, s_hi]); known asymptotic exponents supply analytic tail
    models: the Phi0+ chain opens like s^(1/2) and closes like s^(-3/2);
    the Psi0 chain has an s -> 0 form A + B log s and closes like
    s^(-3/2), s^(-2).  `ratio` gives M Pl / M FC from them.
    """

    s_lo = 1e-3
    s_hi = 400.0
    radial = "sqrt_exponential"
    x, w = panel_nodes(np.linspace(math.log(s_lo), math.log(s_hi), 11), 8)
    s = np.exp(x)

    def __init__(self, parities, R_list):
        fc_rows = ray_rows(self.radial, "fc", self.s)
        j0_rows, = ray_rows(self.radial, "pl", self.s, np.reshape(R_list, (-1, 1)))
        pl_rows = {R: [row] for R, row in zip(R_list, j0_rows)}
        # parity -> (values, edge fits) of FC, (parity, R) -> those of Pl;
        # s -> 0: FC like A + B log s (+ C sqrt s), Pl like A (+ sqrt, linear)
        self.fc, self.pl = {}, {}
        for e in parities:
            f = make_f_xi_eps(ConePoint(1.0, 0.7, 0.3), e, self.radial)
            vals = ray_values(f, "fc", self.s, rows=fc_rows)
            self.fc[e] = vals, self._edge_fits(vals, [0.0, "log", 0.5])
            for R, rows in pl_rows.items():
                vals = ray_values(f, "pl", self.s, R, rows)
                self.pl[e, R] = vals, self._edge_fits(vals, [0.0, 0.5, 1.0])

    def _edge_fits(self, vals, lower_powers):
        """[(side, edge, powers, c)] of the least-squares fits vals ~ sum c_k
        s^powers[k]: lower_powers on the first 8 nodes, s^(-3/2), s^(-2) and
        s^(-5/2) on the last 12."""
        fits = []
        for side, edge, powers, idx in (
                ("lower", self.s_lo, lower_powers, np.arange(8)),
                ("upper", self.s_hi, [-1.5, -2.0, -2.5], np.arange(-12, 0))):
            s = self.s[idx]
            A = np.stack([s**p if p != "log" else np.log(s) for p in powers], axis=1)
            coef = np.linalg.lstsq(A, vals[idx], rcond=None)[0]
            fits.append((side, edge, powers, coef))
        return fits

    def _mellin_with_tails(self, vals, fits, rho):
        """Grid Mellin sum plus the closed-form tails of the fitted powers.
        The power "log" is the term log s, whose tail is
        int_0^e s^(mu-1) log s ds = e^mu (log e / mu - 1/mu^2)."""
        mu = 1.0 - 1j * rho
        total = complex(np.dot(vals * np.exp(mu * self.x), self.w))
        for side, edge, powers, coef in fits:
            total += sum(
                c * edge**mu * (math.log(edge) / mu - 1.0 / (mu * mu))
                if p == "log" else mellin_power_tail(c, p, rho, edge, side)
                for c, p in zip(coef, powers)
            )
        return total

    def ratio(self, rho, R, parity_eps):
        """M Pl / M FC at (rho, R, parity) from the table's values; a
        numpy complex, as the fitted tails are."""
        _check_rho_R(rho, R)
        if parity_eps not in self.fc:
            raise ValueError(f"ray table has no parity {parity_eps}")
        if (parity_eps, R) not in self.pl:
            raise ValueError(f"ray table has no values at R = {R}")
        return (self._mellin_with_tails(*self.pl[parity_eps, R], rho)
                / self._mellin_with_tails(*self.fc[parity_eps], rho))

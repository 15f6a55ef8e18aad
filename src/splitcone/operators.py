"""Integral operators on the dual light cone and the localized test
functions used to probe them.

Geometry of the angular factor.  With a base cone point at angles
(T1, T2), the Lorentz pairing of a chart point (r', th1, th2) against the
base is r0 r' g(th1, th2), g = cos(th1-T1) - cos(th2-T2), and the
Euclidean pairing uses h = cos(th1-T1) + cos(th2-T2).  In rotated angular
coordinates ph_p = (al+be)/2, ph_m = (al-be)/2 (al = th1-T1, be = th2-T2)
these factor:

    g = -2 sin(ph_p) sin(ph_m),      h = 2 cos(ph_p) cos(ph_m),

so kernel singular lines and sign regions are coordinate lines of the
rotated grid; the quadrature ends tanh-sinh panels on them and prunes
half-space-restricted kernels cell by cell.

Test functions.  f(xi') = psi(th') |<xi0,xi'>|^(-1/2) m(|<xi0,xi'>|) with
m(t) = exp(-sqrt(t)) by default (option "exponential" for exp(-t)); psi is
a Klein-group symmetrized bump

    psi = B_c + (-1)^e B_(-c) + (-1)^e B_(c+pi) + B_(-c-pi),

which satisfies both the reflection parity psi(-th) = (-1)^e psi(th) and
the antipodal parity psi(th+pi) = (-1)^e psi(th).  The antipodal parity is
what makes the two angular constants C+- = int_{+-g>0} psi/g^2 satisfy
C- = (-1)^e C+, so the operator restrictions to the ray through the base
point are a single common constant times explicit radial transforms; the
bump centers are searched so that g is bounded away from zero on every
bump (keeping the |.|^(-1/2) factor nonsingular on supp psi and the level
set {<xi0, xi'> = 1} compactly within it).

Routes.  The `op_*` functions always integrate over the cone, for any f
and xi; the ray route (C+- times `ray_rows`) is `ray_values` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from . import special
from .geometry import ConePoint
from .kernels import phi0_plus, psi0
from .numerics import gauss_legendre, panel_nodes

__all__ = [
    "DecayCertificate",
    "ConeFunction",
    "TestFunctionFxiEps",
    "make_f_xi_eps",
    "op_FCstar",
    "op_FC",
    "op_PlHatPrime",
    "ray_rows",
    "ray_values",
    "chain_pl_theta_integrand",
    "chain_fc_theta_integrand",
    "chain_pl",
    "chain_fc",
    "l2_norm_sq",
]


@dataclass(frozen=True)
class DecayCertificate:
    """Radial decay class of a cone function, used to certify truncation.

    kinds: "exponential" (<= C exp(-rate r)), "sqrt_exponential"
    (<= C exp(-rate sqrt(r))), "gaussian" (<= C exp(-rate r^2)).
    """

    kind: str
    rate: float = 1.0

    def truncation_radius(self, tol):
        logt = math.log(1.0 / tol)
        if self.kind == "exponential":
            return logt / self.rate
        if self.kind == "sqrt_exponential":
            return (logt / self.rate) ** 2
        if self.kind == "gaussian":
            return math.sqrt(logt / self.rate)
        raise ValueError(f"unknown decay kind {self.kind!r}")


@dataclass(frozen=True)
class ConeFunction:
    """A function on the punctured dual cone in bipolar coordinates.

    `values(r, th1, th2)` must broadcast over numpy arrays.
    """

    values: callable
    decay: DecayCertificate

    def __call__(self, r, th1, th2):
        return self.values(r, th1, th2)


def _torus_dist(a, b):
    return np.mod(a - b + np.pi, 2.0 * np.pi) - np.pi


def _bump(d2, w):
    # exp(-1/(1-(d/w)^2)) on d < w, smooth compact bump
    out = np.zeros_like(d2)
    inside = d2 < w * w
    t = d2[inside] / (w * w)
    out[inside] = np.exp(-1.0 / (1.0 - t))
    return out


def _pairing(base: ConePoint, th1, th2):
    """g(th) = cos(th1-T1) - cos(th2-T2) relative to the base point."""
    return np.cos(th1 - base.theta1) - np.cos(th2 - base.theta2)


def _klein_orbit(c1, c2, parity_eps=0):
    """((centre, coefficient of its bump in psi), ...) over the orbit c, -c,
    c+pi, -c-pi; c1, c2 may be arrays."""
    s = -1.0 if parity_eps else 1.0
    return (((c1, c2), 1.0), ((-c1, -c2), s), ((c1 + np.pi, c2 + np.pi), s),
            ((-c1 - np.pi, -c2 - np.pi), 1.0))


@dataclass(frozen=True)
class _Profile:
    """A radial profile m of the test function and what the code uses of it."""

    m: callable  # m(t)
    weight: callable  # m(u^2): t = u^2 gives the ray rows the weight 2 u^2 m(u^2)
    u_max: float  # end of the rows' u range
    u_step: float  # step of the rows' u grid (`ray_rows`)
    rate: callable  # decay rate of f's certificate, from r0 g_min
    m_sq_integral: float  # int_0^inf m(t)^2 dt, the radial factor of ||f||^2


# The u range ends where the weight's tail integral is negligible against
# the rows: for "sqrt_exponential" that tail, 2 (U^2 + 2U + 2) e^-U, is
# 8.2e-16 at U = 43; the exponential profile's range sqrt(log 1e12) + 4 =
# 9.26 leaves a tail of 6e-37.  The u grid serves every c <= pi / u_step,
# so the step in x = c u is at most pi on both of the rows' grids.
# Order-10 panels of 4 integrate the weight 2 u^2 e^-u to the rows'
# rounding, and panels of 1 the weight 2 u^2 e^-u^2: the J0 rows are within
# 7.3e-16 and 6.3e-16 of the largest row, and 1.3e-11 and 4.6e-11 at twice
# these steps.
_PROFILES = {
    "sqrt_exponential": _Profile(
        m=lambda t: np.exp(-np.sqrt(t)), weight=lambda u: np.exp(-u),
        u_max=43.0, u_step=4.0, rate=math.sqrt, m_sq_integral=0.5),
    "exponential": _Profile(
        m=lambda t: np.exp(-t), weight=lambda u: np.exp(-u * u),
        u_max=math.sqrt(math.log(1e12)) + 4.0, u_step=1.0,
        rate=lambda a: a, m_sq_integral=0.5),
}


def _profile(radial):
    """The `_PROFILES` entry of a radial profile; ValueError for any other name."""
    if radial not in _PROFILES:
        raise ValueError(f"unknown radial profile {radial!r}")
    return _PROFILES[radial]


@dataclass(frozen=True)
class TestFunctionFxiEps:
    """Localized test function f(xi') = psi * |<xi0,xi'>|^(-1/2) m(|.|)."""

    base_xi: ConePoint
    parity_eps: int
    width: float
    center: tuple
    decay: DecayCertificate  # its kind is the radial profile m
    c_plus: float = field(compare=False)
    c_minus: float = field(compare=False)
    g_min: float = field(compare=False)

    @property
    def centers_and_coeffs(self):
        return _klein_orbit(*self.center, self.parity_eps)

    def _orbit_d2(self, th1, th2):
        """[(squared torus distance to a bump centre, its coefficient)]."""
        th1 = np.asarray(th1, dtype=float)
        th2 = np.asarray(th2, dtype=float)
        return [(_torus_dist(th1, c1) ** 2 + _torus_dist(th2, c2) ** 2, coeff)
                for (c1, c2), coeff in self.centers_and_coeffs]

    def angular_psi(self, th1, th2):
        return sum(coeff * _bump(d2, self.width)
                   for d2, coeff in self._orbit_d2(th1, th2))

    def pairing_factor(self, th1, th2):
        """g(th) relative to the base point."""
        return _pairing(self.base_xi, th1, th2)

    def radial_part(self, t):
        """|t|^(-1/2) m(|t|) against the pairing value t."""
        a = np.abs(np.asarray(t, dtype=float))
        return a**-0.5 * _PROFILES[self.decay.kind].m(a)

    def values(self, r, th1, th2):
        g = self.pairing_factor(th1, th2)
        t = self.base_xi.r * np.asarray(r, dtype=float) * g
        psi = self.angular_psi(th1, th2)
        psi, t = np.broadcast_arrays(psi, t)
        out = np.zeros(t.shape)
        m = psi != 0.0
        if np.any(m):
            out[m] = psi[m] * self.radial_part(t[m])
        return out

    def angular_support_mask(self, th1, th2):
        """True where some bump of psi can be nonzero."""
        return np.any([d2 < self.width * self.width
                       for d2, _ in self._orbit_d2(th1, th2)], axis=0)

    def __call__(self, r, th1, th2):
        return self.values(r, th1, th2)


# Candidate offsets of the bump centre from (T1, T2 + pi), per angle.
_CENTER_OFFSETS = np.linspace(-1.2, 1.2, 13)
# Angles at which min |g| is sampled on each candidate disc's edge.
_EDGE_ANGLES = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)


def _search_center(base: ConePoint, width):
    """Deterministic grid search for a bump center whose Klein orbit keeps
    |g| bounded away from zero and the four discs disjoint.

    Scores every candidate at once by min |g| on the edges of the discs at
    c and -c (the discs at c + pi and -c - pi see -g).  The critical points
    of g have |g| in {0, 2}, so where g does not vanish on a disc, |g| is
    smallest on its edge.  Returns (score, centre), or None when no
    candidate keeps its discs apart.
    """
    d1, d2 = np.meshgrid(_CENTER_OFFSETS, _CENTER_OFFSETS, indexing="ij")
    c1 = base.theta1 + d1
    c2 = base.theta2 + math.pi + d2
    orbit = [c for c, _ in _klein_orbit(c1, c2)]
    sep = np.min([np.hypot(_torus_dist(a1, b1), _torus_dist(a2, b2))
                  for (a1, a2), (b1, b2) in combinations(orbit, 2)], axis=0)
    ex, ey = width * np.cos(_EDGE_ANGLES), width * np.sin(_EDGE_ANGLES)
    score = np.min([np.abs(_pairing(base, o1[..., None] + ex, o2[..., None] + ey))
                    for o1, o2 in orbit[:2]], axis=(0, 3))
    score[sep < 2.0 * width + 0.15] = -np.inf
    k = np.unravel_index(np.argmax(score), score.shape)
    if score[k] == -np.inf:
        return None
    return float(score[k]), (float(c1[k]), float(c2[k]))


def make_f_xi_eps(base_xi: ConePoint, parity_eps, radial="sqrt_exponential"):
    """Construct the symmetrized test function at the given base point.

    Shrinks the bump width from 0.8 (at most three times, by 0.7) until the pairing factor
    is bounded away from zero on every bump and the discs are disjoint.
    The angular constants C+- and their parity relation C- = (-1)^e C+ are
    computed at construction for diagnostics and calibration checks.
    """
    if parity_eps not in (0, 1):
        raise ValueError("parity_eps must be 0 or 1")
    profile = _profile(radial)
    w = 0.8
    found = None
    for _ in range(4):
        best = _search_center(base_xi, w)
        if best is not None and best[0] > 0.25:
            found = best
            break
        w *= 0.7
    if found is None:
        raise ValueError("no admissible bump placement at this base point")
    g_min, center = found
    cp, cm = _angular_constants(base_xi, center, w, parity_eps)
    return TestFunctionFxiEps(
        base_xi=base_xi,
        parity_eps=parity_eps,
        width=w,
        center=center,
        decay=DecayCertificate(radial, profile.rate(base_xi.r * g_min)),
        c_plus=cp,
        c_minus=cm,
        g_min=g_min,
    )


def _with_parity(f, parity_eps):
    """f's test function at parity_eps: the bump placement does not depend
    on the parity, so only the angular constants C+- are computed again."""
    if parity_eps not in (0, 1):
        raise ValueError("parity_eps must be 0 or 1")
    cp, cm = _angular_constants(f.base_xi, f.center, f.width, parity_eps)
    return replace(f, parity_eps=parity_eps, c_plus=cp, c_minus=cm)


def _angular_constants(base, center, width, parity_eps, power=1):
    """C+- = int_{+-g>0} psi / g^2 over the angular torus; at power 2 the
    same integrals of psi^2 / g^2 (the discs are disjoint, so psi^2 is the
    sum of the squared bumps).

    Each bump depends only on the distance to its centre, so it is
    integrated in polar coordinates about that centre: 40 Gauss-Legendre
    radii times 20 trapezoid angles.
    """
    x, wx = gauss_legendre(40)
    r = 0.5 * width * (x + 1.0)
    wr = (0.5 * width * wx) * r * _bump(r * r, width) ** power
    a = np.arange(20) * (2.0 * np.pi / 20)
    cp = 0.0
    cm = 0.0
    for (c1, c2), coeff in _klein_orbit(*center, parity_eps):
        g = _pairing(base, c1 + np.outer(r, np.cos(a)), c2 + np.outer(r, np.sin(a)))
        val = coeff**power * (2.0 * np.pi / 20) * float(np.sum(wr[:, None] / (g * g)))
        if np.median(np.sign(g)) > 0:
            cp += val
        else:
            cm += val
    return cp, cm


# ----- separable fast path: on the ray, C+- times parity-free radial rows -----


# Depth of the grading toward 0 of the K0 and Y0 rows: the first panel of
# length step is cut at step / 2^k, k = 1.._GRADED (step / 2^20 is 3.8e-6
# at step 4 and 3.0e-6 at step pi).  A Gauss panel [a, 2a] resolves the log singularity of K0
# and Y0 at 0 to about 5e-16 of its contribution ([a, 3a] only to about
# 1e-12).  J0 is entire, so its rows take no grading.
_GRADED = 20
# Most c of one kernel call on the u grid (about 300 nodes): 160 kB a kernel.
_C_BLOCK = 64
# K0(x) <= sqrt(pi / 2x) e^-x (DLMF 10.40(ii)) is below half the least
# subnormal float from x = 745 on, so K0 rounds to 0.0 there (scipy's K0
# is 0.0 from x = 742.09): the x grid evaluates it below _K0_ZERO only.
_K0_ZERO = 745.0


def _u_grid(step, n, halvings):
    """Order-10 panel nodes and weights on [0, n step]: panels of length
    step (at most the kernels' oscillation length), the first one graded
    toward 0 by `halvings` halvings where the kernels are log-singular.

    It depends on nothing but its arguments, and its breaks step k are
    computed one by one, so the grid of n panels is the first 10
    (halvings + n) nodes of every longer one.  `ray_rows` builds it twice
    a call at most: in u at the profile's u step and in x = c u at step pi."""
    breaks = np.concatenate([[0.0], step / 2.0 ** np.arange(halvings, 0, -1),
                             step * np.arange(1.0, n + 1.0)])
    return panel_nodes(breaks, 10)


def _checked_s(op, s_grid, R):
    """s_grid as an array, after checking op, s and (for "pl") R."""
    s = np.asarray(s_grid, dtype=float)
    if op not in ("fc", "pl"):
        raise ValueError(op)
    R_ok = op == "fc" or R is not None and np.all(np.isfinite(R) & (np.asarray(R) > 0))
    if not (np.all(np.isfinite(s) & (s > 0.0)) and R_ok):
        raise ValueError("ray evaluation needs finite s > 0 and R > 0")
    return s


def ray_rows(radial, op, s_grid, R=None):
    """Radial rows int_0^inf W(u) fn(c u) du of op's ray restriction, W the
    weight 2 u^2 m(u^2) of `_PROFILES`: fn = K0 and Y0 at c = 2 sqrt(2s) for "fc",
    J0 at c = R sqrt(2s) for "pl".  R may be an array that broadcasts against
    s_grid; the rows then take the broadcast shape, and all of them share
    one x grid.

    Up to c = pi / u_step (pi / 4 for "sqrt_exponential", pi for
    "exponential") every row takes one shared u grid of that step, and each
    kernel is evaluated at c u for up to `_C_BLOCK` c at once.  Past it the
    panels are pi / c long in u, so pi long in x = c u: each kernel is
    evaluated once on one x grid, as far as the largest c needs (K0 only
    below `_K0_ZERO`, where it is not 0.0), and each such c takes a prefix
    of it, weighted by W(x / c) / c.  Either way the step in x is at most
    pi.  Only the K0 and Y0 grids are graded toward 0 (`_GRADED`).  The
    prefix has about 137 c nodes, so c is supported up to 3e3 (0.4 M
    nodes: the "fc" row at s = 1e6)."""
    profile = _profile(radial)
    root = np.sqrt(2.0 * _checked_s(op, s_grid, R))
    kinds, cs = (("k0", "y0"), 2.0 * root) if op == "fc" else (
        ("j0",), np.asarray(R, dtype=float) * root)
    shape, cs = cs.shape, cs.ravel()
    if np.any(cs > 3.0e3):
        raise ValueError("ray rows are supported for c <= 3e3")
    fns = [getattr(special, "bessel_" + kind) for kind in kinds]
    halvings = _GRADED if op == "fc" else 0
    u_max, step = profile.u_max, profile.u_step
    rows = np.empty((len(kinds), len(cs)))
    small = cs <= math.pi / step
    if small.any():
        u, w = _u_grid(step, math.ceil(u_max / step), halvings)
        weight = 2.0 * u * u * profile.weight(u) * w
        at = np.flatnonzero(small)
        for block in np.split(at, range(_C_BLOCK, at.size, _C_BLOCK)):
            fu = [fn(cs[block, None] * u) for fn in fns]
            for t, i in enumerate(block.tolist()):
                rows[:, i] = [np.dot(f[t], weight) for f in fu]
    if not small.all():
        panels = [math.ceil(c * u_max / math.pi) for c in cs.tolist()]
        x, wx = _u_grid(math.pi, max(panels), halvings)
        fx = []
        for kind, fn in zip(kinds, fns):
            n = int(np.searchsorted(x, _K0_ZERO)) if kind == "k0" else x.size
            fx.append(np.concatenate([fn(x[:n]), np.zeros(x.size - n)]))
        # W(x / c) / c = m(x^2 / c^2) 2 x^2 / c^3: the 2 x^2 goes into the
        # weights once, so each c takes one exp
        x2w = 2.0 * x * x * wx
        for i in np.flatnonzero(~small).tolist():
            m = 10 * (halvings + panels[i])
            c = float(cs[i])
            wc = profile.weight(x[:m] / c) * x2w[:m]
            rows[:, i] = [np.dot(f[:m], wc) / (c * c * c) for f in fx]
    return list(rows.reshape((len(kinds),) + shape))


# ----- generic path -----


def _tanh_sinh(h):
    """Tanh-sinh rule x = (1 + tanh(pi/2 sinh t))/2 on [0, 1] at t = k h,
    |t| <= 3.2: (each node's distance from its nearer end, whether that end
    is 1, weight).  Nodes are placed at these distances from a panel end,
    not at x, so the node next to the zero line at 0 is never 0 itself
    (psi0 raises there; sin and cos vanish at no other float)."""
    t = h * np.arange(-int(3.2 / h), int(3.2 / h) + 1)
    near = 1.0 / (1.0 + np.exp(np.pi * np.sinh(np.abs(t))))
    return near, t > 0, h * np.pi * np.cosh(t) * near * (1.0 - near)


def _angular_rule(zero_lines, refine):
    """Nodes and weights over [0, 2pi) for an integrand log-singular on the
    zero lines: each interval between consecutive zero lines (0 and 2pi as
    ends) is cut into equal panels of length at most 0.25/refine; its two
    end panels get tanh-sinh at step 0.25/refine, the rest order-6 Gauss."""
    h = 0.25 / refine
    near, right, w_ts = _tanh_sinh(h)
    ends = sorted({0.0, 2.0 * np.pi, *zero_lines})
    nodes, weights = [], []
    for a, b in zip(ends[:-1], ends[1:]):
        br = np.linspace(a, b, math.ceil((b - a) / h) + 1)
        first, last = br[1] - a, b - br[-2]
        x, w = panel_nodes(br[1:-1], 6)
        nodes += [np.where(right, br[1] - first * near, a + first * near), x,
                  np.where(right, b - last * near, br[-2] + last * near)]
        weights += [first * w_ts, w, last * w_ts]
    return np.concatenate(nodes), np.concatenate(weights)


# Absolute accuracy the generic path's radial truncation is certified for.
_GENERIC_TOL = 1e-9
# Most radial nodes of the generic path.
_GENERIC_MAX_NODES = 4096
# Most kernel points and most angular rows in one block of the generic
# path: 2,000 rows of up to 136 radial nodes, as many as the suites use.
_GENERIC_BLOCK_POINTS = 272_000
_GENERIC_BLOCK_ROWS = 2000


def _apply_generic(f, xi: ConePoint, kernel, pairing, prefactor,
                   half_space=None, refine=1.0):
    """Kernel integral over the cone with density r' dr' dth1 dth2.

    kernel(vals) maps pairing values to kernel values; pairing is
    "lorentz" (g) or "euclid" (h); half_space="negative" restricts to the
    sign(g) < 0 cells of the rotated grid (analytic support detection).
    Radial integration runs in v = sqrt(r'), which absorbs a |pairing|^-1/2
    factor of f and linearizes the Bessel kernel oscillation.  When f
    exposes `angular_support_mask`, angular nodes outside the support are
    pruned before any kernel work.

    Supported range: finite xi.r and at most 4096 radial nodes (8 a panel
    of length min(0.5, pi / (4 sqrt(xi.r)))); ValueError otherwise, before
    any kernel work.  The sqrt-exponential f_xi at base radius 1 needs
    3,392 nodes at xi.r = 64.
    """
    if not math.isfinite(xi.r):
        raise ValueError("the cone route needs a finite xi.r")
    v_max = math.sqrt(f.decay.truncation_radius(_GENERIC_TOL * 1e-2))
    osc = 2.0 * math.sqrt(2.0 * xi.r * 2.0)
    n_pan = max(10, int(math.ceil(refine * v_max / min(0.5, math.pi / osc))))
    if 8 * n_pan > _GENERIC_MAX_NODES:
        raise ValueError(f"xi.r = {xi.r:g} needs {8 * n_pan} radial nodes")
    lorentz = pairing == "lorentz"
    zeros = [0.0, np.pi] if lorentz else [0.5 * np.pi, 1.5 * np.pi]
    ph, w = _angular_rule(zeros, refine)
    trig = np.sin(ph) if lorentz else np.cos(ph)
    gfac = (-2.0 if lorentz else 2.0) * np.outer(trig, trig)
    PP, PM = np.meshgrid(ph, ph, indexing="ij")
    th1, th2 = xi.theta1 + PP + PM, xi.theta2 + PP - PM

    keep = gfac < 0.0 if half_space == "negative" else np.ones_like(gfac, bool)
    mask_fn = getattr(f, "angular_support_mask", None)
    if mask_fn is not None:
        keep &= mask_fn(th1, th2)
    gk, wk = gfac[keep], np.outer(w, w)[keep]
    t1k, t2k = th1[keep][:, None], th2[keep][:, None]

    v, wv = panel_nodes(np.linspace(0.0, v_max, n_pan + 1), 8)
    rr = (v * v)[None, :]
    wmeas = wv * 2.0 * v**3  # r' dr' = v^2 * 2v dv

    # blocks of angular rows, at most _GENERIC_BLOCK_POINTS kernel points
    # each, so memory does not grow with the radial node count
    block = min(_GENERIC_BLOCK_ROWS, _GENERIC_BLOCK_POINTS // v.size)
    partials = []
    for i0 in range(0, gk.size, block):
        sl = slice(i0, i0 + block)
        kv = kernel(xi.r * gk[sl][:, None] * rr)
        fv = f(rr, t1k[sl], t2k[sl])
        partials.append(np.einsum("av,v,a->", kv * fv, wmeas, wk[sl]))
    total = np.add.reduce(np.array(partials)) if partials else 0.0j
    return prefactor * total


def op_FCstar(f, xi: ConePoint, refine=1.0):
    """(-1/pi) int Psi0(xi . xi'_euclid) f(xi') dS/|xi'| over the cone;
    refine scales the angular and radial panel counts."""
    return _apply_generic(f, xi, psi0, "euclid", -1.0 / math.pi,
                          refine=refine)


def op_FC(f, xi: ConePoint):
    """(-1/pi) int Psi0(-<xi, xi'>) f(xi') dS/|xi'| over the cone."""
    return _apply_generic(f, xi, lambda p: psi0(-p), "lorentz", -1.0 / math.pi)


def op_PlHatPrime(f, R, xi: ConePoint):
    """(i/4pi) int Phi0+(-(R^2/4) <xi, xi'>) f(xi') dS/|xi'| over the cone.

    The kernel vanishes on <xi, xi'> > 0; that half of the angular torus is
    pruned analytically from the rotated grid.
    """
    if not (math.isfinite(R) and R > 0):
        raise ValueError("R must be finite and positive")
    rr4 = 0.25 * R * R
    return _apply_generic(
        f,
        xi,
        lambda p: phi0_plus(-rr4 * p),
        "lorentz",
        1j / (4.0 * math.pi),
        half_space="negative",
    )


def ray_values(f: TestFunctionFxiEps, op, s_grid, R=None, rows=None):
    """Ray evaluations op(f)(s xi0) over a grid of s > 0 (complex array),
    op "fc" (F_C) or "pl" (Pl_R hat prime at R), from C+- and the radial
    rows; rows, if given, are `ray_rows(f.decay.kind, op, s_grid, R)`.
    This is the ray route; the `op_*` functions never take it."""
    _checked_s(op, s_grid, R)
    if rows is None:
        rows = ray_rows(f.decay.kind, op, s_grid, R)
    r0 = f.base_xi.r
    if op == "fc":
        kk, yy = rows
        return (-(1.0 / (math.pi * r0 * r0)) * (
            f.c_plus * (-(2.0 / math.pi)) * kk + f.c_minus * yy)).astype(complex)
    return (1j / (4.0 * math.pi * r0 * r0)) * f.c_minus * rows[0]


def l2_norm_sq(f: TestFunctionFxiEps):
    """||f||^2 against the r/2 dr dth1 dth2 density.  With t = r0 r g, the
    radial integral of |f|^2 r/2 dr is psi^2 / (2 r0^2 g^2) int_0^inf m^2 dt
    = psi^2 / (4 r0^2 g^2), so only the angular integral of psi^2 / g^2 is
    numerical: the trapezoid rule on 256 x 256 torus angles (2.0e-8 off the
    separable value at 160 angles, 1.4e-11 at 256)."""
    th = np.arange(256) * (2.0 * np.pi / 256)
    T1, T2 = np.meshgrid(th, th, indexing="ij")
    psi = f.angular_psi(T1, T2)
    on = psi != 0.0
    g = f.pairing_factor(T1[on], T2[on])
    r0 = f.base_xi.r
    return (_PROFILES[f.decay.kind].m_sq_integral / (2.0 * r0 * r0)
            * (2.0 * np.pi / 256) ** 2 * float(np.sum(psi[on] ** 2 / (g * g))))


# ----- reference chains for ray evaluations (theta-integrand form) -----


def chain_pl_theta_integrand(theta, s, R, parity_eps):
    """Per-theta integrand of the ray restriction of the Phi0+ operator."""
    ch = np.cosh(theta)
    num = 3.0 * R * ch * np.sqrt(s) - 2.0 * R**3 * ch**3 * s**1.5
    den = (1.0 + 2.0 * R * R * ch * ch * s) ** 3
    sign = -1.0 if parity_eps else 1.0
    return sign * (2.0 * math.sqrt(2.0) * 1j / math.pi**2) * num / den


def chain_fc_theta_integrand(theta, s, parity_eps):
    """Per-theta integrand of the ray restriction of the Psi0 operator."""
    ch = np.cosh(theta)
    first = (1.0 + 2.0 * np.sqrt(2.0 * s) * ch) ** -3.0
    second = (1.0 - 24.0 * ch * ch * s) / (1.0 + 8.0 * ch * ch * s) ** 3.0
    sign = -1.0 if parity_eps else 1.0
    return (8.0 / math.pi**2) * (first + sign * second)


def _theta_integral(fn, s):
    """int_0^inf fn(theta) dtheta for the chain integrands."""
    theta_max = math.log(4.0 / math.sqrt(min(s, 1.0))) + 14.0
    n_pan = max(12, int(theta_max / 0.5))
    nodes, w = panel_nodes(np.linspace(0.0, theta_max, n_pan + 1), 14)
    return complex(np.dot(fn(nodes), w))


def chain_pl(s, R, parity_eps):
    """Theta-integrated reference chain for the Phi0+ operator on the ray,
    in closed form: with a = 2 R^2 s, x = sinh(theta) turns the integral
    of `chain_pl_theta_integrand` into (i/pi^2) 2 sqrt(a) times the integral
    over x > 0 of 4 (1 + a + a x^2)^-3 - (1 + a + a x^2)^-2, which is
    (i / 2 pi) (2 - a) / (1 + a)^(5/2)."""
    a = 2.0 * R * R * s
    sign = -1.0 if parity_eps else 1.0
    return complex(0.0, sign * (2.0 - a) / (2.0 * math.pi * (1.0 + a) ** 2.5))


def chain_fc(s, parity_eps):
    """Theta-integrated reference chain for the Psi0 operator on the ray."""
    return _theta_integral(
        lambda th: chain_fc_theta_integrand(th, s, parity_eps), s
    )

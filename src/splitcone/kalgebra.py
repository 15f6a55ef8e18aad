"""Exact algebra of the Bessel-monomial basis on the dual cone, with a
numerical ambient-differential oracle for every rewrite rule.

Basis indexing.  The function attached to (n, a, b) is

    r^(|a|+|b|) Kt_n(2r) e^(i a th1) e^(i b th2),

equivalently Kt_n(2r) (xi1 + i sgn(a) xi2)^|a| (xi3 + i sgn(b) xi4)^|b|
restricted to the cone.  The classical labels (n, l, k, s1, s2) map to
a = s1 l, b = s2 k; l = 0 or k = 0 makes the sign immaterial, and the
unified integer indices make the ladder operators plain shifts of a or b.

Rewrite rules (coefficients are exact Gaussian integers):

  (xi1 + i xi2) [n,a,b] = [n,a+1,b]                        a >= 0
                        = (n-1)[n-1,a+1,b] + [n-2,a+1,b]   a < 0
  (the a < 0 branch is the three-term recurrence eliminating r^2),
  with the mirrored rule for (xi1 - i xi2) and for the second plane.

  P1 [n,a,b], a >= 1 (l = a, k = |b|):
      2((k-n)[n+1,a+1,b] - [n,a+1,b])
    + 2((n-l)(l+k-n)[n,a-1,b] + (2l+k-2n+1)[n-1,a-1,b] - [n-2,a-1,b]),
  mirrored for a <= -1; at a = 0 the derivative term drops and
  P1 [n,0,b] = 2(k-n)([n+1,1,b]+[n+1,-1,b]) - 2([n,1,b]+[n,-1,b]).

  Ladders 2(xi1 +- i xi2) + (1/2)(P1 +- i P2) shift a by +-1:
  raising |a| costs 2(|b|-n) and bumps n; lowering |a| keeps/lowers n.

Ladder orbits.  From a lattice label (n <= min(|a|, |b|)) the four
ladders reach exactly O(D) = {(|a'|+|b'|-j, a', b') : 0 <= j <= D,
|a'|, |b'| <= j}, D = |a| + |b| - n.  Its layer j has (2j+1)^2 labels,
the dimension of the K-type (j, j) of the minimal representation of
O(3,3) (Kobayashi and Orsted, Adv. Math. 180 (2003); Kobayashi and Mano,
Mem. AMS 213 (2011)), so |O(D)| = C(2D+3, 3).  `orbit_closure` walks
the ladder table, `orbit_labels` builds O(D) in closed form.

Every rule is checkable against the ambient oracle: P_j = e_j xi_j box
- 2 deg d_j evaluated in closed form on the ambient extension
Kt_n(2 r_2) M1 M2 (r_1-extension for P3, P4), restricted to cone points.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import special

__all__ = [
    "GaussianInt",
    "KBasisElement",
    "KVector",
    "apply_mult_xi",
    "apply_plane_mult",
    "apply_P",
    "apply_raise_lower",
    "apply_X",
    "kfinite_certificate",
    "orbit_closure",
    "orbit_labels",
    "AmbientBasis",
    "box22_fd",
]


class GaussianInt(NamedTuple):
    """Exact Gaussian integer re + i im.  A tuple, so hashing, equality and
    ordering are those of (re, im); + and * are Gaussian arithmetic, not
    tuple concatenation and repetition."""

    re: int = 0
    im: int = 0

    def __add__(self, o):
        o = _as_gauss(o)
        return GaussianInt(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, o):
        o = _as_gauss(o)
        return GaussianInt(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        o = _as_gauss(o)
        return GaussianInt(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __neg__(self):
        return GaussianInt(-self.re, -self.im)

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __complex__(self):
        return complex(self.re, self.im)

    def __repr__(self):
        return f"({self.re}{self.im:+d}i)"


I_G = GaussianInt(0, 1)
ONE_G = GaussianInt(1, 0)
_ZERO_G = GaussianInt(0, 0)


def _as_gauss(x):
    if isinstance(x, GaussianInt):
        return x
    if isinstance(x, int):
        return GaussianInt(x, 0)
    raise TypeError(f"exact coefficients only (got {type(x).__name__})")


class KBasisElement(NamedTuple):
    """Basis label (n, a, b); see the module docstring for the function.
    A tuple, so hashing, equality and ordering are those of (n, a, b)."""

    n: int
    a: int
    b: int

    @classmethod
    def from_powers(cls, n, l, k, s1=1, s2=1):
        n, l, k = special._integers((n, l, k))
        if l < 0 or k < 0 or s1 not in (1, -1) or s2 not in (1, -1):
            raise ValueError("need l, k >= 0 and signs +-1")
        return cls(n, s1 * l, s2 * k)

    @property
    def l(self):
        return abs(self.a)

    @property
    def k(self):
        return abs(self.b)

    @property
    def s1(self):
        return 1 if self.a >= 0 else -1

    @property
    def s2(self):
        return 1 if self.b >= 0 else -1

    def in_l2_lattice(self):
        return self.n <= min(self.l, self.k)


class KVector:
    """Immutable finite combination of basis elements with exact coefficients.

    Its labels are integers: `KVector(terms)` makes each key a
    `KBasisElement` of ints (numpy integers pass) and raises ValueError on
    any other label.  The rewrites build their results from labels of
    checked vectors, so they skip that check (`_of`)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms:
            terms = {KBasisElement(*special._integers(key)): coeff
                     for key, coeff in terms.items()}
        self._set(terms)

    @classmethod
    def _of(cls, terms):
        """The vector of a rewrite's own terms, whose labels are ints."""
        v = object.__new__(cls)
        v._set(terms)
        return v

    def _set(self, terms):
        clean = {}
        if terms:
            for key, coeff in terms.items():
                coeff = _as_gauss(coeff)
                if not coeff.is_zero():
                    clean[key] = coeff
        object.__setattr__(self, "terms", dict(sorted(clean.items())))

    @classmethod
    def basis(cls, n, a, b, coeff=ONE_G):
        return cls({(n, a, b): coeff})

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, _ZERO_G) + c
        return KVector._of(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, _ZERO_G) - c
        return KVector._of(out)

    def scaled(self, coeff):
        coeff = _as_gauss(coeff)
        return KVector._of({k: coeff * c for k, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, KVector) and self.terms == other.terms

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        if not self.terms:
            return "KVector(0)"
        bits = [f"{c}*[{k.n},{k.a},{k.b}]" for k, c in self.terms.items()]
        return "KVector(" + " + ".join(bits) + ")"

    def evaluate(self, r, th1, th2):
        """Sum of the terms' values at cone chart points, each term's
        function as in the module docstring; the one basis evaluator.  One
        Kt call for all orders, one array expression for all terms, summed
        along the term axis in order.  Each Kt row is bit for bit the
        single-order `special.ktilde`; r^(|a|+|b|) is numpy's power with an
        array of exponents, so a one-term vector and the same term inside a
        longer one can differ in the last bit."""
        r = np.asarray(r, dtype=float)
        shape = np.broadcast(r, th1, th2).shape
        if not self.terms:
            return np.zeros(shape, dtype=complex)
        size = len(self.terms)
        lead = (size,) + (1,) * len(shape)
        labels = np.fromiter(chain.from_iterable(self.terms), int, 3 * size)
        n, a, b = labels.reshape(size, 3).T.reshape((3,) + lead)
        coeffs = np.fromiter(chain.from_iterable(self.terms.values()), float,
                             2 * size).view(complex).reshape(lead)
        kts = special.ktilde(labels[::3].tolist(), 2.0 * r)
        phases = np.exp(1j * (a * np.asarray(th1) + b * np.asarray(th2)))
        return np.sum(coeffs * (r ** (abs(a) + abs(b)) * kts * phases), axis=0)


def _shift_plane(n, a, b, plane, d):
    """The label (n, a, b) with the given plane's index shifted by d."""
    return KBasisElement(n, a + d, b) if plane == 1 else KBasisElement(n, a, b + d)


def apply_plane_mult(v: KVector, plane, direction, use_krel=True):
    """Multiplication by (xi1 + i dir xi2) (plane 1) or the plane-2 analog.

    The downshift branch carries a symbolic r^2: with use_krel=False the
    result is that intermediate form, a dict {(key, rpow): coeff} for
    regression against the unreduced recurrence steps; otherwise it is
    reduced by reduce_symbolic_r2.
    """
    if plane not in (1, 2) or direction not in (1, -1):
        raise ValueError("plane in {1,2}, direction +-1")
    out = {}
    for key, c in v.terms.items():
        idx = key.a if plane == 1 else key.b
        tgt = _shift_plane(*key, plane, direction)
        rpow = 0 if idx * direction >= 0 else 1
        slot = (tgt, rpow)
        out[slot] = out.get(slot, _ZERO_G) + c
    return reduce_symbolic_r2(out) if use_krel else out


def reduce_symbolic_r2(raw):
    """Reduce {(key, rpow): coeff} by r^2 Kt_n(2r) = (n-1)Kt_(n-1) + Kt_(n-2)."""
    work = dict(raw)
    done = {}
    while work:
        (key, rpow), c = work.popitem()
        if c.is_zero():
            continue
        if rpow == 0:
            done[key] = done.get(key, _ZERO_G) + c
            continue
        n = key.n
        k1 = (KBasisElement(n - 1, key.a, key.b), rpow - 1)
        k2 = (KBasisElement(n - 2, key.a, key.b), rpow - 1)
        work[k1] = work.get(k1, _ZERO_G) + GaussianInt(n - 1, 0) * c
        work[k2] = work.get(k2, _ZERO_G) + c
    return KVector(done)


def apply_mult_xi(j, v: KVector):
    """Multiplication by 2 xi_j (the factor 2 keeps coefficients exact):
    2 xi1 = (xi1 + i xi2) + (xi1 - i xi2) and
    2 xi2 = -i [(xi1 + i xi2) - (xi1 - i xi2)], likewise xi3, xi4 in plane 2."""
    if j not in (1, 2, 3, 4):
        raise ValueError("j must be 1..4")
    plane = 1 if j <= 2 else 2
    up = apply_plane_mult(v, plane, 1)
    down = apply_plane_mult(v, plane, -1)
    if j % 2:
        return up + down
    return (up - down).scaled(GaussianInt(0, -1))


def _p_one_basis(key: KBasisElement, plane):
    """P1 (plane 1) or P3 (plane 2) on a single basis element, as
    (target, shift of the plane's index, integer coefficient) triples with
    distinct targets."""
    n, a, b = key
    idx, k = (a, abs(b)) if plane == 1 else (b, abs(a))
    l = abs(idx)
    if idx == 0:
        rows = [(n + 1, d, 2 * (k - n)) for d in (1, -1)]
        rows += [(n, d, -2) for d in (1, -1)]
    else:
        up = 1 if idx > 0 else -1  # direction that raises |a|
        rows = [(n + 1, up, 2 * (k - n)), (n, up, -2),
                (n, -up, 2 * (n - l) * (l + k - n)),
                (n - 1, -up, 2 * (2 * l + k - 2 * n + 1)), (n - 2, -up, -2)]
    return [(_shift_plane(nn, a, b, plane, d), d, coeff) for nn, d, coeff in rows]


def apply_P(j, v: KVector):
    """The second-order operators P_j as exact rewrites.  P2 (P4) is P1
    (P3) with each term times -i d, d the term's shift of that plane's
    index."""
    if j not in (1, 2, 3, 4):
        raise ValueError("j must be 1..4")
    plane = 1 if j <= 2 else 2
    out = {}
    for key, (re, im) in v.terms.items():
        for t, d, tc in _p_one_basis(key, plane):
            # (re + i im) tc, or for P2 (P4) (re + i im)(-i d tc)
            w = (GaussianInt(tc * re, tc * im) if j % 2
                 else GaussianInt(d * tc * im, -d * tc * re))
            prev = out.get(t)
            out[t] = w if prev is None else prev + w
    return KVector._of(out)


def _ladder_terms(n, a, b, plane, sign):
    """The direct ladder table on the label (n, a, b), l = |idx|:
        idx*sign >= 0:  2(other-n) [n+1, idx+sign]
        idx*sign < 0 :  2((n-l)(l+other-n) [n, idx+sign]
                        + (2l+other-n) [n-1, idx+sign]),
    as (target label, integer coefficient) pairs, zeros dropped."""
    idx, other = (a, abs(b)) if plane == 1 else (b, abs(a))
    ta, tb = (a + sign, b) if plane == 1 else (a, b + sign)
    if idx * sign >= 0:
        terms = (((n + 1, ta, tb), 2 * (other - n)),)
    else:
        l = abs(idx)
        terms = (((n, ta, tb), 2 * (n - l) * (l + other - n)),
                 ((n - 1, ta, tb), 2 * (2 * l + other - n)))
    return [t for t in terms if t[1]]


def apply_raise_lower(sign_op, v: KVector, plane=1, composite=False):
    """Ladder 2(xi + i sign xi') + (1/2)(P + i sign P') in the given plane.

    composite=True evaluates the defining combination from the mult and P
    rewrites (they must agree with the direct table, _ladder_terms; a test
    asserts this).
    """
    if sign_op not in (1, -1) or plane not in (1, 2):
        raise ValueError("sign_op +-1, plane in {1,2}")
    if not composite:
        out = {}
        for key, c in v.terms.items():
            for label, coeff in _ladder_terms(key.n, key.a, key.b, plane, sign_op):
                kk = KBasisElement(*label)
                out[kk] = out.get(kk, _ZERO_G) + GaussianInt(coeff, 0) * c
        return KVector._of(out)
    mult = apply_plane_mult(v, plane, sign_op).scaled(2)
    j = 2 * plane - 1
    pcomb = apply_P(j, v) + apply_P(j + 1, v).scaled(GaussianInt(0, sign_op))
    half = {}
    for key, c in pcomb.terms.items():
        if c.re % 2 or c.im % 2:
            raise ArithmeticError("ladder combination is not even")
        half[key] = GaussianInt(c.re // 2, c.im // 2)
    return mult + KVector._of(half)


def apply_X(j, k, v: KVector):
    """Rotation generators.  X12 and X34 act diagonally (i a, i b); the
    mixed pairs have no closed rewrite here and must go through the
    numerical ambient oracle (AmbientBasis.x_jk)."""
    if not (1 <= j < k <= 4):
        raise ValueError("need 1 <= j < k <= 4")
    if (j, k) == (1, 2):
        return KVector._of(
            {key: GaussianInt(0, key.a) * c for key, c in v.terms.items()}
        )
    if (j, k) == (3, 4):
        return KVector._of(
            {key: GaussianInt(0, key.b) * c for key, c in v.terms.items()}
        )
    raise NotImplementedError(
        f"X_{j}{k} mixes the planes; use AmbientBasis(...).x_jk({j},{k},pts)"
    )


# Labels an orbit may reach before orbit_closure gives up.
_ORBIT_BUDGET = 4000


def orbit_closure(start: KBasisElement):
    """Reachable basis labels under the four ladder operators, found by a
    breadth-first walk of the ladder table on (n, a, b) tuples.

    Returns (labels, dimension).  Raises if the orbit exceeds _ORBIT_BUDGET
    labels (which certifies non-closure for lattice violations in
    practice)."""
    start = (start.n, start.a, start.b)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for label in frontier:
            for plane in (1, 2):
                for sgn in (1, -1):
                    for tgt, _ in _ladder_terms(*label, plane, sgn):
                        if tgt not in seen:
                            seen.add(tgt)
                            nxt.append(tgt)
            if len(seen) > _ORBIT_BUDGET:
                raise RuntimeError("orbit exceeded the element budget")
        frontier = nxt
    return frozenset(KBasisElement(*t) for t in seen), len(seen)


def orbit_labels(elem: KBasisElement):
    """The orbit O(D) of a lattice label in closed form (module
    docstring), as the frozenset orbit_closure returns."""
    if not elem.in_l2_lattice():
        raise ValueError("the orbit is finite only for n <= min(|a|, |b|)")
    d = elem.l + elem.k - elem.n
    return frozenset(
        KBasisElement(abs(a) + abs(b) - j, a, b)
        for j in range(d + 1)
        for a in range(-j, j + 1)
        for b in range(-j, j + 1)
    )


def kfinite_certificate(elem):
    """True iff n <= min(l, k); when true the ladder orbit is verified
    finite by explicit closure search.  elem is a label or an (n, a, b)
    tuple."""
    elem = KBasisElement(*elem)
    if not elem.in_l2_lattice():
        return False
    orbit_closure(elem)
    return True


# ----- ambient extension and numerical oracle -----


# Near x = 700 Kt_n is subnormal at every order (at 690 from n = 3 on).
_DERIVS_X_MAX = 690.0
_TINY = np.finfo(float).tiny


def _ktilde_derivs(n, x):
    """Kt_n(x), Kt_n'(x), Kt_n''(x) from Kt_n and Kt_(n+1):
    Kt_n' = -(x/2) Kt_(n+1) (DLMF 10.29.4), and its derivative reduced by
    the three-term recurrence, Kt_n'' = Kt_n + (n + 1/2) Kt_(n+1).
    ValueError for x above 690 and wherever Kt_(n+1) overflows or is
    subnormal, which covers Kt_n: a negative order is bounded, and Kt_(n+1)
    is the larger at tiny x, the smaller at large x."""
    x = np.asarray(x, dtype=float)
    if not x.max(initial=0.0) <= _DERIVS_X_MAX:
        raise ValueError(f"Kt_n derivatives need x <= {_DERIVS_X_MAX:g}")
    kt, kt1 = special.ktilde((n, n + 1), x)
    if not _TINY <= kt1.min(initial=1.0) <= kt1.max(initial=1.0) < np.inf:
        raise ValueError(f"Kt_{n + 1} overflows or is subnormal at this x")
    return kt, -0.5 * x * kt1, kt + (n + 0.5) * kt1


# The arrays every ambient closed form of one element is built from, each
# computed once: the coordinates, the extension's radius rad, Kt_n(2 rad) and
# its first two derivatives, the monomials m1 = z1^l and m2 = z2^k (z1 =
# x1 + i s1 x2, z2 = x3 + i s2 x4) and their derivatives m1d = l z1^(l-1)
# and m2d = k z2^(k-1), each only where a d_j asked for reads it (else None).
_Pieces = namedtuple("_Pieces", "x1 x2 x3 x4 rad kt ktp ktpp m1 m2 m1d m2d")


class AmbientBasis:
    """Closed-form ambient extension of one basis element and its derivatives.

    extend_along selects which plane carries the radial factor: "r2"
    reproduces the derivations behind P1/P2, "r1" the mirrored ones behind
    P3/P4; restrictions to the cone agree, and the second-order operators
    are tangential, so oracle values on cone points are extension-free.
    Points are arrays of shape (..., 4).  At x = 2 rad the radial factor's
    Kt_n and Kt_(n+1) must be finite and normal, x at most 690 (`_ktilde_derivs`).
    """

    def __init__(self, elem: KBasisElement, extend_along="r2"):
        if extend_along not in ("r1", "r2"):
            raise ValueError("extend_along must be 'r1' or 'r2'")
        self.elem = elem
        self.extend_along = extend_along

    def _pieces(self, pts, *js):
        e = self.elem
        x1, x2, x3, x4 = (pts[..., i] for i in range(4))
        rad = np.hypot(x3, x4) if self.extend_along == "r2" else np.hypot(x1, x2)
        kt, ktp, ktpp = _ktilde_derivs(e.n, 2.0 * rad)
        z1 = x1 + 1j * e.s1 * x2
        z2 = x3 + 1j * e.s2 * x4
        m1d = m2d = None
        if any(j <= 2 for j in js):
            m1d = e.l * z1 ** (e.l - 1) if e.l > 0 else np.zeros_like(z1)
        if any(j >= 3 for j in js):
            m2d = e.k * z2 ** (e.k - 1) if e.k > 0 else np.zeros_like(z2)
        return _Pieces(x1, x2, x3, x4, rad, kt, ktp, ktpp,
                       z1**e.l, z2**e.k, m1d, m2d)

    def value(self, pts):
        p = self._pieces(np.asarray(pts, dtype=float))
        return p.kt * p.m1 * p.m2

    def _product_partial(self, j, p, G, Gp):
        """d_j of G(rad) m1 m2, p from `_pieces(pts, j)`; Gp() forms G's
        derivative with respect to rad, only where d_j reaches rad."""
        e = self.elem
        m1, m2, m1d, m2d = p.m1, p.m2, p.m1d, p.m2d
        if j <= 2:
            if self.extend_along == "r2":
                return G * m1d * m2 if j == 1 else 1j * e.s1 * G * m1d * m2
            if j == 1:
                return Gp() * (p.x1 / p.rad) * m1 * m2 + G * m1d * m2
            return Gp() * (p.x2 / p.rad) * m1 * m2 + G * 1j * e.s1 * m1d * m2
        if self.extend_along == "r1":
            return G * m1 * m2d if j == 3 else G * m1 * 1j * e.s2 * m2d
        if j == 3:
            return Gp() * (p.x3 / p.rad) * m1 * m2 + G * m1 * m2d
        return Gp() * (p.x4 / p.rad) * m1 * m2 + G * m1 * 1j * e.s2 * m2d

    def box22(self, pts):
        """(d11 + d22 - d33 - d44) F in closed form."""
        return self._box22(self._pieces(np.asarray(pts, dtype=float)))

    def _box22(self, p):
        deg = self.elem.k if self.extend_along == "r2" else self.elem.l
        lap = (4.0 * p.ktpp + (2.0 + 4.0 * deg) * p.ktp / p.rad) * p.m1 * p.m2
        return -lap if self.extend_along == "r2" else lap

    def p_j(self, j, pts):
        """P_j = eps_j xi_j box - 2 deg(d_j .) on the ambient extension.

        Uses deg d_j = d_j (deg - 1): with E the Euler operator,
        E F = (l+k) F + H where H = 2 rad Kt'(2 rad) m1 m2, so
        deg(d_j F) = (l+k) d_j F + d_j H, all in closed form.
        """
        if j not in (1, 2, 3, 4):
            raise ValueError("j must be 1..4")
        e = self.elem
        pts = np.asarray(pts, dtype=float)
        eps = 1.0 if j in (1, 2) else -1.0
        p = self._pieces(pts, j)
        g = self._product_partial(j, p, p.kt, lambda: 2.0 * p.ktp)
        # H = G2(rad) m1 m2 with G2 = 2 rad Kt'(2 rad);
        # G2' = 2 Kt'(2 rad) + 4 rad Kt''(2 rad)
        dH = self._product_partial(j, p, 2.0 * p.rad * p.ktp,
                                   lambda: 2.0 * p.ktp + 4.0 * p.rad * p.ktpp)
        deg_g = (e.l + e.k) * g + dH
        return eps * pts[..., j - 1] * self._box22(p) - 2.0 * deg_g

    def x_jk(self, j, k, pts):
        """First-order rotation/boost generators on the ambient extension."""
        if not (1 <= j < k <= 4):
            raise ValueError("need 1 <= j < k <= 4")
        pts = np.asarray(pts, dtype=float)
        p = self._pieces(pts, j, k)
        dj, dk = (self._product_partial(i, p, p.kt, lambda: 2.0 * p.ktp)
                  for i in (j, k))
        ej = 1.0 if j in (1, 2) else -1.0
        ek = 1.0 if k in (1, 2) else -1.0
        xj = pts[..., j - 1]
        xk = pts[..., k - 1]
        return ej * ek * xj * dk - xk * dj


def box22_fd(fn, pts):
    """4th-order central-difference ultrahyperbolic operator of a callable
    fn(points) -> values, step 3e-3, as an independent check of the closed
    forms."""
    h = 3e-3
    pts = np.asarray(pts, dtype=float)
    out = np.zeros(pts.shape[:-1], dtype=complex)
    signs = (1.0, 1.0, -1.0, -1.0)
    f0 = fn(pts)
    for i, sg in enumerate(signs):
        step = np.zeros(4)
        step[i] = h
        fp = fn(pts + step)
        fm = fn(pts - step)
        fp2 = fn(pts + 2 * step)
        fm2 = fn(pts - 2 * step)
        second = (-fp2 + 16 * fp - 30 * f0 + 16 * fm - fm2) / (12.0 * h * h)
        out = out + sg * second
    return out

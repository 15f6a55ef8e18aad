"""Bessel functions J0, Y0, K0, K_n, the renormalized family Kt_n, and
the complex Gamma function.

J0, Y0 and K0 are thin wrappers over `scipy.special`: they check the
domain (rejecting NaN), keep the Gamma poles an error, and return a Python
float for scalar input.  K_n of every order comes from one table per call:
scipy's K0 and K1, then the upward recurrence K_(m+1) = K_(m-1) + (2m/x) K_m
(DLMF 10.29.1), which is stable for K as K grows with m.  Kt_n of any
set of orders reads its rows from the same table.  Its values are pinned
independently by the integral oracle (`bessel.kn_oracle`) and by the
mpmath test of the K family.

The hyperbolic integral representations (sin/cos of u*cosh t, cos of
u*sinh t, exp of -u*cosh t) are wired up in `oracles` as independent
checks; they never feed the production values.
"""

from __future__ import annotations

import math
import operator

import numpy as np
from scipy import special as sp

__all__ = [
    "bessel_j0",
    "bessel_y0",
    "bessel_k0",
    "bessel_kn",
    "ktilde",
    "gamma_complex",
]


def _as_positive_array(u, name, allow_zero=False):
    """u as a float array, checked once per public call (NaN fails)."""
    x = np.asarray(u, dtype=float)
    lo = x.min(initial=np.inf)  # NaN if any point is NaN
    if allow_zero:
        if not lo >= 0:
            raise ValueError(f"{name} requires a nonnegative argument")
    elif not lo > 0:
        raise ValueError(f"{name} requires a positive argument")
    return x


def _integers(ns):
    """ns as ints (numpy integers pass); ValueError where int() truncates."""
    try:
        return [operator.index(n) for n in ns]
    except TypeError:
        raise ValueError(f"expected integers, got {ns!r}") from None


def _like_input(out):
    return out if out.ndim else float(out)


def bessel_j0(u):
    """Bessel function of the first kind, order zero, u >= 0."""
    return _like_input(sp.j0(_as_positive_array(u, "bessel_j0", allow_zero=True)))


def bessel_y0(u):
    """Bessel function of the second kind, order zero, u > 0."""
    return _like_input(sp.y0(_as_positive_array(u, "bessel_y0")))


def bessel_k0(u):
    """Modified Bessel function of the second kind, order zero, u > 0."""
    return _like_input(sp.k0(_as_positive_array(u, "bessel_k0")))


def _k_table(nmax, x):
    """[K_0(x), ..., K_nmax(x)] on an already checked argument.  At tiny x
    the higher orders overflow to inf, which is their value as a float; the
    caller's error state keeps the recurrence from warning about it."""
    table = [sp.k0(x)]
    if nmax >= 1:
        table.append(sp.k1(x))
    for m in range(1, nmax):
        table.append(table[m - 1] + (2.0 * m / x) * table[m])
    return table


def _ktilde(n, x, table):
    """Kt_n(x) from a K table that reaches |n|.  Where x^m underflows and
    K_m overflows (n = -m, tiny x), Kt_-m -> Gamma(m)/2 comes from the
    recurrence of `ktilde`, Kt_-(k+1) = k Kt_-k + (x^2/4) Kt_-(k-1)."""
    if n >= 0 or not math.isinf(table[-n].sum()):  # no K_m overflowed
        return (2.0**n) * x ** (-float(n)) * table[abs(n)]
    with np.errstate(invalid="ignore"):
        kt = (2.0**n) * x ** (-float(n)) * table[-n]
    bad = ~np.isfinite(kt)
    lo, hi = table[0], 0.5 * x * table[1]
    for k in range(1, -n):
        lo, hi = hi, k * hi + 0.25 * x * x * lo
    return np.where(bad, hi, kt)[()]


def bessel_kn(n, u):
    """K_n for integer n of either sign (K_{-n} = K_n)."""
    x = _as_positive_array(u, "bessel_kn")
    with np.errstate(over="ignore"):
        return _like_input(_k_table(abs(_integers([n])[0]), x)[-1])


def ktilde(n, r):
    """Renormalized K-Bessel: Kt_n(r) = 2^n r^-n K_n(r), any integer n.

    Negative orders use K_{-n} = K_n with the same renormalization, which is
    the unique convention under which the three-term recurrence
    r^2 Kt_{n+1}(2r) = n Kt_n(2r) + Kt_{n-1}(2r) holds across n = 0.

    A sequence of orders gives one row per order, a single order its one
    row: one K table, and each row scaled as (2^n x^-n) K_|n| (K_0 itself
    for n = 0) under one error state, then stacked once.  Each x^-n stays
    a power with a scalar exponent (numpy's array-exponent power differs
    in the last bit from its scalar paths for exponents 2 and -1), so a row
    does not depend on the other orders asked for.  If a value is not
    finite, the rows are recomputed by `_ktilde`, with its warnings.  An
    order that is not an integer is a ValueError.
    """
    x = _as_positive_array(r, "ktilde")
    many = np.iterable(n)
    ns = _integers(n if many else [n])
    with np.errstate(over="ignore", invalid="ignore"):
        table = _k_table(max(map(abs, ns)), x)
        rows = [(2.0**m * x ** (-float(m))) * table[abs(m)] if m else table[0]
                for m in ns]
        out = np.array(rows) if many else rows[0]
        total = out.sum()
    if not math.isfinite(total):  # `_ktilde` keeps every finite value
        rows = [_ktilde(m, x, table) for m in ns]
        out = np.array(rows) if many else rows[0]
    return out


def gamma_complex(z):
    """Gamma function for complex argument; poles (nonpositive integers)
    are rejected."""
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise ValueError(f"gamma_complex pole at z = {z}")
    return complex(sp.gamma(z))

"""Oscillatory quadrature engine.

The workhorse is the hyperbolic-phase primitive

    H(p, q, delta) = int_-inf^inf exp(i (p e^x + q e^-x)) exp(-delta e^-x) dx,

with p*q != 0 and delta >= 0.  Every oscillatory integral in the package
(the hyperbolic Bessel representations, the four kernel identities, and the
epsilon-regularized Fourier transforms) is an instance of H.

Strategy: for p > 0 (else H(p, q, delta) = conj H(-p, -q, delta)) let
Q = q + i delta and g = 2 sqrt(p Q), so arg g is in [0, pi/2].  The shift
x = x_c + s, e^(2 x_c) = Q/p, turns H into int exp(i g cosh s) ds, and on
the closed-form contour s = t + i beta gd(t), with gd(t) = 2 arctan(tanh(t/2))
and beta = 1 - 2 arg(g)/pi,

    H = e^(ig) int_-inf^inf exp(i g (cosh s - 1)) (1 + i beta sech t) dt.

For delta = 0 and q > 0 this is the exact steepest-descent path (the
exponent is -g sinh t tanh t); for delta = 0 and q < 0 it is the real
axis (exp(-|g| (cosh t - 1))).  In between the integrand still decays
doubly exponentially without oscillating, so one trapezoidal rule
converges exponentially (Trefethen & Weideman, SIAM Rev. 56, 2014; Deano,
Huybrechs & Iserles, *Computing Highly Oscillatory Integrals*, SIAM 2018):
2 _N + 1 equal steps on |t| <= arccosh(1 + _CUT/|g|), where the integrand
is down to e^-_CUT.  The integrand is even in t, so only t >= 0 is
evaluated.  The cost does not depend on p, q or delta.

The error estimate is |e^(ig)| times the gap to the rule on every other
node plus 8 eps (1 + |g|) h sum|f| for rounding (g's phase is known to a
few ulp).  Above _ERROR_BUDGET H raises QuadratureError, which sets the
supported range.  Measured in all four sign branches and over arg Q in
[0, pi], every |g| = 2 sqrt|pQ| from 4.3e-5 to 5e16 is accepted; every |g|
below 7e-8, every real g above 5.1e16 and |g| = 0 or inf (p q under- or
overflowed) raise; in between the estimate decides (the edge falls from
4.3e-5 at arg Q = 0 to about 4e-6 near arg Q = pi).  For |g| in [1e-3,
1e5], H is within 2.5e-14 of max(1, |H|) of scipy's J0/Y0/K0 at delta = 0,
with a worst error/estimate of 0.42.

Batches: `hyperbolic_oscillatory` broadcasts p, q and delta and returns
the `numerics.Estimate` (H, error estimate) from one pass of the rule,
each an array of the broadcast shape; scalar input gives a Python
complex and a float, by the same code path.  Each element has the
canonical row (|p|, +-q, delta), q's sign flipped with p's.  The rule
runs once per distinct row, so always at p > 0, found on one 24-byte key
of the three floats' exact bits, and the elements with p < 0 take its
conjugate: a conjugate pair or a repeated element costs one row, and
delta = -0.0 and 0.0 stay apart.  Rows are evaluated _BLOCK at a time,
so a suite's batch (the `fourier` suite's is about 110 rows) is one
block and memory stays flat for any batch; each row is summed in a fixed
order on its own, so an element's value and estimate are bit for bit the
same in any batch and block, and results do not depend on worker count.

The settings are module constants read at call time: the rule's _N, its
decay cut-off _CUT, its _ERROR_BUDGET and the _BLOCK size.  One element
of a batch over the budget fails the whole call.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import Estimate

__all__ = ["QuadratureError", "hyperbolic_oscillatory"]

# Half-rule nodes past t = 0 (the full rule has 2 _N + 1); even, so that
# every other node is the same rule at twice the step.
_N = 48
# -log of the integrand's size at the rule's ends.
_CUT = 40.0
# Largest error estimate H accepts.
_ERROR_BUDGET = 1e-6
# Distinct rows evaluated at a time: a suite's batch is one block.
_BLOCK = 256
_EPS = np.finfo(float).eps
_ROW_KEY = np.dtype((np.void, 3 * 8))  # a row's three floats as one key


class QuadratureError(RuntimeError):
    """Raised when an integral cannot be certified within its budget."""


def _as_batch(*args):
    """Broadcast the arguments as flat float arrays; also the shape."""
    arrs = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    return [a.ravel() for a in arrs], arrs[0].shape


def _unbatch(values, shape):
    """Values in the broadcast shape; a Python number for scalar input."""
    values = values.reshape(shape)
    return values.item() if values.ndim == 0 else values


def _contour_rule(p, q, delta):
    """(H, error estimate) for flat arrays of one shape with p > 0, by the
    trapezoidal rule on the contour of the module docstring.  A |g| of 0 or
    inf (p q under- or overflowed) gives a NaN estimate."""
    k = np.arange(_N + 1)
    # t = 0 once and +-t twice; the coarse rule takes even k at step 2h
    fine = np.where(k == 0, 1.0, 2.0)
    coarse = np.where(k % 2 == 0, 2.0 * fine, 0.0)
    total = np.empty(len(p), dtype=complex)
    gap = np.empty(len(p))
    mass = np.empty(len(p))
    with np.errstate(all="ignore"):
        g = 2.0 * np.sqrt(p * (q + 1j * delta))
        size = np.abs(g)
        beta = 1.0 - (2.0 / math.pi) * np.angle(g)
        # arccosh(1 + c), exact also where 1 + c rounds to 1
        c = _CUT / size
        step = np.log1p(c + np.sqrt(c * (c + 2.0))) / _N
        for lo in range(0, len(p), _BLOCK):
            blk = slice(lo, lo + _BLOCK)
            t = step[blk, None] * k
            b = beta[blk, None]
            s = t + 1j * b * (2.0 * np.arctan(np.tanh(0.5 * t)))
            f = np.exp(2j * g[blk, None] * np.sinh(0.5 * s) ** 2)
            f *= 1.0 + 1j * b / np.cosh(t)
            total[blk] = (f * fine).sum(axis=1)
            gap[blk] = np.abs(total[blk] - (f * coarse).sum(axis=1))
            mass[blk] = (np.abs(f) * fine).sum(axis=1)
        scale = np.exp(1j * g)
        h = scale * step * total
        est = np.abs(scale) * step * (gap + 8.0 * _EPS * (1.0 + size) * mass)
    return h, est


def hyperbolic_oscillatory(p, q, delta=0.0):
    """Estimate(H(p, q, delta), error estimate), H as defined in the
    module docstring.  p*q != 0.

    p, q and delta broadcast; both parts have the broadcast shape, or are
    a Python complex and a float for scalar input.  The estimate is the
    one of the rule pass that gives the value, for any delta.  An
    element's value and estimate do not depend on the rest of its batch.
    """
    (p, q, delta), shape = _as_batch(p, q, delta)
    if not (np.isfinite(p).all() and np.isfinite(q).all()
            and np.isfinite(delta).all()):
        raise ValueError("hyperbolic_oscillatory requires finite p, q, delta")
    if (p == 0.0).any() or (q == 0.0).any():
        raise ValueError("hyperbolic_oscillatory requires p*q != 0")
    if (delta < 0.0).any():
        raise ValueError("delta must be nonnegative")
    # H(p, q, delta) = conj H(-p, -q, delta): one rule pass for each exact
    # bit pattern of the canonical row (|p|, +-q, delta), conjugated where
    # p < 0; a row's key is its 24 bytes, so -0.0 and 0.0 differ
    flip = p < 0.0
    rows = np.empty((len(p), 3))
    rows[:, 0], rows[:, 1], rows[:, 2] = np.abs(p), np.where(flip, -q, q), delta
    _, first, inverse = np.unique(rows.view(_ROW_KEY).ravel(),
                                  return_index=True, return_inverse=True)
    h, est = _contour_rule(*rows[first].T)
    h, est = h[inverse], est[inverse]
    h = np.where(flip, np.conj(h), h)
    # a NaN estimate fails too
    if not (est <= _ERROR_BUDGET).all():
        raise QuadratureError(
            f"hyperbolic_oscillatory error estimate {est.max():.2e} above budget"
        )
    return Estimate(_unbatch(h, shape), _unbatch(est, shape))

"""Oscillatory quadrature engine.

The workhorse is the hyperbolic-phase primitive

    H(p, q, delta) = int_-inf^inf exp(i (p e^x + q e^-x)) exp(-delta e^-x) dx,

with p*q != 0 and delta >= 0.  Every oscillatory integral in the package
(the hyperbolic Bessel representations, the four kernel identities, and the
epsilon-regularized Fourier transforms) is an instance of H.

Strategy: a finite window around the phase minimum is integrated with
Gauss-Legendre panels whose lengths track the local frequency.  Past the
window, v = e^x (right) or v = e^-x (left) turns each end into
int_v0^inf exp(k v + b'/v) dv/v with Re k <= 0; on the complex ray
v = v0 - conj(k) t / |k| the factor exp(k v) decays like e^{-|k| t} and no
longer oscillates, so one fixed Gauss-Laguerre rule integrates it (steepest
descent after Huybrechs & Vandewalle, SIAM J. Numer. Anal. 44, 2006).

Batches: `hyperbolic_oscillatory` and `_undamped_error_bound` broadcast
p, q and delta against each other and return an array of the broadcast
shape; scalar input returns a Python complex / float.  Scalars and
batches take the same code path.  The window breakpoints of the whole
batch come from one march over the panel index; the panels, ragged
across elements, are evaluated in blocks of _BLOCK_PANELS (6k nodes), so
memory stays flat however large the batch; the two tails and both
Laguerre rules are one array expression.  Each element's panel sums are
reduced in a fixed order over its own panels only, so its value is bit
for bit the same whatever else is in the batch, and results do not
depend on worker count.

The settings are module constants, not parameters, read at call time:
the window uses Gauss-Legendre order _GL_ORDER on at most PANEL_BUDGET
panels, the tails start at a phase rate of at least 40, and the gap
between the 16- and 8-node Laguerre rules must stay below _TAIL_BUDGET.
Any element of a batch over a budget raises QuadratureError.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import interval_nodes

__all__ = [
    "PANEL_BUDGET",
    "QuadratureError",
    "hyperbolic_oscillatory",
]

# Panels per 1-d window before H gives up with QuadratureError.
PANEL_BUDGET = 4000

_GL_ORDER = 12
# Smallest phase rate at which the ray tails take over from the window.
_U_FLOOR = 40.0
# Largest tail truncation estimate H accepts.
_TAIL_BUDGET = 1e-6
_EPS = np.finfo(float).eps
# Window panels evaluated at a time (6k nodes at order 12).
_BLOCK_PANELS = 512
# 4pq above which a panel's quadratic phase change can pass pi under the
# frequency step rule (see _window_panels).
_E_SADDLE = (2.0 * math.pi / 0.4**2) ** 2 - (math.pi / 0.4) ** 2


class QuadratureError(RuntimeError):
    """Raised when an integral cannot be certified within its budget."""


# Gauss-Laguerre rules on [0, inf) for the tails: the 16-node rule gives
# the value, its gap to the 8-node rule the error estimate.  Both rules'
# nodes are evaluated in one array, the 16 first.
_LAGUERRE = (np.polynomial.laguerre.laggauss(16), np.polynomial.laguerre.laggauss(8))
_LAGUERRE_NODES = np.concatenate([_LAGUERRE[0][0], _LAGUERRE[1][0]])
_LAGUERRE_SPLIT = len(_LAGUERRE[0][0])


def _tails(p, q, delta, x_left, x_right):
    """Both ends of H outside [x_left, x_right], for arrays of one shape.

    Each end is int_v0^inf exp(k v + (i b - d)/v) dv/v with Re k <= 0:
    v = e^x on the right (k = i p, b = q, d = delta) and v = e^-x on the
    left (k = i q - delta, b = p, d = 0).  It is integrated on the ray
    v = v0 + c t, c = -conj(k)/|k|, which stays in Re v >= v0 and on which
    exp(k v) = exp(k v0) e^{-|k| t} decays without oscillating.  Returns
    (value, error estimate): the 16-node rule's sum over both ends, and
    the sum of its gaps to the 8-node rule.
    """
    k = np.stack([1j * p, 1j * q - delta])
    b = np.stack([q, p])
    d = np.stack([delta, np.zeros_like(delta)])
    v0 = np.exp(np.stack([x_right, -x_left]))
    r = np.abs(k)
    c = -np.conj(k) / r
    scale = np.exp(k * v0) * c / r
    v = v0[..., None] + (c / r)[..., None] * _LAGUERRE_NODES
    f = np.exp((1j * b - d)[..., None] / v) / v
    val = scale * (f[..., :_LAGUERRE_SPLIT] * _LAGUERRE[0][1]).sum(axis=-1)
    coarse = scale * (f[..., _LAGUERRE_SPLIT:] * _LAGUERRE[1][1]).sum(axis=-1)
    return val.sum(axis=0), np.abs(val - coarse).sum(axis=0)


def _window_panels(p, q, delta, x_left, x_right):
    """Window panels of every element, tracking local frequency, phase
    curvature and the damping profile.

    Marches all elements at once from x_left to x_right, one panel per
    step.  Returns (a, b, owner): the panel ends, element after element
    and left to right within each, and the element each panel belongs to.
    """
    # phase'' = phase and phase^2 = phase'^2 + E, so the quadratic phase
    # change of a panel, |phase| step^2 / 2, can pass pi under the frequency
    # rule below only near a strong saddle, where E > _E_SADDLE
    E = 4.0 * p * q
    saddle = E > _E_SADDLE
    # the curvature and damping rules are skipped when no element needs them
    any_saddle, any_damped = np.any(saddle), np.any(delta > 0.0)
    x = x_left
    cols = [x]
    for _ in range(PANEL_BUDGET):
        freq = np.abs(p * np.exp(x) - q * np.exp(-x))  # |phase'|
        step = np.minimum(0.4, math.pi / np.maximum(1.0, freq))
        if any_saddle:
            curv = np.sqrt(freq * freq + E * saddle)
            step = np.where(saddle & (0.5 * curv * step * step > math.pi),
                            np.sqrt(2.0 * math.pi / curv), step)
        if any_damped:
            step = np.minimum(step, 1.0 / np.maximum(delta * np.exp(-x), 1.0))
        x = np.minimum(x + step, x_right)
        cols.append(x)
        if not (x < x_right).any():
            break
    else:
        raise QuadratureError("panel budget exhausted in oscillatory window")
    breaks = np.stack(cols, axis=-1)
    live = breaks[:, :-1] < x_right[:, None]
    owner = np.nonzero(live)[0]
    return breaks[:, :-1][live], breaks[:, 1:][live], owner


def _window(p, q, delta):
    """Ends (x_left, x_right) of H's panel window, for p > 0.  Past them the
    ray tails take over, where the phase rate has reached u_cut."""
    E = np.abs(4.0 * p * q)
    x_c = 0.5 * np.log(np.abs(q) / p)
    floor = np.maximum(_U_FLOOR, 3.6 * np.sqrt(E))

    # Right window end: first x >= x_c with phase' >= u_cut (phase ~ p e^x).
    u_cut = np.maximum(floor, 1.6 * delta * p)
    x_right = np.log((u_cut + np.sqrt(u_cut * u_cut + E + 4.0)) / (2.0 * p))
    x_right = np.maximum(x_right, x_c + 0.5)

    # Left side, mirrored (y = -x): integrand exp(i(q e^y + p e^-y)) with
    # damping delta*e^y now on the growing exponential.
    uq_cut = np.maximum(floor, 2.0 * delta * p)
    y_right = np.log((uq_cut + np.sqrt(uq_cut * uq_cut + E + 4.0)) / (2.0 * np.abs(q)))
    y_right = np.maximum(y_right, -x_c + 0.5)
    return -y_right, x_right


def _as_batch(*args):
    """Broadcast the arguments as flat float arrays; also the shape."""
    arrs = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    return [a.ravel() for a in arrs], arrs[0].shape


def _unbatch(values, shape):
    """Values in the broadcast shape; a Python number for scalar input."""
    values = values.reshape(shape)
    return values.item() if values.ndim == 0 else values


def _positive_p(p, q):
    """(p, q) with both negated where p < 0, and where that happened: H is
    then the conjugate, H(p, q) = conj H(-p, -q)."""
    flip = p < 0.0
    return np.where(flip, -p, p), np.where(flip, -q, q), flip


def _undamped_error_bound(p, q):
    """Error bound for H(p, q, 0): the tails' two-rule gap plus a rounding
    of a few ulp in each window node's phase, up to u_cut.  Broadcasts
    like `hyperbolic_oscillatory`."""
    (p, q), shape = _as_batch(p, q)
    p, q, _ = _positive_p(p, q)
    zero = np.zeros_like(p)
    x_left, x_right = _window(p, q, zero)
    tails = _tails(p, q, zero, x_left, x_right)[1]
    # integral of 1 + |phase| over the window, with |phase| <= p e^x + |q| e^-x
    span = (x_right - x_left) + p * (np.exp(x_right) - np.exp(x_left))
    span += np.abs(q) * (np.exp(-x_left) - np.exp(-x_right))
    return _unbatch(tails + 8.0 * _EPS * span, shape)


def hyperbolic_oscillatory(p, q, delta=0.0):
    """H(p, q, delta) as defined in the module docstring.  p*q != 0.

    p, q and delta broadcast; the result has the broadcast shape, or is a
    Python complex for scalar input.  An element's value does not depend
    on the rest of its batch.
    """
    (p, q, delta), shape = _as_batch(p, q, delta)
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))
            and np.all(np.isfinite(delta))):
        raise ValueError("hyperbolic_oscillatory requires finite p, q, delta")
    if np.any(p == 0.0) or np.any(q == 0.0):
        raise ValueError("hyperbolic_oscillatory requires p*q != 0")
    if np.any(delta < 0.0):
        raise ValueError("delta must be nonnegative")
    p, q, flip = _positive_p(p, q)

    x_left, x_right = _window(p, q, delta)
    tails, est = _tails(p, q, delta, x_left, x_right)
    if np.any(est > _TAIL_BUDGET):
        raise QuadratureError(
            f"hyperbolic_oscillatory tail estimate {est.max():.2e} above budget"
        )
    # Window integral with panels tracking frequency and damping, one
    # block of panels at a time; each panel's nodes sum to one value.
    a, b, owner = _window_panels(p, q, delta, x_left, x_right)
    panel_sums = np.empty(len(a), dtype=complex)
    for lo in range(0, len(a), _BLOCK_PANELS):
        blk = slice(lo, lo + _BLOCK_PANELS)
        nodes, weights = interval_nodes(a[blk], b[blk], _GL_ORDER)
        e = owner[blk, None]
        decay = np.exp(-nodes)
        phase = p[e] * np.exp(nodes) + q[e] * decay
        weights = weights * np.exp(-delta[e] * decay)
        panel_sums.real[blk] = (weights * np.cos(phase)).sum(axis=1)
        panel_sums.imag[blk] = (weights * np.sin(phase)).sum(axis=1)
    # each element's panels, pairwise-summed in index order
    starts = np.searchsorted(owner, np.arange(len(p)))
    window = np.add.reduceat(panel_sums, starts)
    h = window + tails
    return _unbatch(np.where(flip, np.conj(h), h), shape)

"""Shared numerical utilities: a reproducible RNG read in array blocks,
panel-based Gauss-Legendre quadrature, and `Estimate`, the (value, error
estimate) pair that H (`quadrature`), `kernels.ft_regularized` and the
Mellin rule return.

Every routine here is deterministic for fixed inputs.  The package sums
with numpy reductions in a fixed order (`np.add.reduce`, `np.dot`), so
results do not depend on worker count anywhere in it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class Estimate(NamedTuple):
    """A value and the estimate of its error, each a number or an array of
    the value's shape; a tuple, so `value, error_estimate = ...` unpacks."""

    value: object
    error_estimate: object


class SplitMix64:
    """Minimal cross-language reproducible 64-bit generator.

    Standard SplitMix64 stepping, read in blocks: `words` returns the next
    outputs and `uniforms` maps their top 53 bits to [lo, hi).  Chosen over
    platform RNGs so golden files can be regenerated from any
    implementation language.
    """

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def words(self, n):
        """The next outputs, in stream order, as a uint64 array of shape
        `n` (a count or a shape), in wrapping uint64 arithmetic."""
        steps = np.arange(1, np.prod(n, dtype=int) + 1, dtype=np.uint64)
        z = np.uint64(self._state) + steps.reshape(n) * np.uint64(_GOLDEN)
        self._state = (self._state + steps.size * _GOLDEN) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def uniforms(self, n, lo=0.0, hi=1.0):
        """The next draws lo + (hi - lo) u, u in [0, 1), of shape `n`; lo
        and hi (scalars or sequences) broadcast against that shape."""
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        return lo + (hi - lo) * unit_floats(self.words(n))


def unit_floats(words):
    """[0, 1) values of SplitMix64 words: their top 53 bits times 2^-53."""
    return (words >> np.uint64(11)).astype(float) * 2.0 ** -53


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(n: int):
    """Cached Gauss-Legendre nodes/weights on [-1, 1]."""
    if n not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GL_CACHE[n] = (x, w)
    return _GL_CACHE[n]


def panel_nodes(breaks, order=12):
    """Gauss-Legendre nodes and weights for the panels defined by `breaks`.

    This is the package's only multi-panel rule: the delta volume route,
    the operator grids, the Mellin grids and the reduction oracle all call
    it.  Returns (nodes, weights) flattened over panels in breakpoint
    order, so `reshape(-1, order)` recovers one row per panel.
    """
    x, w = gauss_legendre(order)
    breaks = np.asarray(breaks, dtype=float)
    a, b = breaks[:-1, None], breaks[1:, None]
    half = 0.5 * (b - a)
    return (0.5 * (a + b) + half * x).ravel(), (half * w).ravel()

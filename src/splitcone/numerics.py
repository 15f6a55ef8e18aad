"""Shared numerical utilities: a reproducible RNG, Richardson
extrapolation, and panel-based Gauss-Legendre quadrature.

Every routine here is deterministic for fixed inputs.  The package sums
with numpy reductions in a fixed order (`np.add.reduce`, `np.dot`), so
results do not depend on worker count anywhere in it.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """Minimal cross-language reproducible 64-bit generator.

    Standard SplitMix64 stepping; `uniform` maps the top 53 bits to [0, 1).
    Chosen over platform RNGs so golden files can be regenerated from any
    implementation language.
    """

    name = "splitmix64"

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def uniform(self, lo=0.0, hi=1.0):
        u = (self.next_u64() >> 11) * 2.0 ** -53
        return lo + (hi - lo) * u

    def uniforms(self, n):
        """The next `n` draws of `uniform()`, in stream order, as an array:
        the same states and bit mixing in wrapping uint64 arithmetic."""
        steps = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self._state) + steps * np.uint64(_GOLDEN)
        if n:
            self._state = int(z[-1])
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return (z >> np.uint64(11)).astype(float) * 2.0 ** -53

    def choice_sign(self) -> int:
        return 1 if self.next_u64() & 1 else -1


def richardson_limit(values, ratio=2.0, order=2):
    """Extrapolate f(eps) -> f(0) from samples on a geometric epsilon ladder.

    `values[i]` corresponds to eps_i = eps_0 / ratio**i (largest first).
    Polynomial error model f(eps) = L + c1*eps + c2*eps^2 + ...; `order`
    elimination levels are applied. Returns (limit, error_estimate), the
    estimate taken from the last two table entries.
    """
    vals = [complex(v) for v in values]
    n = len(vals)
    if n == 1:
        return vals[0], float("nan")
    levels = min(order, n - 1)
    table = list(vals)
    last_two = [table[-1]]
    for m in range(1, levels + 1):
        mult = ratio**m
        table = [
            (mult * table[i + 1] - table[i]) / (mult - 1.0)
            for i in range(len(table) - 1)
        ]
        last_two.append(table[-1])
    err = abs(last_two[-1] - last_two[-2])
    return table[-1], err


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

import math

import numpy as np
import pytest

from splitcone.geometry import (
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
from splitcone.numerics import SplitMix64
from splitcone.suites import (
    _cone_pair_block,
    _corollary_points,
    _lemma_identity_points,
    _lemma_sine_points,
    _sample_offcone_dual,
    _window_embeddings,
)


def test_norm_basics():
    assert norm(np.array([1.0, 0.0, 0.0, 0.0])) == 1.0
    assert norm(np.array([1.0, 0.0, 1.0, 0.0])) == 0.0
    x = np.array([0.3, -1.2, 0.5, 2.0])
    det = np.linalg.det(matrix_realization(x))
    assert abs(det.imag) < 1e-14
    assert abs(norm(x) - det.real) < 1e-12


def test_norm_scaling():
    draws = SplitMix64(5).uniforms((50, 5), (-3, -3, -3, -3, -2), (3, 3, 3, 3, 2))
    for x, a in zip(draws[:, :4], draws[:, 4]):
        assert abs(norm(a * x) - a * a * norm(x)) < 1e-12 * max(1, abs(norm(x)))


def test_pair_basics():
    xi = np.array([1.0, 0, 1, 0])
    assert pair(xi, xi) == 0.0
    assert pair(np.array([1.0, 0, 0, 0]), np.array([0.0, 0, 1, 0])) == 0.0
    # symmetry and bilinearity spot checks
    a = np.array([0.3, 1.1, -0.4, 0.9])
    b = np.array([-1.2, 0.1, 2.0, 0.5])
    assert pair(a, b) == pair(b, a)


def test_pair_difference_identity_on_cone():
    charts = SplitMix64(7).uniforms((300, 2, 3), (0.1, 0, 0), (3, 6.28, 6.28))
    for c1, c2 in charts:
        p1, p2 = ConePoint(*c1), ConePoint(*c2)
        d = cone_embed(p1) - cone_embed(p2)
        lhs = pair(d, d)
        rhs = -2.0 * pair(cone_embed(p1), cone_embed(p2))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_cone_embed():
    p = ConePoint(1.0, 0.0, 0.0)
    assert cone_embed(p).tolist() == [1, 0, 1, 0]
    q = cone_embed(ConePoint(2.0, math.pi / 2, 0.0))
    assert np.allclose(q, [0, 2, 2, 0], atol=1e-15)
    for chart in SplitMix64(9).uniforms((40, 3), (0.1, 0, 0), (5, 6.28, 6.28)):
        p = ConePoint(*chart)
        xi = cone_embed(p)
        assert abs(pair(xi, xi)) < 1e-14 * p.r * p.r
        assert abs(np.linalg.norm(xi) - math.sqrt(2) * p.r) < 1e-12


def test_cone_embed_stacked_charts_and_block_draws():
    # stacked charts embed row by row as the ConePoints do
    charts = _cone_pair_block(SplitMix64(13).uniforms((20, 6)))
    stacked = cone_embed(charts)
    assert stacked.shape == (20, 2, 4)
    for k in range(20):
        for j in range(2):
            assert np.array_equal(stacked[k, j], cone_embed(ConePoint(*charts[k, j])))
    with pytest.raises(ValueError):
        cone_embed(np.array([[1.0, 0.2, 0.3], [0.0, 0.2, 0.3]]))


@pytest.mark.parametrize("shape", [(3,), (5, 3), (2, 4, 3)])
def test_cone_embed_of_stacked_charts_is_the_cone_point_path_bitwise(shape):
    charts = SplitMix64(17).uniforms(shape, (0.1, 0, 0), (5, 6.28, 6.28))
    stacked = cone_embed(charts)
    assert stacked.shape == shape[:-1] + (4,)
    rows = [cone_embed(ConePoint(*chart)) for chart in charts.reshape(-1, 3)]
    assert stacked.reshape(-1, 4).tobytes() == np.array(rows).tobytes()
    for bad in (0.0, -1.0, math.nan):
        broken = charts.copy()
        broken[(0,) * (len(shape) - 1) + (0,)] = bad
        with pytest.raises(ValueError):
            cone_embed(broken)


def test_window_embeddings_are_cone_embed_of_each_window():
    # the candidate draws of the pair samplers: every 3-draw window's chart,
    # embedded with each angle's cos and sin taken once, bit for bit
    for n in (3, 4, 11, 560):
        u = SplitMix64(n).uniforms(n)
        windows = _cone_pair_block(np.lib.stride_tricks.sliding_window_view(u, 3))
        assert _window_embeddings(u).tobytes() == cone_embed(windows[:, 0]).tobytes()


def test_cone_point_rejects_bad_radius():
    with pytest.raises(ValueError):
        ConePoint(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ConePoint(-1.0, 0.0, 0.0)


def test_measure_weights():
    assert cone_measure_weight(ConePoint(1.0, 0, 0)) == 1.0
    assert cone_measure_weight(ConePoint(2.0, 0, 0)) == 2.0
    assert cone_half_measure_weight(ConePoint(1.0, 0, 0)) == 0.5
    with pytest.raises(ValueError):
        cone_measure_weight(-1.0)


def test_w0_act_values_and_involution():
    phi = lambda X: 1.0
    X = np.array([2.0, 0.0, 0.0, 0.0])
    assert abs(w0_act(phi, X) - 4.0 / norm(X)) < 1e-15
    f = lambda X: np.exp(-np.abs(X).sum()) + X[1] * X[2]
    for X in SplitMix64(11).uniforms((200, 4), -2, 2):
        if abs(norm(X)) < 0.05:
            continue
        twice = w0_act(lambda Y: w0_act(f, Y), X)
        assert abs(twice - f(X)) < 1e-10 * max(1.0, abs(f(X)))
    with pytest.raises(ValueError):
        w0_act(phi, np.array([1.0, 0.0, 1.0, 0.0]))


def test_w0_homogeneous_multiplier():
    draws = SplitMix64(13).uniforms((4, 40, 4), -2, 2)
    for two_l, block in zip((-1.0, complex(-1.0, 1.4), 0.0, 2.0), draws):
        l = two_l / 2.0
        for X in block:
            if norm(X) < 0.05:
                continue
            ang = lambda Y: 1.0 + 0.3 * Y[0] / math.sqrt((Y**2).sum())
            hom = lambda Y: homogeneous_power(Y, l) * ang(Y)
            got = w0_act(hom, X)
            ref = 2.0 ** (4 * l + 2) * homogeneous_power(X, -2 * l - 1) * hom(X)
            assert abs(got - ref) <= 1e-10 * abs(ref)


def test_homogeneous_power_domain():
    with pytest.raises(ValueError):
        homogeneous_power(np.array([1.0, 0, 1.0, 0]), 0.5)


def test_gradient_identity_polynomials():
    polys = [
        (lambda x: x[0] ** 2 * x[2],
         lambda x: np.array([2 * x[0] * x[2], 0.0, x[0] ** 2, 0.0])),
        (lambda x: x[1] * x[3] ** 2 + x[0],
         lambda x: np.array([1.0, x[3] ** 2, 0.0, 2 * x[1] * x[3]])),
        (lambda x: x[0] * x[1] * x[2] * x[3],
         lambda x: np.array([x[1] * x[2] * x[3], x[0] * x[2] * x[3],
                             x[0] * x[1] * x[3], x[0] * x[1] * x[2]])),
    ]
    draws = SplitMix64(17).uniforms((len(polys), 10, 4), -2, 2)
    for (poly, grad), block in zip(polys, draws):
        for X in block:
            assert quaternion_gradient_identity_residual(poly, grad, X) < 1e-12


_MASK64 = (1 << 64) - 1


class _ScalarWalk:
    """SplitMix64 stepped one output at a time in Python integers, with the
    scalar draws of the suites' samplers: the reference for their blocks."""

    def __init__(self, seed):
        self.state = seed & _MASK64

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, lo=0.0, hi=1.0):
        return lo + (hi - lo) * ((self.next_u64() >> 11) * 2.0**-53)

    def offcone_dual(self):
        R = self.uniform(0.5, 2.0)
        q = self.uniform(0.25, 16.0) * (1 if self.next_u64() & 1 else -1)
        sig = self.uniform(1.0, 4.0)
        if abs(q) > sig * sig:
            sig = math.sqrt(abs(q)) * 1.3
        r1, r2 = 0.5 * (sig + q / sig), 0.5 * (sig - q / sig)
        a1, a2 = self.uniform(0.0, 2.0 * math.pi), self.uniform(0.0, 2.0 * math.pi)
        x = [r1 * math.cos(a1), r1 * math.sin(a1), r2 * math.cos(a2), r2 * math.sin(a2)]
        return R, x, x[0] * x[0] + x[1] * x[1] - x[2] * x[2] - x[3] * x[3]

    def cone_pair(self):
        return [[self.uniform(0.3, 2.0), self.uniform(0.0, 2 * math.pi),
                 self.uniform(0.0, 2 * math.pi)] for _ in range(2)]


def _pair_geometry(p1, p2):
    """<xi, xi'> and the polar radii of xi - xi' for two charts, scalar."""
    e1, e2 = ([r * math.cos(t1), r * math.sin(t1), r * math.cos(t2), r * math.sin(t2)]
              for r, t1, t2 in (p1, p2))
    d = [a - b for a, b in zip(e1, e2)]
    inner = e1[0] * e2[0] + e1[1] * e2[1] - e1[2] * e2[2] - e1[3] * e2[3]
    return inner, float(np.hypot(d[0], d[1])), float(np.hypot(d[2], d[3]))


@pytest.mark.parametrize("seed", [2024, 7, 1007])
def test_block_samplers_match_the_scalar_walk(seed):
    # the fourier points and subsample: 6 words a point
    for offset, n in ((0, 50), (1, 6)):
        walk = _ScalarWalk(seed + offset)
        R, xi, q = zip(*(walk.offcone_dual() for _ in range(n)))
        block = _sample_offcone_dual(SplitMix64(seed + offset), n)
        assert [v.tolist() for v in block] == [list(R), list(xi), list(q)]

    # corollary: a kept pair draws its R as a 7th value
    walk, ref = _ScalarWalk(seed + 2), []
    while len(ref) < 20:
        p1, p2 = walk.cone_pair()
        if abs(_pair_geometry(p1, p2)[0]) < 0.05:
            continue
        ref.append(([p1, p2], walk.uniform(0.5, 2.0)))
    charts, R = _corollary_points(SplitMix64(seed + 2), 20)
    assert (charts.tolist(), R.tolist()) == tuple(map(list, zip(*ref)))

    # lemma: identity candidates draw R before the test, sine ones do not
    walk, identity = _ScalarWalk(seed + 4), []
    while len(identity) < 10:
        p1, p2 = walk.cone_pair()
        R = walk.uniform(0.5, 2.0)
        _, r1, r2 = _pair_geometry(p1, p2)
        if min(r1, r2) == 0 or abs(r1 - r2) / max(r1, r2) <= 0.2:
            continue
        identity.append(([p1, p2], R))
    walk, sine = _ScalarWalk(seed + 5), []
    while len(sine) < 3:
        p1, p2 = walk.cone_pair()
        inner, r1, r2 = _pair_geometry(p1, p2)
        if inner >= -0.1 or min(r1, r2) <= 0 or abs(r1 - r2) / max(r1, r2) <= 0.25:
            continue
        sine.append([p1, p2])
    charts, R = _lemma_identity_points(SplitMix64(seed + 4), 10)
    assert (charts.tolist(), R.tolist()) == tuple(map(list, zip(*identity)))
    assert _lemma_sine_points(SplitMix64(seed + 5), 3).tolist() == sine

import math

import numpy as np
import pytest

from splitcone.geometry import (
    ConePoint,
    DualVector,
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
from splitcone.suites import _cone_pair_block, _sample_cone_pair


def test_norm_basics():
    assert norm(np.array([1.0, 0.0, 0.0, 0.0])) == 1.0
    assert norm(np.array([1.0, 0.0, 1.0, 0.0])) == 0.0
    x = np.array([0.3, -1.2, 0.5, 2.0])
    det = np.linalg.det(matrix_realization(x))
    assert abs(det.imag) < 1e-14
    assert abs(norm(x) - det.real) < 1e-12


def test_norm_scaling():
    rng = SplitMix64(5)
    for _ in range(50):
        x = np.array([rng.uniform(-3, 3) for _ in range(4)])
        a = rng.uniform(-2, 2)
        assert abs(norm(a * x) - a * a * norm(x)) < 1e-12 * max(1, abs(norm(x)))


def test_pair_basics():
    xi = DualVector(1, 0, 1, 0)
    assert pair(xi, xi) == 0.0
    assert pair(DualVector(1, 0, 0, 0), DualVector(0, 0, 1, 0)) == 0.0
    # symmetry and bilinearity spot checks
    a = DualVector(0.3, 1.1, -0.4, 0.9)
    b = DualVector(-1.2, 0.1, 2.0, 0.5)
    assert pair(a, b) == pair(b, a)


def test_pair_difference_identity_on_cone():
    rng = SplitMix64(7)
    for _ in range(300):
        p1 = ConePoint(rng.uniform(0.1, 3), rng.uniform(0, 6.28), rng.uniform(0, 6.28))
        p2 = ConePoint(rng.uniform(0.1, 3), rng.uniform(0, 6.28), rng.uniform(0, 6.28))
        d = cone_embed(p1) - cone_embed(p2)
        lhs = pair(d, d)
        rhs = -2.0 * pair(cone_embed(p1), cone_embed(p2))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_cone_embed():
    p = ConePoint(1.0, 0.0, 0.0)
    assert cone_embed(p) == DualVector(1, 0, 1, 0)
    q = cone_embed(ConePoint(2.0, math.pi / 2, 0.0))
    assert np.allclose(q.as_array(), [0, 2, 2, 0], atol=1e-15)
    rng = SplitMix64(9)
    for _ in range(40):
        p = ConePoint(rng.uniform(0.1, 5), rng.uniform(0, 6.28), rng.uniform(0, 6.28))
        xi = cone_embed(p)
        assert abs(pair(xi, xi)) < 1e-14 * p.r * p.r
        assert abs(np.linalg.norm(xi.as_array()) - math.sqrt(2) * p.r) < 1e-12


def test_cone_embed_stacked_charts_and_block_draws():
    # a block of cone-pair draws is the scalar stream, and stacked charts
    # embed row by row as the ConePoints do
    rng, block = SplitMix64(13), SplitMix64(13)
    stacked = cone_embed(_cone_pair_block(block, 20))
    assert stacked.shape == (20, 2, 4)
    for k in range(20):
        for j, p in enumerate(_sample_cone_pair(rng)):
            assert np.array_equal(stacked[k, j], cone_embed(p).as_array())
    assert rng.uniform() == block.uniforms(1)[0]
    assert block.uniforms(0).shape == (0,)
    with pytest.raises(ValueError):
        cone_embed(np.array([[1.0, 0.2, 0.3], [0.0, 0.2, 0.3]]))


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
    rng = SplitMix64(11)
    f = lambda X: np.exp(-np.abs(X).sum()) + X[1] * X[2]
    for _ in range(200):
        X = np.array([rng.uniform(-2, 2) for _ in range(4)])
        if abs(norm(X)) < 0.05:
            continue
        twice = w0_act(lambda Y: w0_act(f, Y), X)
        assert abs(twice - f(X)) < 1e-10 * max(1.0, abs(f(X)))
    with pytest.raises(ValueError):
        w0_act(phi, np.array([1.0, 0.0, 1.0, 0.0]))


def test_w0_homogeneous_multiplier():
    rng = SplitMix64(13)
    for two_l in (-1.0, complex(-1.0, 1.4), 0.0, 2.0):
        l = two_l / 2.0
        for _ in range(40):
            X = np.array([rng.uniform(-2, 2) for _ in range(4)])
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
    rng = SplitMix64(17)
    for poly, grad in polys:
        for _ in range(10):
            X = np.array([rng.uniform(-2, 2) for _ in range(4)])
            assert quaternion_gradient_identity_residual(poly, grad, X) < 1e-12

import math

import mpmath
import numpy as np
import pytest
from scipy import special as sp

from splitcone import quadrature
from splitcone.numerics import SplitMix64
from splitcone.quadrature import QuadratureError, hyperbolic_oscillatory


def test_splitmix_determinism():
    # the published SplitMix64 outputs
    assert SplitMix64(0).words(3).tolist() == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert SplitMix64(1234567).words(3).tolist() == [
        0x599ED017FB08FC85, 0x2C73F08458540FA5, 0x883EBCE5A3F27C77]
    # split draws continue the stream, and a shape is the same stream
    a = SplitMix64(123)
    split = np.r_[a.words(3), a.words(5)]
    assert split.tolist() == SplitMix64(123).words(8).tolist()
    assert SplitMix64(123).words((2, 4)).ravel().tolist() == split.tolist()
    assert SplitMix64(123).words(1)[0] != SplitMix64(124).words(1)[0]
    u = SplitMix64(0).uniforms(1000)
    assert np.all((0.0 <= u) & (u < 1.0))
    assert SplitMix64(0).uniforms(0).shape == (0,)
    # uniforms maps the words' top 53 bits to [lo, hi)
    lo, hi = np.array([-2.0, 0.5]), np.array([2.0, 3.0])
    assert np.array_equal(
        SplitMix64(9).uniforms((3, 2), lo, hi),
        lo + (hi - lo) * (SplitMix64(9).words((3, 2)) >> np.uint64(11)) * 2.0**-53)


def test_h_matches_bessel_identities():
    # int_R exp(i u cosh t) dt = pi (i J0(u) - Y0(u))
    for u in (0.3, 1.0, 4.0, 15.0, 40.0, 100.0, 400.0, 1000.0):
        got = hyperbolic_oscillatory(u / 2, u / 2)[0]
        ref = math.pi * (1j * sp.j0(u) - sp.y0(u))
        assert abs(got - ref) < 5e-11
    # int_R exp(i u sinh t) dt = 2 K0(u)
    for u in (0.3, 1.0, 4.0, 15.0, 100.0, 400.0, 1000.0):
        got = hyperbolic_oscillatory(u / 2, -u / 2)[0]
        assert abs(got - 2 * sp.k0(u)) < 5e-11


def test_h_damped_against_mpmath():
    # H(p, q, delta) = pi i H0^(1)(2 sqrt(p (q + i delta))) for p > 0, the
    # closed form of test_h_strongly_damped_against_hankel, at 50 digits
    def hankel(p, q, d):
        with mpmath.workdps(50):
            g = 2 * mpmath.sqrt(mpmath.mpf(p) * (mpmath.mpf(q) + 1j * mpmath.mpf(d)))
            return complex(mpmath.pi * 1j * mpmath.hankel1(0, g))

    # (1.3, -2.1, ...) is the weakly damped, strongly oscillating regime of
    # the finite-eps rungs (delta = |q| eps at the smallest ladder eps); the
    # last three are strongly damped
    for (p, q, d) in ((1.0, -0.7, 0.3), (0.6, 0.9, 1.2), (2.0, 0.25, 0.05),
                      (1.3, -2.1, 2.1 * 0.0125), (1.0, 0.1, 2.0),
                      (1.0, -0.1, 2.0), (2.0, -0.2, 3.0)):
        got, est = hyperbolic_oscillatory(p, q, d)
        err = abs(got - hankel(p, q, d))
        assert err < 1e-12
        assert err <= est


def test_h_weakly_damped_against_brute_force_mpmath():
    # the closed form above against direct quadrature of the defining
    # integral, on the weakly damped, strongly oscillating input
    mpmath.mp.dps = 25
    p, q, d = 1.3, -2.1, 2.1 * 0.0125
    f = lambda x: mpmath.exp(
        1j * (p * mpmath.exp(x) + q * mpmath.exp(-x)) - d * mpmath.exp(-x))
    brute = mpmath.quad(f, mpmath.linspace(-14, 5, 120), maxdegree=10)
    U = p * mpmath.exp(5)
    g = lambda u: mpmath.exp(1j * (u + q * p / u) - d * p / u) / u
    brute = complex(brute + mpmath.quadosc(g, [U, mpmath.inf], period=2 * mpmath.pi))
    got, est = hyperbolic_oscillatory(p, q, d)
    err = abs(got - brute)
    assert err < 1e-12
    assert err <= est


def test_h_estimate_bounds_its_error_against_scipy_bessel():
    # H(p, q, 0) is pi (i J0(u) - Y0(u)) for p, q > 0 and 2 K0(u) for
    # p > 0 > q, u = 2 sqrt(|p q|); H(-p, -q) = conj H(p, q).  The
    # 20 x 20 grid in all four sign branches is one batch.
    grid = np.geomspace(0.05, 40.0, 20)
    p, aq = np.meshgrid(grid, grid, indexing="ij")
    u = 2.0 * np.sqrt(p * aq)
    cosh_ref = math.pi * (1j * sp.j0(u) - sp.y0(u))
    sign_p = np.array([1, 1, -1, -1])[:, None, None]
    sign_q = np.array([1, -1, 1, -1])[:, None, None]
    ref = np.stack([cosh_ref, 2 * sp.k0(u), 2 * sp.k0(u), np.conj(cosh_ref)])
    got, est = hyperbolic_oscillatory(sign_p * p, sign_q * aq)
    assert np.all(np.abs(got - ref) <= est)


def test_h_batch_matches_scalar_calls_bit_for_bit():
    # p of both signs, damped and undamped, up to u = 2 sqrt|pq| = 1000
    p = np.array([0.8, -0.8, 1.3, -2.0, 500.0, -500.0, 0.05, 1.0, -1.0])
    q = np.array([0.5, -0.5, -2.1, 0.25, 500.0, 500.0, -40.0, 0.1, -0.1])
    d = np.array([0.1, 0.1, 0.02625, 0.0, 0.0, 0.0, 0.002, 2.0, 2.0])
    batch, est = hyperbolic_oscillatory(p, q, d)
    single = [hyperbolic_oscillatory(*args) for args in zip(p, q, d)]
    assert batch.tobytes() == np.array([v for v, _ in single]).tobytes()
    assert est.tobytes() == np.array([e for _, e in single]).tobytes()
    # a value does not depend on its companions or its place in the batch
    order = np.array([5, 0, 8, 3, 1, 7, 2, 6, 4])
    again, again_est = hyperbolic_oscillatory(p[order], q[order], d[order])
    assert again.tobytes() == batch[order].tobytes()
    assert again_est.tobytes() == est[order].tobytes()
    # nor does the undamped estimate
    bound = hyperbolic_oscillatory(p, q)[1]
    single = np.array([hyperbolic_oscillatory(*args)[1] for args in zip(p, q)])
    assert bound.tobytes() == single.tobytes()


def test_h_conjugate_pairs_and_duplicates_match_lone_calls(monkeypatch):
    # H(-p, -q, delta) = conj H(p, q, delta) and a repeated element share
    # one rule row; delta = 0.0 and -0.0 differ in their bits, so not theirs
    p = np.array([0.8, -0.8, 0.8, 1.3, -1.3, -1.3, 2.0, -2.0, 2.0, 0.5])
    q = np.array([0.5, -0.5, 0.5, -2.1, 2.1, 2.1, -0.3, 0.3, -0.3, 4.0])
    d = np.array([0.1, 0.1, 0.1, 0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0])
    single = [hyperbolic_oscillatory(*args) for args in zip(p, q, d)]
    rows = []
    rule = quadrature._contour_rule

    def record(*args):
        rows.append(len(args[0]))
        return rule(*args)

    monkeypatch.setattr(quadrature, "_contour_rule", record)
    for order in (np.arange(10), np.array([9, 4, 1, 7, 0, 5, 8, 2, 6, 3])):
        batch, est = hyperbolic_oscillatory(p[order], q[order], d[order])
        assert batch.tobytes() == np.array([single[i][0] for i in order]).tobytes()
        assert est.tobytes() == np.array([single[i][1] for i in order]).tobytes()
    assert rows == [6, 6]


def test_contour_rule_sees_only_canonical_rows(monkeypatch):
    # H(p, q, delta) = conj H(-p, -q, delta) is applied once, by
    # hyperbolic_oscillatory: the rule gets each distinct row with p > 0,
    # also where a row's first element has p < 0
    seen = []
    rule = quadrature._contour_rule

    def record(p, q, delta):
        seen.append(p.copy())
        return rule(p, q, delta)

    monkeypatch.setattr(quadrature, "_contour_rule", record)
    p = np.array([-0.8, 0.8, -1.3, 2.0, -2.0])
    q = np.array([-0.5, 0.5, 2.1, -0.3, 0.7])
    value, _ = hyperbolic_oscillatory(p, q, 0.1)
    assert len(seen) == 1 and len(seen[0]) == 4 and (seen[0] > 0.0).all()
    assert value[0] == np.conj(value[1])


def test_h_batch_of_several_blocks_matches_lone_calls():
    # 320 distinct rows, more than one block, with every sign branch,
    # damped and undamped, |g| from about 0.04 to 130: each element is
    # bit for bit its lone call, whatever its block and place in it
    assert 320 > quadrature._BLOCK
    u = SplitMix64(31).uniforms((320, 3))
    p = np.where(u[:, 0] < 0.5, -1.0, 1.0) * 10.0 ** (4.0 * u[:, 1] - 2.0)
    q = np.where(u[:, 2] < 0.5, -1.0, 1.0) * 10.0 ** (4.0 * u[:, 1][::-1] - 2.0)
    d = np.where(np.arange(320) % 3 == 0, 0.0, u[:, 2])
    batch, est = hyperbolic_oscillatory(p, q, d)
    single = [hyperbolic_oscillatory(*args) for args in zip(p, q, d)]
    assert batch.tobytes() == np.array([v for v, _ in single]).tobytes()
    assert est.tobytes() == np.array([e for _, e in single]).tobytes()
    order = SplitMix64(32).words(320).argsort()
    again, again_est = hyperbolic_oscillatory(p[order], q[order], d[order])
    assert again.tobytes() == batch[order].tobytes()
    assert again_est.tobytes() == est[order].tobytes()


def test_h_broadcasts():
    out, est = hyperbolic_oscillatory(np.full((3, 1), 1.3), np.array([-2.1, 0.4]), 0.0)
    assert out.shape == est.shape == (3, 2)
    assert out[2, 1] == hyperbolic_oscillatory(1.3, 0.4)[0]
    assert hyperbolic_oscillatory(np.ones((2, 3)), -1.0)[1].shape == (2, 3)
    assert all(a.shape == (0,) for a in hyperbolic_oscillatory(np.ones(0), 1.0))
    # scalar input gives Python numbers
    value, est = hyperbolic_oscillatory(1.3, -2.1)
    assert type(value) is complex and type(est) is float
    value, est = hyperbolic_oscillatory(-1.3, 2.1, 0.5)
    assert type(value) is complex and type(est) is float


def test_h_conjugation_and_domain():
    v1 = hyperbolic_oscillatory(0.8, 0.5, 0.1)[0]
    v2 = hyperbolic_oscillatory(-0.8, -0.5, 0.1)[0]
    assert abs(v1 - np.conj(v2)) < 1e-14
    with pytest.raises(ValueError):
        hyperbolic_oscillatory(0.0, 1.0)
    with pytest.raises(ValueError):
        hyperbolic_oscillatory(1.0, 0.0)
    with pytest.raises(ValueError):
        hyperbolic_oscillatory(1.0, 1.0, -0.5)
    # one bad element rejects the whole batch
    with pytest.raises(ValueError):
        hyperbolic_oscillatory([1.0, 2.0], [1.0, 0.0])


def test_h_small_damping_regime(monkeypatch):
    # ft-like regime: strong oscillation with weak damping on the 1/w side;
    # the reference is the same rule at twice the nodes
    got = hyperbolic_oscillatory(1.3, -2.1, 2.1 * 0.0125)[0]
    monkeypatch.setattr(quadrature, "_N", 2 * quadrature._N)
    ref = hyperbolic_oscillatory(1.3, -2.1, 2.1 * 0.0125)[0]
    assert abs(got - ref) < 1e-14


def test_error_budget_error(monkeypatch):
    # the estimate is about 1e-15 at u = 2 and 1.4e-13 at u = 1000: a
    # budget between them holds for the first alone but not in a batch
    # with the second
    monkeypatch.setattr(quadrature, "_ERROR_BUDGET", 1e-14)
    hyperbolic_oscillatory(1.0, -1.0)
    with pytest.raises(QuadratureError):
        hyperbolic_oscillatory([1.0, 500.0], [-1.0, 500.0])


def test_h_raises_above_its_error_budget(monkeypatch):
    # any estimate, even an exact 0, is above a negative budget
    monkeypatch.setattr(quadrature, "_ERROR_BUDGET", -1.0)
    with pytest.raises(QuadratureError):
        hyperbolic_oscillatory(1.0, -1.0)


@pytest.mark.parametrize("p, q", [
    (5e-10, 5e-10), (5e-10, -5e-10), (-5e-10, 5e-10), (-5e-10, -5e-10),
    (1e-200, 1e-200), (1e200, -1e200),
])
def test_h_below_and_outside_supported_range(p, q):
    # |g| = 2 sqrt|pq| = 1e-9 is below the supported range; |g| = 0 or inf
    # (p q under- or overflows) has no rule at all
    with pytest.raises(QuadratureError):
        hyperbolic_oscillatory(p, q)
    # one such element fails its whole batch
    with pytest.raises(QuadratureError):
        hyperbolic_oscillatory([1.0, p], [1.0, q])


def _closed_form(p, q):
    """H(p, q, 0) by scipy: pi (i J0(u) - Y0(u)) for p q > 0, 2 K0(u) for
    p q < 0, u = 2 sqrt|p q|, conjugated for p < 0."""
    u = 2.0 * np.sqrt(np.abs(p * q))
    cosh = math.pi * (1j * sp.j0(u) - sp.y0(u))
    ref = np.where(p * q > 0, cosh, 2.0 * sp.k0(u))
    return np.where(p < 0, np.conj(ref), ref)


def test_h_high_frequency_against_scipy():
    # u = 1000 to 1e5 in all four branches; (500, 500) and (1000, -1000)
    # are among them
    u = np.array([1000.0, 2000.0, 1e4, 1e5])
    sign_p = np.array([1, 1, -1, -1])[:, None]
    sign_q = np.array([1, -1, 1, -1])[:, None]
    p, q = sign_p * u / 2, sign_q * u / 2
    got, est = hyperbolic_oscillatory(p, q)
    assert np.all(np.abs(got - _closed_form(p, q)) <= est)


def test_h_strongly_damped_against_hankel():
    # H = pi i H0^(1)(g) with g = 2 sqrt(p (q + i delta)); here |H| ~ 7e-15
    # while J0(g) and Y0(g) are ~ 5e13, so mpmath needs about 45 digits
    # for their sum (at 30 it is off by 1.6e-8 relative)
    p, q, d = 100.0, -0.01, 5.0
    with mpmath.workdps(50):
        g = 2 * mpmath.sqrt(mpmath.mpf(p) * (mpmath.mpf(q) + 1j * mpmath.mpf(d)))
        ref = complex(mpmath.pi * 1j * mpmath.hankel1(0, g))
    got, est = hyperbolic_oscillatory(p, q, d)
    assert abs(got - ref) <= min(est, 1e-13 * abs(ref))


def test_ft_regularized_carries_the_estimate_of_its_h_pass(monkeypatch):
    # the fourier suite's batch of 218 transforms at seed 2024: value and
    # estimate are -1/4 and 1/4 of one contour pass on the canonical rows
    # (|p|, +-q) of the (p, q) that ft_regularized hands to H, conjugated
    # where p < 0, byte for byte
    from splitcone import kernels
    from splitcone.suites import SuiteConfig, suite_fourier

    inputs, results = [], []
    h, ft = kernels.hyperbolic_oscillatory, kernels.ft_regularized

    def record_h(p, q, delta=0.0):
        inputs.append((np.ravel(p), np.ravel(q), delta))
        return h(p, q, delta)

    def record_ft(*args):
        results.append(ft(*args))
        return results[-1]

    monkeypatch.setattr(kernels, "hyperbolic_oscillatory", record_h)
    monkeypatch.setattr(kernels, "ft_regularized", record_ft)
    suite_fourier(SuiteConfig(suite="fourier", seed=2024))
    assert len(inputs) == len(results) == 1
    (p, q, delta), res = inputs[0], results[0]
    assert np.all(delta == 0.0) and res.value.shape == (218,)
    flip = p < 0.0
    value, est = quadrature._contour_rule(
        np.abs(p), np.where(flip, -q, q), np.zeros_like(p))
    value = np.where(flip, np.conj(value), value)
    assert res.value.tobytes() == (-0.25 * value).tobytes()
    assert res.error_estimate.tobytes() == (0.25 * est).tobytes()


def test_h_ft_and_mellin_return_one_estimate_type():
    from splitcone.kernels import ft_regularized
    from splitcone.mellin import MellinRule, mellin
    from splitcone.numerics import Estimate

    h = hyperbolic_oscillatory(0.8, -0.3)
    value, est = h
    assert (value, est) == (h.value, h.error_estimate) == (h[0], h[1])
    rule = MellinRule((0, 1, 2), (), 1e-3, 400.0, 1.3)
    for got in (h, ft_regularized(1.2, np.array([1.5, 0.0, 0.5, 0.0]), -1, 1),
                rule(np.exp(-rule.s), 0.7),
                mellin(lambda s: np.exp(-s), 0.7, (0, 1, 2), ())):
        assert type(got) is Estimate

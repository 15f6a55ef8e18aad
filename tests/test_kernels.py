import math

import mpmath
import numpy as np
import pytest
from scipy import special as sp

from splitcone import kernels
from splitcone.geometry import ConePoint, cone_embed, pair
from splitcone.kernels import (
    corollary_kernels,
    delta_cone_apply,
    delta_hyperboloid_apply,
    delta_quadric_apply,
    ft_bruteforce_damped,
    ft_closed_form,
    ft_regularized,
    lemma_kernel_integrals,
    phi0_plus,
    psi0,
)
from splitcone.numerics import Estimate, SplitMix64, unit_floats
from splitcone.quadrature import hyperbolic_oscillatory
from splitcone.suites import (
    SuiteConfig,
    _gaussian_family,
    _sample_offcone_dual,
    suite_fourier,
    suite_kernels,
)


def test_psi0_branches():
    assert abs(psi0(-0.5) + (2 / math.pi) * sp.k0(2.0)) < 1e-12
    assert abs(psi0(0.5) - sp.y0(2.0)) < 1e-12
    ts = np.array([-2.0, -0.5, -1e-6, 1e-6, 0.5, 3.0])
    assert psi0(ts).tolist() == [psi0(t) for t in ts]
    with pytest.raises(ValueError):
        psi0(0.0)
    with pytest.raises(ValueError):
        psi0(np.array([0.5, 0.0]))


@pytest.mark.parametrize("kernel", [psi0, phi0_plus], ids=["psi0", "phi0_plus"])
@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan],
                         ids=["inf", "-inf", "nan"])
def test_kernels_reject_non_finite(kernel, t):
    with pytest.raises(ValueError):
        kernel(t)
    with pytest.raises(ValueError):
        kernel(np.array([0.5, t]))


def test_phi0_branches():
    assert phi0_plus(-3.0) == 0.0
    assert phi0_plus(0.0) == 0.0
    assert abs(phi0_plus(1e-12) - 1.0) < 1e-5
    assert abs(phi0_plus(0.5) - sp.j0(2.0)) < 1e-12
    arr = phi0_plus(np.array([-1.0, 0.125]))
    assert arr[0] == 0.0 and abs(arr[1] - sp.j0(1.0)) < 1e-12


def test_ft_closed_form_table():
    R, q = 1.0, 4.0
    v = ft_closed_form(R, q, -1, +1)
    assert abs(v - (math.pi / 4) * (sp.y0(2.0) + 1j * sp.j0(2.0))) < 1e-12
    v = ft_closed_form(R, -q, -1, +1)
    assert abs(v + 0.5 * sp.k0(2.0)) < 1e-12
    v = ft_closed_form(2.0, 1.0, -1, -1)
    assert abs(v - (math.pi / 4) * (sp.y0(2.0) - 1j * sp.j0(2.0))) < 1e-12
    v = ft_closed_form(1.0, 4.0, +1, +1)
    assert abs(v + 0.5 * sp.k0(2.0)) < 1e-12
    # sign_eps flip conjugates the oscillatory branch, fixes the real branch
    a = ft_closed_form(1.3, 2.0, -1, +1)
    b = ft_closed_form(1.3, 2.0, -1, -1)
    assert abs(a - np.conj(b)) < 1e-15
    assert ft_closed_form(1.3, -2.0, -1, +1) == ft_closed_form(1.3, -2.0, -1, -1)
    with pytest.raises(ValueError):
        ft_closed_form(1.0, 0.0, -1, 1)
    with pytest.raises(ValueError):
        ft_closed_form(-1.0, 1.0, -1, 1)
    with pytest.raises(ValueError):
        ft_closed_form(1.0, 1.0, 2, 1)


def test_ft_closed_form_batch_is_bitwise_scalar():
    rng = SplitMix64(5)
    R = rng.uniforms(12, 0.2, 3.0)
    w = rng.words((12, 2))  # |q|, then its sign in the low bit
    sign = np.where(w[:, 1] & np.uint64(1), 1, -1)
    q = (0.05 + (30.0 - 0.05) * unit_floats(w[:, 0])) * sign
    signs = np.array([-1, 1])
    # every point on all four sign branches
    batch = ft_closed_form(R[:, None, None], q[:, None, None], signs[:, None], signs)
    assert batch.shape == (12, 2, 2) and batch.dtype == complex
    for i in range(12):
        for j, sR in enumerate((-1, 1)):
            for k, se in enumerate((-1, 1)):
                one = ft_closed_form(float(R[i]), float(q[i]), sR, se)
                assert type(one) is complex
                assert np.complex128(one).tobytes() == batch[i, j, k].tobytes()


@pytest.mark.parametrize("R, q, sR, se", [
    ([1.0, 2.0], [1.0, 0.0], -1, 1),
    ([1.0, 2.0], [1.0, math.nan], -1, 1),
    ([1.0, 2.0], [-1.0, math.inf], 1, -1),
    (1.0, [1.0, -2.0], [-1, 0], 1),
    (1.0, [1.0, -2.0], -1, [1, 0]),
    ([1.0, 0.0], [1.0, 2.0], -1, 1),
    ([1.0, -1.0], 2.0, 1, 1),
], ids=["q-zero", "q-nan", "q-inf", "sign-R2-zero", "sign-eps-zero",
        "R-zero", "R-negative"])
def test_ft_closed_form_rejects_a_bad_batch_element(R, q, sR, se):
    with pytest.raises(ValueError):
        ft_closed_form(np.array(R), np.array(q), np.array(sR), np.array(se))


def test_ft_regularized_matches_closed_form():
    # R, |q|, the sign of q (the word's low bit) and sigma
    w = SplitMix64(21).words((6, 4))
    lo, hi = np.array([0.5, 0.25, 0.0, 1.0]), np.array([2.0, 16.0, 1.0, 4.0])
    signs = np.where(w[:, 2] & np.uint64(1), 1, -1)
    for (R, q, _, sig), sign in zip((lo + (hi - lo) * unit_floats(w)).tolist(), signs):
        q *= sign
        if abs(q) > sig * sig:
            sig = math.sqrt(abs(q)) * 1.3
        r1 = 0.5 * (sig + q / sig)
        r2 = 0.5 * (sig - q / sig)
        xi = np.array([r1, 0.0, 0.0, r2])
        for sR in (-1, 1):
            for se in (-1, 1):
                res = ft_regularized(R, xi, sR, se)
                ref = ft_closed_form(R, q, sR, se)
                assert abs(res.value - ref) <= max(1e-4 * abs(ref), 1e-5)
                assert res.error_estimate < 1e-3


def test_ft_regularized_rejects_cone():
    with pytest.raises(ValueError):
        ft_regularized(1.0, np.array([1.0, 0.0, 1.0, 0.0]), -1, 1)
    # xi is off-cone coordinates; a cone chart point is no input at all
    with pytest.raises(TypeError):
        ft_regularized(1.0, ConePoint(1.0, 0.3, 0.7), -1, 1)


def _criterion_01_points():
    """Criterion 1's 200 (R, xi, q, sign_R2, sign_eps) branch values."""
    for R, xi, q in zip(*_sample_offcone_dual(SplitMix64(2024), 50)):
        for sR in (-1, 1):
            for se in (-1, 1):
                yield R, xi, q, sR, se


def test_ft_error_estimate_bounds_closed_form_error():
    for R, xi, q, sR, se in _criterion_01_points():
        res = ft_regularized(R, xi, sR, se)
        ref = ft_closed_form(R, q, sR, se)
        assert abs(res.value - ref) <= res.error_estimate


# (seed, point, sign_R2) of the fourier suite's samples, seeds 0-999, where
# ft_regularized's error against the closed form at the drawn <xi, xi> is
# near or above its estimate: the drawn value is 3.4e-15 to 4.9e-15
# relative off the float xi's exact <xi, xi>
_ROUNDED_Q_CASES = [(338, 4, 1), (395, 27, 1), (472, 24, -1), (577, 49, -1),
                    (577, 49, 1)]


def test_ft_estimate_bounds_its_error_at_the_exact_inner_product():
    for seed, i, sR in _ROUNDED_Q_CASES:
        R, xi, _ = (v[i] for v in _sample_offcone_dual(SplitMix64(seed), 50))
        with mpmath.workdps(40):
            x = [mpmath.mpf(float(v)) for v in xi]
            q = x[0] ** 2 + x[1] ** 2 - x[2] ** 2 - x[3] ** 2
            u = mpmath.mpf(float(R)) * mpmath.sqrt(abs(q))
            for se in (-1, 1):
                if sR * q < 0:
                    ref = mpmath.pi / 4 * (mpmath.bessely(0, u)
                                           - 1j * sR * se * mpmath.besselj(0, u))
                else:
                    ref = -mpmath.besselk(0, u) / 2
                res = ft_regularized(R, xi, sR, se)
                assert abs(res.value - complex(ref)) <= res.error_estimate, (
                    seed, i, sR, se)


def test_transform_mutants_fail_their_named_checks(monkeypatch):
    # H scaled by 1 + 1e-6 moves the reduction that both ft.reduction_oracle
    # checks hold to the independent oracle, and Psi0 scaled likewise every
    # ft.closed_form reference; the delta routes, most of the kernels
    # suite's time, are stubbed
    def failed(suite, prefix):
        return [c.check_id for c in suite(SuiteConfig(seed=2024))
                if c.check_id.startswith(prefix) and not c.passed]

    h, psi = kernels.hyperbolic_oscillatory, kernels.psi0

    def scaled_h(*args):
        value, est = h(*args)
        return Estimate(value * (1 + 1e-6), est)

    stub = lambda *args: kernels.DeltaResult(1.0, 1.0, 0.0)
    with monkeypatch.context() as m:
        m.setattr(kernels, "delta_cone_apply", stub)
        m.setattr(kernels, "delta_hyperboloid_apply", stub)
        m.setattr(kernels, "hyperbolic_oscillatory", scaled_h)
        assert failed(suite_kernels, "ft.reduction_oracle") == [
            "ft.reduction_oracle.sR-1", "ft.reduction_oracle.sR+1"]
    monkeypatch.setattr(kernels, "psi0", lambda t: psi(t) * (1 + 1e-6))
    assert len(failed(suite_fourier, "ft.closed_form")) == 200


def test_damped_rungs_converge_to_undamped_limit_at_first_order():
    # the +-i eps regularization: on a ladder of ratio 2 each halving of
    # eps halves |I(eps) - I(0)|
    for R, xi, q, sR, se in _criterion_01_points():
        f0 = ft_regularized(R, xi, sR, se).value
        gaps = [abs(kernels._reduced_transform(R, xi, sR, se, e * R * R).value - f0)
                for e in (0.2, 0.1, 0.05, 0.025, 0.0125)]
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 1.5 <= coarse / fine <= 2.1


@pytest.mark.parametrize("q", [1e4, -1e4])
@pytest.mark.parametrize("sR", [-1, 1])
@pytest.mark.parametrize("se", [-1, 1])
def test_ft_regularized_high_frequency(q, sR, se):
    # R sqrt|q| = 100, far outside the sampled range |q| <= 16
    sig = 1.3 * math.sqrt(abs(q))
    xi = np.array([0.5 * (sig + q / sig), 0.0, 0.0, 0.5 * (sig - q / sig)])
    res = ft_regularized(1.0, xi, sR, se)
    err = abs(res.value - ft_closed_form(1.0, q, sR, se))
    assert err <= 1e-9
    assert err <= res.error_estimate


def test_ft_regularized_grid_up_to_1e4_within_estimate():
    # R sqrt|q| from 1 to 1e4, both signs of q, sign_R2 and sign_eps (the
    # four closed-form branches), as one batch
    cases = [(R, sq * (root / R) ** 2, sR, se)
             for root in np.geomspace(1.0, 1e4, 13) for R in (0.5, 2.0)
             for sq in (-1, 1) for sR in (-1, 1) for se in (-1, 1)]
    R, q, sR, se = (np.array(c) for c in zip(*cases))
    sig = 1.3 * np.sqrt(np.abs(q))
    zero = np.zeros_like(q)
    xi = np.stack([0.5 * (sig + q / sig), zero, zero, 0.5 * (sig - q / sig)], -1)
    res = ft_regularized(R, xi, sR, se)
    ref = np.array([ft_closed_form(*c) for c in cases])
    assert np.all(np.abs(res.value - ref) <= res.error_estimate)


@pytest.mark.parametrize("call", [
    lambda: hyperbolic_oscillatory(math.nan, 1.0),
    lambda: hyperbolic_oscillatory(math.inf, 1.0),
    lambda: hyperbolic_oscillatory(1.0, -math.inf),
    lambda: hyperbolic_oscillatory(1.0, 1.0, math.inf),
    lambda: hyperbolic_oscillatory(1.0, 1.0, math.nan),
    lambda: ft_regularized(math.inf, np.array([1.5, 0.0, 0.5, 0.0]), -1, 1),
    lambda: ft_regularized(math.nan, np.array([1.5, 0.0, 0.5, 0.0]), -1, 1),
    lambda: ft_regularized(1.0, np.array([math.nan, 0.0, 0.5, 0.0]), -1, 1),
    lambda: ft_regularized(1.0, np.array([1.5, 0.0, math.inf, 0.0]), -1, 1),
    lambda: ft_closed_form(math.inf, 2.0, -1, 1),
    lambda: ft_closed_form(1.0, math.nan, -1, 1),
    lambda: ft_closed_form(1.0, -math.inf, 1, -1),
], ids=["H-p-nan", "H-p-inf", "H-q-inf", "H-delta-inf", "H-delta-nan",
        "ft-R-inf", "ft-R-nan", "ft-xi-nan", "ft-xi-inf",
        "closed-R-inf", "closed-q-nan", "closed-q-inf"])
def test_non_finite_inputs_are_value_errors(call):
    with pytest.raises(ValueError):
        call()


def test_corollary_kernels():
    p1 = ConePoint(1.2, 0.3, 1.1)
    p2 = ConePoint(0.7, 2.0, 0.4)
    inner = pair(cone_embed(p1), cone_embed(p2))
    sym, anti = corollary_kernels(1.5, p1, p2)
    assert abs(sym - 0.5 * math.pi * psi0(-inner)) < 1e-4 * abs(sym)
    ref = 0.5j * math.pi * phi0_plus(-(1.5**2 / 4) * inner)
    assert abs(anti - ref) < 1e-4 * max(abs(ref), 1e-2)
    # positive pairing kills the antisymmetric combination
    p3 = ConePoint(1.0, 0.3, 1.1 + math.pi)
    inner3 = pair(cone_embed(p1), cone_embed(p3))
    assert inner3 > 0
    _, anti3 = corollary_kernels(1.0, p1, p3)
    assert abs(anti3) < 1e-6


def test_corollary_rejects_lightlike():
    p1 = ConePoint(1.0, 0.3, 0.7)
    with pytest.raises(ValueError):
        corollary_kernels(1.0, p1, p1)


def test_lemma_integrals():
    p1 = ConePoint(1.2, 0.3, 1.1)
    p2 = ConePoint(0.7, 2.0, 0.4)
    lv = lemma_kernel_integrals(1.2, p1, p2)
    scale = max(abs(x) for x in lv.references)
    for got, ref in zip(lv.integrals, lv.references):
        assert abs(got - ref) < 1e-6 * scale
    with pytest.raises(ValueError):
        lemma_kernel_integrals(1.0, p1, p1)


def test_lemma_r2_zero_reduces_to_y0():
    # same theta2 and radius: the second phase loses its sinh component
    R, r1d = 1.2, 1.7
    h = hyperbolic_oscillatory(0.5 * R * r1d, 0.5 * R * r1d)[0]
    assert abs(-(1 / math.pi) * h.real - sp.y0(R * r1d)) < 1e-10


def test_delta_cone_two_routes():
    psi = lambda X: np.exp(-(X**2).sum(axis=-1))
    res = delta_cone_apply(psi)
    scale = max(abs(res.surface), abs(res.volume), 1e-300)
    assert abs(res.surface - res.volume) / scale < 1e-5
    # exact surface value for the plain Gaussian is pi^2/2
    assert abs(res.surface - math.pi**2 / 2) < 1e-10
    odd = lambda X: X[..., 0] * np.exp(-(X**2).sum(axis=-1))
    r2 = delta_cone_apply(odd)
    assert abs(r2.surface) < 1e-12 and abs(r2.volume) < 1e-10


def test_delta_hyperboloid():
    psi = lambda X: np.exp(-(X**2).sum(axis=-1))
    res = delta_hyperboloid_apply(psi, 1.0)
    assert abs(res.surface - math.pi**2 / 2 * math.exp(-1.0)) < 1e-10
    scale = max(abs(res.surface), abs(res.volume), 1e-300)
    assert abs(res.surface - res.volume) / scale < 1e-5


@pytest.mark.parametrize("name, offset", [
    *((name, 0.0) for name in _gaussian_family()), ("plain", 1.0)])
def test_delta_volume_error_bounds_route_gap(name, offset):
    # the eps -> 0 extrapolation estimate covers the gap to the
    # independent surface route, without overstating it by more than 100x
    res = delta_quadric_apply(_gaussian_family()[name], offset)
    gap = abs(res.volume - res.surface)
    assert gap <= res.volume_error <= 100.0 * gap


@pytest.mark.parametrize("offset", [-1.0, -1e-300, math.nan, math.inf])
def test_delta_quadric_rejects_bad_offset(offset):
    # a negative offset would put sqrt(r2^2 + offset) < 0 on the surface route
    with pytest.raises(ValueError):
        delta_quadric_apply(_gaussian_family()["plain"], offset)


def test_batched_kernels_match_single_calls():
    points = list(_criterion_01_points())[:24]
    R, xi, sR, se = (np.array(v) for v in zip(*(
        (R, xi, sR, se) for R, xi, _, sR, se in points)))
    batch = ft_regularized(R, xi, sR, se)
    for k, (R_, xi_, _, sR_, se_) in enumerate(points):
        one = ft_regularized(R_, xi_, sR_, se_)
        assert batch.value[k] == one.value
        assert batch.error_estimate[k] == one.error_estimate
    p1s = np.array([[1.2, 0.3, 1.1], [1.0, 0.3, 0.2]])
    p2s = np.array([[0.7, 2.0, 0.4], [1.0, 0.3, 1.1 + math.pi]])
    Rs = [1.5, 2.0]
    syms, antis = corollary_kernels(Rs, p1s, p2s)
    lv = lemma_kernel_integrals(Rs, p1s, p2s)
    for k in range(2):
        assert (syms[k], antis[k]) == corollary_kernels(Rs[k], p1s[k], p2s[k])
        one = lemma_kernel_integrals(Rs[k], p1s[k], p2s[k])
        assert [v[k] for v in lv.integrals] == list(one.integrals)
    assert syms.shape == antis.shape == lv.r1.shape == (2,)


_SIGN_PAIRS = [(-1, 1), (1, 1), (1, -1), (-1, -1)]


def test_bruteforce_oracle_matches_production_at_finite_eps():
    # the suite's point, both orderings of r1 and r2, all four sign pairs
    for xi in (np.array([1.5, 0.0, 0.5, 0.0]), np.array([0.5, 0.0, 1.5, 0.0])):
        for sR, se in _SIGN_PAIRS:
            got = ft_bruteforce_damped(1.0, xi, sR, se, eps=0.4)
            ref = kernels._reduced_transform(1.0, xi, sR, se, 0.4).value
            assert abs(got - ref) < 1e-12 * abs(ref), (xi, sR, se)


def test_bruteforce_oracle_over_supported_range():
    # the corners of the box, then draws inside it; a third of the draws
    # have nearly equal radii, with gaps |r1 - r2| / r1 from 2.5e-4 to 0.1
    cases = [(R, eps, r1, r2) for R in (0.1, 3.0) for eps in (0.01, 3.0)
             for r1, r2 in ((0.05, 3.0), (3.0, 0.05), (3.0, 2.9993))]
    near = (np.arange(24) % 3 == 0)[:, None]
    draws = SplitMix64(11).uniforms(
        (24, 4), np.where(near, (0.1, 0.01, 0.05, -3.6), (0.1, 0.01, 0.05, 0.05)),
        np.where(near, (3.0, 3.0, 3.0, -1.0), 3.0))
    for k, (R, eps, r1, x) in enumerate(draws.tolist()):
        r2 = r1 * (1.0 - 10.0 ** x) if k % 3 == 0 else x
        r2 = max(r2, 0.05)
        if abs(r1 - r2) >= 1e-4 * (r1 + r2):
            cases.append((R, eps, r1, r2))
    for k, (R, eps, r1, r2) in enumerate(cases):
        xi = np.array([r1, 0.0, 0.0, r2])
        sR, se = _SIGN_PAIRS[k % 4]
        got = ft_bruteforce_damped(R, xi, sR, se, eps=eps)
        ref = kernels._reduced_transform(R, xi, sR, se, eps).value
        assert abs(got - ref) < 1e-12 * abs(ref), (R, eps, r1, r2, sR, se)


@pytest.mark.parametrize("turn", [10.0, 40.0])
def test_bruteforce_oracle_does_not_depend_on_the_turn(monkeypatch, turn):
    points = [(1.0, np.array([1.5, 0.0, 0.5, 0.0]), 0.4),
              (0.1, np.array([0.3, 0.4, 2.0, -1.0]), 0.01),
              (2.0, np.array([1.0, 0.0, 1.001, 0.0]), 0.1)]
    values = [[ft_bruteforce_damped(R, xi, sR, se, eps) for sR, se in _SIGN_PAIRS]
              for R, xi, eps in points]
    monkeypatch.setattr(kernels, "_ORACLE_TURN", turn)
    for (R, xi, eps), row in zip(points, values):
        for (sR, se), v in zip(_SIGN_PAIRS, row):
            assert abs(ft_bruteforce_damped(R, xi, sR, se, eps) - v) < 1e-13 * abs(v)


@pytest.mark.parametrize("R, xi, eps", [
    (0.0, (1.5, 0.0, 0.5, 0.0), 0.4),
    (-1.0, (1.5, 0.0, 0.5, 0.0), 0.4),
    (math.nan, (1.5, 0.0, 0.5, 0.0), 0.4),
    (math.inf, (1.5, 0.0, 0.5, 0.0), 0.4),
    (1.0, (1.5, 0.0, 0.5, 0.0), 0.0),
    (1.0, (1.5, 0.0, 0.5, 0.0), -0.4),
    (1.0, (1.5, 0.0, 0.5, 0.0), math.nan),
    (1.0, (1.5, 0.0, 0.5, 0.0), math.inf),
    (0.09, (1.5, 0.0, 0.5, 0.0), 0.4),
    (3.1, (1.5, 0.0, 0.5, 0.0), 0.4),
    (1.0, (1.5, 0.0, 0.5, 0.0), 0.009),
    (1.0, (1.5, 0.0, 0.5, 0.0), 3.1),
    (1.0, (1.5, 0.0, 0.04, 0.0), 0.4),
    (1.0, (3.1, 0.0, 0.5, 0.0), 0.4),
    (1.0, (1.5, 0.0, 1.5, 0.0), 0.4),
    (1.0, (1.5, 0.0, 1.4999, 0.0), 0.4),
    (1.0, (math.nan, 0.0, 0.5, 0.0), 0.4),
], ids=["R-zero", "R-negative", "R-nan", "R-inf", "eps-zero", "eps-negative",
        "eps-nan", "eps-inf", "R-small", "R-large", "eps-small", "eps-large",
        "r2-small", "r1-large", "r1-equals-r2", "r1-near-r2", "xi-nan"])
def test_bruteforce_oracle_rejects_outside_supported_range(R, xi, eps):
    with pytest.raises(ValueError, match="outside the supported range"):
        ft_bruteforce_damped(R, np.array(xi), 1, 1, eps=eps)

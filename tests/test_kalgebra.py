import json
import math
import pathlib
import random
import warnings

import mpmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitcone.kalgebra import (
    AmbientBasis,
    GaussianInt,
    I_G,
    KBasisElement,
    KVector,
    ONE_G,
    apply_mult_xi,
    apply_P,
    apply_plane_mult,
    apply_raise_lower,
    apply_X,
    box22_fd,
    kfinite_certificate,
    orbit_closure,
    orbit_labels,
    reduce_symbolic_r2,
)
from splitcone.kalgebra import _DERIVS_X_MAX, _ktilde_derivs
from splitcone.numerics import SplitMix64

GOLDEN = pathlib.Path(__file__).parent / "golden" / "orbit_dims.json"
P_J_GOLDEN = pathlib.Path(__file__).parent / "golden" / "p_j_values.json"


def cone_points(m, seed=42):
    rng = SplitMix64(seed)
    r = rng.uniforms(m, 0.2, 3.0)
    t1, t2 = rng.uniforms((2, m), 0, 2 * math.pi)
    pts = np.stack([r * np.cos(t1), r * np.sin(t1), r * np.cos(t2),
                    r * np.sin(t2)], axis=-1)
    return r, t1, t2, pts


def test_gaussian_int_arithmetic():
    a = GaussianInt(2, 1)
    b = GaussianInt(0, -3)
    assert a + b == GaussianInt(2, -2)
    assert a * b == GaussianInt(3, -6)
    assert -a == GaussianInt(-2, -1)
    assert (a - a).is_zero()
    assert complex(I_G * I_G) == -1
    assert 2 * a == GaussianInt(4, 2)
    with pytest.raises(TypeError):
        a + 0.5


def test_basis_element_and_canonical_form():
    e = KBasisElement.from_powers(1, 2, 3, -1, 1)
    assert (e.n, e.a, e.b) == (1, -2, 3)
    assert (e.l, e.k, e.s1, e.s2) == (2, 3, -1, 1)
    assert e.in_l2_lattice()
    v = KVector({e: GaussianInt(1, 0)})
    assert len(v + v.scaled(-1)) == 0
    with pytest.raises(ValueError):
        KBasisElement.from_powers(0, -1, 0)
    assert KBasisElement.from_powers(np.int64(1), 2, np.int32(3)) == (1, 2, 3)
    for bad in ((1.5, 2, 3), (1, 2.0, 3), (1, 2, 3.7)):
        with pytest.raises(ValueError):
            KBasisElement.from_powers(*bad)


def test_basis_evaluation_two_forms():
    # Kt_n(2r)(xi1 + i s1 xi2)^l (xi3 + i s2 xi4)^k vs the chart form
    from splitcone import special

    r, t1, t2, pts = cone_points(12)
    for (n, a, b) in ((0, 2, -1), (-1, 0, 3), (1, 1, 1)):
        e = KBasisElement(n, a, b)
        chart = KVector({e: ONE_G}).evaluate(r, t1, t2)
        z1 = pts[:, 0] + 1j * e.s1 * pts[:, 1]
        z2 = pts[:, 2] + 1j * e.s2 * pts[:, 3]
        direct = special.ktilde(n, 2 * r) * z1**e.l * z2**e.k
        assert np.max(np.abs(chart - direct)) < 1e-12 * np.max(np.abs(direct))


def test_mult_rewrites_pointwise():
    r, t1, t2, pts = cone_points(20)
    for key in (KBasisElement(0, 2, 1), KBasisElement(-1, -2, 3),
                KBasisElement(1, 0, -1), KBasisElement(2, 3, 2)):
        v = KVector({key: ONE_G})
        base = v.evaluate(r, t1, t2)
        for j in (1, 2, 3, 4):
            w = apply_mult_xi(j, v)
            lhs = 2 * pts[:, j - 1] * base
            rhs = w.evaluate(r, t1, t2)
            scale = np.abs(lhs).max()
            assert np.abs(lhs - rhs).max() < 1e-9 * scale


def test_mult_display_coefficients():
    # 2 xi1 [n,l,k,+,+] -> [n,l+1,k] + (n-1)[n-1,l-1,k] + [n-2,l-1,k]
    n, l, k = 2, 3, 1
    v = KVector.basis(n, l, k)
    w = apply_mult_xi(1, v)
    assert w.terms == {
        KBasisElement(n, l + 1, k): ONE_G,
        KBasisElement(n - 1, l - 1, k): GaussianInt(n - 1, 0),
        KBasisElement(n - 2, l - 1, k): ONE_G,
    }
    # 2 i xi2 [n,l,k,+,+] -> +[n,l+1,k] - (n-1)[n-1,l-1,k] - [n-2,l-1,k]
    w2 = apply_mult_xi(2, v).scaled(I_G)
    assert w2.terms == {
        KBasisElement(n, l + 1, k): ONE_G,
        KBasisElement(n - 1, l - 1, k): GaussianInt(-(n - 1), 0),
        KBasisElement(n - 2, l - 1, k): GaussianInt(-1, 0),
    }


def test_p1_display_coefficients():
    n, l, k = 1, 2, 3
    w = apply_P(1, KVector.basis(n, l, k))
    expect = {
        KBasisElement(n + 1, l + 1, k): GaussianInt(2 * (k - n), 0),
        KBasisElement(n, l + 1, k): GaussianInt(-2, 0),
        KBasisElement(n, l - 1, k): GaussianInt(2 * (n - l) * (l + k - n), 0),
        KBasisElement(n - 1, l - 1, k): GaussianInt(2 * (2 * l + k - 2 * n + 1), 0),
        KBasisElement(n - 2, l - 1, k): GaussianInt(-2, 0),
    }
    assert w.terms == expect


def test_p_rewrites_vs_ambient_oracle():
    r, t1, t2, pts = cone_points(20)
    for key in (KBasisElement(0, 2, 1), KBasisElement(-2, -1, 2),
                KBasisElement(1, 1, -3), KBasisElement(0, 0, 2),
                KBasisElement(-1, 2, 0)):
        v = KVector({key: ONE_G})
        amb2 = AmbientBasis(key, "r2")
        amb1 = AmbientBasis(key, "r1")
        for j, amb in ((1, amb2), (2, amb2), (3, amb1), (4, amb1)):
            w = apply_P(j, v)
            got = w.evaluate(r, t1, t2)
            ref = amb.p_j(j, pts)
            scale = max(np.abs(ref).max(), np.abs(got).max(), 1e-10)
            assert np.abs(got - ref).max() < 1e-7 * scale


def test_extension_choice_agrees_on_cone():
    r, t1, t2, pts = cone_points(10)
    key = KBasisElement(1, 2, -2)
    a1 = AmbientBasis(key, "r1").value(pts)
    a2 = AmbientBasis(key, "r2").value(pts)
    assert np.abs(a1 - a2).max() < 1e-12 * np.abs(a2).max()


def test_ladder_rules():
    # matching-sign raise
    v = KVector.basis(1, 2, 3)
    w = apply_raise_lower(1, v, 1)
    assert w.terms == {KBasisElement(2, 3, 3): GaussianInt(4, 0)}  # 2(k-n) = 4
    # annihilation at n = min boundary via the raise coefficient
    w0 = apply_raise_lower(1, KVector.basis(2, 2, 2), 1)
    assert len(w0) == 0
    # opposite-sign lowering
    n, l, k = 1, 2, 3
    w = apply_raise_lower(-1, KVector.basis(n, l, k), 1)
    assert w.terms == {
        KBasisElement(n, l - 1, k): GaussianInt(2 * (n - l) * (l + k - n), 0),
        KBasisElement(n - 1, l - 1, k): GaussianInt(2 * (2 * l + k - n), 0),
    }
    # composite definition agrees exactly
    for key in (KBasisElement(0, 1, 2), KBasisElement(-1, -2, 1),
                KBasisElement(1, 0, 1)):
        v = KVector({key: ONE_G})
        for plane in (1, 2):
            for sgn in (1, -1):
                assert apply_raise_lower(sgn, v, plane) == apply_raise_lower(
                    sgn, v, plane, composite=True)


def test_linearity_exact():
    va = KVector.basis(1, 2, 1, GaussianInt(2, 1))
    vb = KVector.basis(0, -1, 2, GaussianInt(0, -3))
    for op in (lambda x: apply_P(2, x), lambda x: apply_mult_xi(3, x),
               lambda x: apply_raise_lower(1, x, 2)):
        assert op(va + vb) == op(va) + op(vb)


def test_krel_disabled_intermediate():
    v = KVector.basis(2, 3, 1)
    raw = apply_plane_mult(v, 1, -1, use_krel=False)
    assert raw == {(KBasisElement(2, 2, 1), 1): ONE_G}
    red = reduce_symbolic_r2(raw)
    assert red == KVector({
        KBasisElement(1, 2, 1): GaussianInt(1, 0),
        KBasisElement(0, 2, 1): ONE_G,
    })
    # double r^2 powers reduce recursively
    deep = reduce_symbolic_r2({(KBasisElement(2, 0, 0), 2): ONE_G})
    direct = reduce_symbolic_r2({
        (KBasisElement(1, 0, 0), 1): GaussianInt(1, 0),
        (KBasisElement(0, 0, 0), 1): ONE_G,
    })
    assert deep == direct


def test_x_generators():
    v = KVector.basis(1, 2, -1)
    w = apply_X(1, 2, v)
    assert w.terms == {KBasisElement(1, 2, -1): GaussianInt(0, 2)}
    w = apply_X(3, 4, v)
    assert w.terms == {KBasisElement(1, 2, -1): GaussianInt(0, -1)}
    with pytest.raises(NotImplementedError):
        apply_X(1, 3, v)
    with pytest.raises(ValueError):
        apply_X(2, 1, v)


def test_x_mixed_pair_bracket():
    key = KBasisElement(1, 2, -1)
    amb = AmbientBasis(key, "r2")
    _, _, _, pts = cone_points(4, seed=9)
    h = 1e-5

    def apply_fd(fn, p, j, k_):
        ej = np.zeros(4)
        ej[j - 1] = h
        ek = np.zeros(4)
        ek[k_ - 1] = h
        dk = (fn(p + ek) - fn(p - ek)) / (2 * h)
        dj = (fn(p + ej) - fn(p - ej)) / (2 * h)
        eps_j = 1.0 if j in (1, 2) else -1.0
        eps_k = 1.0 if k_ in (1, 2) else -1.0
        return eps_j * eps_k * p[..., j - 1] * dk - p[..., k_ - 1] * dj

    br = apply_fd(lambda p: amb.x_jk(1, 3, p), pts, 1, 2) - apply_fd(
        lambda p: amb.x_jk(1, 2, p), pts, 1, 3)
    ref = amb.x_jk(2, 3, pts)
    assert np.abs(br + ref).max() < 1e-6 * np.abs(ref).max()


def test_box22_finite_difference():
    key = KBasisElement(1, 2, 1)
    amb = AmbientBasis(key, "r2")
    _, _, _, pts = cone_points(4, seed=31)
    fd = box22_fd(amb.value, pts)
    cf = amb.box22(pts)
    assert np.abs(fd - cf).max() < 1e-6 * np.abs(cf).max()


def test_certificates():
    assert kfinite_certificate((0, 2, 3))
    assert kfinite_certificate((1, 1, 1))
    assert not kfinite_certificate((2, 1, 1))
    assert not kfinite_certificate(KBasisElement(3, 2, 4))


def test_orbit_dims_match_golden():
    golden = json.loads(GOLDEN.read_text())
    for label, dim in golden.items():
        n, l, k = (int(v) for v in label.split(","))
        _, got = orbit_closure(KBasisElement(n, l, k))
        assert got == dim, (label, got, dim)


def test_orbit_dims_are_binomials():
    # |O(D)| = sum_j (2j+1)^2 = C(2D+3, 3), D = l + k - n
    golden = json.loads(GOLDEN.read_text())
    for label, dim in golden.items():
        n, l, k = (int(v) for v in label.split(","))
        assert dim == math.comb(2 * (l + k - n) + 3, 3), label


def test_orbit_walk_equals_closed_form():
    starts = [KBasisElement(n, a, b)
              for a in range(-4, 5) for b in range(-4, 5)
              for n in range(-2, min(abs(a), abs(b)) + 1)]
    assert len(starts) == 363
    for elem in starts:
        labels, dim = orbit_closure(elem)
        assert labels == orbit_labels(elem), elem
        assert dim == len(labels)
        assert all(isinstance(key, KBasisElement) for key in labels)


def test_orbit_outside_lattice_exceeds_budget():
    with pytest.raises(RuntimeError):
        orbit_closure(KBasisElement(2, 1, 1))
    with pytest.raises(ValueError):
        orbit_labels(KBasisElement(2, 1, 1))


def test_orbit_minimal_vector_fixed():
    labels, dim = orbit_closure(KBasisElement(0, 0, 0))
    assert dim == 1


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-4, 4), st.integers(-4, 4)),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    min_size=1, max_size=8))
def test_kvector_evaluate_is_the_sum_of_its_terms_bitwise(raw):
    v = KVector({KBasisElement(*key): GaussianInt(*c) for key, c in raw.items()})
    r, t1, t2, _ = cone_points(7, seed=3)
    acc = np.zeros(r.shape, dtype=complex)
    for key, c in v.terms.items():
        acc = acc + complex(c) * KVector({key: ONE_G}).evaluate(r, t1, t2)
    assert v.evaluate(r, t1, t2).tolist() == acc.tolist()


def test_ambient_p_j_pinned_values():
    # the closed-form P_j values at fixed points, pinned bit for bit
    golden = json.loads(P_J_GOLDEN.read_text())
    pts = np.array(golden["points"])
    for label, want in golden["values"].items():
        key, ext, j = label.split("/")
        amb = AmbientBasis(KBasisElement(*(int(v) for v in key.split(","))), ext)
        got = amb.p_j(int(j), pts)
        assert [[z.real, z.imag] for z in got.tolist()] == want, label


def test_ambient_p_j_single_partials_pinned():
    # zero monomial derivatives (l = 0, k = 0), negative signs and both
    # extensions, pinned bit for bit
    pt = np.array([[0.9, -0.4, 0.2, 0.95]])
    cases = {
        ((0, 0, 3), "r2", 1): ("-0x1.52b0fe0a243edp-1", "-0x1.d7ee1a3d46c70p-1"),
        ((0, 2, 0), "r1", 3): ("0x1.79bf9f3cf578cp-4", "-0x1.a26ddbb5bd332p-4"),
        ((-1, -2, 3), "r2", 4): ("-0x1.f099c66ba313cp-1", "0x1.c9fb8da8d844ep+0"),
        ((2, 3, -4), "r1", 2): ("-0x1.744ebe0d6c9d6p+0", "-0x1.09a107c002e8dp+1"),
    }
    for (key, ext, j), want in cases.items():
        z = AmbientBasis(KBasisElement(*key), ext).p_j(j, pt)[0]
        assert (z.real.hex(), z.imag.hex()) == want, (key, ext, j)


def test_labels_hash_and_sort_as_their_tuples():
    labels = [KBasisElement(n, a, b) for n in (-2, 0, 1) for a in (-1, 0, 2)
              for b in (3, -3)]
    for key in labels:
        assert hash(key) == hash((key.n, key.a, key.b))
    for c in (GaussianInt(2, -5), GaussianInt(), ONE_G):
        assert hash(c) == hash((c.re, c.im))
    shuffled = labels[:]
    random.Random(5).shuffle(shuffled)
    assert [tuple(key) for key in sorted(shuffled)] == sorted(
        (key.n, key.a, key.b) for key in labels)
    # + and * are Gaussian arithmetic, not tuple concatenation or repetition
    assert GaussianInt(1, 2) + GaussianInt(3, 4) == GaussianInt(4, 6)
    assert 3 * GaussianInt(1, 2) == GaussianInt(1, 2) * 3 == GaussianInt(3, 6)


def _mp_ktilde_derivs(n, x):
    # Kt_n, Kt_n', Kt_n'' by mpmath's numerical differentiation, which
    # shares no identity with _ktilde_derivs.  Its step, 2^-(prec + 10),
    # must lie far below x: 40 digits for x = 1e-30, 20 from x = 1e-6.
    def kt(t):
        return mpmath.mpf(2) ** n * t ** -n * mpmath.besselk(abs(n), t)
    with mpmath.workdps(40 if x < 1e-6 else 20):
        return [mpmath.diff(kt, mpmath.mpf(x), k) for k in (0, 1, 2)]


def test_ktilde_derivs_supported_range():
    # x above 690, NaN, x <= 0, a nonnegative order's Kt_(n+1) overflowing
    # (numpy's overflow warning comes first), and Kt_(n+1) subnormal at 690
    # from n = 2 on (Kt_3 = 2.5e-309)
    for n, x in ((0, 700.0), (-3, 691.0), (0, math.nan), (2, 0.0),
                 (-1, -1.0), (0, 1e-160), (5, 1e-30), (2, _DERIVS_X_MAX),
                 (3, _DERIVS_X_MAX), (4, _DERIVS_X_MAX), (5, _DERIVS_X_MAX)):
        with pytest.raises(ValueError), np.errstate(over="ignore"):
            _ktilde_derivs(n, np.array([0.5, x]))
    # within 1e-12 of mpmath, quietly (the worst here: 2.6e-14); 690 for
    # n <= 1 and 650 for n = 2..4; n = -9 and 5 at x = 1
    xs = (1e-30, 1e-6, 0.09, 0.55, 3.0, 300.0)
    cases = ([(n, xs + (_DERIVS_X_MAX,)) for n in range(-8, 2)]
             + [(n, xs + (650.0,)) for n in range(2, 5)]
             + [(-9, (1.0,)), (5, (1.0,))])
    for n, xs in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _ktilde_derivs(n, np.array(xs))
        for i, x in enumerate(xs):
            for g, want in zip(got, _mp_ktilde_derivs(n, x)):
                assert abs(g[i] - want) <= 1e-12 * abs(want), (n, x)

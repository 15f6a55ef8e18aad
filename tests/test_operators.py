import dataclasses
import itertools
import math

import mpmath
import numpy as np
import pytest

from splitcone import mellin, operators, suites
from splitcone.geometry import ConePoint
from splitcone.numerics import gauss_legendre
from splitcone.operators import (
    ConeFunction,
    DecayCertificate,
    chain_fc,
    chain_fc_theta_integrand,
    chain_pl,
    chain_pl_theta_integrand,
    l2_norm_sq,
    make_f_xi_eps,
    op_FC,
    op_FCstar,
    op_PlHatPrime,
    _angular_rule,
    _bump,
    _torus_dist,
    ray_rows,
    ray_values,
)

BASE = ConePoint(1.0, 0.7, 0.3)


def test_decay_certificates():
    assert DecayCertificate("exponential", 2.0).truncation_radius(1e-8) == pytest.approx(
        math.log(1e8) / 2.0)
    with pytest.raises(ValueError):
        DecayCertificate("nope").truncation_radius(1e-6)


def test_f_construction_and_parity():
    for e in (0, 1):
        f = make_f_xi_eps(BASE, e)
        th1 = np.linspace(0, 2 * math.pi, 23)
        th2 = np.linspace(0, 2 * math.pi, 23)[::-1]
        assert np.allclose(
            f.angular_psi(-th1, -th2), (-1.0) ** e * f.angular_psi(th1, th2),
            atol=1e-14)
        assert np.allclose(
            f.angular_psi(th1 + math.pi, th2 + math.pi),
            (-1.0) ** e * f.angular_psi(th1, th2), atol=1e-14)
        # angular constants obey the antipodal parity relation
        assert abs(f.c_minus - (-1.0) ** e * f.c_plus) < 1e-12
        assert abs(f.c_plus) > 1e-3
        # the pairing factor stays away from zero on the support
        assert f.g_min > 0.25
    with pytest.raises(ValueError):
        make_f_xi_eps(BASE, 2)
    with pytest.raises(ValueError):
        make_f_xi_eps(BASE, 0, radial="gaussian")


# (base point) -> (center, width, g_min, {parity: (c_plus, c_minus)}), as
# found by scoring every candidate disc on a 24 x 48 polar grid
_GEOMETRY = {
    (1.0, 0.7, 0.3): (
        (-0.30000000000000004, 4.041592653589793), 0.8, 0.37089899201768417,
        {0: (0.44799726340087215, 0.4479972634008721),
         1: (-0.03196327676038063, 0.031963276760380716)}),
    (1.0, 0.1, 2.9): (
        (0.8999999999999998, 6.441592653589794), 0.8, 0.757600532842541,
        {0: (0.28454675136256763, 0.28454675136256735),
         1: (-0.016357249935351148, 0.016357249935351065)}),
    (2.0, 4.0, 1.0): (
        (4.0, 5.341592653589793), 0.8, 0.37536079580903847,
        {0: (0.5133902873183693, 0.5133902873183691),
         1: (0.5133902873183693, -0.5133902873183691)}),
    (0.5, 5.5, 5.9): (
        (5.9, 10.241592653589793), 0.8, 0.37089899201768317,
        {0: (0.47252791949880524, 0.4725279194988053),
         1: (0.007432620662447681, -0.007432620662447542)}),
}


@pytest.mark.parametrize("base", sorted(_GEOMETRY))
def test_f_geometry_pinned(base):
    center, width, g_min, consts = _GEOMETRY[base]
    for e in (0, 1):
        f = make_f_xi_eps(ConePoint(*base), e)
        assert f.center == center
        assert f.width == width
        assert f.g_min == g_min
        assert (f.c_plus, f.c_minus) == consts[e]


@pytest.mark.parametrize("radial", ["sqrt_exponential", "exponential"])
def test_other_parity_from_one_placement_is_make_f_xi_eps(radial):
    # the bump placement does not depend on the parity: the parity-1 test
    # function built from the parity-0 one is make_f_xi_eps's, field by field
    for base in sorted(_GEOMETRY):
        f0 = make_f_xi_eps(ConePoint(*base), 0, radial)
        for e in (0, 1):
            got = operators._with_parity(f0, e)
            ref = make_f_xi_eps(ConePoint(*base), e, radial)
            assert [getattr(got, fld.name) for fld in dataclasses.fields(got)] == [
                getattr(ref, fld.name) for fld in dataclasses.fields(ref)]
    with pytest.raises(ValueError):
        operators._with_parity(f0, 2)


def test_angular_constants_against_tensor_reference():
    # order-320 tensor Gauss rule over the bounding square of each bump disc
    xg, wg = gauss_legendre(320)
    for e in (0, 1):
        f = make_f_xi_eps(BASE, e)
        ref = [0.0, 0.0]
        for (c1, c2), coeff in f.centers_and_coeffs:
            T1, T2 = np.meshgrid(c1 + f.width * xg, c2 + f.width * xg,
                                 indexing="ij")
            d2 = _torus_dist(T1, c1) ** 2 + _torus_dist(T2, c2) ** 2
            g = f.pairing_factor(T1, T2)
            val = np.sum(coeff * _bump(d2, f.width) / (g * g)
                         * np.outer(wg, wg)) * f.width**2
            ref[0 if np.median(np.sign(g)) > 0 else 1] += val
        assert abs(f.c_plus - ref[0]) < 1e-8 * abs(ref[0])
        assert abs(f.c_minus - ref[1]) < 1e-8 * abs(ref[1])


def test_f_values_and_l2():
    # l2_norm_sq takes the radial integral in closed form; this tensor rule
    # integrates f itself: Gauss-Legendre in v = sqrt(r) over the radii
    # where f's certificate exceeds 1e-10, times l2_norm_sq's torus grid of
    # 256 x 256 angles
    xg, wg = gauss_legendre(140)
    th = np.arange(256) * (2.0 * np.pi / 256)
    T1, T2 = np.meshgrid(th, th, indexing="ij")
    for radial, e in itertools.product(("sqrt_exponential", "exponential"), (0, 1)):
        f = make_f_xi_eps(BASE, e, radial)
        assert f.values(np.array([0.5, 1.0]), 0.1, 0.2).shape == (2,)
        on = f.angular_support_mask(T1, T2)
        sqrt_rmax = math.sqrt(f.decay.truncation_radius(1e-10))
        v = 0.5 * sqrt_rmax * (xg + 1.0)
        acc = np.array([np.sum(f(rv, T1[on], T2[on]) ** 2) for rv in v * v])
        acc *= (2.0 * np.pi / 256) ** 2
        tensor = float(np.dot(acc * (0.5 * v * v * 2.0 * v), 0.5 * sqrt_rmax * wg))
        assert abs(l2_norm_sq(f) - tensor) <= 1e-12 * tensor
    # the narrow-bump base (width 0.392), against the polar disc rule
    f = make_f_xi_eps(ConePoint(1.0, 0.1, 1.6), 0)
    disc = sum(operators._angular_constants(f.base_xi, f.center, f.width, 0, 2))
    assert abs(l2_norm_sq(f) - disc / 4.0) <= 1e-6 * disc / 4.0


@pytest.mark.parametrize("radial", ["sqrt_exponential", "exponential"])
def test_radial_profile_table(radial):
    p = operators._PROFILES[radial]
    with mpmath.workdps(20):
        # int_0^inf m^2 dt, the radial factor l2_norm_sq uses
        m2 = mpmath.quad(lambda t: float(p.m(float(t))) ** 2, [0, 1, 10, mpmath.inf])
        assert abs(m2 - 0.5) <= 1e-14 and p.m_sq_integral == 0.5
    if radial == "sqrt_exponential":
        # rows in closed form, with no u range
        assert p.rows is operators._laplace_rows
        return
    quad = p.rows
    with mpmath.workdps(20):
        # the weight's tail past the u range
        tail = mpmath.quad(lambda u: 2 * u * u * float(quad.weight(float(u))),
                           [quad.u_max, mpmath.inf])
        assert tail <= 1e-15
    # the ray weight is m at u^2
    u = np.linspace(0.0, quad.u_max, 101)
    np.testing.assert_allclose(quad.weight(u), p.m(u * u), rtol=1e-15, atol=0.0)


def test_ray_chain_fidelity():
    s_grid = np.exp(np.linspace(math.log(0.1), math.log(5.0), 9))
    for e in (0, 1):
        f = make_f_xi_eps(BASE, e)
        for R in (1.0, 2.0):
            pl = ray_values(f, "pl", s_grid, R=R)
            ch = np.array([chain_pl(s, R, e) for s in s_grid])
            assert np.max(np.abs(pl - f.c_plus * ch)) < 1e-9 * np.max(np.abs(pl))
        fc = ray_values(f, "fc", s_grid)
        ch = np.array([chain_fc(s, e) for s in s_grid])
        assert np.max(np.abs(fc - f.c_plus * ch)) < 1e-9 * np.max(np.abs(fc))


def test_ray_inputs_rejected():
    f = make_f_xi_eps(BASE, 0)
    for bad_s in (math.inf, math.nan, 0.0, -1.0):
        for op, R in (("fc", None), ("pl", 1.0)):
            with pytest.raises(ValueError):
                ray_values(f, op, [0.5, bad_s], R=R)
    for bad_R in (math.inf, math.nan, 0.0, -1.0, None):
        with pytest.raises(ValueError):
            ray_values(f, "pl", [0.5], R=bad_R)
    with pytest.raises(ValueError):
        ray_values(f, "nope", [0.5])
    on_ray = ConePoint(math.inf, BASE.theta1, BASE.theta2)
    with pytest.raises(ValueError):
        op_FC(f, on_ray)
    with pytest.raises(ValueError):
        op_PlHatPrime(f, 1.0, on_ray)
    # the cone route refuses an infinite radius off the ray as well
    far = ConePoint(math.inf, 0.5, 1.2)
    for op in (op_FC, op_FCstar, lambda f, xi: op_PlHatPrime(f, 1.0, xi)):
        with pytest.raises(ValueError):
            op(f, far)
    for bad_R in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError):
            op_PlHatPrime(f, bad_R, ConePoint(0.5, BASE.theta1, BASE.theta2))


def test_ray_rows_reject_c_above_the_supported_bound():
    # c = 2 sqrt(2s) passes 3e3 between s = 1e6 and 1.2e6
    assert all(np.isfinite(row).all()
               for row in ray_rows("sqrt_exponential", "fc", [1e6]))
    with pytest.raises(ValueError):
        ray_rows("sqrt_exponential", "fc", [0.5, 1.2e6])
    with pytest.raises(ValueError):
        ray_rows("exponential", "pl", [0.5], R=5e3)
    f = make_f_xi_eps(BASE, 0)
    with pytest.raises(ValueError):
        op_FC(f, ConePoint(1.2e6, BASE.theta1, BASE.theta2))


def test_ray_rows_reject_an_unknown_radial_profile():
    for op, R in (("fc", None), ("pl", 1.0)):
        with pytest.raises(ValueError):
            ray_rows("bogus", op, [1.0], R)


def _laplace_row(laplace, c):
    """2 int_0^inf u^2 e^-u fn(c u) du as the second derivative at p = 1
    of the Laplace transform int_0^inf e^-pu fn(c u) du, by mpmath's
    differences (which never take p = c itself, where the K0 transform is
    0 / 0)."""
    with mpmath.workdps(30):
        return float(2 * mpmath.diff(lambda p: laplace(p, mpmath.mpf(c)), 1, 2,
                                     singular=True))


# Laplace transforms (Gradshteyn & Ryzhik 6.611.1-3):
# int e^-pu J0(cu) du = 1 / sqrt(p^2 + c^2),
# int e^-pu K0(cu) du = arccos(p/c) / sqrt(c^2 - p^2) and
# int e^-pu Y0(cu) du = -(2/pi) arsinh(p/c) / sqrt(p^2 + c^2)
def _j0_laplace(p, c):
    return 1 / mpmath.sqrt(p * p + c * c)


def _k0_laplace(p, c):
    return mpmath.re(mpmath.acos(p / c) / mpmath.sqrt(c * c - p * p))


def _y0_laplace(p, c):
    return -(2 / mpmath.pi) * mpmath.asinh(p / c) / mpmath.sqrt(p * p + c * c)


def test_j0_rows_against_closed_forms():
    # c = R sqrt(2s) at R = 1, on both sides of pi, where the "exponential"
    # rows change from the u grid to the x = c u grid;
    # 2 int u^2 e^-u J0(cu) du from its Laplace transform and
    # 2 int u^2 e^-u^2 J0(cu) du = (sqrt(pi)/2) 1F1(3/2; 1; -c^2/4)
    s = np.array([c * c / 2.0 for c in (0.05, 0.5, 0.77, 0.8, 2.0, 3.0, 3.3,
                                        6.0, 6.5, 20.0, 55.8, 400.0, 3e3)])
    cs = np.sqrt(2.0 * s)
    for radial, ref_fn in (
            ("sqrt_exponential", lambda c: _laplace_row(_j0_laplace, c)),
            ("exponential", lambda c: 0.5 * math.sqrt(math.pi) * float(
                mpmath.hyp1f1(1.5, 1, -mpmath.mpf(c) ** 2 / 4)))):
        row, = ray_rows(radial, "pl", s, 1.0)
        ref = np.array([ref_fn(c) for c in cs.tolist()])
        assert np.max(np.abs(row - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_k0_and_y0_rows_against_mpmath():
    # c = 1 exactly, where both terms of the K0 form diverge; either side of
    # the edges |z| = 0.15 of its series in z = (c - 1) / 2c (c = 1/1.3 and
    # 1/0.7) and of |z| = 0.05 (c = 1/1.1 and 1/0.9); and the 80 nodes of a
    # `RayTable`
    cs = (0.05, 0.5, 0.77, 0.8, 2.0, 3.0, 3.3, 4.0, 6.0, 6.5, 20.0, 55.8, 400.0,
          1.0, 1 / 1.1, 1 / 0.9, 1 / 1.3, 1 / 0.7, 0.99 / 1.3, 1.01 / 0.7)
    s = np.concatenate([[c * c / 8.0 for c in cs],  # c = 2 sqrt(2s)
                        mellin.MellinRule(*mellin._FC_ROW_TAILS, *mellin._RAY_WINDOW).s])
    kk, yy = ray_rows("sqrt_exponential", "fc", s)
    for c, k, y in zip((2.0 * np.sqrt(2.0 * s)).tolist(), kk, yy):
        ref = _laplace_row(_k0_laplace, c)
        assert abs(k - ref) <= 2e-15 * abs(ref), c
        assert abs(y - _laplace_row(_y0_laplace, c)) <= 1e-15, c


@pytest.mark.parametrize("c", [0.6, 1.0, 1.7])
def test_fc_rows_against_the_integral(c):
    # the rows against mpmath's quadrature of 2 int u^2 e^-u fn(c u) du
    # itself, at c = 1 and either side of it
    kk, yy = ray_rows("sqrt_exponential", "fc", [c * c / 8.0])
    with mpmath.workdps(18):  # the quadrature's estimate: 2.2e-20 or less
        for fn, row in ((lambda x: mpmath.besselk(0, x), kk[0]),
                        (lambda x: mpmath.bessely(0, x), yy[0])):
            ref = mpmath.quad(lambda u: 2 * u * u * mpmath.exp(-u) * fn(c * u),
                              [0, 2, 16, mpmath.inf])
            assert abs(row - ref) <= 2e-15 * abs(ref) and abs(row - ref) <= 1e-15


def test_closed_form_rows_need_a_64_bit_long_double(monkeypatch):
    monkeypatch.setattr(operators, "_LONGDOUBLE_NMANT", 52)
    for op, R in (("fc", None), ("pl", 1.0)):
        with pytest.raises(ArithmeticError, match="63 mantissa bits"):
            ray_rows("sqrt_exponential", op, [0.5], R)
        # the quadrature rows use no long double
        assert np.isfinite(ray_rows("exponential", op, [0.5], R)).all()


def test_ray_values_are_the_scalar_values_bitwise():
    # c = 2 sqrt(2s) and R sqrt(2s) cross pi / 4 and pi, where the rows of
    # one radial profile or the other change from the u grid to the x grid
    s_grid = np.exp(np.linspace(math.log(0.01), math.log(40.0), 17))
    for radial in ("sqrt_exponential", "exponential"):
        fc_rows = ray_rows(radial, "fc", s_grid)
        pl_rows = {R: ray_rows(radial, "pl", s_grid, R) for R in (1.0, 2.0)}
        # a column of R gives the same rows from one x grid
        both, = ray_rows(radial, "pl", s_grid, np.array([[1.0], [2.0]]))
        assert both.tolist() == [pl_rows[1.0][0].tolist(), pl_rows[2.0][0].tolist()]
        for e in (0, 1):
            f = make_f_xi_eps(BASE, e, radial=radial)
            fc = ray_values(f, "fc", s_grid)
            assert (ray_values(f, "fc", s_grid, rows=fc_rows) == fc).all()
            for s, v in zip(s_grid, fc):
                assert v == ray_values(f, "fc", [s])[0]
            for R, rows in pl_rows.items():
                pl = ray_values(f, "pl", s_grid, R)
                assert (ray_values(f, "pl", s_grid, R, rows) == pl).all()
                for s, v in zip(s_grid, pl):
                    assert v == ray_values(f, "pl", [s], R)[0]


def test_ray_values_pinned():
    f0 = make_f_xi_eps(BASE, 0)
    f1 = make_f_xi_eps(BASE, 1, radial="exponential")
    # the sqrt-exponential values are those that mpmath's rows, rounded to
    # float, give; the exponential one is at c = 2 sqrt(12), past pi, with
    # rows on the shared x grid, which test_j0_rows_against_closed_forms
    # checks
    v = ray_values(f0, "fc", [0.5])[0]
    assert (v.real.hex(), v.imag) == ("-0x1.917eebad51527p-7", 0.0)
    v = ray_values(f1, "fc", [6.0])[0]
    assert (v.real.hex(), v.imag) == ("-0x1.b5cacad30d007p-15", 0.0)
    v = ray_values(f0, "pl", [7.0], 2.0)[0]
    assert (v.real.hex(), v.imag.hex()) == ("-0x0.0p+0", "-0x1.492dce03bc2dbp-13")


def test_generic_path_agrees_with_ray_path():
    f = make_f_xi_eps(BASE, 0, radial="exponential")
    generic = op_FC(f, ConePoint(0.5, BASE.theta1, BASE.theta2))
    fast = ray_values(f, "fc", [0.5])[0]
    assert abs(generic - fast) < 5e-5 * abs(fast)


def test_generic_blocks_hold_at_most_272000_kernel_points():
    # a Gaussian-decay input needs 80 radial nodes at xi.r = 1 and 184 at
    # xi.r = 64; the 232 x 232 Lorentz angular rows go to the kernel in
    # blocks of min(2000, 272000 // nodes) rows
    f = ConeFunction(lambda r, t1, t2: np.ones(np.broadcast(r, t1).shape),
                     DecayCertificate("gaussian"))
    for r, nodes, rows in ((1.0, 80, 2000), (64.0, 184, 1478)):
        shapes = []

        def spy(p):
            shapes.append(p.shape)
            return np.zeros(p.shape)

        operators._apply_generic(f, ConePoint(r, 0.7, 0.3), spy, "lorentz", 1.0)
        assert {n for _, n in shapes} == {nodes}
        assert [m for m, _ in shapes[:-1]] == [rows] * (len(shapes) - 1)
        assert sum(m for m, _ in shapes) == 232 * 232


def _failed_generic_vs_ray(f):
    return [c.check_id for c in suites._generic_vs_ray_checks(f)
            if not c.passed]


def test_generic_vs_ray_catches_a_kernel_argument_off_by_1e4(monkeypatch):
    f = make_f_xi_eps(BASE, 0, radial="exponential")
    assert _failed_generic_vs_ray(f) == []
    psi0 = operators.psi0
    monkeypatch.setattr(operators, "psi0", lambda t: psi0(t * (1.0 + 1e-4)))
    assert "op_fc.generic_vs_ray.s1.7" in _failed_generic_vs_ray(f)


@pytest.mark.parametrize("kernel, failing", [
    ("psi0", ["op_fc.generic_vs_ray.s0.5", "op_fc.generic_vs_ray.s1.7"]),
    ("phi0_plus", ["op_pl.generic_vs_ray"])])
def test_generic_vs_ray_catches_a_shipped_kernel_off_by_1e3(
        monkeypatch, kernel, failing):
    # the checks call the shipped operators, so a 0.1% error in the kernel
    # an operator uses fails them
    f = make_f_xi_eps(BASE, 0, radial="exponential")
    exact = getattr(operators, kernel)
    monkeypatch.setattr(operators, kernel, lambda t: 1.001 * exact(t))
    assert _failed_generic_vs_ray(f) == failing


@pytest.mark.parametrize("zero_lines, fn", [
    ([0.0, math.pi], np.sin), ([0.5 * math.pi, 1.5 * math.pi], np.cos)])
@pytest.mark.parametrize("refine", [1.0, 1.6])
def test_angular_rule(zero_lines, fn, refine):
    x, w = _angular_rule(zero_lines, refine)
    assert np.all(fn(x) != 0.0)
    assert abs(w.sum() - 2.0 * math.pi) < 1e-13
    # int_0^2pi log|sin x| dx = int_0^2pi log|cos x| dx = -2 pi log 2
    got = np.dot(np.log(np.abs(fn(x))), w)
    assert abs(got + 2.0 * math.pi * math.log(2.0)) < 1e-9


def test_plhat_half_space_support():
    # a single bump supported where the pairing factor is positive
    f = make_f_xi_eps(BASE, 0, radial="exponential")
    c1, c2 = f.center

    class OneBump:
        decay = f.decay

        @staticmethod
        def values(r, th1, th2):
            d1 = np.mod(th1 - c1 + math.pi, 2 * math.pi) - math.pi
            d2 = np.mod(th2 - c2 + math.pi, 2 * math.pi) - math.pi
            d_sq = d1 * d1 + d2 * d2
            g = np.cos(th1 - BASE.theta1) - np.cos(th2 - BASE.theta2)
            t = np.asarray(r) * g
            msk = d_sq < 0.25
            out = np.zeros(np.broadcast(t, d_sq).shape)
            bump = np.exp(-1.0 / np.clip(1.0 - d_sq / 0.25, 1e-12, None))
            out = np.where(msk, bump * np.exp(-np.abs(t)), 0.0)
            return out

        def __call__(self, r, th1, th2):
            return self.values(r, th1, th2)

    val = op_PlHatPrime(OneBump(), 1.0, ConePoint(0.8, BASE.theta1, BASE.theta2))
    assert abs(val) < 1e-12


def test_equivariance():
    gauss = ConeFunction(
        lambda r, t1, t2: np.exp(-np.asarray(r) ** 2 * (1.0 + 0 * t1))
        * (1.0 + 0.5 * np.cos(t1) + 0.3 * np.sin(t2)),
        DecayCertificate("gaussian", rate=1.0),
    )
    shift = (0.9, -0.6)
    rot = ConeFunction(
        lambda r, t1, t2: gauss.values(r, t1 - shift[0], t2 - shift[1]),
        gauss.decay,
    )
    x0 = ConePoint(0.9, 0.5, 1.2)
    x1 = ConePoint(0.9, 0.5 + shift[0], 1.2 + shift[1])
    for op in (op_FCstar, op_FC):
        v0 = op(gauss, x0)
        v1 = op(rot, x1)
        assert abs(v0 - v1) < 2e-6 * max(abs(v0), 1e-3)


def test_generic_operators_on_a_gaussian_match_references():
    # the test_equivariance Gaussian at xi = (0.9, 0.5, 1.2); the references
    # come from the same angular rule at step h = 0.03 with a geometrically
    # graded radial v-grid, and agree within 3e-9 with graded Gauss grids
    # of order 12 and 16 (ratio 2)
    gauss = ConeFunction(
        lambda r, t1, t2: np.exp(-np.asarray(r) ** 2 * (1.0 + 0 * t1))
        * (1.0 + 0.5 * np.cos(t1) + 0.3 * np.sin(t2)),
        DecayCertificate("gaussian", rate=1.0),
    )
    xi = ConePoint(0.9, 0.5, 1.2)
    fc, fcstar = 0.006787918750466, -0.408927872693560
    assert abs(op_FC(gauss, xi) - fc) < 1e-6 * abs(fc)
    assert abs(op_FCstar(gauss, xi) - fcstar) < 3e-8 * abs(fcstar)


def test_chains_match_tabulated_integral_forms():
    # per-theta integrands equal (i/pi^2) resp. (2/pi^2) times the closed
    # forms of the t^2 e^-t sine/cosine/exponential transforms
    s, R, th = 0.7, 1.2, 0.5
    ch = math.cosh(th)
    b = R * math.sqrt(2 * s) * ch
    sin_closed = 2 * b * (3 - b * b) / (1 + b * b) ** 3
    got = chain_pl_theta_integrand(th, s, R, 0)
    assert abs(got - (1j / math.pi**2) * sin_closed) < 1e-15
    assert abs(chain_pl_theta_integrand(th, s, R, 1) + got) < 1e-15
    b2 = 2 * math.sqrt(2 * s) * ch
    exp_closed = 2 * 2.0 / (1 + b2) ** 3
    cos_closed = 2 * 2 * (1 - 3 * b2 * b2) / (1 + b2 * b2) ** 3
    got_fc = chain_fc_theta_integrand(th, s, 0)
    assert abs(got_fc - (2.0 / math.pi**2) * (exp_closed + cos_closed)) < 1e-15
    got_fc1 = chain_fc_theta_integrand(th, s, 1)
    assert abs(got_fc1 - (2.0 / math.pi**2) * (exp_closed - cos_closed)) < 1e-15


def test_chain_pl_closed_form_is_the_theta_integral():
    # absolute error: the chain (at most 1/pi) changes sign at 2 R^2 s = 2
    worst = 0.0
    for s in np.geomspace(1e-3, 400.0, 25):
        for R in (0.5, 1.0, 1.7, 4.0):
            for e in (0, 1):
                quad = operators._theta_integral(
                    lambda th: chain_pl_theta_integrand(th, s, R, e), s)
                worst = max(worst, abs(chain_pl(s, R, e) - quad))
    assert worst < 1e-15


def test_scaling_covariance():
    gauss = ConeFunction(
        lambda r, t1, t2: np.exp(-np.asarray(r) ** 2 * (1.0 + 0 * t1))
        * (1.0 + 0.5 * np.cos(t1)),
        DecayCertificate("gaussian", rate=1.0),
    )
    lam = 2.0
    scaled = ConeFunction(
        lambda r, t1, t2: gauss.values(lam * np.asarray(r), t1, t2),
        DecayCertificate("gaussian", rate=lam * lam),
    )
    v_plain = op_FC(gauss, ConePoint(0.8, 0.5, 1.2))
    v_scaled = op_FC(scaled, ConePoint(0.8 * lam, 0.5, 1.2))
    assert abs(v_scaled - v_plain / lam**2) < 2e-6 * abs(v_plain)

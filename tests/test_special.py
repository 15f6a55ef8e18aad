import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitcone import oracles, special
from splitcone.numerics import SplitMix64


def test_j0_y0_against_mpmath():
    xs = np.concatenate([np.linspace(0.05, 12, 50), np.linspace(12.2, 40, 25)])
    with mpmath.workdps(30):
        j0 = np.array([float(mpmath.besselj(0, x)) for x in xs])
        y0 = np.array([float(mpmath.bessely(0, x)) for x in xs])
    assert np.max(np.abs(special.bessel_j0(xs) - j0)) < 5e-15
    assert np.max(np.abs(special.bessel_y0(xs) - y0)) < 5e-15


def test_k_family_against_mpmath():
    # 20 digits give the same floats as 30 here, in half the time
    xs = np.exp(np.linspace(math.log(1e-3), math.log(600), 60))

    def ref(n):
        with mpmath.workdps(20):
            return np.array([float(mpmath.besselk(n, x)) for x in xs])

    assert np.max(np.abs(special.bessel_k0(xs) - ref(0)) / ref(0)) < 2e-15
    for n in range(13):
        k = ref(n)
        assert np.max(np.abs(special.bessel_kn(n, xs) - k) / k) < 2e-15


def test_kn_edge_values():
    # zero and inf where the float value of K_n is zero or overflows, with
    # no NaN and no warning; at x = 700 K_n is about 5e-306, a normal float,
    # which scipy's kn (and kv) already give as 0
    xs = [1e-300, 1e-30, 700.0, 745.0, 800.0, math.inf]
    orders = (0, 1, 2, 8, 20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.array([special.bessel_kn(n, np.array(xs)) for n in orders])
        singles = [[special.bessel_kn(n, x) for x in xs] for n in orders]
    assert got.tolist() == singles
    with mpmath.workdps(20):
        want = np.array([[float(mpmath.besselk(n, x)) if x < math.inf else 0.0
                          for x in xs] for n in orders])
    assert not np.isnan(got).any()
    assert ((got == 0) == (want == 0)).all()
    assert (np.isinf(got) == np.isinf(want)).all()
    finite = np.isfinite(want) & (want > 0)
    assert np.max(np.abs(got[finite] - want[finite]) / want[finite]) < 2e-15


def test_ktilde_negative_orders_at_tiny_x():
    # Kt_-m(x) = 2^-m x^m K_m(x) -> Gamma(m)/2: finite and accurate where
    # x^m underflows and K_m overflows, with no warning, as a row too
    xs = np.array([1e-300, 1e-160, 1e-100, 1e-30])
    orders = (-1, -2, -3, -8, -12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = special.ktilde(orders, xs)
        singles = [[special.ktilde(n, x) for x in xs] for n in orders]
        # d/dr Kt_(n-1)(2r) = -2r Kt_n(2r) at r = x/2
        derivs = [-2.0 * r * special.ktilde(n, 2.0 * r) for n in orders for r in xs / 2]
    assert rows.tolist() == singles
    with mpmath.workdps(30):
        want = np.array([[float(2**n * mpmath.mpf(x) ** -n * mpmath.besselk(-n, x))
                          for x in xs] for n in orders])
    assert np.max(np.abs(rows - want) / want) < 1e-15
    assert derivs == (-xs * rows).ravel().tolist()
    # where the product is finite, it is the value: a row is unchanged
    x = np.array([1e-3, 0.5, 7.0])
    product = 2.0**-3 * x**3 * special.bessel_kn(3, x)
    assert special.ktilde(-3, x).tolist() == product.tolist()


def test_verify_bessel_catches_a_broken_k_table(monkeypatch):
    # the table's step with m + 1 in place of m must fail the shipped suite
    from scipy import special as sp

    from splitcone import cli
    from splitcone.suites import SuiteConfig

    def broken(nmax, x):
        table = [sp.k0(x), sp.k1(x)]
        for m in range(1, nmax):
            table.append(table[m - 1] + (2.0 * (m + 1) / x) * table[m])
        return table[:nmax + 1]

    monkeypatch.setattr(special, "_k_table", broken)
    rep = cli.run(SuiteConfig(suite="bessel", seed=2024))
    failed = {c.check_id for c in rep.checks if not c.passed}
    assert {"bessel.kn_oracle.0", "bessel.kn_oracle.1", "bessel.kn_oracle.2",
            "bessel.ktilde_recurrence"} <= failed


def test_negative_order_symmetry():
    assert special.bessel_kn(-3, 1.7) == special.bessel_kn(3, 1.7)


def test_ktilde_rows_match_single_orders():
    xs = np.array([0.3, 1.1, 4.0, 9.5])
    rows = special.ktilde([-3, 0, 2, 2], xs)
    assert rows.shape == (4, 4)
    for row, n in zip(rows, (-3, 0, 2, 2)):
        assert row.tolist() == special.ktilde(n, xs).tolist()
    assert special.ktilde([1, -1], 0.7).tolist() == [
        special.ktilde(1, 0.7), special.ktilde(-1, 0.7)]


# Kt values as float.hex, so that a last-bit move of the one Kt evaluator
# shows in Tier-1 and not only in the report hashes; none of these calls
# warns.
_KTILDE_PINS = [
    (3, 1.7, ["0x1.eb2f4af307930p+0"]),
    ([2, -3, 2, 0, -1], [0.3, 1.0, 7.5],
     ["0x1.e33d19abf3297p+9", "0x1.9ff5712ae8208p+2", "0x1.7daf0764ae6afp-16",
      "0x1.fa4d77df8121ap-1", "0x1.c67b171223340p-1", "0x1.78a34288cbb9ap-6",
      "0x1.e33d19abf3297p+9", "0x1.9ff5712ae8208p+2", "0x1.7daf0764ae6afp-16",
      "0x1.5f598ae31a9bep+0", "0x1.af2107c43e118p-2", "0x1.05481b690a771p-12",
      "0x1.d5667f10524a8p-2", "0x1.342d2f39d89c2p-2", "0x1.04cc4636ebb4ap-10"]),
    # K_m overflows and x^m underflows: the `_ktilde` fallback
    ([-4, -1, 0, -4], [1e-300, 1e-160],
     ["0x1.7ffffffffffffp+1", "0x1.8000000000000p+1", "0x1.fffffffffffffp-2",
      "0x1.0000000000000p-1", "0x1.59721b5792256p+9", "0x1.7087905a3ef9dp+8",
      "0x1.7ffffffffffffp+1", "0x1.8000000000000p+1"]),
    (-5, 1e-300, ["0x1.7ffffffffffffp+3"]),
    # near the x = 690 limit of the ambient oracle; Kt_4 subnormal
    ([0, 1, 4, -2], 689.5,
     ["0x1.d4b5d54154f3bp-1000", "0x1.5c4d16b25e3cdp-1008",
      "0x0.00240b0acd9efp-1022", "0x1.aa3f61bd6ffc0p-983"]),
]


@pytest.mark.parametrize("orders, x, pins", _KTILDE_PINS)
def test_ktilde_pinned_bits(orders, x, pins):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = special.ktilde(orders, x)
    if not np.iterable(orders) and not np.iterable(x):
        assert isinstance(got, np.float64)
    assert [float(v).hex() for v in np.ravel(got)] == pins


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-12, 12), min_size=1, max_size=12),
       st.integers(0, 2**32 - 1))
def test_ktilde_rows_are_the_single_order_values_bitwise(orders, seed):
    # at least 128 points, from x = 1e-300 (overflowing K_m, underflowing
    # x^m) to 60: numpy's power with an array of exponents differs in the
    # last bit from its scalar paths (exponents 2 and -1) on long arrays
    rng = np.random.default_rng(seed)
    xs = np.concatenate([10.0 ** rng.uniform(-300, 0, 64), rng.uniform(0, 60, 96)])
    with np.errstate(all="ignore"):
        rows = special.ktilde(orders, xs)
        singles = [special.ktilde(n, xs) for n in orders]
    assert rows.shape == (len(orders), len(xs))
    for row, single in zip(rows, singles):
        assert row.tobytes() == single.tobytes()


def test_domain_rejections():
    with pytest.raises(ValueError):
        special.bessel_j0(-1.0)
    with pytest.raises(ValueError):
        special.bessel_y0(0.0)
    with pytest.raises(ValueError):
        special.bessel_k0(0.0)
    with pytest.raises(ValueError):
        special.ktilde(1, -2.0)
    with pytest.raises(ValueError):
        special.bessel_j0(math.nan)
    with pytest.raises(ValueError):
        special.bessel_kn(2, np.array([1.0, math.nan]))
    for bad in (math.nan, 0.0, -0.0, -1.0):
        arr = np.array([0.5, bad, 2.0])
        with pytest.raises(ValueError):
            special.ktilde(1, arr)
        with pytest.raises(ValueError):  # in -2r Kt_2(2r) = d/dr Kt_1(2r)
            special.ktilde(2, 2 * arr)
        with pytest.raises(ValueError):
            special.ktilde([0, 1], arr)
    # orders must be integers: int() would truncate 2.5 to 2 and 1.9 to 1
    assert special.ktilde(np.int64(2), 1.0) == special.ktilde(2, 1.0)
    for bad in ((2.5, 1.0), ([1.9, 0.2], [1.0, 2.0]), (np.float64(2.0), 1.0)):
        with pytest.raises(ValueError):
            special.ktilde(*bad)
    with pytest.raises(ValueError):
        special.bessel_kn(2.7, 1.0)


def test_j0_at_zero_and_first_zero():
    assert special.bessel_j0(0.0) == 1.0
    assert special.bessel_j0(2.404) * special.bessel_j0(2.406) < 0


def test_y0_log_divergence():
    # Y0(u) ~ (2/pi)(log(u/2) + gamma) as u -> 0+
    for u in (1e-4, 1e-6):
        ref = (2 / math.pi) * (math.log(u / 2) + np.euler_gamma)
        assert abs(special.bessel_y0(u) - ref) < 1e-7


def test_integral_oracles():
    for u in np.exp(np.linspace(math.log(0.1), math.log(20), 12)):
        assert abs(special.bessel_j0(u) - oracles.j0_oracle(u)) < 1e-8
        assert abs(special.bessel_y0(u) - oracles.y0_oracle(u)) < 1e-8
        assert abs(special.bessel_k0(u) - oracles.kn_oracle(0, u)) < 1e-8
    # both integral forms of the K representation agree
    for u in (0.5, 1.0, 3.0):
        assert abs(oracles.k0_oracle_cos(u) - oracles.kn_oracle(0, u)) < 1e-10
    for n in (1, 2, 4):
        assert abs(special.bessel_kn(n, 2.2) - oracles.kn_oracle(n, 2.2)) < 1e-9


def test_kn_oracle_against_mpmath():
    us = np.geomspace(0.05, 200.0, 30)
    for n in range(6):
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.besselk(n, u)) for u in us])
        assert np.max(np.abs(oracles.kn_oracle(n, us) - ref) / ref) < 1e-13


def test_kn_oracle_batch_equals_scalar_calls():
    us = np.geomspace(0.05, 200.0, 37).reshape(37, 1)
    for n in (0, 3, -5):
        batch = oracles.kn_oracle(n, us)
        assert batch.shape == (37, 1)
        one = [oracles.kn_oracle(n, float(u)) for u in us.ravel()]
        assert all(type(v) is float for v in one)
        assert batch.ravel().tolist() == one


@pytest.mark.parametrize("oracle", [
    oracles.j0_oracle, oracles.y0_oracle, oracles.k0_oracle_cos,
    lambda u: oracles.kn_oracle(0, u), lambda u: oracles.kn_oracle(3, u),
], ids=["j0", "y0", "k0_cos", "k0", "k3"])
@pytest.mark.parametrize("u", [0.0, -1.0, math.nan, math.inf, -math.inf],
                         ids=["zero", "negative", "nan", "inf", "-inf"])
def test_oracles_reject_bad_u(oracle, u):
    with pytest.raises(ValueError, match="oracle requires finite u > 0"):
        oracle(u)
    with pytest.raises(ValueError, match="oracle requires finite u > 0"):
        oracle(np.array([1.0, u]))


def test_ktilde_recurrence_and_derivative():
    worst = 0.0
    for n in range(-5, 6):
        for r in np.linspace(0.1, 5, 15):
            lhs = r * r * special.ktilde(n + 1, 2 * r)
            rhs = n * special.ktilde(n, 2 * r) + special.ktilde(n - 1, 2 * r)
            worst = max(worst, abs(lhs - rhs) / abs(special.ktilde(n, 2 * r)))
    assert worst < 1e-10
    for n in (-2, 0, 3):
        for r in (0.4, 1.3):
            h = 1e-5 * max(1.0, r)
            fd = (special.ktilde(n, 2 * (r + h)) - special.ktilde(n, 2 * (r - h))) / (2 * h)
            cf = -2.0 * r * special.ktilde(n + 1, 2 * r)
            assert abs(fd - cf) < 1e-6 * abs(cf)


def test_ktilde_iterated_relation():
    # (-2 d/(r dr))^m Kt_n(r) = Kt_(n+m)(r)
    n, r = 1, 1.4
    h = 1e-4

    def op(f, x):
        return -2.0 * (f(x + h) - f(x - h)) / (2 * h) / x

    f = lambda x: special.ktilde(n, x)
    g1 = op(f, r)
    assert abs(g1 - special.ktilde(n + 1, r)) < 1e-6 * abs(special.ktilde(n + 1, r))


def test_gamma_against_mpmath():
    mpmath.mp.dps = 30
    for x, y in SplitMix64(3).uniforms((60, 2), (-4, -10), (4, 10)).tolist():
        z = complex(x, y)
        if z.real <= 0 and abs(z.imag) < 1e-2:
            continue
        ref = complex(mpmath.gamma(z))
        assert abs(special.gamma_complex(z) - ref) < 1e-12 * abs(ref)


def test_gamma_identities_and_poles():
    rho = 0.7
    val = special.gamma_complex(0.5 - 1j * rho) * special.gamma_complex(0.5 + 1j * rho)
    assert abs(val - math.pi / math.cosh(math.pi * rho)) < 1e-13
    assert abs(special.gamma_complex(1.0) - 1.0) < 1e-14
    assert abs(special.gamma_complex(0.5) - math.sqrt(math.pi)) < 1e-14
    with pytest.raises(ValueError):
        special.gamma_complex(0.0)
    with pytest.raises(ValueError):
        special.gamma_complex(-3.0)


def test_bessel_suite_array_forms_equal_scalar_loops():
    # the suite's array passes against the per-point loops they replace
    from splitcone.suites import SuiteConfig, suite_bessel

    got = {c.check_id: c.computed.real for c in suite_bessel(SuiteConfig(suite="bessel"))}
    worst = 0.0
    for n in range(-5, 6):
        for r in np.linspace(0.1, 5.0, 21):
            lhs = r * r * special.ktilde(n + 1, 2 * r)
            rhs = n * special.ktilde(n, 2 * r) + special.ktilde(n - 1, 2 * r)
            worst = max(worst, abs(lhs - rhs) / abs(special.ktilde(n, 2 * r)))
    assert got["bessel.ktilde_recurrence"] == worst
    worst = 0.0
    for n in (-2, 0, 1, 3):
        for r in (0.3, 1.0, 2.0):
            h = 1e-5 * max(1.0, r)
            fd = (special.ktilde(n, 2 * (r + h)) - special.ktilde(n, 2 * (r - h))) / (2 * h)
            cf = -2.0 * r * special.ktilde(n + 1, 2 * r)
            worst = max(worst, abs(fd - cf) / max(abs(cf), 1e-300))
    assert got["bessel.ktilde_derivative"] == worst
    worst = 0.0
    for n in (-1, 0, 2):
        for r in (0.8, 1.6, 3.0):
            h = 1e-4 * max(1.0, r)

            def op(f, x):
                return -2.0 * (f(x + h) - f(x - h)) / (2 * h) / x

            def g1(x):
                return op(lambda y: special.ktilde(n, y), x)

            worst = max(worst, abs(g1(r) - special.ktilde(n + 1, r))
                        / abs(special.ktilde(n + 1, r)))
            worst = max(worst, abs(op(g1, r) - special.ktilde(n + 2, r))
                        / abs(special.ktilde(n + 2, r)))
    assert got["bessel.ktilde_iterated_derivative"] == worst

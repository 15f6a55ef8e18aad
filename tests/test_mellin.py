import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitcone.mellin import (
    MellinRule,
    RayTable,
    closed_form_ratio,
    gamma_chain_identities,
    gr_2667_integrals,
    mellin,
    mellin_power_tail,
    per_theta_mellin_closed_forms,
    reference_ratio,
)
from splitcone.operators import chain_fc_theta_integrand, chain_pl_theta_integrand
from splitcone.special import gamma_complex


def test_mellin_exponential():
    for a, rho in ((1.0, 0.0), (1.7, 0.8), (0.4, 2.0)):
        r = mellin(lambda s: np.exp(-a * s), rho)
        ref = a ** -(1 - 1j * rho) * gamma_complex(1 - 1j * rho)
        assert abs(r.value - ref) < 1e-7 * abs(ref)


@settings(max_examples=60, deadline=None)
@given(rho=st.floats(-6.0, 6.0))
def test_mellin_error_estimate_bounds_error(rho):
    # int_0^inf e^-s s^-i rho ds = Gamma(1 - i rho) and
    # int_0^inf e^-s^2 s^-i rho ds = Gamma((1 - i rho)/2) / 2
    for f, ref in ((lambda s: np.exp(-s), mpmath.gamma(1 - 1j * rho)),
                   (lambda s: np.exp(-s * s), 0.5 * mpmath.gamma(0.5 - 0.5j * rho))):
        r = mellin(f, rho)
        assert abs(r.value - complex(ref)) <= r.error_estimate


BAD_WINDOWS = ({"s_lo": 1e3, "s_hi": 1e-3}, {"s_lo": 1.0, "s_hi": 1.0},
               {"s_hi": math.inf}, {"s_hi": math.nan}, {"s_lo": 0.0},
               {"s_lo": -1e-8}, {"s_lo": math.nan})
BAD_RHOS = (math.nan, math.inf, -math.inf)


def test_mellin_window_and_rho_range():
    def f(s):
        return np.exp(-s)

    for kw in BAD_WINDOWS:
        with pytest.raises(ValueError):
            mellin(f, 0.5, **kw)
    for rho in BAD_RHOS:
        with pytest.raises(ValueError):
            mellin(f, rho)
    assert mellin(f, 0.0).value == pytest.approx(1.0, rel=1e-7)


def test_mellin_rule_matches_mellin_bitwise():
    # the 8 per-theta chain integrands of the mellin_ratio suite through
    # one rule, each against a lone mellin call
    rho, R, window = 0.7, 1.3, {"s_lo": 1e-10, "s_hi": 1e14}
    rule = MellinRule(rho, **window)
    for e in (0, 1):
        for theta in (0.0, 0.8):
            for f in (lambda s: chain_pl_theta_integrand(theta, s, R, e),
                      lambda s: chain_fc_theta_integrand(theta, s, e)):
                got, alone = rule(f), mellin(f, rho, **window)
                assert got.value == alone.value
                assert got.error_estimate == alone.error_estimate
                assert got.rho == alone.rho
    for kw in BAD_WINDOWS:
        with pytest.raises(ValueError):
            MellinRule(0.5, **kw)
    for rho in BAD_RHOS:
        with pytest.raises(ValueError):
            MellinRule(rho)


def test_mellin_rational():
    a, nu, rho = 0.9, 2.5, 0.6
    r = mellin(lambda s: (1 + a * s) ** -nu, rho)
    ref = a ** -(1 - 1j * rho) * gamma_complex(1 - 1j * rho) * gamma_complex(
        nu - 1 + 1j * rho) / gamma_complex(nu)
    assert abs(r.value - ref) < 1e-7 * abs(ref)


def test_mellin_power_tail():
    # int_0^e c s^p s^-i rho ds against direct quadrature
    rho, p, c, e = 0.7, 0.5, 2.0, 0.1
    tail = mellin_power_tail(c, p, rho, e, "lower")
    s = np.linspace(1e-9, e, 400000)
    ref = np.trapezoid(c * s**p * s ** (-1j * rho), s)
    assert abs(tail - ref) < 1e-5 * abs(ref)
    # int_400^inf c s^-2.5 s^-i rho ds
    ref = complex(mpmath.quad(lambda t: c * t ** (-2.5 - 1j * rho),
                              [400, mpmath.inf]))
    tail = mellin_power_tail(c, -2.5, rho, 400.0, "upper")
    assert abs(tail - ref) < 1e-12 * abs(ref)


def test_mellin_power_tail_rejects_what_it_cannot_give():
    for side in ("uper", "Lower", "", None):
        with pytest.raises(ValueError):
            mellin_power_tail(1.0, -2.0, 0.7, 400.0, side)
    # powers whose tails converge on that side, so only the edge is wrong
    for power, side in ((-0.5, "lower"), (-2.5, "upper")):
        for edge in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                mellin_power_tail(1.0, power, 0.7, edge, side)
    # divergent tails: Re mu = power + 1 >= 0 above, <= 0 below
    for power, rho, side, edge in (
            (0.5, 0.7, "upper", 400.0), (-1.0, 0.7, "upper", 400.0),
            (-1.0, 0.0, "upper", 400.0), (math.nan, 0.7, "upper", 400.0),
            (-1.0, 0.0, "lower", 1e-3), (-1.0, 0.7, "lower", 1e-3),
            (-1.5, 0.7, "lower", 1e-3), (math.nan, 0.7, "lower", 1e-3)):
        with pytest.raises(ValueError):
            mellin_power_tail(1.0, power, rho, edge, side)


def test_gr_2667():
    (qs, qc), (cs, cc) = gr_2667_integrals(1.0, 0.0)
    assert abs(qs - 0.0) < 1e-14 and abs(qc - 2.0) < 1e-12
    assert cs == 0.0 and cc == 2.0
    (qs, qc), (cs, cc) = gr_2667_integrals(1.0, 1.0)
    assert abs(cs - 0.5) < 1e-15 and abs(cc + 0.5) < 1e-15
    assert abs(qs - cs) < 1e-12 and abs(qc - cc) < 1e-12
    (qs, qc), (cs, cc) = gr_2667_integrals(2.0, 1.0)
    assert abs(qs - cs) < 1e-10 and abs(qc - cc) < 1e-10
    with pytest.raises(ValueError):
        gr_2667_integrals(0.0, 1.0)


def test_gamma_chain_identities():
    for rho in (0.3, 0.95, 2.4):
        for e in (0, 1):
            res = gamma_chain_identities(rho, e)
            assert all(v < 1e-10 for v in res.values()), res


def test_per_theta_closed_forms_vs_numerical_mellin():
    rho, R = 0.7, 1.3
    for e in (0, 1):
        for theta in (0.0, 0.8):
            m_pl, m_fc = per_theta_mellin_closed_forms(rho, R, theta, e)
            num_pl = mellin(
                lambda s: chain_pl_theta_integrand(theta, s, R, e), rho,
                s_lo=1e-10, s_hi=1e14).value
            num_fc = mellin(
                lambda s: chain_fc_theta_integrand(theta, s, e), rho,
                s_lo=1e-10, s_hi=1e14).value
            assert abs(num_pl - m_pl) < 1e-6 * abs(m_pl)
            assert abs(num_fc - m_fc) < 1e-6 * abs(m_fc)
    with pytest.raises(ValueError):
        per_theta_mellin_closed_forms(0.0, 1.0, 0.0, 0)


def test_reference_ratio_values():
    v = reference_ratio(1.0, 1.0, 0)
    assert abs(v - 2.0 ** (-2j) / math.tanh(math.pi / 2)) < 1e-15
    v = reference_ratio(1.0, 1.0, 1)
    assert abs(v - 2.0 ** (-2j) * math.tanh(math.pi / 2)) < 1e-15
    # parity product removes the hyperbolic factor
    prod = reference_ratio(0.8, 1.7, 0) * reference_ratio(0.8, 1.7, 1)
    assert abs(prod - 1.7 ** complex(-4, 3.2) * 2.0 ** (-3.2j)) < 1e-14
    with pytest.raises(ValueError):
        reference_ratio(0.0, 1.0, 0)


def test_closed_form_ratio_grid():
    for e in (0, 1):
        for rho in (0.3, 1.0, 2.0):
            for R in (0.5, 2.0):
                ref = reference_ratio(rho, R, e)
                assert abs(closed_form_ratio(rho, R, e) - ref) < 1e-10 * abs(ref)


def test_theta_independence():
    vals = []
    for th in (0.0, 0.5, 1.5):
        m_pl, m_fc = per_theta_mellin_closed_forms(0.9, 1.1, th, 0)
        vals.append(m_pl / m_fc)
    assert max(abs(v - vals[0]) for v in vals) < 1e-13


def test_end_to_end_ratio():
    table = RayTable((0,), [1.0])
    calib = complex(table.ratio(0.7, 1.0, 0)) / reference_ratio(0.7, 1.0, 0)
    assert abs(calib - 1.0) < 2e-3
    ref = reference_ratio(1.0, 1.0, 0)
    assert abs(table.ratio(1.0, 1.0, 0) / calib - ref) < 5e-3 * abs(ref)


def test_two_parity_table_gives_the_one_parity_tables():
    R_list = [0.5, 2.0]
    both = RayTable((0, 1), R_list)
    for e in (0, 1):
        alone = RayTable((e,), R_list)
        assert (both.fc[e][0] == alone.fc[e][0]).all()
        for R in R_list:
            assert (both.pl[e, R][0] == alone.pl[e, R][0]).all()
            for rho in (0.3, 2.0):
                assert both.ratio(rho, R, e) == alone.ratio(rho, R, e)


def test_ray_table_ratio_pinned():
    # M Pl / M FC of a two-parity table, whose rows past c = pi come from
    # the shared x grid (checked against closed forms in test_operators)
    table = RayTable((0, 1), [0.5, 2.0])
    for rho, R, e, re, im in (
            (0.3, 0.5, 0, "0x1.88a55d281bfccp+2", "-0x1.aef68d65be213p+2"),
            (2.0, 2.0, 0, "0x1.00fc29c091813p-2", "0x1.34598e0b18d83p-17"),
            (-0.7, 0.5, 1, "0x1.285136340b4acp+0", "-0x1.7df3b2eae07f5p+1"),
            (1.3, 2.0, 1, "0x1.ef09306273004p-3", "0x1.117a220124950p-17")):
        got = table.ratio(rho, R, e)
        assert (got.real.hex(), got.imag.hex()) == (re, im)


def test_ray_table_rejects_bad_R():
    for R in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError):
            RayTable((0,), [1.0, R])


def test_large_rho_modulus():
    for e in (0, 1):
        assert abs(abs(reference_ratio(8.0, 1.0, e)) - 1.0) < 1e-9


def test_ratio_input_validation():
    table = RayTable((0,), [1.0])
    for rho, R in ((math.nan, 1.0), (math.inf, 1.0), (1.0, 0.0), (1.0, -1.0),
                   (1.0, math.nan), (0.0, 1.0)):
        with pytest.raises(ValueError):
            closed_form_ratio(rho, R, 0)
        with pytest.raises(ValueError):
            table.ratio(rho, R, 0)


def test_end_to_end_rejects_mismatched_table():
    table = RayTable((0,), [1.0])
    with pytest.raises(ValueError, match="parity"):
        table.ratio(1.0, 1.0, 1)
    with pytest.raises(ValueError, match="R = 2.0"):
        table.ratio(1.0, 2.0, 0)

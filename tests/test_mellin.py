import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitcone import mellin as mellin_module, special
from splitcone.geometry import ConePoint
from splitcone.mellin import (
    MellinRule,
    RayTable,
    closed_form_ratio,
    gamma_chain_identities,
    gr_2667_integrals,
    mellin,
    per_theta_mellin_closed_forms,
    reference_ratio,
)
from splitcone.operators import (
    chain_fc_theta_integrand, chain_pl_theta_integrand, make_f_xi_eps)
from splitcone.special import gamma_complex
from splitcone.suites import _PER_THETA_FC_TAILS, _PER_THETA_PL_TAILS


# tail terms (at 0, at infinity) of f analytic at 0 that decays faster
# than any power
ANALYTIC = ((0, 1, 2), ())


def test_mellin_exponential():
    for a, rho in ((1.0, 0.0), (1.7, 0.8), (0.4, 2.0)):
        r = mellin(lambda s: np.exp(-a * s), rho, *ANALYTIC)
        ref = a ** -(1 - 1j * rho) * gamma_complex(1 - 1j * rho)
        assert abs(r.value - ref) < 1e-13 * abs(ref)


@settings(max_examples=60, deadline=None)
@given(rho=st.floats(-6.0, 6.0))
def test_mellin_error_estimate_bounds_error(rho):
    # int_0^inf e^-s s^-i rho ds = Gamma(1 - i rho) and
    # int_0^inf e^-s^2 s^-i rho ds = Gamma((1 - i rho)/2) / 2
    for f, ref in ((lambda s: np.exp(-s), mpmath.gamma(1 - 1j * rho)),
                   (lambda s: np.exp(-s * s), 0.5 * mpmath.gamma(0.5 - 0.5j * rho))):
        r = mellin(f, rho, *ANALYTIC)
        assert abs(r.value - complex(ref)) <= r.error_estimate


BAD_WINDOWS = ((1e3, 1e-3, 0.65), (1.0, 1.0, 0.65), (1e-3, math.inf, 0.65),
               (1e-3, math.nan, 0.65), (0.0, 1e3, 0.65), (-1e-8, 1e3, 0.65),
               (math.nan, 1e3, 0.65), (1e-3, 1e3, 0.0), (1e-3, 1e3, -1.0),
               (1e-3, 1e3, math.inf), (1e-3, 1e3, math.nan))
BAD_RHOS = (math.nan, math.inf, -math.inf)


def test_mellin_window_and_rho_range():
    def f(s):
        return np.exp(-s)

    for window in BAD_WINDOWS:
        with pytest.raises(ValueError):
            MellinRule(*ANALYTIC, *window)
    rule = MellinRule(*ANALYTIC, 1e-3, 1e3, 0.65)
    for rho in BAD_RHOS:
        with pytest.raises(ValueError):
            mellin(f, rho, *ANALYTIC)
        with pytest.raises(ValueError):
            rule(f(rule.s), rho)
    assert mellin(f, 0.0, *ANALYTIC).value == pytest.approx(1.0, rel=1e-14)
    # a tail term that diverges on its side has no value
    for lower, upper in (((-1, 0), ()), ((0,), (-1,)), ((0,), (-0.5,))):
        with pytest.raises(ValueError):
            MellinRule(lower, upper, 1e-3, 1e3, 0.65)(f(rule.s), 0.5)


PT_CASES = [(e, theta) for e in (0, 1) for theta in (0.0, 0.8)]


def _per_theta(kind, cases=PT_CASES, rho=0.7, R=1.3):
    """(integrand rows, tail terms, closed forms) of the suite's per-theta
    checks of one chain, one row per (parity, theta) of cases."""
    refs = np.array([per_theta_mellin_closed_forms(rho, R, theta, e)[kind == "fc"]
                     for e, theta in cases])
    if kind == "pl":
        return (lambda s: np.array([chain_pl_theta_integrand(theta, s, R, e)
                                    for e, theta in cases]), _PER_THETA_PL_TAILS, refs)
    return (lambda s: np.array([chain_fc_theta_integrand(theta, s, e)
                                for e, theta in cases]), _PER_THETA_FC_TAILS, refs)


def test_mellin_rule_matches_mellin_bitwise():
    # the per-theta chain integrands, all rows at once and one at a time:
    # mellin is the rule on [1e-6, 1e6] at panels of 0.65 in log s, and
    # its estimate adds the gap to the same rule at 1.3
    rho = 0.7
    for kind in ("pl", "fc"):
        for cases in [PT_CASES] + [[case] for case in PT_CASES]:
            f, tails, _ = _per_theta(kind, cases)
            full, half = (rule(f(rule.s), rho) for rule in (
                MellinRule(*tails, 1e-6, 1e6, step) for step in (0.65, 1.3)))
            got = mellin(f, rho, *tails)
            assert np.array_equal(got.value, full.value)
            assert np.array_equal(
                got.error_estimate, abs(full.value - half.value) + full.error_estimate)


@pytest.mark.parametrize("kind", ["pl", "fc"])
def test_mellin_estimate_bounds_the_suite_errors(kind):
    # the suite's call, all (parity, theta) rows at once, and each row alone
    f, tails, refs = _per_theta(kind)
    r = mellin(f, 0.7, *tails)
    assert (abs(r.value - refs) <= r.error_estimate).all()
    for case, ref in zip(PT_CASES, refs):
        f, tails, _ = _per_theta(kind, [case])
        r = mellin(f, 0.7, *tails)
        assert (abs(r.value - ref) <= r.error_estimate).all()


def test_mellin_estimate_bounds_the_basic_suite_errors():
    g = gamma_complex
    for f, rho, tails, ref in (
            (lambda s: np.exp(-1.7 * s), 0.8, ANALYTIC, 1.7 ** -(1 - 0.8j) * g(1 - 0.8j)),
            (lambda s: (1 + 0.9 * s) ** -2.5, 0.6, ((0, 1, 2), (-2.5, -3.5, -4.5)),
             0.9 ** -(1 - 0.6j) * g(1 - 0.6j) * g(1.5 + 0.6j) / g(2.5)),
            (lambda s: np.exp(-s), 0.0, ANALYTIC, 1.0)):
        r = mellin(f, rho, *tails)
        assert abs(r.value - ref) <= r.error_estimate


def test_mellin_rational():
    a, nu, rho = 0.9, 2.5, 0.6
    r = mellin(lambda s: (1 + a * s) ** -nu, rho, (0, 1, 2), (-2.5, -3.5, -4.5))
    ref = a ** -(1 - 1j * rho) * gamma_complex(1 - 1j * rho) * gamma_complex(
        nu - 1 + 1j * rho) / gamma_complex(nu)
    assert abs(r.value - ref) < 1e-13 * abs(ref)


def test_mellin_rule_tail_terms_against_mpmath():
    # a rule whose one tail term is the integrand c s^p (log s)^k: its sum
    # is int c s^(p - i rho) (log s)^k ds over the window and that tail
    rho, c, lo, hi = 0.7, 2.0, 1e-3, 400.0
    for term, below in ((0.5, True), (-2.5, False), ((0.0, 1), True),
                        ((1.0, 1), True), ((-2.0, 1), False)):
        p, k = term if isinstance(term, tuple) else (term, 0)
        rule = MellinRule([term] if below else [], [] if below else [term],
                          lo, hi, 1.3)
        got = rule(c * rule.s**p * np.log(rule.s)**k, rho).value
        with mpmath.workdps(30):
            ref = complex(mpmath.quad(
                lambda t: c * t ** (p - 1j * rho) * mpmath.log(t)**k,
                [0, lo, 1, hi] if below else [lo, 1, hi, mpmath.inf]))
        assert abs(got - ref) < 1e-13 * abs(ref), term


def test_mellin_rule_rejects_tails_it_cannot_give():
    # divergent tails (p + 1 <= 0 below, >= 0 above, for every rho) and log
    # powers other than 0 and 1 fail when the rule is built
    for lower, upper in (([-1.0], []), ([], [-1.0]), ([-1.5], []),
                         ([], [0.5]), ([math.nan], []), ([], [math.nan]),
                         ([(0.0, 2)], []), ([], [(-2.0, -1)])):
        with pytest.raises(ValueError):
            MellinRule(lower, upper, 1e-3, 400.0, 1.3)


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
    for kind in ("pl", "fc"):
        f, tails, refs = _per_theta(kind)
        assert (abs(mellin(f, 0.7, *tails).value - refs) < 1e-12 * abs(refs)).all()
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
    for rho in (0.7, 1.0):
        ref = reference_ratio(rho, 1.0, 0)
        assert abs(table.ratio(rho, 1.0, 0) - ref) < 1e-6 * abs(ref)


def _worst_ratio_error(table, rhos, Rs):
    """Largest relative error of the ratio over the grid."""
    return max(abs(table.ratio(rho, R, e) / reference_ratio(rho, R, e) - 1.0)
               for e in (0, 1) for rho in rhos for R in Rs)


def test_ray_table_ratio_uncalibrated():
    # the suite's default grid, and the corners of the supported |rho| in
    # [0.2, 2] and R in [0.4, 4]
    table = RayTable((0, 1), [0.4, 0.5, 1.0, 2.0, 4.0])
    assert _worst_ratio_error(table, (0.3, 0.7, 1.0, 2.0), (0.5, 1.0, 2.0)) < 1e-6
    assert _worst_ratio_error(table, (0.2, -0.2, 2.0, -2.0), (0.4, 4.0)) < 5e-5


def test_ray_table_mellin_sums_match_their_closed_forms():
    # each sum on its own: c_plus times the per-theta image at theta = 0
    # times B(1 - i rho, 1/2)/2, the integral of cosh^-(2 - 2i rho) over
    # [0, inf); measured, "fc" 3.4e-7 on both grids, "pl" 3.7e-8 on the
    # suite's default grid and 1.2e-5 at the corners (R = 4)
    table = RayTable((0, 1), [0.4, 0.5, 1.0, 2.0, 4.0])
    for e in (0, 1):
        assert table.c_plus[e] == make_f_xi_eps(ConePoint(1.0, 0.7, 0.3), e).c_plus
    for rhos, Rs, pl_tol in (((0.3, 0.7, 1.0, 2.0), (0.5, 1.0, 2.0), 1e-7),
                             ((0.2, -0.2, 2.0, -2.0), (0.4, 4.0), 5e-5)):
        for e in (0, 1):
            c_plus = table.c_plus[e]
            for rho in rhos:
                beta = (gamma_complex(1.0 - 1j * rho) * math.sqrt(math.pi)
                        / gamma_complex(1.5 - 1j * rho) / 2.0)
                fc = table._fc_rule(table.fc[e], rho).value
                for R in Rs:
                    m_pl, m_fc = per_theta_mellin_closed_forms(rho, R, 0.0, e)
                    pl = table.pl_sum(rho, R, e)
                    assert abs(fc / (c_plus * m_fc * beta) - 1.0) < 1e-6
                    assert abs(pl / (c_plus * m_pl * beta) - 1.0) < pl_tol


def test_ray_table_needs_the_rows_own_tails(monkeypatch):
    # the J0 rows' terms at 0 of the trial fit, 1, s^(1/2) and s: the rows
    # have no s^(1/2), and the corners miss their 5e-5 (1.4e-3)
    upper = mellin_module._PL_ROW_TAILS[1]
    monkeypatch.setattr(mellin_module, "_PL_ROW_TAILS", ((0, 0.5, 1), upper))
    table = RayTable((0, 1), [0.4, 4.0])
    assert _worst_ratio_error(table, (0.2, -0.2, 2.0, -2.0), (0.4, 4.0)) > 5e-5


def test_two_parity_table_gives_the_one_parity_tables():
    R_list = [0.5, 2.0]
    both = RayTable((0, 1), R_list)
    for e in (0, 1):
        alone = RayTable((e,), R_list)
        assert np.array_equal(both.fc[e], alone.fc[e])
        for R in R_list:
            assert np.array_equal(both.pl[e, R], alone.pl[e, R])
            for rho in (0.3, 2.0):
                assert both.ratio(rho, R, e) == alone.ratio(rho, R, e)


def test_ray_table_ratio_pinned():
    # M Pl / M FC of a two-parity table, whose rows past c = pi come from
    # the shared x grid (checked against closed forms in test_operators)
    table = RayTable((0, 1), [0.5, 2.0])
    for rho, R, e, re, im in (
            (0.3, 0.5, 0, "0x1.889b0df9eff40p+2", "-0x1.aed28cd70ca03p+2"),
            (2.0, 2.0, 0, "0x1.00f53a8761a4cp-2", "-0x1.fbd3a9a2677a5p-27"),
            (-0.7, 0.5, 1, "0x1.285f9362845fap+0", "-0x1.7e0a8fd571ce3p+1"),
            (1.3, 2.0, 1, "0x1.ef0ae953c5ca1p-3", "-0x1.4bc774bf9e073p-27")):
        got = table.ratio(rho, R, e)
        assert (got.real.hex(), got.imag.hex()) == (re, im)


def test_ray_table_bessel_point_budget(monkeypatch):
    # the rows of a two-parity table at three R take at most 50,000 J0, Y0
    # and K0 points in all (the u grid of step 4 below c = pi / 4, no
    # grading for J0, K0 only where it is not 0.0)
    points = []
    for kind in ("j0", "y0", "k0"):
        fn = getattr(special, "bessel_" + kind)
        monkeypatch.setattr(special, "bessel_" + kind,
                            lambda u, fn=fn: points.append(np.size(u)) or fn(u))
    RayTable((0, 1), (0.5, 1.0, 2.0))
    assert 0 < sum(points) <= 50_000


def test_ray_table_ratio_over_a_sequence_of_R():
    # one "fc" Mellin sum for all R, each ratio bit for bit the lone call's
    table = RayTable((0, 1), [0.5, 1.0, 2.0])
    lone = [table.ratio(0.7, R, 1) for R in (2.0, 0.5)]
    fc_sums = []
    rule = table._fc_rule
    table._fc_rule = lambda *args: fc_sums.append(args) or rule(*args)
    assert table.ratio(0.7, [2.0, 0.5], 1) == lone
    assert len(fc_sums) == 1
    with pytest.raises(ValueError, match="R = 3.0"):
        table.ratio(0.7, [0.5, 3.0], 1)


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

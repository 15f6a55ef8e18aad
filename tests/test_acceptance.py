"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with -s to see them).  Tolerances are pinned here and must not
be loosened; criterion 10 exercises the CLI contract end to end.
"""

import json
import math
import pathlib
import time

import numpy as np

from splitcone import kalgebra, kernels, mellin
from splitcone.geometry import cone_embed, pair
from splitcone.numerics import SplitMix64
from splitcone.suites import (
    SuiteConfig,
    _corollary_points,
    _gaussian_family,
    _lemma_identity_points,
    _sample_offcone_dual,
    build_suite,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "orbit_dims.json"


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_fourier_closed_forms():
    """50 random (R, xi), all four sign branches, |ft - closed| within
    max(1e-4 |value|, 1e-5)."""
    t0 = time.time()
    worst = 0.0
    for R, xi, q in zip(*_sample_offcone_dual(SplitMix64(2024), 50)):
        for sR in (-1, 1):
            for se in (-1, 1):
                res = kernels.ft_regularized(R, xi, sR, se)
                ref = kernels.ft_closed_form(R, q, sR, se)
                tol = max(1e-4 * abs(ref), 1e-5)
                worst = max(worst, abs(res.value - ref) / tol)
    _report("criterion 1 (Fourier closed forms, 200 branch values)",
            worst <= 1.0,
            f"worst error/tolerance = {worst:.3f}, {time.time()-t0:.1f}s")


def test_criterion_02_corollary_kernels():
    ok = True
    charts, Rs = _corollary_points(SplitMix64(2025), 20)
    for (p1, p2), R in zip(charts, Rs.tolist()):
        inner = pair(cone_embed(p1), cone_embed(p2))
        sym, anti = kernels.corollary_kernels(R, p1, p2)
        ref_sym = 0.5 * math.pi * kernels.psi0(-inner)
        ok &= abs(sym - ref_sym) <= 1e-4 * abs(ref_sym)
        if inner > 0:
            ok &= abs(anti) < 1e-6
        else:
            ref = 0.5j * math.pi * kernels.phi0_plus(-(R * R / 4) * inner)
            ok &= abs(anti - ref) <= 1e-4 * max(abs(ref), 1e-3)
    _report("criterion 2 (corollary kernels, 20 pairs)", ok, "")


def test_criterion_03_lemma_identities():
    worst = 0.0
    charts, Rs = _lemma_identity_points(SplitMix64(2026), 10)
    for (p1, p2), R in zip(charts, Rs.tolist()):
        lv = kernels.lemma_kernel_integrals(R, p1, p2)
        scale = max(abs(x) for x in lv.references) + 1e-12
        for got, ref in zip(lv.integrals, lv.references):
            worst = max(worst, abs(got - ref) / (1e-3 * scale))
    _report("criterion 3 (four oscillatory identities, 10 samples)",
            worst <= 1.0, f"worst error/tolerance = {worst:.3f}")


def test_criterion_04_mellin_ratio():
    t0 = time.time()
    rho_list = (0.3, 0.7, 1.0, 2.0)
    R_list = (0.5, 1.0, 2.0)
    worst_cf, worst_e2e = 0.0, 0.0
    table = mellin.RayTable((0, 1), R_list)
    for e in (0, 1):
        for rho in rho_list:
            for R in R_list:
                ref = mellin.reference_ratio(rho, R, e)
                vc = mellin.closed_form_ratio(rho, R, e)
                worst_cf = max(worst_cf, abs(vc - ref) / abs(ref))
                ve = table.ratio(rho, R, e)
                worst_e2e = max(worst_e2e, abs(ve - ref) / abs(ref))
    ok = worst_cf < 1e-8 and worst_e2e < 1e-3
    _report("criterion 4 (coth/tanh ratio, closed and end-to-end)", ok,
            f"closed {worst_cf:.2e} (<1e-8), end-to-end {worst_e2e:.2e} "
            f"(<1e-3), {time.time()-t0:.1f}s")


def test_criterion_05_gamma_chain_identities():
    worst = 0.0
    for rho in SplitMix64(2027).uniforms(10, 0.05, 3.0).tolist():
        for e in (0, 1):
            res = mellin.gamma_chain_identities(rho, e)
            worst = max(worst, max(res.values()))
    _report("criterion 5 (Gamma-chain identities, 10 random rho)",
            worst < 1e-10, f"worst residual {worst:.2e}")


def test_criterion_06_kbessel_algebra():
    from splitcone import special

    worst = 0.0
    for n in range(-5, 6):
        for r in np.linspace(0.1, 5.0, 25):
            lhs = r * r * special.ktilde(n + 1, 2 * r)
            rhs = n * special.ktilde(n, 2 * r) + special.ktilde(n - 1, 2 * r)
            worst = max(worst, abs(lhs - rhs) / abs(special.ktilde(n, 2 * r)))
    ok1 = worst < 1e-10
    worst_d = 0.0
    for n in (-3, 0, 2):
        for r in (0.3, 1.1, 2.7):
            h = 1e-5 * max(1.0, r)
            fd = (special.ktilde(n, 2 * (r + h))
                  - special.ktilde(n, 2 * (r - h))) / (2 * h)
            cf = -2.0 * r * special.ktilde(n + 1, 2 * r)
            worst_d = max(worst_d, abs(fd - cf) / abs(cf))
    ok2 = worst_d < 1e-6
    _report("criterion 6 (K-Bessel recurrence and derivative)", ok1 and ok2,
            f"recurrence {worst:.2e} (<1e-10), derivative {worst_d:.2e} (<1e-6)")


def test_criterion_07_rewrite_fidelity():
    t0 = time.time()
    cfg = SuiteConfig(suite="ktypes")
    checks = {c.check_id: c for c in build_suite(cfg)}
    mult = checks["ktypes.mult_rewrites"]
    prew = checks["ktypes.p_rewrites"]
    ladd = checks["ktypes.ladder_rewrites"]
    hw = checks["ktypes.highest_weight"]
    ok = mult.passed and prew.passed and ladd.passed and hw.passed
    _report("criterion 7 (rewrite fidelity vs ambient oracle)", ok,
            f"mult {mult.abs_error:.1e}, P {prew.abs_error:.1e}, "
            f"ladders {ladd.abs_error:.1e} (all <1e-7); highest weight exact; "
            f"{time.time()-t0:.1f}s")


def test_criterion_08_orbit_finiteness():
    golden = json.loads(GOLDEN.read_text())
    ok = True
    for run in range(2):
        for label, dim in golden.items():
            n, l, k = (int(v) for v in label.split(","))
            _, got = kalgebra.orbit_closure(kalgebra.KBasisElement(n, l, k))
            ok &= got == dim
    _report("criterion 8 (orbit closures finite, dims match golden)", ok,
            f"{len(golden)} orbits, two runs")


def test_criterion_09_delta_two_routes():
    t0 = time.time()
    worst = 0.0
    for name, psi in _gaussian_family().items():
        res = kernels.delta_cone_apply(psi)
        scale = max(abs(res.surface), abs(res.volume), 1e-300)
        worst = max(worst, abs(res.surface - res.volume) / scale)
    _report("criterion 9 (delta functional two-route, 5 Gaussians)",
            worst < 1e-5, f"worst rel {worst:.2e} (<1e-5), {time.time()-t0:.0f}s")


def test_criterion_10_infrastructure(tmp_path, monkeypatch):
    from splitcone import quadrature
    from splitcone.cli import main

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    rc1 = main(["corollary", "--seed", "7", "--format", "json", "--out",
                str(a), "--no-wall-time"])
    rc2 = main(["corollary", "--seed", "7", "--format", "json", "--out",
                str(b), "--no-wall-time"])
    identical = a.read_bytes() == b.read_bytes()
    scratch = str(tmp_path / "scratch.json")
    forced_fail = main(["corollary", "--tol", "1e-30", "--format", "json",
                        "--out", scratch]) == 1
    usage = main(["corollary", "--rho", "x"]) == 2
    monkeypatch.setattr(quadrature, "_ERROR_BUDGET", -1.0)
    numeric = main(["fourier", "--format", "json", "--out", scratch]) == 3
    ok = rc1 == 0 and rc2 == 0 and identical and forced_fail and usage and numeric
    _report("criterion 10 (byte-identical reports, exit-code contract)", ok,
            f"identical={identical}, exit codes 0/1/2/3 honored")

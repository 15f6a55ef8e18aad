"""The benchmark's span tracer (perfbench/tracer.py) still fits the package.

The tracer is loaded from its file and installed as the benchmark's traced
run installs it; nothing under perfbench/ is imported as a package or
edited.
"""

import importlib.util
from pathlib import Path

from splitcone import cli, report
from splitcone.suites import SuiteConfig

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(suite):
    rep = cli.run(SuiteConfig(suite=suite, seed=7))
    return report.emit_report(rep, "json", include_wall_time=False)


def test_traced_fourier_run_matches_untraced():
    plain = _report("fourier")
    # install() raises if a name in its REBOUND list, such as
    # kernels.hyperbolic_oscillatory or oracles.hyperbolic_oscillatory,
    # is no longer there to wrap
    tracer = _load_tracer().Tracer().install()
    try:
        traced = _report("fourier")
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["quadrature.h_per_ft"][0] == 1.0
    # the suite's transforms are one batch: one H call
    assert metrics["quadrature.hyperbolic_oscillatory.calls"][0] == 1
    assert traced == plain


def test_traced_mellin_ratio_run_matches_untraced():
    plain = _report("mellin_ratio")
    tracer = _load_tracer().Tracer().install()
    try:
        traced = _report("mellin_ratio")
    finally:
        tracer.uninstall()
    # both parities' ray tables share one set of radial rows, which are in
    # closed form for the table's sqrt-exponential profile: no Bessel
    # function is evaluated, and the 326 special-function points are the
    # suite's scalar gamma_complex calls (46,908 with the rows by
    # quadrature on a step-4 u grid and one x = c u grid; 518,844 on a u
    # grid per c, 1,037,364 with rows per parity)
    assert tracer.layer_metrics()["special.points"][0] <= 326
    assert traced == plain

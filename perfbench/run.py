"""Benchmark of the `verify` pipeline, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The parent process starts a few fresh
processes that each time an import of ``splitcone.cli`` (set-up), then
one child process that builds every check of the workload through
``cli.run`` and ``report.emit_report`` with ``workers=1``, pass after
pass, until ``--seconds`` have elapsed (at least one pass).  With
``--trace 1`` the child adds one pass under :mod:`tracer` and reports
per-layer numbers instead.  The last line printed is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Times are reported at a fixed reference speed.  The host's speed drifts
by up to 2x over tens of seconds, so each process also times a fixed
calibration loop (numpy and plain Python, nothing from the package)
between its measurements, and a time t is reported as
``t * CAL_REF_S / calibration time``.  The raw times go to stderr.

The output gate (``correct``) requires, for every suite run: the check
IDs recorded in ``check_ids.json`` (exactly at the base seed, up to the
seed-chosen branch of the corollary checks at any other seed), report
bytes identical across the passes of the run and between the traced and
untraced passes, and no suite raising.  A check whose verdict is "fail"
is an output, not a benchmark failure: it lowers ``pass_ratio``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# `verify`'s default seed; at this seed the workloads together run the
# checks of `verify all`.
BASE_SEED = 2024
# Seeds of a pass are this far apart: the suites seed their generators
# with seed, seed + 1, seed + 2 and seed + 3, so close seeds share draws.
SWEEP_STRIDE = 1000
SETUP_SAMPLES = 15
# Seconds the calibration loop takes on the reference machine (README.md)
# when the host runs at full speed; reported times are at that speed.
CAL_REF_S = 0.04
CAL_ITERATIONS = 6000

# A workload step that is not a `verify` suite: the kalgebra rewrite
# rules against their ambient closed forms, through the public API.
PROBE = "kalgebra_probe"
PROBE_IDS = ["probe.kalgebra.orbit_dim_023", "probe.kalgebra.p_rewrites"]

# name -> (steps, seeds per pass).  Why each exists: README.md.
WORKLOADS = {
    # A seed's cost depends on its random frequencies; four seeds a
    # pass average that out.
    "fourier_path": (("fourier", "corollary", "lemma"), 4),
    "mellin_rays": (("mellin_ratio",), 1),
    "bessel_kalgebra": (("bessel", PROBE), 1),
    # Run by hand only: one pass takes 25-60 s, so a run of
    # BENCHMARK.json's run_seconds holds a single pass.
    "cone_operators": (("operators", "mellin_ratio"), 1),
    "basis_algebra": (("ktypes", "bessel"), 1),
    "delta_volume": (("kernels",), 1),
}

# The sign of a random inner product picks which of these two checks a
# corollary pair gets, so only their shared form is seed-independent.
ID_ALIASES = (("corollary.antisym_vanishes.", "corollary.antisym."),
              ("corollary.antisym_j0.", "corollary.antisym."))

CHILD_ENV = {
    # One process, one thread: the machine has few cores and the
    # benchmark is single-threaded by design.
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def calibrate():
    """(wall, cpu) seconds of a fixed loop that uses nothing from the package."""
    import numpy as np

    x = np.linspace(0.1, 5.0, 64)
    t0, c0 = time.perf_counter(), time.process_time()
    s = 0.0
    for i in range(CAL_ITERATIONS):
        s += float(np.sum(np.sin(x * i) * np.exp(-x)))
        s += sum(j * 0.5 for j in range(20))
    return time.perf_counter() - t0, time.process_time() - c0


def load(workload, seed):
    """Import the package from this checkout and build the pass's steps.

    Returns (report module, steps, seconds taken): the set-up a user
    pays.  A step is (suite, seed, callable returning a report).
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import splitcone
    from splitcone import cli, report
    from splitcone.suites import SuiteConfig

    names, n_seeds = WORKLOADS[workload]
    steps = [(s, k, functools.partial(kalgebra_probe, k) if s == PROBE
              else functools.partial(cli.run, SuiteConfig(suite=s, seed=k, workers=1)))
             for k in range(seed, seed + SWEEP_STRIDE * n_seeds, SWEEP_STRIDE)
             for s in names]
    elapsed = time.perf_counter() - t0
    if not Path(splitcone.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"splitcone imported from {splitcone.__file__}, not {SRC}")
    return report, steps, elapsed


def kalgebra_probe(seed):
    """Report of two kalgebra checks, in the form of suite ``ktypes``.

    P_j on 31 fixed K-basis functions at 20 cone points drawn from
    `seed`: the exact rewrite (``apply_P``, then evaluate) against the
    ambient closed form (``AmbientBasis.p_j``), with the tolerance of
    ``ktypes.p_rewrites``; and the orbit dimension of (0, 2, 3), 286.
    """
    import numpy as np
    from splitcone import kalgebra, report

    rng = np.random.default_rng(seed)
    r = rng.uniform(0.2, 3.0, 20)
    t1, t2 = rng.uniform(0.0, 2 * math.pi, (2, 20))
    pts = np.stack([r * np.cos(t1), r * np.sin(t1), r * np.cos(t2), r * np.sin(t2)], axis=-1)
    elems = [kalgebra.KBasisElement.from_powers(n, l, k, s1, s2)
             for l in range(5) for k in range(5) for n in range(-2, min(l, k) + 1)
             for s1 in ((1,) if l == 0 else (1, -1)) for s2 in ((1,) if k == 0 else (1, -1))]
    worst = 0.0
    for key in elems[::12]:
        v = kalgebra.KVector({key: kalgebra.ONE_G})
        floor = 1e-8 * float(np.abs(v.evaluate(r, t1, t2)).max())
        for j in (1, 2, 3, 4):
            x = kalgebra.AmbientBasis(key, "r2" if j <= 2 else "r1").p_j(j, pts)
            y = kalgebra.apply_P(j, v).evaluate(r, t1, t2)
            scale = max(float(np.maximum(np.abs(x), np.abs(y)).max()), floor)
            worst = max(worst, float(np.abs(x - y).max()) / scale)
    dim = kalgebra.orbit_closure(kalgebra.KBasisElement(0, 2, 3))[1]
    checks = [
        report.make_check(PROBE_IDS[0], "S4.prop-kfinite", {}, float(dim), 286.0, 0.0),
        report.make_check(PROBE_IDS[1], "S4.P1-display", {"elements": 31, "points": 20},
                          worst, 0.0, 1e-7),
    ]
    return report.VerificationReport(suite=PROBE, config_echo={"seed": seed}, checks=checks)


def normalized(ids):
    out = []
    for cid in ids:
        for old, new in ID_ALIASES:
            if cid.startswith(old):
                cid = new + cid[len(old):]
        out.append(cid)
    return sorted(out)


def margin(c):
    """Error over tolerance; a zero tolerance gives 0 or inf."""
    err = c.abs_error if c.kind == "abs" else c.rel_error
    if c.tolerance > 0:
        return err / c.tolerance
    return 0.0 if err == 0 else float("inf")


def run_pass(report, steps, expected):
    """One timed pass over every check of the workload, then its gate."""
    results = []
    t0, c0 = time.perf_counter(), time.process_time()
    for suite, seed, step in steps:
        try:
            rep = step()
            payload = report.emit_report(rep, "json", include_wall_time=False)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            rep = payload = None
        results.append((suite, seed, rep, payload))
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0

    digests, problems = [], []
    attempted = verdict_fail = raised = 0
    worst = 0.0
    for suite, seed, rep, payload in results:
        want = expected[suite]
        if rep is None:
            problems.append(f"{suite}@{seed} raised")
            attempted += len(want)
            raised += len(want)
            digests.append(None)
            continue
        digests.append(hashlib.sha256(payload.encode()).hexdigest())
        ids = [c.check_id for c in rep.checks]
        if normalized(ids) != normalized(want) or (
                seed == BASE_SEED and sorted(ids) != sorted(want)):
            problems.append(f"{suite}@{seed}: check IDs differ from check_ids.json")
        attempted += len(ids)
        verdict_fail += sum(not c.passed for c in rep.checks)
        worst = max([worst] + [margin(c) for c in rep.checks])
    return {
        "wall": wall,
        "cpu": cpu,
        "digests": digests,
        "problems": problems,
        "attempted": attempted,
        "failed_checks": verdict_fail + raised,
        "raised": raised,
        "max_margin": worst,
    }


def child(args):
    report, steps, _ = load(args.workload, args.seed)
    expected = json.loads((HERE / "check_ids.json").read_text())
    expected[PROBE] = PROBE_IDS
    passes, cal = [], [calibrate()]
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(report, steps, expected))
        cal.append(calibrate())
    traced = None
    if args.trace:
        sys.path.insert(0, str(HERE))
        from tracer import Tracer

        tracer = Tracer().install()
        try:
            traced = run_pass(report, steps, expected)
        finally:
            tracer.uninstall()
        tracer.dump(HERE / "out" / f"spans-{args.workload}-{args.seed}.json",
                    workload=args.workload, seed=args.seed)

    first = passes[0]
    problems = [p for ps in passes for p in ps["problems"]]
    if any(ps["digests"] != first["digests"] for ps in passes):
        problems.append("report bytes differ between passes")
    if traced is not None:
        problems += traced["problems"]
        if traced["digests"] != first["digests"]:
            problems.append("tracing changed the report bytes")
    for p in problems:
        print(f"gate: {p}", file=sys.stderr)

    # Each pass is rescaled by the calibrations just before and after it.
    def rescaled(key, i):
        return statistics.median(ps[key] * 2 * CAL_REF_S / (c0[i] + c1[i])
                                 for ps, c0, c1 in zip(passes, cal, cal[1:]))

    result = {
        "correct": not problems,
        "attempted": sum(ps["attempted"] for ps in passes),
        "failed": sum(ps["raised"] for ps in passes),
        "passes": len(passes),
        "raw": {"pass_s": statistics.median(ps["wall"] for ps in passes),
                "cal_s": statistics.median(c[0] for c in cal)},
        "verdict_s": rescaled("wall", 0),
        "cpu_s": rescaled("cpu", 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": 1.0 - first["failed_checks"] / first["attempted"],
    }
    if traced is not None:
        layer = tracer.layer_metrics()
        layer["trace.overhead_s"] = (traced["wall"] - result["raw"]["pass_s"], "s")
        layer["failed_check_ratio"] = (first["failed_checks"] / first["attempted"], "ratio")
        m = first["max_margin"]
        layer["max_margin"] = (m if m != float("inf") else sys.float_info.max, "ratio")
        result["per_layer"] = layer
    print(json.dumps(result))


def time_setup(args):
    *_, elapsed = load(args.workload, args.seed)
    cal = min(calibrate()[0] for _ in range(3))
    print(json.dumps({"setup_s": elapsed, "cal_s": cal}))


def spawn(role, args):
    """Run this file in a fresh process as `role`; return its JSON line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, **CHILD_ENV)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--role", default="main", choices=("main", "child", "setup"),
                   help=argparse.SUPPRESS)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.role == "child":
        return child(args)
    if args.role == "setup":
        return time_setup(args)

    if not (SRC / "splitcone" / "__init__.py").is_file():
        print(f"error: no splitcone package under {SRC}", file=sys.stderr)
        return 2
    setup = [spawn("setup", args) for _ in range(SETUP_SAMPLES)]
    res = spawn("child", args)
    if args.trace:
        metrics = res["per_layer"]
    else:
        metrics = {
            "verdict_s": (res["verdict_s"], "s"),
            "cpu_s": (res["cpu_s"], "s"),
            "setup_s": (statistics.median(
                s["setup_s"] * CAL_REF_S / s["cal_s"] for s in setup), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
            "pass_ratio": (res["pass_ratio"], "ratio"),
        }
    raw_setup = statistics.median(s["setup_s"] for s in setup)
    print(f"workload {args.workload} seed {args.seed}: {res['passes']} pass(es); raw "
          f"{json.dumps(dict(res['raw'], setup_s=raw_setup))}", file=sys.stderr)
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line driver: run named verification suites and emit reports.

Exit codes: 0 all checks passed, 1 verification failure, 2 usage or
configuration error, 3 internal numerical non-convergence.
"""

from __future__ import annotations

import argparse
import sys
import time

from .quadrature import QuadratureError
from .report import VerificationReport, emit_report
from .suites import SUITE_NAMES, SuiteConfig, build_suite

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _parse_float_list(text):
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a float list: {text!r}")


def build_parser():
    p = argparse.ArgumentParser(
        prog="verify",
        description="Run numerical verification suites for the light-cone "
        "kernel toolkit.",
    )
    p.add_argument("suite", choices=SUITE_NAMES + ("all",),
                   help="which suite to run")
    p.add_argument("--rho", type=_parse_float_list,
                   default=SuiteConfig.rho_list, metavar="LIST",
                   help="comma-separated spectral parameters")
    p.add_argument("--R", type=_parse_float_list, default=SuiteConfig.R_list,
                   metavar="LIST", help="comma-separated radii")
    p.add_argument("--eps-parity", choices=("0", "1", "both"),
                   default=SuiteConfig.eps_parity)
    p.add_argument("--tol", type=float, default=SuiteConfig.tol_scale,
                   help="scale every tolerance by TOL (e.g. 1e-6 forces fails)")
    p.add_argument("--seed", type=int, default=SuiteConfig.seed)
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--workers", type=int, default=SuiteConfig.workers)
    p.add_argument("--no-wall-time", action="store_true",
                   help="write wall_ms as 0 for byte-stable reports")
    return p


def run(cfg: SuiteConfig) -> VerificationReport:
    t0 = time.perf_counter()
    checks = build_suite(cfg)
    wall = (time.perf_counter() - t0) * 1e3
    # vars, not dataclasses.asdict: its deep copy takes 25 us, 3% of a
    # 0.8 ms `lemma` run
    echo = {**vars(cfg), "rho_list": list(cfg.rho_list),
            "R_list": list(cfg.R_list)}
    return VerificationReport(suite=cfg.suite, config_echo=echo, checks=checks,
                              wall_ms=wall)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        cfg = SuiteConfig(suite=args.suite, rho_list=args.rho, R_list=args.R,
                          eps_parity=args.eps_parity, tol_scale=args.tol,
                          seed=args.seed, workers=args.workers)
    except (TypeError, ValueError) as exc:
        print(f"error: bad configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        rep = run(cfg)
    except QuadratureError as exc:
        print(f"error: numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        payload = emit_report(rep, args.format, args.out,
                              include_wall_time=not args.no_wall_time)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.out is None:
        sys.stdout.write(payload)
    return EXIT_OK if rep.all_passed else EXIT_VERIFICATION_FAILURE


if __name__ == "__main__":
    sys.exit(main())

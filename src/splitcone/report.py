"""Structured verification reports and their serializations.

A check's record is declared once, in `_CHECK_LAYOUT`: `report_payload`,
the CSV columns and the JSON check template all follow it.  `to_json`
fills that template from the `CheckResult` attributes, writing each field
down the column of all checks; its cold path, json.dumps, writes the
report's head and tail and any value that is not a flat scalar.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import islice
from json.encoder import encode_basestring_ascii
from operator import attrgetter

SCHEMA_VERSION = 1


@dataclass(slots=True)
class CheckResult:
    check_id: str
    paper_anchor: str
    parameters: dict
    computed: complex
    reference: complex
    tolerance: float
    abs_error: float = field(default=None)
    rel_error: float = field(default=None)
    passed: bool = field(default=None)
    kind: str = "abs"  # which error the tolerance bounds: "abs" | "rel"
    # the error estimate of the routine that computed the value, if it has
    # one; not part of the v1 report layout
    estimate: float = None

    def __post_init__(self):
        computed, reference = complex(self.computed), complex(self.reference)
        try:
            a = abs(computed - reference)
            scale = max(abs(computed), abs(reference))
            if a == math.inf and scale < math.inf:
                raise OverflowError  # finite values whose difference overflows
            r = a / scale if scale else 0.0  # a NaN value gives a NaN ratio
        except OverflowError:
            # |d| or a modulus past the float range: the error is 4 |d/4|
            # (inf if |d| is) from the quartered values, as halved ones can
            # overflow at the largest floats; its ratio to the scale finite
            computed, reference = 0.25 * computed, 0.25 * reference
            a = abs(computed - reference)
            r = a / max(abs(computed), abs(reference))
            a *= 4.0
        self.abs_error = a
        self.rel_error = r
        err = a if self.kind == "abs" else r
        # bool: against a numpy tolerance the comparison gives a numpy bool,
        # which json does not write
        self.passed = bool(err <= self.tolerance)


def make_check(check_id, anchor, params, computed, reference, tol, kind="abs",
               estimate=None):
    return CheckResult(check_id, anchor, dict(params), complex(computed),
                       complex(reference), float(tol), kind=kind,
                       estimate=None if estimate is None else float(estimate))


@dataclass
class VerificationReport:
    suite: str
    config_echo: dict
    checks: list
    wall_ms: float = 0.0
    generator: str = "splitmix64"

    @property
    def summary(self):
        passed = sum(1 for c in self.checks if c.passed)
        return {
            "passed": passed,
            "failed": len(self.checks) - passed,
            "skipped": 0,
        }

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)


def _num(x):
    """JSON-encode a real or complex number with full precision."""
    if isinstance(x, complex):
        if x.imag == 0.0:
            return x.real
        return [x.real, x.imag]
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    return x


def _params(p):
    return {k: _num(v) for k, v in sorted(p.items())}


# A check's record, in order: (key, CheckResult attribute, conversion of
# the attribute into its payload value, None for the value as it is).
_CHECK_LAYOUT = (
    ("check_id", "check_id", None),
    ("paper_anchor", "paper_anchor", None),
    ("parameters", "parameters", _params),
    ("computed", "computed", _num),
    ("reference", "reference", _num),
    ("abs_error", "abs_error", None),
    ("rel_error", "rel_error", None),
    ("tolerance", "tolerance", None),
    ("tolerance_kind", "kind", None),
    ("pass", "passed", None),
)
_check_fields = attrgetter(*[attr for _, attr, _ in _CHECK_LAYOUT])
_CHECK_TEMPLATE = "    {\n" + ",\n".join(
    f"      {encode_basestring_ascii(key)}: %s" for key, _, _ in _CHECK_LAYOUT) + "\n    }"
_CSV_FIELDS = [key for key, _, _ in _CHECK_LAYOUT]


def _check_payload(c: CheckResult):
    return {key: value if convert is None else convert(value)
            for (key, _, convert), value in zip(_CHECK_LAYOUT, _check_fields(c))}


def _report_fields(rep, include_wall_time):
    """The report's payload with its checks still `CheckResult`s."""
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": rep.suite,
        "config_echo": _params(rep.config_echo),
        "generator": rep.generator,
        "checks": sorted(rep.checks, key=lambda c: c.check_id),
        "summary": rep.summary,
        "wall_ms": rep.wall_ms if include_wall_time else 0.0,
    }


def report_payload(rep: VerificationReport, include_wall_time=True):
    payload = _report_fields(rep, include_wall_time)
    payload["checks"] = [_check_payload(c) for c in payload["checks"]]
    return payload


def _json(o, pad):
    """`o` as json.dumps(o, indent=2) writes it at the indentation `pad`;
    json escapes the newlines in strings, so all of its own are structural."""
    if isinstance(o, float) and math.isfinite(o):
        return float.__repr__(o)
    if o is True or o is False:
        return "true" if o else "false"
    if type(o) is int:
        return int.__repr__(o)
    return json.dumps(o, indent=2).replace("\n", "\n" + pad)


def _column_json(col, convert, pad):
    """`_json(convert(v), pad)` for each v of `col` (of v if convert is
    None).  A column of strings, of finite floats, through `_num` of finite
    complex numbers, or through `_params` of string-keyed parameters (as
    the column of all their values) is written in one pass."""
    if convert is _params:
        rows = [sorted(p.items()) for p in col]
        with suppress(TypeError):  # a key that is not a string
            keys = list(map(encode_basestring_ascii, [k for row in rows for k, _ in row]))
            inner, close = pad + "  ", f"\n{pad}}}"
            values = _column_json([v for row in rows for _, v in row], _num, inner)
            lines = iter([f"{inner}{k}: {v}" for k, v in zip(keys, values)])
            return ["{\n" + ",\n".join(islice(lines, len(row))) + close if row else "{}"
                    for row in rows]
    elif convert is None:
        with suppress(TypeError):
            return list(map(encode_basestring_ascii, col))
    with suppress(TypeError, AttributeError, OverflowError):  # not all numbers
        if all(map(cmath.isfinite, col)):
            if convert is None:
                return list(map(float.__repr__, col))
            return [float.__repr__(x.real) if x.imag == 0.0 else
                    f"[\n{pad}  {float.__repr__(x.real)},\n"
                    f"{pad}  {float.__repr__(x.imag)}\n{pad}]" for x in col]
    return [_json(v if convert is None else convert(v), pad) for v in col]


def to_json(rep: VerificationReport, include_wall_time=True) -> str:
    """`json.dumps(report_payload(rep), indent=2)` plus a newline, byte for
    byte: `indent` would select json's pure-Python encoder."""
    fields = _report_fields(rep, include_wall_time)
    columns = zip(*map(_check_fields, fields["checks"]))
    cells = [_column_json(col, convert, "      ")
             for (_, _, convert), col in zip(_CHECK_LAYOUT, columns)]
    checks = ",\n".join(map(_CHECK_TEMPLATE.__mod__, zip(*cells)))
    fields["checks"] = f"[\n{checks}\n  ]" if checks else "[]"
    return "{\n" + ",\n".join(f"  {encode_basestring_ascii(key)}: "
                              + (value if key == "checks" else _json(value, "  "))
                              for key, value in fields.items()) + "\n}\n"


def to_csv(rep: VerificationReport) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for c in sorted(rep.checks, key=lambda c: c.check_id):
        row = _check_payload(c)
        for key, _, convert in _CHECK_LAYOUT:
            if convert is not None:
                row[key] = json.dumps(row[key], sort_keys=True)
        writer.writerow(row)
    return buf.getvalue()


def to_text(rep: VerificationReport) -> str:
    lines = [f"suite: {rep.suite}"]
    for c in sorted(rep.checks, key=lambda c: c.check_id):
        status = "PASS" if c.passed else "FAIL"
        err = c.abs_error if c.kind == "abs" else c.rel_error
        lines.append(
            f"  [{status}] {c.check_id:45s} {c.kind} err {err:10.3e}"
            f"  tol {c.tolerance:8.1e}  ({c.paper_anchor})"
        )
    s = rep.summary
    lines.append(f"summary: {s['passed']} passed, {s['failed']} failed")
    return "\n".join(lines) + "\n"


def emit_report(rep: VerificationReport, fmt, path=None, include_wall_time=True):
    """Serialize and write (or return) the report in the requested format."""
    if fmt == "json":
        payload = to_json(rep, include_wall_time)
    elif fmt == "csv":
        payload = to_csv(rep)
    elif fmt == "text":
        payload = to_text(rep)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path is not None:
        try:
            with open(path, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            raise OSError(f"cannot write report to {path}: {exc}") from exc
    return payload

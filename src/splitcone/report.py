"""Structured verification reports and their serializations."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

SCHEMA_VERSION = 1


@dataclass(frozen=True)
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

    def __post_init__(self):
        a = abs(complex(self.computed) - complex(self.reference))
        scale = max(abs(complex(self.computed)), abs(complex(self.reference)))
        r = a / scale if scale > 0 else 0.0
        object.__setattr__(self, "abs_error", float(a))
        object.__setattr__(self, "rel_error", float(r))
        err = a if self.kind == "abs" else r
        object.__setattr__(self, "passed", bool(err <= self.tolerance))


def make_check(check_id, anchor, params, computed, reference, tol, kind="abs"):
    return CheckResult(
        check_id=check_id,
        paper_anchor=anchor,
        parameters=dict(params),
        computed=complex(computed),
        reference=complex(reference),
        tolerance=float(tol),
        kind=kind,
    )


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


def _check_payload(c: CheckResult):
    return {
        "check_id": c.check_id,
        "paper_anchor": c.paper_anchor,
        "parameters": {k: _num(v) for k, v in sorted(c.parameters.items())},
        "computed": _num(c.computed),
        "reference": _num(c.reference),
        "abs_error": c.abs_error,
        "rel_error": c.rel_error,
        "tolerance": c.tolerance,
        "tolerance_kind": c.kind,
        "pass": c.passed,
    }


def report_payload(rep: VerificationReport, include_wall_time=True):
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": rep.suite,
        "config_echo": {k: _num(v) for k, v in sorted(rep.config_echo.items())},
        "generator": rep.generator,
        "checks": [_check_payload(c) for c in sorted(rep.checks, key=lambda c: c.check_id)],
        "summary": rep.summary,
        "wall_ms": rep.wall_ms if include_wall_time else 0.0,
    }


def _encode(o, pad):
    """`o` as json.dumps(..., indent=2) writes it at the indentation `pad`."""
    if isinstance(o, float):
        if math.isfinite(o):
            return float.__repr__(o)
        return "NaN" if o != o else "Infinity" if o > 0 else "-Infinity"
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    inner = pad + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        body = ",\n".join([inner + _encode(v, inner) for v in o])
        return f"[\n{body}\n{pad}]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        body = ",\n".join([f"{inner}{encode_basestring_ascii(_key(k))}: "
                           f"{_encode(v, inner)}" for k, v in o.items()])
        return f"{{\n{body}\n{pad}}}"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _key(k):
    """A dict key as the string json.dumps makes of it."""
    if isinstance(k, str):
        return k
    if isinstance(k, (int, float)) or k is None:
        return _encode(k, "")
    raise TypeError(f"keys must be str, int, float, bool or None, not "
                    f"{type(k).__name__}")


def to_json(rep: VerificationReport, include_wall_time=True) -> str:
    """`json.dumps(report_payload(rep), indent=2)` plus a newline, byte for
    byte, written by `_encode`: `indent` would select json's pure-Python
    encoder."""
    return _encode(report_payload(rep, include_wall_time), "") + "\n"


_CSV_FIELDS = [
    "check_id",
    "paper_anchor",
    "parameters",
    "computed",
    "reference",
    "abs_error",
    "rel_error",
    "tolerance",
    "tolerance_kind",
    "pass",
]


def to_csv(rep: VerificationReport) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for c in sorted(rep.checks, key=lambda c: c.check_id):
        row = _check_payload(c)
        row["parameters"] = json.dumps(row["parameters"], sort_keys=True)
        row["computed"] = json.dumps(row["computed"])
        row["reference"] = json.dumps(row["reference"])
        writer.writerow({k: row[k] for k in _CSV_FIELDS})
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

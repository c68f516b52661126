"""Verification report plumbing shared by the CLI suites.

A check is pass, fail, or flagged; flagged marks internal inconsistencies
of the reference data itself and does not fail a run.  Reports always show
expected against actual, even on pass, since auditable comparison is the
whole point of the artifact.
"""

from __future__ import annotations

import json
import math

PASS, FAIL, FLAGGED = "pass", "fail", "flagged"


def shown(value) -> str:
    """repr(value) cut after 60 characters with "...": an error line stays short."""
    text = repr(value)
    return text if len(text) <= 60 else text[:60] + "..."


def fmt_float(x: float, full_precision: bool = False) -> float:
    """Round to 6 significant digits unless full precision is requested."""
    if full_precision:
        return x
    return float(f"{x:.6g}")


class Check:
    __slots__ = ("name", "status", "expected", "actual", "tolerance", "detail", "unit", "kind")

    def __init__(self, name: str, status: str, expected=None, actual=None, tolerance=None,
                 detail: str = "", unit: str = "", kind: str = "rel"):
        self.name, self.status, self.expected, self.actual = name, status, expected, actual
        self.tolerance, self.detail, self.unit, self.kind = tolerance, detail, unit, kind

    @property
    def deviation(self) -> float | None:
        """|actual - expected|, relative to |expected| when kind is "rel"."""
        if self.expected is None:
            return None
        dev = abs(self.actual - self.expected)
        return dev / abs(self.expected) if self.kind == "rel" else dev


class Suite:
    def __init__(self, name: str):
        self.name, self.checks = name, []

    def check(self, name: str, ok: bool, expected=None, actual=None,
              tolerance=None, detail: str = "") -> Check:
        c = Check(name, PASS if ok else FAIL, expected, actual, tolerance, detail)
        self.checks.append(c)
        return c

    def measure(self, name: str, value: float, unit: str = "", reference=None,
                tolerance=None, kind: str = "rel", note: str = "") -> Check:
        """A measured value against a reference: past tolerance it fails, or is
        flagged when a note names a contradiction in the reference data.  A
        non-finite value raises FloatingPointError: it would pass any tolerance."""
        if not math.isfinite(value):
            raise FloatingPointError(f"{name} = {value}")
        c = Check(name, PASS, reference, value, tolerance, note, unit, kind)
        if tolerance is not None and c.deviation is not None and c.deviation > tolerance:
            c.status = FLAGGED if note else FAIL
        self.checks.append(c)
        return c

    def flag(self, name: str, detail: str, expected=None, actual=None) -> Check:
        c = Check(name, FLAGGED, expected, actual, None, detail)
        self.checks.append(c)
        return c

    @property
    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, FLAGGED: 0}
        for c in self.checks:
            out[c.status] += 1
        return out


class VerificationReport:
    def __init__(self):
        self.suites = []

    def suite(self, name: str) -> Suite:
        s = Suite(name)
        self.suites.append(s)
        return s

    @property
    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, FLAGGED: 0}
        for s in self.suites:
            for k, v in s.counts.items():
                out[k] += v
        return out

    @property
    def exit_code(self) -> int:
        return 1 if self.counts[FAIL] else 0

    def to_dict(self) -> dict:
        """Plain data for dump_json, which rounds every float."""
        return {
            "suites": [
                {
                    "name": s.name,
                    "checks": [
                        {
                            "name": c.name,
                            "status": c.status,
                            "expected": c.expected,
                            "actual": c.actual,
                            "tolerance": c.tolerance,
                            "detail": c.detail,
                        }
                        for c in s.checks
                    ],
                    "counts": s.counts,
                }
                for s in self.suites
            ],
            "counts": self.counts,
        }

    def to_text(self, full_precision: bool = False) -> str:
        lines = []
        for s in self.suites:
            lines.append(f"== {s.name} ==")
            for c in s.checks:
                parts = [f"[{c.status.upper():7s}] {c.name}"]
                if c.expected is not None:
                    ev = fmt_float(c.expected, full_precision) if isinstance(c.expected, float) else c.expected
                    parts.append(f"expected={ev}")
                if c.actual is not None:
                    av = fmt_float(c.actual, full_precision) if isinstance(c.actual, float) else c.actual
                    parts.append(f"actual={av}")
                if c.tolerance is not None:
                    parts.append(f"tol={c.tolerance}")
                if c.detail:
                    parts.append(f"({c.detail})")
                lines.append("  " + "  ".join(str(p) for p in parts))
            counts = s.counts
            lines.append(
                f"  -- {counts[PASS]} pass, {counts[FAIL]} fail, {counts[FLAGGED]} flagged"
            )
        counts = self.counts
        lines.append(
            f"TOTAL: {counts[PASS]} pass, {counts[FAIL]} fail, {counts[FLAGGED]} flagged"
        )
        return "\n".join(lines)


def dump_json(obj: dict, full_precision: bool = False) -> str:
    """Deterministic JSON: sorted keys, fixed float formatting."""

    def walk(v):
        if isinstance(v, float):
            return fmt_float(v, full_precision)
        if isinstance(v, dict):
            return {k: walk(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [walk(x) for x in v]
        return v

    return json.dumps(walk(obj), sort_keys=True, indent=2)

"""Deterministic pass/fail reports, the one JSON encoder and its reader.

Reports, certificates and CLI payloads hold exact values (Fractions,
int keys, tuples) until `dumps` or `dump` writes them: rationals as
"p" or "p/q" strings (`read_rational` reads them back), keys as
strings in sorted order, compact separators, no timestamps and no
floats, so the output is byte-identical for a fixed seed and config.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction


def frac_to_str(q) -> str:
    """A Fraction or an int as "p" or "p/q"."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def read_rational(v) -> tuple:
    """(numerator, denominator > 0) of an int (not a bool), a Fraction or an
    ASCII "p" or "p/q", as written; anything else raises one ValueError."""
    if type(v) is int or type(v) is Fraction:
        return v.as_integer_ratio()
    if type(v) is str and v.isascii():
        p, slash, q = v.partition("/")
        if _is_p(p) and (not slash or q.isdigit() and len(q) <= 4300 and q.strip("0")):
            return int(p), int(q or 1)
    raise ValueError(f'not a rational: {v!r:.40} (an int, or "p" or "p/q" in ASCII digits,'
                     ' p maybe after "-", q nonzero, at most 4300 digits each)')


def read_label(v) -> int:
    """A label (a coordinate, a node or a row position) of an int (not a
    bool) or an ASCII "p"; anything else raises one ValueError."""
    if type(v) is int or type(v) is str and v.isascii() and _is_p(v):
        return int(v)
    raise ValueError(f'not a label: {v!r:.40} (an int, or "p" in ASCII digits,'
                     ' maybe after "-", at most 4300 digits)')


def read_labels(v) -> list:
    """The labels of a list (or a program's tuple); a string or any other value: ValueError."""
    if type(v) is list or type(v) is tuple:
        return [x if type(x) is int else read_label(x) for x in v]
    raise ValueError(f"not a list of labels: {v!r:.40}")


def _is_p(s: str) -> bool:
    """An ASCII s is a "p": digits, maybe after "-", at most 4300 of them
    (CPython's default limit on the digits int(str) reads)."""
    digits = s[1:] if s[:1] == "-" else s
    return digits.isdigit() and len(digits) <= 4300


def _jsonable(v):
    """The JSON-ready form of v, each dict in its own key order (`dumps`
    sorts the keys).  A dict met again (one system shared by
    many certificates) is encoded once per call: `seen` maps the id of
    each dict encoded so far to its encoding, and every input dict lives
    until the call returns, so no id is reused."""
    seen = {}

    def enc(v):
        # exact types first: isinstance(v, Fraction) goes through the
        # numbers ABC's __instancecheck__, slow on a large report, so the
        # isinstance chain below serves only subclasses; int list entries
        # (node labels, edges) are kept without a call
        t = type(v)
        if t is int or t is str or t is bool or v is None:
            return v
        if t is Fraction:
            return frac_to_str(v)
        if t is list or t is tuple:
            return [x if type(x) is int else enc(x) for x in v]
        if isinstance(v, dict):
            out = seen.get(id(v))
            if out is None:
                out = seen[id(v)] = {str(k): enc(x) for k, x in v.items()}
            return out
        if isinstance(v, Fraction):
            return frac_to_str(v)
        if isinstance(v, int):
            return v
        if isinstance(v, (list, tuple)):
            return [enc(x) for x in v]
        return str(v)

    return enc(v)


def dumps(v) -> str:
    """The JSON text of v."""
    return json.dumps(_jsonable(v), sort_keys=True, separators=(",", ":"))


def dump(v, fh):
    """Write the JSON text of v and a newline to fh, encoded whole by
    `dumps` (json.dump would stream it through the slower pure-Python
    encoder)."""
    fh.write(dumps(v) + "\n")


@dataclass
class ReportEntry:
    name: str
    status: str                  # "pass" | "fail" | "assumed" | "info"
    expected: object = None
    computed: object = None
    detail: str = ""
    certificate: dict | None = None

    def to_json(self) -> dict:
        d = {"name": self.name, "status": self.status}
        if self.expected is not None:
            d["expected"] = self.expected
        if self.computed is not None:
            d["computed"] = self.computed
        if self.detail:
            d["detail"] = self.detail
        if self.certificate is not None:
            d["certificate"] = self.certificate
        return d


@dataclass
class Report:
    suite: str
    config: dict = field(default_factory=dict)
    entries: list = field(default_factory=list)

    def add(self, name, status, expected=None, computed=None, detail="",
            certificate=None) -> ReportEntry:
        e = ReportEntry(name, status, expected, computed, detail, certificate)
        self.entries.append(e)
        return e

    def check(self, name, expected, computed, detail="", certificate=None):
        status = "pass" if expected == computed else "fail"
        return self.add(name, status, expected, computed, detail, certificate)

    @property
    def failures(self) -> list:
        return [e for e in self.entries if e.status == "fail"]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "config": self.config,
            "passed": self.passed,
            "counts": {
                "pass": sum(1 for e in self.entries if e.status == "pass"),
                "fail": len(self.failures),
                "assumed": sum(1 for e in self.entries if e.status == "assumed"),
                "info": sum(1 for e in self.entries if e.status == "info"),
            },
            "entries": [e.to_json() for e in self.entries],
        }

    def to_json_str(self) -> str:
        return dumps(self.to_json())

    def to_table(self) -> str:
        """Human-readable table; rational values rendered exactly."""
        width = max([len(e.name) for e in self.entries] + [4])
        lines = [f"suite: {self.suite}"]
        if self.config:
            lines.append("config: " + ", ".join(f"{k}={v}" for k, v in sorted(self.config.items())))
        for e in self.entries:
            cols = [e.name.ljust(width), e.status.upper().ljust(7)]
            if e.expected is not None or e.computed is not None:
                cols.append(f"expected={_fmt(e.expected)} computed={_fmt(e.computed)}")
            if e.detail:
                cols.append(e.detail)
            lines.append("  ".join(cols).rstrip())
        ok = "PASS" if self.passed else "FAIL"
        lines.append(f"result: {ok} ({len(self.entries)} checks, {len(self.failures)} failures)")
        return "\n".join(lines)


def _fmt(v):
    if isinstance(v, Fraction):
        return frac_to_str(v)
    return str(v)

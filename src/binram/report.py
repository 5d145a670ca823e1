"""Structured results: violation records and report serialization.

Reports are deterministic: rows are emitted in (claim_id, n, b) order, exact
values are carried as 'num/den' strings (bit-exact) next to display-only
decimal renderings, and no timestamps enter the data section.
"""

from __future__ import annotations

import csv
import io
import json
import os
from typing import NamedTuple

from .backend import as_rat, decimal_str, rat_str

CSV_HEADER = ["claim_id", "b", "n", "status", "lhs", "rhs", "raw_lhs", "raw_rhs"]
SCAN_P_HEADER = ["claim_id", "b", "n", "sign", "boundary_ok"]
_MEMBER = ",\n      "  # between two members of a row: depth 3 of an indent=2 report
_ROWS = json.JSONEncoder(sort_keys=True, default=str, separators=(_MEMBER, ": "))


class ViolationReport(NamedTuple):
    """One failed (or otherwise notable) comparison at a single point.

    A named tuple: compared and hashed by its fields, and built back from a
    report's JSON by ``ViolationReport(**item)``.
    """

    claim_id: str
    b: int
    n: int
    lhs: str  # display decimal
    rhs: str
    raw_lhs: str  # exact num/den
    raw_rhs: str
    note: str = ""

    @classmethod
    def from_rationals(cls, claim_id, b, n, lhs, rhs, note="") -> "ViolationReport":
        lhs, rhs = as_rat(lhs), as_rat(rhs)
        return cls(claim_id, b, n, decimal_str(lhs), decimal_str(rhs), rat_str(lhs), rat_str(rhs),
                   note)

    def as_row(self) -> list:
        return ["violation", *self]


class Report:
    """A full run: metadata, result rows, violations and inconclusive count.

    Rows are flat: each is a list of values aligned with a non-empty
    ``header`` of names, and every value is a scalar -- a str, int, float,
    bool or None, or an object such as a ``Fraction`` that the JSON encoder
    renders with ``str``.  Every producer in the package emits str, int and
    bool only, and :meth:`read`, the one place rows come from outside,
    refuses anything else.

    On flat rows :meth:`to_json` is exactly
    ``json.dumps(doc, indent=2, sort_keys=True, default=str) + "\\n"`` for
    doc = {"inconclusive", "meta", "results", "violations"}.  The four keys
    are written in sorted order, and every value but ``results`` is
    json.dumps(value, indent=2) with two more spaces after each newline
    (every newline there is layout, see below).  The
    rows go through the C encoder in one pass, with ``_MEMBER`` -- the
    newline and indent that indent=2 puts between two members of a row -- as
    the item separator.  Proof that the result is the indent=2 text: the two
    encoders sort the keys and spell every scalar alike (one string escaper,
    ``int.__repr__``, ``float.__repr__``, the same ``default``).  A flat row
    holds no list or object, so ``_MEMBER`` stands only between its members
    and between rows, and a row encodes as ``{`` + members + ``}``: its
    indent=2 text without the newline and indent after ``{`` and before
    ``}``.  An encoded string escapes every newline, so ``}`` + ``_MEMBER``
    + ``{`` occurs only between two rows, and putting back the missing
    newlines and indents there and at the two brackets changes nothing else.
    A non-empty header keeps every row non-empty; ``{}`` would be written
    without those newlines.
    """

    __slots__ = ("meta", "header", "results", "violations", "inconclusive")

    def __init__(self, meta: dict, header: list, results: list | None = None,
                 inconclusive: int = 0):
        self.meta = meta
        self.header = header
        self.results = [] if results is None else results  # list of row lists
        self.violations = []  # list of ViolationReport
        self.inconclusive = inconclusive

    def exit_code(self) -> int:
        return 1 if self.violations else 2 if self.inconclusive else 0

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.header)
        writer.writerows(self.results)
        if self.violations:
            writer.writerow([])
            writer.writerow(["violation"] + CSV_HEADER + ["note"])
            writer.writerows(v.as_row() for v in self.violations)
        return buf.getvalue()

    def to_json(self) -> str:
        rows = _ROWS.encode([dict(zip(self.header, row)) for row in self.results])
        if self.results:
            rows = ("[\n    {\n      "
                    + rows[2:-2].replace("}" + _MEMBER + "{", "\n    },\n    {\n      ")
                    + "\n    }\n  ]")
        return (f'{{\n  "inconclusive": {_nested(self.inconclusive)},\n'
                f'  "meta": {_nested(self.meta)},\n'
                f'  "results": {rows},\n'
                f'  "violations": {_nested([v._asdict() for v in self.violations])}\n}}\n')

    def render(self, fmt: str) -> str:
        return self.to_csv() if fmt == "csv" else self.to_json()

    def write(self, path: str, fmt: str = "csv") -> None:
        """Atomic write: render fully, write to a sibling temp file, rename.
        If the write or the rename fails, the temp file is removed."""
        payload = self.render(fmt)
        tmp = f"{path}.tmp"
        fh = open(tmp, "w", encoding="utf-8", newline="")
        try:
            with fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    @classmethod
    def read(cls, path: str) -> "Report":
        """A report from the JSON that to_json writes; a document of any other
        shape, rows that are not flat (see :class:`Report`) among them, is a
        ValueError naming the path."""
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        try:
            meta = doc.get("meta", {})
            rows = doc.get("results", [])
            header = meta.get("header") or (list(rows[0].keys()) if rows else CSV_HEADER)
            if not (header and isinstance(header, list) and all(isinstance(k, str) for k in header)):
                raise ValueError(f"header {header!r} is not a non-empty list of names")
            report = cls(meta=meta, header=header)
            report.results = [[row.get(key, "") for key in header] for row in rows]
            for row in report.results:
                if any(isinstance(value, (list, dict)) for value in row):
                    raise ValueError(f"row {row!r} holds a list or an object")
            report.violations = [ViolationReport(**item) for item in doc.get("violations", [])]
            report.inconclusive = int(doc.get("inconclusive", 0))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: not a binram JSON report ({exc!r})") from None
        return report


def _nested(value) -> str:
    """json.dumps(value, indent=2) as it reads one level into a report."""
    return json.dumps(value, indent=2, sort_keys=True, default=str).replace("\n", "\n  ")


def _order(x) -> tuple:
    """Sort key of one field: integers by value, before anything else as text."""
    try:
        return (0, int(x), "")
    except (TypeError, ValueError):
        return (1, 0, str(x))


def _row_key(header: list):
    """(claim_id, n, b) where the header has them, then the whole row as text."""
    lead = [header.index(col) for col in ("claim_id", "n", "b") if col in header]
    return lambda row: tuple(_order(row[i]) for i in lead) + tuple(str(x) for x in row)


def merge_reports(reports: list) -> Report:
    """Deterministic merge: rows sorted by (claim_id, n, b) where available."""
    if not reports:
        return Report(meta={"merged": 0}, header=CSV_HEADER)
    header = reports[0].header
    merged = Report(meta={"merged": len(reports)}, header=header)
    rows = []
    for rep in reports:
        if rep.header != header:
            raise ValueError("cannot merge reports with different schemas")
        rows.extend(rep.results)
        merged.violations.extend(rep.violations)
        merged.inconclusive += rep.inconclusive
    merged.results = sorted(rows, key=_row_key(header))
    merged.violations.sort(key=lambda v: (_order(v.claim_id), _order(v.n), _order(v.b)))
    return merged

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
from dataclasses import asdict, dataclass, field

from .backend import as_rat, decimal_str, rat_str

CSV_HEADER = ["claim_id", "b", "n", "status", "lhs", "rhs", "raw_lhs", "raw_rhs"]
SCAN_P_HEADER = ["claim_id", "b", "n", "sign", "boundary_ok"]


@dataclass(frozen=True)
class ViolationReport:
    """One failed (or otherwise notable) comparison at a single point."""

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
        return ["violation", self.claim_id, self.b, self.n, self.lhs, self.rhs,
                self.raw_lhs, self.raw_rhs, self.note]

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class Report:
    """A full run: metadata, result rows, violations and inconclusive count."""

    meta: dict
    header: list
    results: list = field(default_factory=list)  # list of row lists
    violations: list = field(default_factory=list)  # list of ViolationReport
    inconclusive: int = 0

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
        doc = {
            "meta": self.meta,
            "results": [dict(zip(self.header, row)) for row in self.results],
            "violations": [v.as_dict() for v in self.violations],
            "inconclusive": self.inconclusive,
        }
        return json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"

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
        shape is a ValueError naming the path."""
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        try:
            meta = doc.get("meta", {})
            rows = doc.get("results", [])
            header = meta.get("header") or (list(rows[0].keys()) if rows else CSV_HEADER)
            report = cls(meta=meta, header=header)
            report.results = [[row.get(key, "") for key in header] for row in rows]
            report.violations = [ViolationReport(**item) for item in doc.get("violations", [])]
            report.inconclusive = int(doc.get("inconclusive", 0))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: not a binram JSON report ({exc!r})") from None
        return report


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

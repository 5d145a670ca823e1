"""Report plumbing: exit-code logic, deterministic serialization, atomic
writes, and merge constraints."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binram.backend import Rat
from binram.report import CSV_HEADER, Report, ViolationReport, merge_reports


def make_report(rows, violations=(), inconclusive=0):
    rep = Report(meta={"command": "test"}, header=["claim_id", "b", "n", "sign"])
    rep.results = [list(r) for r in rows]
    rep.violations = list(violations)
    rep.inconclusive = inconclusive
    return rep


def test_exit_code_priority():
    assert make_report([]).exit_code() == 0
    assert make_report([], inconclusive=3).exit_code() == 2
    v = ViolationReport.from_rationals("x", 1, 2, Rat(1, 3), Rat(1, 2))
    assert make_report([], violations=[v], inconclusive=3).exit_code() == 1


def test_violation_report_carries_exact_and_decimal():
    v = ViolationReport.from_rationals("x", 1, 2, Rat(1, 3), Rat(1, 2), note="why")
    assert v.raw_lhs == "1/3" and v.raw_rhs == "1/2"
    assert v.lhs.startswith("0.3333") and v.rhs.startswith("0.5")
    assert v._asdict()["note"] == "why"


def test_csv_layout_and_lf_endings():
    rep = make_report([["c", 1, 2, 1], ["c", 1, 3, -1]])
    text = rep.to_csv()
    assert text.splitlines()[0] == "claim_id,b,n,sign"
    assert "\r" not in text
    # violations appended after a blank separator with their own header
    rep.violations = [ViolationReport.from_rationals("c", 1, 2, Rat(0), Rat(1))]
    lines = rep.to_csv().splitlines()
    assert "" in lines
    assert lines[lines.index("") + 1].startswith("violation,")


def test_json_is_sorted_and_stable():
    rep = make_report([["c", 1, 2, 1]])
    assert rep.to_json() == rep.to_json()
    doc = json.loads(rep.to_json())
    assert doc["results"] == [{"claim_id": "c", "b": 1, "n": 2, "sign": 1}]


def test_atomic_write(tmp_path):
    rep = make_report([["c", 1, 2, 1]])
    target = tmp_path / "out.csv"
    rep.write(str(target), "csv")
    assert target.read_text() == rep.to_csv()
    assert list(tmp_path.iterdir()) == [target]  # no stray temp file


def test_failed_rename_removes_the_temp_file(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()  # a file cannot replace a directory
    with pytest.raises(OSError):
        make_report([["c", 1, 2, 1]]).write(str(target), "csv")
    assert list(tmp_path.iterdir()) == [target]


def test_merge_sorts_and_counts():
    a = make_report([["c", 2, 9, 1]], inconclusive=1)
    b = make_report([["c", 1, 3, -1]])
    merged = merge_reports([a, b])
    assert merged.results[0][1] == 1  # deterministic ordering
    assert merged.inconclusive == 1
    assert merged.meta["merged"] == 2


def test_merge_orders_n_and_b_numerically():
    a = make_report([["c", 1, 10, 1], ["c", 10, 11, 1]])
    b = make_report([["c", 9, 10, -1], ["c", 1, 2, 1], ["a", 2, 10, 1]])
    merged = merge_reports([a, b])
    assert [tuple(r) for r in merged.results] == [
        ("a", 2, 10, 1), ("c", 1, 2, 1), ("c", 1, 10, 1), ("c", 9, 10, -1),
        ("c", 10, 11, 1),
    ]


def test_merge_orders_violations_with_mixed_field_types():
    # fields read back from a hand-edited report need not be integers
    odd = ViolationReport("c", "x", "y", "0", "1", "0/1", "1/1")
    v10 = ViolationReport.from_rationals("c", 1, 10, Rat(0), Rat(1))
    v2 = ViolationReport.from_rationals("c", 1, 2, Rat(0), Rat(1))
    merged = merge_reports([make_report([], violations=[odd, v10]),
                            make_report([], violations=[v2])])
    assert merged.violations == [v2, v10, odd]


def test_merge_rejects_mismatched_schemas():
    a = make_report([])
    b = Report(meta={}, header=CSV_HEADER)
    with pytest.raises(ValueError):
        merge_reports([a, b])


def test_merge_empty():
    assert merge_reports([]).exit_code() == 0


# -- the JSON renderer against json.dumps(indent=2) -----------------------------


def reference_json(rep) -> str:
    """The layout to_json must match byte for byte."""
    doc = {
        "meta": rep.meta,
        "results": [dict(zip(rep.header, row)) for row in rep.results],
        "violations": [v._asdict() for v in rep.violations],
        "inconclusive": rep.inconclusive,
    }
    return json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"


def odd_values_report():
    header = ["claim_id", "b", "n", "note", "flag", "x"]
    rep = Report(meta={"command": "odd", "window": [3, [4, 5]], "nested": {"z": [], "a": {}},
                       "step": Fraction(1, 20)}, header=header)
    rep.results = [
        ["q\"uote", 1, 2, "back\\slash and \\n", True, 0.1],
        ["ctrl\x00\x1f\t\r\n", -3, 10**40, "caf\u00e9 \u2211 \U0001f600", False, float("inf")],
        ["}, {", 0, 1, "},\n      {", None, Fraction(-7, 3)],
        ["", 5, 6, "", 1, -0.0],
    ]
    rep.violations = [ViolationReport.from_rationals("c", 1, 2, Rat(1, 3), Rat(1, 2), note="a\nb"),
                      ViolationReport("c", "x", "y", "0", "1", "0/1", "1/1")]
    rep.inconclusive = 4
    return rep


@pytest.mark.parametrize("rep", [
    merge_reports([]),
    make_report([]),
    make_report([["c", 1, 2, 1]]),
    make_report([["c", 1, 2, 1], ["c", 1, 3, -1]],
                violations=[ViolationReport.from_rationals("c", 1, 2, Rat(0), Rat(1))],
                inconclusive=2),
    Report(meta={}, header=["only"], results=[["one"], [2], [None]]),
    odd_values_report(),
], ids=["merged-none", "no-rows", "one-row", "violations", "one-column", "odd-values"])
def test_to_json_is_the_indented_dump(rep):
    assert rep.to_json() == reference_json(rep)


scalars = st.one_of(st.text(), st.integers(), st.booleans(), st.none(),
                    st.floats(), st.fractions())


@given(st.lists(st.text(), min_size=1, max_size=6, unique=True).flatmap(
    lambda header: st.tuples(st.just(header),
                             st.lists(st.lists(scalars, min_size=len(header),
                                               max_size=len(header)), max_size=6))))
@settings(max_examples=200, deadline=None)
def test_to_json_matches_the_indented_dump_on_flat_rows(header_rows):
    header, rows = header_rows
    rep = Report(meta={"header": header}, header=header, results=rows)
    assert rep.to_json() == reference_json(rep)

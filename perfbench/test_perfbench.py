"""Tests of the benchmark's own checks.

    python3 -m pytest perfbench/test_perfbench.py -q

They show that the correctness oracle catches a perturbed reference value,
that a caught mismatch counts as a failed operation, and that the tracer's
call and self-time bookkeeping is right.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import child  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SMALL_REPORT = """Demo table
==========
label          value   flag  note
-------------  ------  ----  -----------
first row      0.25    yes   two words
second row     1e-07   no    -

Broken section
==============
FAILED: ValueError: boom
"""


def test_parse_report_addresses_cells_by_section_row_and_column():
    cells = oracle.parse_report(SMALL_REPORT)
    assert cells[("Demo table", "first row", "value")] == "0.25"
    assert cells[("Demo table", "first row", "note")] == "two words"
    assert cells[("Demo table", "second row", "flag")] == "no"
    assert not any(section == "Broken section" for section, _, _ in cells)
    assert oracle.failed_sections(SMALL_REPORT) == ["FAILED: ValueError: boom"]


def _section(rows) -> str:
    from repro.experiments.records import format_rows

    return f"Demo table\n==========\n{format_rows(rows)}\n"


def test_added_columns_and_rows_are_ignored():
    from repro.experiments.records import ExperimentRow

    rows = [
        ExperimentRow("demo", "first row", {"value": 0.25, "flag": True}),
        ExperimentRow("demo", "second row", {"value": 1e-7, "flag": False}),
    ]
    widened = [ExperimentRow(row.experiment, row.label, {**row.values, "evidence": "exact"}) for row in rows]
    widened.append(ExperimentRow("demo", "third row", {"value": 2.0, "flag": True, "evidence": "search"}))
    reference = oracle.parse_report(_section(rows))
    assert len(reference) == 4
    assert oracle.check_report(_section(widened), reference) == []
    assert len(oracle.check_report(_section(widened[1:]), reference)) == 2


@pytest.fixture(scope="module")
def report_text():
    from repro.experiments.report import generate_report

    return generate_report()


def test_report_matches_pinned_reference(report_text):
    assert oracle.check_report(report_text, oracle.load_reference()) == []


def test_perturbed_reference_value_is_caught(report_text):
    reference = oracle.load_reference()
    cell = ("Lemma 17 — optimal cheating vs path length", "r=3", "optimal_entangled_acceptance")
    assert reference[cell] == "0.6545"
    reference[cell] = "0.6546"
    problems = oracle.check_report(report_text, reference)
    assert len(problems) == 1 and "optimal_entangled_acceptance" in problems[0]
    tally = run.Tally()
    tally.add(problems)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_perturbed_text_cell_and_missing_cell_are_caught(report_text):
    reference = oracle.load_reference()
    flag = ("Lemma 17 — optimal cheating vs path length", "r=2", "respects_bound")
    reference[flag] = "no"
    reference[("Lemma 17 — optimal cheating vs path length", "r=9", "paper_bound")] = "0.9995"
    problems = oracle.check_report(report_text, reference)
    assert len(problems) == 2
    assert any("respects_bound" in problem for problem in problems)
    assert any(problem.startswith("missing cell") for problem in problems)


def test_numeric_cells_compare_at_relative_tolerance():
    assert oracle.cells_match("1.524e+06", "1524000.0000001")
    assert not oracle.cells_match("1.524e+06", "1.525e+06")
    assert not oracle.cells_match("0.5", "yes")


def test_dense_row_comparison_catches_a_perturbed_value():
    from repro.experiments.records import ExperimentRow

    def row(completeness: float, ok: bool = True) -> list:
        values = {"completeness": completeness, "gap": 0.69, "ok": ok}
        return [ExperimentRow("noise-path", "strength 0.100", values)]

    reference, same, moved, flipped = row(0.78), row(0.78 + 1e-12), row(0.78 + 1e-6), row(0.78, ok=False)
    assert child.compare_rows(same, reference, 1e-9) == []
    assert len(child.compare_rows(moved, reference, 1e-9)) == 1
    assert len(child.compare_rows(flipped, reference, 1e-9)) == 1
    assert child.compare_rows(same[:0], reference, 1e-9)


def test_tracer_counts_outer_calls_and_self_time():
    spans = tracer.Tracer()

    def leaf():
        time.sleep(0.02)

    traced_leaf = spans.wrap(leaf, "inner")

    def middle(depth):
        if depth:
            return traced_middle(depth - 1)
        traced_leaf()

    traced_middle = spans.wrap(middle, "outer")
    traced_middle(2)
    outer, inner = spans.layers["outer"], spans.layers["inner"]
    assert outer["calls"] == 1 and inner["calls"] == 1
    assert outer["s"] >= inner["s"] >= 0.02
    assert outer["self_s"] < 0.01 <= inner["self_s"]


def test_repro_tracer_restores_the_library():
    from repro.engine.core import Engine

    original = Engine.evaluate_programs
    spans = tracer.ReproTracer().install()
    assert Engine.evaluate_programs is not original
    spans.restore()
    assert Engine.evaluate_programs is original
    assert set(spans.metrics()) >= {"engine.calls", "cache.hit_rate", "scenario.table1_s"}

"""Correctness oracle: the complex128 report's cells, pinned.

``repro-report`` prints each section as a title, an ``=`` underline, a header
row, a dash row and one line per table row.  The dash row gives the column
boundaries, so every cell is addressed by ``(section title, row label,
column)``.  The pinned reference lists those cells for this commit; a report
passes when every pinned cell is present and equal to its reference (numbers
within a relative 1e-9, text exactly).  Cells the report gained later - a new
column or row - are ignored.

Pin a new reference from a report file::

    python3 perfbench/oracle.py --pin report.txt
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from typing import Dict, List, Tuple

REFERENCE = Path(__file__).resolve().parent / "reference" / "report_cells.json"

#: Relative tolerance of a numeric cell.
TOLERANCE = 1e-9

Cell = Tuple[str, str, str]


def parse_report(text: str) -> Dict[Cell, str]:
    """Every table cell of a rendered report, keyed by (section, row, column)."""
    lines = text.splitlines()
    cells: Dict[Cell, str] = {}
    index = 0
    while index + 3 < len(lines):
        title, underline = lines[index], lines[index + 1]
        if not (title and underline == "=" * len(title)):
            index += 1
            continue
        header, dashes = lines[index + 2], lines[index + 3]
        index += 2
        if not re.fullmatch(r"-+( +-+)*", dashes):
            continue  # a FAILED or empty section: no table
        starts = [match.start() for match in re.finditer(r"-+", dashes)]
        bounds = list(zip(starts, starts[1:] + [None]))
        columns = [header[start:end].strip() for start, end in bounds]
        index += 2
        seen: Dict[str, int] = {}
        while index < len(lines) and lines[index].strip():
            row = [lines[index][start:end].strip() for start, end in bounds]
            label = row[0]
            seen[label] = seen.get(label, 0) + 1
            if seen[label] > 1:
                label = f"{label}#{seen[label]}"
            for column, value in zip(columns[1:], row[1:]):
                cells[(title, label, column)] = value
            index += 1
    return cells


def failed_sections(text: str) -> List[str]:
    """Lines of the report that mark a failed section or chunk."""
    return [line for line in text.splitlines() if line.startswith("FAILED")]


def _number(value: str):
    try:
        return float(value)
    except ValueError:
        return None


def cells_match(reference: str, observed: str) -> bool:
    expected, actual = _number(reference), _number(observed)
    if expected is None or actual is None:
        return reference == observed
    return abs(actual - expected) <= TOLERANCE * max(1.0, abs(expected))


def load_reference(path: Path = REFERENCE) -> Dict[Cell, str]:
    data = json.loads(path.read_text(encoding="utf-8"))
    return {(section, label, column): value for section, label, column, value in data["cells"]}


def check_report(text: str, reference: Dict[Cell, str]) -> List[str]:
    """Human-readable mismatches of ``text`` against the pinned cells (empty: pass)."""
    problems = [f"failed section: {line}" for line in failed_sections(text)]
    observed = parse_report(text)
    for cell, expected in reference.items():
        actual = observed.get(cell)
        if actual is None:
            problems.append(f"missing cell {cell}")
        elif not cells_match(expected, actual):
            problems.append(f"cell {cell}: {actual!r} != reference {expected!r}")
    return problems


def pin(report_path: Path, path: Path = REFERENCE) -> int:
    cells = parse_report(report_path.read_text(encoding="utf-8"))
    rows = ",\n".join(
        json.dumps([section, label, column, value], ensure_ascii=False)
        for (section, label, column), value in cells.items()
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f'{{"dtype": "complex128", "cells": [\n{rows}\n]}}\n', encoding="utf-8")
    return len(cells)


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--pin":
        sys.stderr.write("usage: python3 perfbench/oracle.py --pin REPORT_FILE\n")
        raise SystemExit(2)
    print(f"pinned {pin(Path(sys.argv[2]))} cells to {REFERENCE}")

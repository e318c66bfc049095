"""Shared reporting for the per-figure benchmark harness.

Every bench regenerates one table or figure of the paper: it computes
the same rows/series the paper reports, prints them (run with ``-s``
to see them inline), writes them to ``benchmarks/results/``, and
asserts the paper's qualitative shape.  The tables are committed, and
CI fails if a tier-1 run changes any of them.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def report():
    """Returns a callable report(name, text): print + persist."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _report(name: str, text: str) -> None:
        print(f"\n=== {name} ===\n{text}")
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _report

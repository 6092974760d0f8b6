"""Benchmark harness support: artifact directory + row printer.

Every benchmark regenerates one of the paper's tables or figures.  Apart
from the pytest-benchmark timing, each writes its reproduced rows to
``benchmarks/results/<name>.txt`` so the evidence survives output capture.
A module run at its CI smoke budget (``SWEEP_MODE == "smoke"``) writes
them under the gitignored ``benchmarks/results/smoke/`` instead, so the
committed full-budget texts are never overwritten by a smaller run.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def save_result(results_dir, request):
    """Writer: save_result("table2", text) -> results/table2.txt (or
    results/smoke/table2.txt from a smoke-budget module)."""
    if getattr(request.module, "SWEEP_MODE", "full") == "smoke":
        results_dir = results_dir / "smoke"
        results_dir.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n[{name}]\n{text}")

    return _save

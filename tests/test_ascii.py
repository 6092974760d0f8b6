"""ASCII chart helpers."""

import pytest

from repro.errors import ReproError
from repro.report.ascii import stacked_capacity_bar


class TestStackedBar:
    def test_fig1_style(self):
        art = stacked_capacity_bar({"weights": 3549, "kv": 264}, 4096)
        assert "weights" in art and "kv" in art and "free" in art
        assert "86.6%" in art  # weights fraction

    def test_bar_width_respected(self):
        art = stacked_capacity_bar({"a": 50}, 100, width=30)
        bar_line = art.splitlines()[0]
        assert len(bar_line) == 32  # brackets + width

    def test_overflow_rejected(self):
        with pytest.raises(ReproError):
            stacked_capacity_bar({"a": 200}, 100)

    def test_zero_total_rejected(self):
        with pytest.raises(ReproError):
            stacked_capacity_bar({"a": 1}, 0)

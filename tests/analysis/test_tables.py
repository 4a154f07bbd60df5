"""Unit tests for text table and bar-chart rendering."""

import pytest

from repro.analysis.tables import format_table
from tests.analysis.tables import bar_chart


class TestFormatTable:
    def test_alignment(self):
        table = format_table(
            ["scheme", "value"], [["simple", 1], ["flat", 20]]
        )
        lines = table.splitlines()
        assert lines[0].startswith("scheme")
        assert len(lines) == 4  # header, separator, two rows
        assert lines[2].index("1") == lines[3].index("2")

    def test_title(self):
        table = format_table(["a"], [[1]], title="My Table")
        assert table.splitlines()[0] == "My Table"

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_float_formatting(self):
        table = format_table(["x"], [[0.12345], [12.345], [12345.6]])
        assert "0.1234" in table or "0.1235" in table
        assert "12.35" in table or "12.34" in table
        assert "12,346" in table

    def test_int_thousands(self):
        assert "1,000" in format_table(["x"], [[1000]])


class TestBarChart:
    def test_bars_proportional(self):
        chart = bar_chart({"a": 10.0, "b": 5.0}, width=10)
        lines = chart.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_title_and_unit(self):
        chart = bar_chart({"a": 1.0}, title="T", unit="%")
        assert chart.splitlines()[0] == "T"
        assert "%" in chart

    def test_zero_peak(self):
        chart = bar_chart({"a": 0.0})
        assert "#" not in chart

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bar_chart({})

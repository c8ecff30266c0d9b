"""The one CSV writer: cell rendering, RFC 4180 quoting and file layout."""

import csv
import math

import numpy as np
import pytest

from fdual._csvfmt import row, text


class TestRow:
    @pytest.mark.parametrize("x", [-0.0, math.inf, -math.inf, math.nan,
                                   5e-324, 0.1 + 0.2, 1e-9, 2.0 ** 60,
                                   np.float64(0.1 + 0.2), np.float64(-0.0),
                                   np.float32(0.1)])
    def test_float_round_trips_bit_for_bit(self, x):
        cell = row(x)
        assert cell == repr(float(x))
        assert np.float64(float(cell)).tobytes() == np.float64(x).tobytes()

    def test_bools_are_lowercase(self):
        assert row(True, False, np.True_, np.False_) == "true,false,true,false"

    def test_ints_and_strings_are_str(self):
        assert row(3, np.int64(-7), "hinge", "-", "1e-9") == "3,-7,hinge,-,1e-9"

    @pytest.mark.parametrize("cell", ["max(0,1-alpha)", 'say "hi"', 'a,"b"',
                                      '"', ",", "two\nlines", "cr\rlf"])
    def test_special_cells_come_back_from_csv_reader(self, cell):
        line = row("x", cell, 1.5)
        assert '"' in line
        assert next(csv.reader([line])) == ["x", cell, "1.5"]


class TestText:
    def test_header_rows_and_final_newline(self):
        assert text("a,b", [row(1, 2.0), row(3, True)]) == \
            "a,b\n1,2.0\n3,true\n"

    def test_header_only(self):
        assert text("a,b", []) == "a,b\n"

    def test_accepts_any_iterable(self):
        got = text("z,mu", map(row, range(2), np.array([0.25, 0.75])))
        assert got == "z,mu\n0,0.25\n1,0.75\n"
        assert list(csv.reader(got.splitlines())) == [
            ["z", "mu"], ["0", "0.25"], ["1", "0.75"]]

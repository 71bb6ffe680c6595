import json
from dataclasses import dataclass, field

import numpy as np
import pytest

from polycap.reporting import _CSV_BLOCK_ROWS, write_csv, write_json


def test_write_csv_matches_per_value_formatting(tmp_path):
    index = np.arange(5)
    values = np.array([0.1, -2.5e-300, np.nan, 1.0 / 3.0, -0.0])
    table = np.column_stack([index, values])
    write_csv(tmp_path / "t.csv", ["index", "value"], table)
    expected = "index,value\n" + "".join(
        f"{i},{v:.17g}\n" for i, v in zip(index.tolist(), values))
    assert (tmp_path / "t.csv").read_bytes() == expected.encode()
    assert "nan" in expected and "\n3,0.33333333333333331\n" in expected


def _per_value_rendering(header, table):
    line = ",".join(["%.17g"] * len(header)) + "\n"
    return (",".join(header) + "\n" + "".join(line % tuple(row) for row in table.tolist())).encode()


def test_write_csv_formats_repeated_and_signed_values_by_bit_pattern(tmp_path):
    nan = np.float64(np.nan)
    values = np.array([0.0, -0.0, 0.1, 0.1, nan, -nan, 0.0, np.inf, -np.inf, -0.0, 0.1,
                       1.0 / 3.0, -nan, 2.0**40, np.inf])
    assert np.signbit(values[5]) and not np.signbit(values[4])
    table = np.column_stack([np.arange(values.size), values, values[::-1]])
    write_csv(tmp_path / "t.csv", ["index", "u", "v"], table)
    data = (tmp_path / "t.csv").read_bytes()
    assert data == _per_value_rendering(["index", "u", "v"], table)
    assert b"\n1,-0,1099511627776\n" in data and b"\n13,1099511627776,-0\n" in data


def test_write_csv_zero_rows_writes_the_header_only(tmp_path):
    table = np.zeros((0, 3))
    write_csv(tmp_path / "t.csv", ["a", "b", "c"], table)
    assert (tmp_path / "t.csv").read_bytes() == _per_value_rendering(["a", "b", "c"], table)
    assert (tmp_path / "t.csv").read_bytes() == b"a,b,c\n"


@pytest.mark.parametrize("rows", [_CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1])
def test_write_csv_rows_across_a_block_boundary(tmp_path, rows):
    values = np.random.default_rng(rows).standard_normal(rows)
    # a repeated coordinate column next to all-distinct values and -0.0
    table = np.column_stack([np.arange(rows) % 7 * 0.1, values, -values * 0.0])
    write_csv(tmp_path / "t.csv", ["x", "u", "z"], table)
    data = (tmp_path / "t.csv").read_bytes()
    assert data == _per_value_rendering(["x", "u", "z"], table)
    assert data.count(b"\n") == rows + 1


@dataclass
class _Report:
    label: str
    count: np.int64
    value: np.float64
    extras: dict = field(default_factory=dict)


def test_write_json_serialises_a_dataclass_from_its_fields(tmp_path):
    report = _Report("r", np.int64(3), np.float64(np.nan),
                     {"b": [np.float64(0.5), np.inf], "a": {2: np.bool_(True)}})
    write_json(tmp_path / "r.json", report)
    text = (tmp_path / "r.json").read_text()
    assert json.loads(text) == {"label": "r", "count": 3, "value": "nan",
                                "extras": {"a": {"2": True}, "b": [0.5, "inf"]}}
    assert text.index('"a"') < text.index('"b"') and text.endswith("}\n")

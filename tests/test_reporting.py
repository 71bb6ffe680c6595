import json
from dataclasses import dataclass, field

import numpy as np

from polycap.reporting import write_csv, write_json


def test_write_csv_matches_per_value_formatting(tmp_path):
    index = np.arange(5)
    values = np.array([0.1, -2.5e-300, np.nan, 1.0 / 3.0, -0.0])
    table = np.column_stack([index, values])
    write_csv(tmp_path / "t.csv", ["index", "value"], table)
    expected = "index,value\n" + "".join(
        f"{i},{v:.17g}\n" for i, v in zip(index.tolist(), values))
    assert (tmp_path / "t.csv").read_bytes() == expected.encode()
    assert "nan" in expected and "\n3,0.33333333333333331\n" in expected


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

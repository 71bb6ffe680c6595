import numpy as np

from polycap.reporting import write_csv


def test_write_csv_matches_per_value_formatting(tmp_path):
    index = np.arange(5)
    values = np.array([0.1, -2.5e-300, np.nan, 1.0 / 3.0, -0.0])
    table = np.column_stack([index, values])
    write_csv(tmp_path / "t.csv", ["index", "value"], table)
    expected = "index,value\n" + "".join(
        f"{i},{v:.17g}\n" for i, v in zip(index.tolist(), values))
    assert (tmp_path / "t.csv").read_bytes() == expected.encode()
    assert "nan" in expected and "\n3,0.33333333333333331\n" in expected

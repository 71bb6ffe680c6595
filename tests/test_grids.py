import numpy as np
import pytest

from polycap import (Ball, Box, Cone, Cusp, Grid, InputError, Intersection, Mask,
                     Ray, Shell, Union, UnsupportedRegimeError, mask_from_csv,
                     region_from_dict)
from polycap.grids import MAX_NODES, dilate


def test_grid_geometry():
    g = Grid(3, 0.5, 4)
    assert g.shape == (9, 9, 9)
    assert g.box_radius == 2.0
    assert g.coords()[g.origin_index()].tolist() == [0.0, 0.0, 0.0]
    assert g.radii()[g.origin_index()] == 0.0


def test_grid_node_limit():
    # 4097^2 = 16,785,409 nodes is just over the limit; 4095^2 is just under
    assert Grid(2, 0.1, 2047).size <= MAX_NODES
    with pytest.raises(UnsupportedRegimeError, match="16,777,216"):
        Grid(2, 0.1, 2048)


def test_mask_csv_round_trip(tmp_path):
    g = Grid(2, 0.25, 6)
    mask = Ball(0.8).mask(g)
    path = tmp_path / "nodes.csv"
    mask.to_csv(path)
    data = path.read_bytes()
    assert b"\r" not in data
    assert {line.count(b",") + 1 for line in data.splitlines()} == {2}
    back = mask_from_csv(g, path)
    assert np.array_equal(back.where, mask.where)


def test_mask_csv_rejects_off_grid(tmp_path):
    g = Grid(2, 0.25, 6)
    path = tmp_path / "bad.csv"
    # off the lattice, not a number, not finite, too large for an integer index
    for row in ["0.1,0.0", "0,a", "nan,0", "0,inf", "1e300,0"]:
        path.write_text(f"x1,x2\n{row}\n")
        with pytest.raises(InputError):
            mask_from_csv(g, path)


def test_mask_csv_skips_blank_rows(tmp_path):
    g = Grid(3, 0.5, 4)
    path = tmp_path / "nodes.csv"
    path.write_text("x1,x2,x3\n\n0.5,0,0\n\n")
    back = mask_from_csv(g, path)
    assert back.count == 1 and back.where[5, 4, 4]


@pytest.mark.parametrize("text", ["x1,x2,x3\n0,0,0\n0,0\n", "x1,x2,x3\n0,0,0\n0,0,0,0\n",
                                  "x1,x2\n0,0\n", "\n"],
                         ids=["short_row", "long_row", "short_header", "no_header"])
def test_mask_csv_refuses_a_row_without_n_fields(tmp_path, text):
    g = Grid(3, 0.5, 4)
    path = tmp_path / "nodes.csv"
    path.write_text(text)
    with pytest.raises(InputError):
        mask_from_csv(g, path)


def test_region_combinators():
    g = Grid(2, 0.25, 8)
    ring = Intersection((Ball(1.5), Shell(0.5, 2.0)))
    m = ring.mask(g)
    r = g.radii()
    assert np.array_equal(m.where, (r <= 1.5 + 1e-12) & (r >= 0.5 - 1e-12))
    both = Union((Ball(0.4), Ray(axis=0)))
    assert both.mask(g).count >= Ball(0.4).mask(g).count


def test_region_from_dict_round():
    spec = {"kind": "intersection", "parts": [
        {"kind": "cone", "half_angle_deg": 45.0},
        {"kind": "ball", "radius": 1.0},
    ]}
    region = region_from_dict(spec)
    g = Grid(3, 0.25, 6)
    m = region.mask(g)
    assert 0 < m.count < g.size
    cusp = region_from_dict({"kind": "cusp", "cusp_kind": "power", "param": 2.0})
    assert isinstance(cusp, Cusp)
    assert cusp.profile(0.5) == pytest.approx(0.25)


def test_cusp_rasterization_keeps_axis():
    g = Grid(3, 0.125, 8)
    m = Cusp("exponential", 1.0).mask(g)
    # the axis segment 0 <= x3 <= 1 survives even where the width underflows
    c = g.origin_index()
    assert m.where[c[0], c[1], c[2] + 2]
    assert not m.where[c[0] + 3, c[1], c[2] + 2]


def test_mask_set_operations_and_subset():
    g = Grid(2, 0.5, 4)
    a = Ball(1.0).mask(g)
    b = Ball(1.6).mask(g)
    assert a.issubset(b)
    assert (a | b).count == b.count
    assert (a & b).count == a.count
    with pytest.raises(InputError):
        Mask(g, np.zeros((3, 3), dtype=bool))


def test_dilate_does_not_wrap_across_faces():
    where = np.zeros((6, 5), dtype=bool)
    where[0, 2] = True  # touches the first face of axis 0
    grown = dilate(where, 2)
    assert not grown[-2:].any()
    # the two-step cross is the l1 ball of radius 2, cut at the face
    i, j = np.indices(where.shape)
    assert np.array_equal(grown, i + np.abs(j - 2) <= 2)

import numpy as np
import pytest

from polycap import (Ball, Box, Cone, Cusp, Grid, InputError, Intersection, Mask,
                     Ray, Shell, Union, UnsupportedRegimeError, mask_from_csv,
                     region_from_dict)
from polycap.grids import MAX_NODES, as_mask, dilate
from polycap.radial import AxisymGrid
from polycap.reporting import write_csv


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
    write_csv(path, ["x1", "x2"], mask.points())
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
    assert back.where.sum() == 1 and back.where[5, 4, 4]


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
    assert both.mask(g).where.sum() >= Ball(0.4).mask(g).where.sum()


def test_region_from_dict_round():
    spec = {"kind": "intersection", "parts": [
        {"kind": "cone", "half_angle_deg": 45.0},
        {"kind": "ball", "radius": 1.0},
    ]}
    region = region_from_dict(spec)
    g = Grid(3, 0.25, 6)
    m = region.mask(g)
    assert 0 < m.where.sum() < g.size
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
    with pytest.raises(InputError):
        Mask(g, np.zeros((3, 3), dtype=bool))


def test_as_mask_takes_a_region_or_a_mask_of_the_grid():
    from polycap import capacitary_potential, laplacian, maximal_bound_check, sign_probe

    g = Grid(3, 0.25, 4)
    mask = as_mask(Ball(0.5), g)
    assert mask.grid == g and np.array_equal(mask.where, Ball(0.5).mask(g).where)
    assert as_mask(mask, g) is mask
    with pytest.raises(InputError, match="different grid"):
        as_mask(mask, Grid(3, 0.25, 5))
    # a bare node array is neither: every caller refuses it before any solve
    with pytest.raises(InputError, match="got ndarray"):
        as_mask(mask.where, g)
    for call in (lambda t: capacitary_potential(laplacian(3), t, g),
                 lambda t: maximal_bound_check(laplacian(3), t, g, 0.5, 1.0),
                 lambda t: sign_probe(laplacian(3), {"K": t}, g)):
        with pytest.raises(InputError, match="Mask or a Region"):
            call(mask.where)


def test_dilate_does_not_wrap_across_faces():
    where = np.zeros((6, 5), dtype=bool)
    where[0, 2] = True  # touches the first face of axis 0
    grown = dilate(where, 2)
    assert not grown[-2:].any()
    # the two-step cross is the l1 ball of radius 2, cut at the face
    i, j = np.indices(where.shape)
    assert np.array_equal(grown, i + np.abs(j - 2) <= 2)


def _region_kinds(n):
    return [
        Ball(0.6),
        Ball(0.5, tuple(0.125 * (a + 1) for a in range(n))),
        Shell(0.3, 0.7),
        Box(tuple((-0.25, 0.5) for _ in range(n))),
        Ray(axis=n - 1, width=0.3),
        Cone(np.pi / 4),
        Cusp("power", 2.0),
        Cusp("exponential", 1.0),
        Union((Ball(0.3), Ray(axis=0))),
        Intersection((Ball(0.8), Shell(0.2, 1.0))),
        region_from_dict({"kind": "union", "parts": [
            {"kind": "cone", "half_angle_deg": 30.0}, {"kind": "ball", "radius": 0.25}]}),
    ]


_GRIDS = [Grid(2, 0.125, 10), Grid(3, 0.125, 8), Grid(4, 0.25, 4), Grid(5, 0.25, 3)]


@pytest.mark.parametrize("grid", _GRIDS, ids=lambda g: f"n{g.n}")
def test_mask_equals_contains_on_the_node_coordinates(grid):
    # rasterising from the axis vectors gives the nodes that the point-matrix
    # form of contains selects, node for node
    columns = grid.coords().reshape(-1, grid.n).T
    for region in _region_kinds(grid.n):
        mask = region.mask(grid)
        inside = region.contains(columns)
        assert inside.dtype == bool and inside.shape == (grid.size,)
        assert np.array_equal(mask.where, inside.reshape(grid.shape)), region
        assert 0 < mask.where.sum() < grid.size, region


@pytest.mark.parametrize("grid", _GRIDS, ids=lambda g: f"n{g.n}")
def test_ball_and_cone_masks_match_the_row_norm_of_the_node_coordinates(grid):
    points = grid.coords().reshape(-1, grid.n)
    center = tuple(0.125 * (a + 1) for a in range(grid.n))
    r = np.linalg.norm(points - center, axis=1)
    assert np.array_equal(Ball(0.5, center).mask(grid).where.ravel(), r <= 0.5 + 1e-12)
    r = np.linalg.norm(points, axis=1)
    cone = -points[:, -1] >= r * np.cos(np.pi / 4) - 1e-12
    assert np.array_equal(Cone(np.pi / 4).mask(grid).where.ravel(), cone)


def test_axisym_mask_equals_contains_on_the_half_plane_nodes():
    ag = AxisymGrid(5, 0.05, 24, 30)
    region = Union((Cone(np.pi / 4), Cusp("power", 2.0), Shell(0.5, 0.6)))
    r, z = np.meshgrid(ag.r, ag.z, indexing="ij")
    points = np.zeros((r.size, ag.n))
    points[:, 0], points[:, -1] = r.ravel(), z.ravel()
    expected = region.contains(points.T).reshape(ag.shape)
    on_axis = np.zeros((ag.z.size, ag.n))
    on_axis[:, -1] = ag.z
    expected[0] |= region.contains(on_axis.T)
    inside = ag.mask_from_region(region)
    assert np.array_equal(inside, expected)
    assert 0 < inside.sum() < inside.size

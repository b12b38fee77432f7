import numpy as np
import pytest

from cellhom import build_grid, build_lattice


def test_identity_basis_corners():
    spec = build_lattice(2, np.eye(2))
    assert spec.det_abs == 1.0
    cols = sorted(map(tuple, spec.corners.T))
    assert cols == [(-0.5, -0.5), (-0.5, 0.5), (0.5, -0.5), (0.5, 0.5)]
    assert np.allclose(spec.corners[:, 0], [-0.5, -0.5])
    assert np.allclose(spec.corners.sum(axis=1), 0.0)


def test_scaled_basis_determinant():
    assert build_lattice(2, 2 * np.eye(2)).det_abs == pytest.approx(4.0)


def test_hexagonal_basis_determinant():
    # hand arithmetic: 1 * sqrt(3)/2 - 1/2 * 0
    A = np.array([[1.0, 0.5], [0.0, np.sqrt(3) / 2]])
    assert build_lattice(2, A).det_abs == pytest.approx(np.sqrt(3) / 2, abs=1e-12)


def test_singular_basis_rejected():
    with pytest.raises(ValueError, match="degenerate lattice"):
        build_lattice(2, np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_duplicate_stencil_rejected():
    with pytest.raises(ValueError, match="bad stencil"):
        build_lattice(2, np.eye(2), stencil_offsets=[(0, 0), (1, 0), (1, 0)])


def test_stencil_missing_zero_rejected():
    with pytest.raises(ValueError, match="bad stencil"):
        build_lattice(2, np.eye(2), stencil_offsets=[(1, 0)])


@pytest.mark.parametrize("d, A, kwargs, match", [
    (1, np.eye(1), {}, "dimension must be 2 or 3"),
    (4, np.eye(4), {}, "dimension must be 2 or 3"),
    (2, np.eye(3), {}, "basis must be 2x2"),
    (2, np.eye(2), {"m": -1}, "internal atom count must be >= 0"),
    (2, np.eye(2), {"stencil_offsets": [(0, 0), (0.5, 0)]}, "integer cell offsets"),
], ids=["d-1", "d-4", "A-shape", "m-negative", "offset-fraction"])
def test_build_lattice_rejects(d, A, kwargs, match):
    with pytest.raises(ValueError, match=match):
        build_lattice(d, A, **kwargs)


def test_stencil_radius():
    spec = build_lattice(2, np.eye(2), stencil_offsets=[(0, 0), (1, 0), (-1, 2)])
    assert spec.radius == 3
    assert build_lattice(2, np.eye(2)).radius == 1
    # corners of the home cell come first, in binary order
    assert np.allclose(spec.stencil[:, :4], spec.corners)


def test_grid_counts_n3(square_spec):
    grid = build_grid(square_spec, 3)
    assert grid.n_interior == 1          # (N-2)^2
    assert np.count_nonzero(~grid.interior_mask) == 8  # N^2 - 1 by enumeration
    assert len(grid.site_multi) == 16   # (N+1)^2


def test_grid_counts_n5(square_spec):
    grid = build_grid(square_spec, 5)
    assert grid.n_interior == 9
    # every non-interior cell touches the box faces
    for cell in np.flatnonzero(~grid.interior_mask):
        k = grid.cell_multi[cell]
        assert k.min() == 0 or k.max() == 4


def test_no_interior_cells(square_spec):
    with pytest.raises(ValueError, match="no interior cells"):
        build_grid(square_spec, 2)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("N", range(3, 13))
def test_interior_count_exhaustive(d, N):
    spec = build_lattice(d, np.eye(d))
    grid = build_grid(spec, N)
    assert grid.n_interior == (N - 2) ** d
    assert len(grid.site_multi) == (N + 1) ** d


def test_interior_count_wide_stencil():
    spec = build_lattice(2, np.eye(2), stencil_offsets=[(0, 0), (1, 1)])
    assert spec.radius == 2
    for N in range(5, 13):
        assert build_grid(spec, N).n_interior == (N - 4) ** 2


def test_cell_sites_center_cell(square_spec):
    grid = build_grid(square_spec, 3)
    center = int(np.ravel_multi_index((1, 1), (3, 3)))
    assert list(np.flatnonzero(grid.interior_mask)) == [center]
    sites = grid.interior_cell_sites[0]
    assert len(sites) == 4
    expect = [np.ravel_multi_index(ij, (4, 4)) for ij in [(1, 1), (2, 1), (1, 2), (2, 2)]]
    assert list(sites) == expect


def test_corner_order_matches_columns(square_spec):
    grid = build_grid(square_spec, 5)
    for cell, sites in zip(np.flatnonzero(grid.interior_mask), grid.interior_cell_sites):
        center = square_spec.A @ (grid.cell_multi[cell] + 0.5)
        for j, s in enumerate(sites):
            assert np.array_equal(grid.site_coords[s],
                                  center + square_spec.corners[:, j])


def test_free_sites_touch_only_interior(square_spec):
    grid = build_grid(square_spec, 6)
    interior = set(map(tuple, grid.cell_multi[grid.interior_mask]))
    for s in np.flatnonzero(grid.free_mask):
        i = grid.site_multi[s]
        for da in (-1, 0):
            for db in (-1, 0):
                k = (i[0] + da, i[1] + db)
                if all(0 <= v < grid.N for v in k):
                    assert k in interior
    n_free, n_pinned = len(np.flatnonzero(grid.free_mask)), len(np.flatnonzero(~grid.free_mask))
    assert n_free + n_pinned == len(grid.site_multi)


def test_grid_build_deterministic(square_spec):
    a = build_grid(square_spec, 7)
    b = build_grid(square_spec, 7)
    assert np.array_equal(a.interior_cell_sites, b.interior_cell_sites)
    assert np.array_equal(a.free_mask, b.free_mask)
    assert np.array_equal(a.site_coords, b.site_coords)


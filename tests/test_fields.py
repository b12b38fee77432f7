import numpy as np
import pytest

from cellhom import (affine_deformation, build_grid, certified_ratio_bounds,
                     discrete_gradient, gradient_equivalence_ratio,
                     lennard_jones, pair_potential_model, square_lattice)
from cellhom.fields import Deformation, _cell_simplices, _piece_maps
from cellhom.lattice import simplex_maps

from conftest import rotation


@pytest.fixture
def grid(square_spec):
    return build_grid(square_spec, 5)


def corner_values(dfm, k):
    """(2^d, d) corner values of the k-th interior cell."""
    return dfm.y[dfm.grid.interior_cell_sites[k, :dfm.grid.spec.n_corners]]


def test_affine_identity(grid):
    dfm = affine_deformation(grid, np.eye(2))
    assert np.array_equal(dfm.y, grid.site_coords)


def test_affine_zero(grid):
    dfm = affine_deformation(grid, np.zeros((2, 2)))
    assert np.all(dfm.y == 0.0)


def test_affine_arithmetic(grid):
    dfm = affine_deformation(grid, np.diag([1.2, 1.0]))
    s = int(np.ravel_multi_index((3, 2), (6, 6)))
    assert np.allclose(dfm.y[s], [3.6, 2.0])


def test_discrete_gradient_affine(grid, square_spec):
    M = np.array([[1.2, 0.1], [-0.3, 0.8]])
    dfm = affine_deformation(grid, M)
    for cell in np.flatnonzero(grid.interior_mask):
        F = discrete_gradient(dfm, int(cell))
        assert np.allclose(F, M @ square_spec.corners, atol=1e-13)


def test_discrete_gradient_constant(grid):
    dfm = affine_deformation(grid, np.zeros((2, 2)))
    dfm.y += 2.5
    F = discrete_gradient(dfm, int(np.flatnonzero(grid.interior_mask)[0]))
    assert np.allclose(F, 0.0, atol=1e-15)


def test_discrete_gradient_hand_oracle(grid, rng):
    dfm = affine_deformation(grid, np.eye(2))
    dfm.y += rng.standard_normal(dfm.y.shape)
    cell = int(np.flatnonzero(grid.interior_mask)[4])
    F = discrete_gradient(dfm, cell)
    vals = dfm.y[grid.interior_cell_sites[4]]
    mean = vals.mean(axis=0)
    for j in range(4):
        assert np.allclose(F[:, j], vals[j] - mean, atol=1e-15)
    assert np.abs(F.sum(axis=1)).max() < 1e-12


def test_discrete_gradient_boundary_cell(grid):
    dfm = affine_deformation(grid, np.eye(2))
    with pytest.raises(ValueError, match="boundary layer"):
        discrete_gradient(dfm, 0)


def test_interpolation_affine_reproduction(grid):
    M = np.array([[1.4, 0.2], [0.1, 0.7]])
    dfm = affine_deformation(grid, M)
    vals = corner_values(dfm, 0)
    for W in _piece_maps(grid.spec)[0]:
        assert np.allclose(vals.T @ W, M, atol=1e-12)


def test_interpolation_eight_triangles(square_spec):
    W, vols = simplex_maps(_cell_simplices(2), square_spec.corners.T)
    assert len(W) == len(vols) == 8
    assert sum(vols) == pytest.approx(1.0, abs=1e-12)


def test_interpolation_reproduces_corner_values(grid, rng, square_spec):
    dfm = affine_deformation(grid, np.eye(2))
    dfm.y += rng.standard_normal(dfm.y.shape)
    sites = grid.interior_cell_sites[2]
    weights = _cell_simplices(2)
    vertices = weights @ square_spec.corners.T
    values = weights @ corner_values(dfm, 2)
    corner_pos = square_spec.corners.T
    for j, s in enumerate(sites):
        hits = 0
        for vs, vals in zip(vertices, values):
            for v, val in zip(vs, vals):
                if np.allclose(v, corner_pos[j], atol=1e-12):
                    assert np.allclose(val, dfm.y[s], atol=1e-12)
                    hits += 1
        assert hits > 0


def test_interpolant_gradients_consistent_with_values(grid, rng, square_spec):
    dfm = affine_deformation(grid, np.eye(2))
    dfm.y += rng.standard_normal(dfm.y.shape)
    weights = _cell_simplices(2)
    corner_vals = corner_values(dfm, 0)
    W, _ = simplex_maps(weights, square_spec.corners.T)
    for wt, Wp in zip(weights, W):
        vertices, values, gradient = wt @ square_spec.corners.T, wt @ corner_vals, corner_vals.T @ Wp
        for v, val in zip(vertices[1:], values[1:]):
            lhs = gradient @ (v - vertices[0])
            assert np.allclose(lhs, val - values[0], atol=1e-12)


def test_ratio_affine(grid):
    M = np.array([[1.3, 0.2], [0.0, 0.9]])
    dfm = affine_deformation(grid, M)
    cell = int(np.flatnonzero(grid.interior_mask)[0])
    for p in (2.0, 4.0):
        ratio = gradient_equivalence_ratio(dfm, cell, p)
        expected = np.linalg.norm(M) ** p / np.linalg.norm(M @ grid.spec.corners) ** p
        assert ratio == pytest.approx(expected, rel=1e-12)


def test_ratio_translation_invariant(grid, rng):
    dfm = affine_deformation(grid, np.eye(2))
    dfm.y += 0.3 * rng.standard_normal(dfm.y.shape)
    cell = int(np.flatnonzero(grid.interior_mask)[3])
    r1 = gradient_equivalence_ratio(dfm, cell, 2.0)
    shifted = Deformation(grid, dfm.y + np.array([5.0, -3.0]))
    r2 = gradient_equivalence_ratio(shifted, cell, 2.0)
    assert r2 == pytest.approx(r1, rel=1e-10)


def test_ratio_undefined_for_constant(grid):
    dfm = affine_deformation(grid, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="ratio undefined"):
        gradient_equivalence_ratio(dfm, int(np.flatnonzero(grid.interior_mask)[0]), 2.0)


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_certified_bounds_contain_samples(square_spec, p, rng):
    lo, hi = certified_ratio_bounds(square_spec, p)
    assert 0 < lo < hi
    grid = build_grid(square_spec, 5)
    for _ in range(40):
        dfm = affine_deformation(grid, np.eye(2))
        dfm.y += rng.standard_normal(dfm.y.shape)
        for cell in np.flatnonzero(grid.interior_mask)[:5]:
            r = gradient_equivalence_ratio(dfm, int(cell), p)
            assert lo <= r <= hi


def test_certified_bounds_p2_extremes_attained(square_spec):
    # the p = 2 bounds are exact singular values: nearly attained by
    # optimizing rough directions
    lo, hi = certified_ratio_bounds(square_spec, 2.0)
    from cellhom.fields import _piece_maps, _zero_rowsum_basis
    mats, fracs = _piece_maps(square_spec)
    basis = _zero_rowsum_basis(2, 4)
    vals = []
    rng = np.random.default_rng(11)
    for _ in range(4000):
        c = rng.standard_normal(len(basis))
        F = sum(ci * E for ci, E in zip(c, basis))
        vals.append(sum(fr * np.linalg.norm(F @ W) ** 2 for W, fr in zip(mats, fracs))
                    / np.linalg.norm(F) ** 2)
    assert min(vals) >= lo
    assert max(vals) <= hi
    assert min(vals) <= lo * 1.5 and max(vals) >= hi * 0.7


def test_ratio_p2_identity_on_square(grid, rng):
    # On the unit square the cell average of |interpolant gradient|^2 equals
    # |F|^2 exactly (hand check: the x-bump at the lowest corner gives
    # piece gradients (1, 1/2) on four triangles and (0, 1/2) on the other
    # four, so the average is (4*1.25 + 4*0.25)/8 = 3/4 = |F|^2).
    dfm = affine_deformation(grid, np.eye(2))
    dfm.y += rng.standard_normal(dfm.y.shape)
    for cell in np.flatnonzero(grid.interior_mask)[:6]:
        r = gradient_equivalence_ratio(dfm, int(cell), 2.0)
        assert r == pytest.approx(1.0, abs=1e-12)


def test_ratio_p2_corner_bump_hand_value(grid):
    dfm = affine_deformation(grid, np.zeros((2, 2)))
    cell = int(np.flatnonzero(grid.interior_mask)[0])
    sites = grid.interior_cell_sites[0]
    dfm.y[sites[0]] = np.array([1.0, 0.0])
    vals = corner_values(dfm, 0)
    avg = sum(frac * np.linalg.norm(vals.T @ W) ** 2 for W, frac in zip(*_piece_maps(grid.spec)))
    assert avg == pytest.approx(0.75, abs=1e-13)
    F = discrete_gradient(dfm, cell)
    assert np.linalg.norm(F) ** 2 == pytest.approx(0.75, abs=1e-13)


def test_certified_bounds_nontrivial_for_skewed_basis():
    from cellhom import build_lattice
    hexagonal = build_lattice(2, np.array([[1.0, 0.5], [0.0, np.sqrt(3) / 2]]))
    lo, hi = certified_ratio_bounds(hexagonal, 2.0)
    assert lo < 0.99 < 1.01 < hi / 0.9  # genuinely two-sided sandwich


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_ratio_on_wide_stencil_uses_corner_block(p, rng):
    # LJ at cutoff 2.5 has 16 stencil columns; the interpolant reads only the
    # 4 corners, so the ratio divides by the corner block and stays inside
    # the certified interval (which is [1, 1] at p = 2 on the square)
    model = pair_potential_model(square_lattice(), lennard_jones(1.0, 2 ** (-1 / 6)), 2.5)
    grid = build_grid(model.spec, 6)
    assert model.spec.n_cols == 16
    lo, hi = certified_ratio_bounds(model.spec, p)
    dfm = affine_deformation(grid, np.eye(2))
    dfm.y += rng.standard_normal(dfm.y.shape)
    for cell in np.flatnonzero(grid.interior_mask):
        assert lo <= gradient_equivalence_ratio(dfm, int(cell), p) <= hi
    # a field constant on one cell's corners has no interpolant gradient
    # there, whatever the other stencil columns hold
    cell = int(np.flatnonzero(grid.interior_mask)[0])
    dfm.y[grid.interior_cell_sites[0, :4]] = 0.5
    with pytest.raises(ValueError, match="ratio undefined"):
        gradient_equivalence_ratio(dfm, cell, p)

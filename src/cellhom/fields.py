"""Lattice deformations, discrete gradients and cell interpolation.

A deformation stores one position vector per lattice site.  The discrete
gradient of a cell collects the stencil-site positions minus the mean of
the 2^d corner positions; its corner block always has zero row sums, which
is exactly the admissible set for cell energies.

The continuous piecewise-affine interpolant of the corner values (built by
recursive face-barycenter subdivision, 8 triangles per 2D cell) is used
for diagnostics only: its cell-averaged gradient p-norm is equivalent to
the norm of the discrete gradient's corner block, with constants that
depend only on the lattice basis; this module computes them once per basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import CellGrid, LatticeSpec, simplex_maps

__all__ = [
    "Deformation",
    "affine_deformation",
    "discrete_gradient",
    "gradient_equivalence_ratio",
    "certified_ratio_bounds",
]


@dataclass
class Deformation:
    """Per-site positions on a grid; the pinned mask comes from the grid."""

    grid: CellGrid
    y: np.ndarray  # (n_sites, d)

    def copy(self) -> "Deformation":
        return Deformation(self.grid, self.y.copy())


def affine_deformation(grid: CellGrid, M) -> Deformation:
    """y(x) = M x at every site."""
    M = np.asarray(M, dtype=float)
    return Deformation(grid, grid.site_coords @ M.T)


def discrete_gradient(deformation: Deformation, cell: int) -> np.ndarray:
    """The d x n_cols discrete gradient of one interior cell.

    Column j is (stencil site j) minus the mean of the 2^d corner values.
    """
    grid = deformation.grid
    interior = np.nonzero(grid.interior_mask)[0]
    pos = np.searchsorted(interior, cell)
    if pos >= len(interior) or interior[pos] != cell:
        raise ValueError("gradient undefined on boundary layer")
    sites = grid.interior_cell_sites[pos]
    Y = deformation.y[sites].T  # (d, n_cols)
    nc = grid.spec.n_corners
    return Y - Y[:, :nc].mean(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# recursive barycentric interpolation
# ---------------------------------------------------------------------------


def _face_decomposition(axes, fixed, d):
    """Simplices of a k-face as lists of corner-weight vectors.

    A vertex of the decomposition is a convex combination of cell corners;
    it is represented by its weight vector over the 2^d corners.  ``axes``
    are the free axes of the face, ``fixed`` maps the other axes to 0/1.
    """
    corners_of_face = []
    for bits in range(2 ** len(axes)):
        idx = 0
        for pos, axis in enumerate(axes):
            if (bits >> pos) & 1:
                idx |= 1 << axis
        for axis, bit in fixed.items():
            if bit:
                idx |= 1 << axis
        corners_of_face.append(idx)

    if len(axes) == 0:
        w = np.zeros(2**d)
        w[corners_of_face[0]] = 1.0
        return [[w]]

    center = np.zeros(2**d)
    for c in corners_of_face:
        center[c] = 1.0 / len(corners_of_face)

    simplices = []
    for drop_pos, drop_axis in enumerate(axes):
        sub_axes = tuple(a for a in axes if a != drop_axis)
        for bit in (0, 1):
            sub_fixed = dict(fixed)
            sub_fixed[drop_axis] = bit
            for sub in _face_decomposition(sub_axes, sub_fixed, d):
                simplices.append(sub + [center])
    return simplices


_FACE_CACHE: dict = {}


def _cell_simplices(d):
    """(n_pieces, d+1, 2^d) corner weights of the pieces' vertices."""
    if d not in _FACE_CACHE:
        _FACE_CACHE[d] = np.array(_face_decomposition(tuple(range(d)), {}, d))
    return _FACE_CACHE[d]


def _ratio(F, mats, fracs, p):
    """Cell average over the pieces of |F @ W|^p, over |F|^p; F is a corner block."""
    return sum(frac * np.linalg.norm(F @ W) ** p
               for W, frac in zip(mats, fracs)) / np.linalg.norm(F) ** p


def gradient_equivalence_ratio(deformation: Deformation, cell: int, p: float):
    """(average |interpolant gradient|^p over the cell) / |F_c|^p, with F_c the
    corner block of the discrete gradient: the interpolant reads only the
    corner values, so the other stencil columns of a wide stencil take no part.

    The average is exact because the interpolant gradient is constant per
    piece; compare it against the interval of ``certified_ratio_bounds``.
    """
    F = discrete_gradient(deformation, cell)[:, :deformation.grid.spec.n_corners]
    if np.linalg.norm(F) <= 1e-14:
        raise ValueError("ratio undefined: zero discrete gradient on the corners")
    return _ratio(F, *_piece_maps(deformation.grid.spec), p)


# ---------------------------------------------------------------------------
# certified equivalence constants
# ---------------------------------------------------------------------------


def _zero_rowsum_basis(d, n):
    """Orthonormal basis of the d x n matrices with zero row sums."""
    D = np.zeros((n, n - 1))
    for i in range(n - 1):
        D[i, i] = 1.0
        D[i + 1, i] = -1.0
    q, _ = np.linalg.qr(D)
    cols = []
    for row in range(d):
        for j in range(n - 1):
            E = np.zeros((d, n))
            E[row] = q[:, j]
            cols.append(E)
    return cols


def _piece_maps(spec: LatticeSpec):
    """(maps, volume fractions) of the barycentric pieces: G = F @ maps[s]."""
    W, vols = simplex_maps(_cell_simplices(spec.d), spec.corners.T)
    return W, vols / spec.det_abs


_BOUND_CACHE: dict = {}


def certified_ratio_bounds(spec: LatticeSpec, p: float):
    """Extreme values of the gradient-equivalence ratio over unit fields.

    The ratio is scale invariant and depends on the discrete gradient only,
    so its extremes over the zero-row-sum unit sphere are the equivalence
    constants.  For p = 2 they are exact singular values of the stacked
    piece maps; for other p a dense deterministic sample of the sphere is
    refined by local optimization from the most extreme starts.
    """
    key = (spec.d, spec.A.tobytes(), float(p))
    if key in _BOUND_CACHE:
        return _BOUND_CACHE[key]

    d, n = spec.d, spec.n_corners
    mats, fracs = _piece_maps(spec)
    basis = _zero_rowsum_basis(d, n)

    if p == 2:
        rows = []
        for E in basis:
            rows.append(
                np.concatenate(
                    [np.sqrt(frac) * (E @ W).ravel() for W, frac in zip(mats, fracs)]
                )
            )
        sv = np.linalg.svd(np.stack(rows, axis=1), compute_uv=False)
        lo, hi = float(sv.min() ** 2), float(sv.max() ** 2)
    else:
        from scipy.optimize import minimize

        dim = len(basis)
        rng = np.random.default_rng(20240513)
        samples = rng.standard_normal((4096, dim))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)

        def ratio_coords(c):
            F = sum(ci * E for ci, E in zip(c, basis))
            return _ratio(F, mats, fracs, p)

        vals = np.array([ratio_coords(c) for c in samples])

        def refine(c0, sign):
            res = minimize(
                lambda c: sign * ratio_coords(c / np.linalg.norm(c)),
                c0, method="L-BFGS-B",
                options={"maxiter": 200, "ftol": 1e-14, "gtol": 1e-12},
            )
            return sign * res.fun

        lo = min(refine(samples[i], +1.0) for i in np.argsort(vals)[:8])
        hi = max(refine(samples[i], -1.0) for i in np.argsort(vals)[-8:])
        lo, hi = float(lo), float(hi)

    margin = 1e-9 * max(1.0, hi)
    out = (lo - margin, hi + margin)
    _BOUND_CACHE[key] = out
    return out

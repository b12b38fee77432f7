"""Bravais-lattice geometry and cell/site bookkeeping on box samples.

A lattice is generated by an invertible basis matrix A; its unit cells are
the half-open parallelepipeds A(k + [0,1)^d) indexed by integer vectors k.
A finite sample is the box of N^d cells.  The lattice spacing is
normalized to one throughout (rescaling the cell problems is lossless).
Energies are sums over the interior cells (those at least ``radius``
layers away from the box faces), so every site that touches a
non-interior cell carries Dirichlet data ("pinned") while the remaining
sites are free degrees of freedom.

Interaction stencils wider than one cell are described by the set of
neighbouring cell offsets whose corners participate; the stencil always
starts with the 2^d corners of the cell itself, listed in binary order
with the (-1/2, ..., -1/2) corner first (bit 0 of the column index toggles
the first axis).  That ordering is part of a model's identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LatticeSpec",
    "CellGrid",
    "build_lattice",
    "build_grid",
    "square_lattice",
    "integer_box",
    "flat_index",
    "lattice_vectors_within",
    "simplex_maps",
]


def integer_box(lo: int, hi: int, d: int) -> np.ndarray:
    """Every integer vector of {lo..hi}^d, shape ((hi-lo+1)^d, d), in
    lexicographic order with the first axis slowest."""
    axes = np.meshgrid(*[np.arange(lo, hi + 1)] * d, indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, d)


def flat_index(multi, side: int) -> np.ndarray:
    """Positions of the multi-indices ``multi`` (..., d) in ``integer_box(0,
    side - 1, d)``; the sites of an N-box have side N + 1, its cells N."""
    multi = np.asarray(multi)
    return np.ravel_multi_index(tuple(np.moveaxis(multi, -1, 0)), (side,) * multi.shape[-1])


def lattice_vectors_within(spec: "LatticeSpec", cutoff: float):
    """(k, A k) for the integer vectors k with 0 < |A k| <= cutoff."""
    reach = int(np.ceil(cutoff * np.linalg.norm(np.linalg.inv(spec.A), 2))) + 1
    k = integer_box(-reach, reach, spec.d)
    x = k @ spec.A.T
    r = np.linalg.norm(x, axis=1)
    keep = (r > 1e-12) & (r <= cutoff + 1e-12)
    return k[keep], x[keep]


def simplex_maps(weights, corners):
    """Gradient maps and volumes of simplices spanned by cell corners.

    ``weights`` (S, d+1, n) gives each vertex of each simplex as a convex
    combination of the n corner positions ``corners`` (n, d).  Returns W
    (S, n, d) and the volumes (S,): corner values F (d, n) interpolate
    affinely on simplex s with the constant gradient F @ W[s].
    """
    weights = np.asarray(weights, dtype=float)
    verts = weights @ corners
    X = np.swapaxes(verts[:, 1:] - verts[:, :1], 1, 2)      # edges as columns
    W = np.swapaxes(weights[:, 1:] - weights[:, :1], 1, 2) @ np.linalg.inv(X)
    return W, np.abs(np.linalg.det(X)) / math.factorial(X.shape[-1])


@dataclass(frozen=True)
class LatticeSpec:
    """Immutable description of a Bravais lattice and its interaction stencil.

    Attributes:
        d: spatial dimension (2 or 3).
        A: d x d basis matrix, columns are the primitive vectors.
        det_abs: |det A| > 0.
        corners: d x 2^d matrix of unit-cell corner vectors A*{-1/2,1/2}^d,
            binary column order, first column A*(-1/2,...,-1/2).  Columns
            sum to zero.
        stencil: d x n_cols matrix of all stencil offsets (Cartesian,
            relative to the cell center); the first 2^d columns are
            ``corners``.
        offsets_int: (n_cols, d) integer site offsets of the stencil
            columns relative to the cell's base index k (corner j of cell
            k is site k + offsets_int[j]).
        radius: boundary-layer width in cells; 1 for unit-cell stencils.
        m: number of internal atoms per cell (0 for a plain Bravais model).
    """

    d: int
    A: np.ndarray
    det_abs: float
    corners: np.ndarray
    stencil: np.ndarray
    offsets_int: np.ndarray
    radius: int
    m: int = 0

    @property
    def n_corners(self) -> int:
        return 2**self.d

    @property
    def n_cols(self) -> int:
        return self.stencil.shape[1]

    def __post_init__(self):
        for arr in (self.A, self.corners, self.stencil, self.offsets_int):
            arr.setflags(write=False)


def build_lattice(d, A, stencil_offsets=None, m=0) -> LatticeSpec:
    """Build a lattice specification.

    Args:
        d: dimension, 2 or 3.
        A: d x d invertible basis matrix (any nested sequence).
        stencil_offsets: optional list of integer cell offsets whose
            corners join the interaction stencil.  Must contain the zero
            offset and no duplicates.  ``None`` means the unit cell only.
        m: internal atoms per cell.

    Raises:
        ValueError: on a singular basis ("degenerate lattice") or a
            malformed stencil ("bad stencil").
    """
    if d not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {d}")
    A = np.asarray(A, dtype=float)
    if A.shape != (d, d):
        raise ValueError(f"basis must be {d}x{d}, got {A.shape}")
    det = np.linalg.det(A)
    scale = np.max(np.abs(A))
    if not np.isfinite(det) or abs(det) <= 1e-12 * max(scale, 1.0) ** d:
        raise ValueError("degenerate lattice: basis matrix is singular")
    if m < 0:
        raise ValueError(f"internal atom count must be >= 0, got {m}")

    if stencil_offsets is None:
        offsets = [(0,) * d]
    else:
        offsets = [tuple(int(c) for c in off) for off in stencil_offsets]
        for off, raw in zip(offsets, stencil_offsets):
            if not np.allclose(np.asarray(raw, dtype=float), off):
                raise ValueError("bad stencil: offsets must be integer cell offsets")
        if len(set(offsets)) != len(offsets):
            raise ValueError("bad stencil: duplicate cell offsets")
        if (0,) * d not in offsets:
            raise ValueError("bad stencil: zero offset missing")
        # Own cell comes first regardless of the caller's ordering.
        offsets = [(0,) * d] + [off for off in offsets if off != (0,) * d]

    fr = integer_box(0, 1, d)[:, ::-1] - 0.5   # {-1/2, 1/2}^d, binary order
    # every cell's corners, each site kept at its first appearance
    frac = (np.asarray(offsets)[:, None, :] + fr[None]).reshape(-1, d)
    frac = frac[np.sort(np.unique(frac, axis=0, return_index=True)[1])]
    radius = 1 + max(int(np.max(np.abs(off))) for off in offsets)

    corners = (A @ fr.T).copy()
    stencil = (A @ frac.T).copy()
    offsets_int = np.round(frac + 0.5).astype(int)
    return LatticeSpec(
        d=d,
        A=A.copy(),
        det_abs=abs(det),
        corners=corners,
        stencil=stencil,
        offsets_int=offsets_int,
        radius=radius,
        m=int(m),
    )


def square_lattice(m=0) -> LatticeSpec:
    """The 2D unit square lattice (A = identity)."""
    return build_lattice(2, np.eye(2), m=m)


@dataclass(frozen=True)
class CellGrid:
    """A box of N^d unit cells with interior/boundary classification.

    Cells are indexed lexicographically over k in {0..N-1}^d (first axis
    slowest), sites over i in {0..N}^d.  Immutable after construction and
    safe to share between workers.
    """

    spec: LatticeSpec
    N: int
    cell_multi: np.ndarray = field(repr=False)       # (n_cells, d) int
    interior_mask: np.ndarray = field(repr=False)    # (n_cells,) bool
    site_multi: np.ndarray = field(repr=False)       # (n_sites, d) int
    site_coords: np.ndarray = field(repr=False)      # (n_sites, d) float
    free_mask: np.ndarray = field(repr=False)        # (n_sites,) bool
    interior_cell_sites: np.ndarray = field(repr=False)  # (n_interior, n_cols) int

    def __post_init__(self):
        for arr in (self.cell_multi, self.interior_mask, self.site_multi,
                    self.site_coords, self.free_mask, self.interior_cell_sites):
            arr.setflags(write=False)

    @property
    def n_cells(self) -> int:
        return self.N ** self.spec.d

    @property
    def n_interior(self) -> int:
        return self.interior_cell_sites.shape[0]


def build_grid(spec: LatticeSpec, N: int) -> CellGrid:
    """Enumerate the cells and sites of the N^d box.

    The boundary layer has width ``spec.radius`` cells so that every
    stencil site of an interior cell exists on the grid; a site is free
    exactly when all cells it is a corner of are interior.

    Raises:
        ValueError: if N <= 2*radius ("no interior cells").
    """
    d, r = spec.d, spec.radius
    N = int(N)
    if N <= 2 * r:
        raise ValueError(f"no interior cells: need N > {2 * r}, got N = {N}")

    cell_multi = integer_box(0, N - 1, d)
    interior_mask = np.all((cell_multi >= r) & (cell_multi <= N - 1 - r), axis=1)

    site_multi = integer_box(0, N, d)
    site_coords = site_multi @ spec.A.T
    free_mask = np.all((site_multi >= r + 1) & (site_multi <= N - 1 - r), axis=1)

    interior_multi = cell_multi[interior_mask]                     # (n_int, d)
    idx = interior_multi[:, None, :] + spec.offsets_int[None, :, :]
    if idx.min() < 0 or idx.max() > N:
        raise ValueError("stencil reaches outside the box")
    interior_cell_sites = flat_index(idx, N + 1)

    return CellGrid(
        spec=spec,
        N=N,
        cell_multi=cell_multi,
        interior_mask=interior_mask,
        site_multi=site_multi,
        site_coords=site_coords,
        free_mask=free_mask,
        interior_cell_sites=interior_cell_sites,
    )

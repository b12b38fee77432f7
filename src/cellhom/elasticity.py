"""Elastic constants and Cauchy-relation diagnostics.

Pair interactions admit a closed lattice-sum formula for the elastic
tensor (second derivative of the affine energy density at the identity);
its two terms are symmetric under the index exchanges j <-> l and i <-> k,
which forces the classical Cauchy relations.  General cell energies are
differentiated numerically instead, and comparing the two paths, or
checking the Cauchy residuals of a multi-constant quadratic-form model,
quantifies how far a model escapes the pair-potential class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import LatticeSpec, lattice_vectors_within

__all__ = [
    "ElasticTensor",
    "CauchyReport",
    "pair_elastic_tensor",
    "numeric_elastic_tensor",
    "cauchy_residuals",
    "quadratic_model_hessian_check",
    "voigt_matrix",
]


@dataclass
class ElasticTensor:
    """c_ijkl entries (energy per unit volume per squared strain)."""

    d: int
    c: np.ndarray  # (d, d, d, d)

    @property
    def major_symmetry_residual(self) -> float:
        return float(np.max(np.abs(self.c - np.transpose(self.c, (2, 3, 0, 1)))))

    @property
    def minor_symmetry_residual(self) -> float:
        return float(np.max(np.abs(self.c - np.transpose(self.c, (1, 0, 2, 3)))))


@dataclass
class CauchyReport:
    """Residuals of the Cauchy relations plus tensor-symmetry residuals.

    In 3D the six relations pair c_iijj with c_ijij and c_iijk with the
    matching c_ij,ik transposition; in 2D the single analogue is
    c_1122 - c_1212.
    """

    d: int
    residuals: dict
    max_cauchy: float
    minor_symmetry: float
    major_symmetry: float


def pair_elastic_tensor(potential, lattice: LatticeSpec, cutoff: float) -> ElasticTensor:
    """Direct lattice sum of the pair-potential elastic constants.

    c_ijkl = (1/|det A|) * sum over lattice vectors x with 0 < |x| <= cutoff
    of V''(|x|) x_i x_j x_k x_l / |x|^2
    + V'(|x|) (x_j x_l delta_ik / |x| - x_i x_j x_k x_l / |x|^3).

    V' and V'' are the radial derivatives of the ``PairPotential`` at rest,
    ``potential.value_and_deriv(r, r)[1]`` and ``potential.deriv2(r, r)``:
    the bond models read phi' from the same object.  A potential with a
    ``shell`` sums over the vectors of that length only, as its pair model
    does.  The convention matches the ordered-pair lattice sum
    W(M) = sum_{x != 0} V(|Mx|) / |det A|.
    """
    _, pts = lattice_vectors_within(lattice, cutoff)
    r = np.linalg.norm(pts, axis=1)
    keep = potential.on_shell(r)
    pts, r = pts[keep], r[keep]
    if len(pts) == 0:
        raise ValueError("empty shell set within the cutoff")
    d = lattice.d
    v1 = np.asarray(potential.value_and_deriv(r, r)[1], dtype=float)
    v2 = np.asarray(potential.deriv2(r, r), dtype=float)
    xxxx = np.einsum("ni,nj,nk,nl->nijkl", pts, pts, pts, pts)
    term = v2[:, None, None, None, None] * xxxx / (r**2)[:, None, None, None, None]
    jl = np.einsum("nj,nl->njl", pts, pts)
    eye = np.eye(d)
    term += v1[:, None, None, None, None] * (
        np.einsum("njl,ik->nijkl", jl / r[:, None, None], eye)
        - xxxx / (r**3)[:, None, None, None, None]
    )
    c = term.sum(axis=0) / lattice.det_abs
    return ElasticTensor(d=d, c=c)


def _hessian_once(W, d: int, h: float) -> np.ndarray:
    eye = np.eye(d)
    c = np.empty((d, d, d, d))
    basis = [np.outer(eye[i], eye[j]) for i in range(d) for j in range(d)]
    for a, Ea in enumerate(basis):
        for b, Eb in enumerate(basis[: a + 1]):
            val = (
                W(eye + h * (Ea + Eb))
                - W(eye + h * (Ea - Eb))
                - W(eye - h * (Ea - Eb))
                + W(eye - h * (Ea + Eb))
            ) / (4.0 * h * h)
            i, j = divmod(a, d)
            k, l = divmod(b, d)
            c[i, j, k, l] = val
            c[k, l, i, j] = val
    return c


def numeric_elastic_tensor(W, d: int = 2, h: float = 1e-3) -> ElasticTensor:
    """Second differences of a density W at the identity, Richardson-refined.

    c_ijkl is the mixed second partial of W with respect to M_ij and M_kl;
    the cross stencil at steps h and h/2 combines to an O(h^4) estimate.
    """
    test = W(np.eye(d))
    if not np.isfinite(test):
        raise ValueError("non-finite evaluation of the density at the identity")
    c_h = _hessian_once(W, d, h)
    c_h2 = _hessian_once(W, d, h / 2)
    c = (4.0 * c_h2 - c_h) / 3.0
    if not np.all(np.isfinite(c)):
        raise ValueError("non-finite evaluation in the difference stencil")
    return ElasticTensor(d=d, c=c)


_CAUCHY_PAIRS_3D = [
    ((0, 0, 1, 1), (0, 1, 0, 1)),  # c_1122 = c_1212
    ((1, 1, 2, 2), (1, 2, 1, 2)),  # c_2233 = c_2323
    ((2, 2, 0, 0), (2, 0, 2, 0)),  # c_3311 = c_3131
    ((0, 0, 1, 2), (0, 1, 0, 2)),  # c_1123 = c_1213
    ((1, 1, 2, 0), (1, 2, 1, 0)),  # c_2231 = c_2321
    ((2, 2, 0, 1), (2, 0, 2, 1)),  # c_3312 = c_3132
]


def cauchy_residuals(t: ElasticTensor) -> CauchyReport:
    """Absolute residuals of the Cauchy relations for a given tensor."""
    if t.d == 3:
        pairs = _CAUCHY_PAIRS_3D
    elif t.d == 2:
        pairs = [((0, 0, 1, 1), (0, 1, 0, 1))]
    else:
        raise ValueError("Cauchy report needs d = 2 or d = 3")
    residuals = {}
    for left, right in pairs:
        key = "c" + "".join(str(i + 1) for i in left) + "-c" + "".join(
            str(i + 1) for i in right)
        residuals[key] = abs(float(t.c[left] - t.c[right]))
    return CauchyReport(
        d=t.d,
        residuals=residuals,
        max_cauchy=max(residuals.values()),
        minor_symmetry=t.minor_symmetry_residual,
        major_symmetry=t.major_symmetry_residual,
    )


def quadratic_model_hessian_check(Q, kappa: float = 1.0, delta: float = 0.5,
                                  h: float = 1e-3, spec: LatticeSpec | None = None) -> float:
    """Max deviation between half the affine-density Hessian and Q itself.

    Builds the quadratic-form cell model for Q, differentiates its affine
    density numerically at the identity, and compares the bilinear form
    against Q's own polarization over the canonical matrix basis.
    """
    from .homogenize import cauchy_born_density
    from .lattice import square_lattice
    from .models import quadratic_form_model

    spec = spec or square_lattice()
    model = quadratic_form_model(spec, Q, kappa=kappa, delta=delta)
    tensor = numeric_elastic_tensor(
        lambda M: cauchy_born_density(model, M), d=spec.d, h=h)
    target = Q.tensor()  # d^2 Q / dM dM, so Q's polarization is target / 2
    return float(np.max(np.abs(0.5 * tensor.c - 0.5 * target)))


def voigt_matrix(t: ElasticTensor) -> np.ndarray:
    """Voigt-notation matrix: 3x3 in 2D (11, 22, 12), 6x6 in 3D."""
    if t.d == 2:
        idx = [(0, 0), (1, 1), (0, 1)]
    else:
        idx = [(0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1)]
    n = len(idx)
    out = np.empty((n, n))
    for a, (i, j) in enumerate(idx):
        for b, (k, l) in enumerate(idx):
            out[a, b] = t.c[i, j, k, l]
    return out

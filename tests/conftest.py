import numpy as np
import pytest

from cellhom import (harmonic_spring_model, multilattice_harmonic_model,
                     square_lattice)


@pytest.fixture(scope="session")
def square_spec():
    return square_lattice()


@pytest.fixture(scope="session")
def harmonic(square_spec):
    return harmonic_spring_model(square_spec, 1.0, 1.0)


@pytest.fixture(scope="session")
def multilattice():
    spec = square_lattice(m=1)
    return multilattice_harmonic_model(spec, 1.0, np.sqrt(0.5))


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    return rotation(rng.uniform(0, 2 * np.pi))


def fd_gradient(energy, F, s=None, h=1e-6):
    """Central finite differences of a cell energy, step scaled by 1+|F|."""
    F = np.asarray(F, dtype=float)
    step = h * (1.0 + np.linalg.norm(F))
    gF = np.zeros_like(F)
    for i in range(F.shape[0]):
        for j in range(F.shape[1]):
            Fp, Fm = F.copy(), F.copy()
            Fp[i, j] += step
            Fm[i, j] -= step
            gF[i, j] = (energy(Fp, s) - energy(Fm, s)) / (2 * step)
    gS = None
    if s is not None:
        s = np.asarray(s, dtype=float)
        gS = np.zeros_like(s)
        for i in range(s.shape[0]):
            for j in range(s.shape[1]):
                sp, sm = s.copy(), s.copy()
                sp[i, j] += step
                sm[i, j] -= step
                gS[i, j] = (energy(F, sp) - energy(F, sm)) / (2 * step)
    return gF, gS


def cell_gradient(model, F, s=None):
    """(dE/dF, dE/ds) of one cell from the model's batched kernel."""
    S = None if s is None else np.asarray(s, dtype=float)[None]
    gF, gS = model._cells(np.asarray(F, dtype=float)[None], S, True)[1]
    return gF[0], None if gS is None else gS[0]


def max_rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))

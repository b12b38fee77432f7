import numpy as np
import pytest

from cellhom import (PairPotential, QuadraticForm, build_lattice, cauchy_born_density,
                     cauchy_residuals, harmonic_pair, lennard_jones,
                     numeric_elastic_tensor, pair_elastic_tensor,
                     pair_potential_model, quadratic_form_model, quadratic_model_hessian_check,
                     square_lattice, voigt_matrix)
from cellhom.elasticity import ElasticTensor


def radial(deriv, deriv2):
    """A PairPotential with the given derivatives at rest, as callables of
    the radius (its value is never read)."""
    return PairPotential(value_and_deriv=lambda r, rho: (None, deriv(rho)),
                         deriv2=lambda r, rho: deriv2(rho))


def test_zero_potential_zero_tensor(square_spec):
    t = pair_elastic_tensor(radial(lambda r: 0.0 * r, lambda r: 0.0 * r), square_spec, 1.5)
    assert np.all(t.c == 0.0)


def test_nearest_neighbour_hand_sum(square_spec):
    # V'' = 2, V'(1) = 0 on the four nearest neighbours: the only
    # contribution is 2 * x_i x_j x_k x_l summed over +-e1, +-e2
    t = pair_elastic_tensor(radial(lambda r: 0.0 * r, lambda r: 2.0 + 0.0 * r),
                            square_spec, 1.0)
    assert t.c[0, 0, 0, 0] == pytest.approx(4.0, abs=1e-14)
    assert t.c[1, 1, 1, 1] == pytest.approx(4.0, abs=1e-14)
    assert t.c[0, 0, 1, 1] == pytest.approx(0.0, abs=1e-14)
    assert t.c[0, 1, 0, 1] == pytest.approx(0.0, abs=1e-14)


def equilibrium_lj_sigma(lattice, cutoff):
    """Closed-form sigma that makes the truncated LJ lattice stress-free:
    the pressure sum 24 sigma^6 S6 - 48 sigma^12 S12 vanishes."""
    from cellhom.lattice import lattice_vectors_within
    r = np.linalg.norm(lattice_vectors_within(lattice, cutoff)[1], axis=1)
    s6 = np.sum(r**-6.0)
    s12 = np.sum(r**-12.0)
    return float((s6 / (2.0 * s12)) ** (1.0 / 6.0))


def test_lj_cubic_cauchy_relations():
    # the printed-sum symmetries give c_ijkl = c_ilkj = c_kjil for any V;
    # at a stress-free reference they combine with minor symmetry into the
    # classical six relations
    cubic = build_lattice(3, np.eye(3))
    sigma = equilibrium_lj_sigma(cubic, 2.5)
    t = pair_elastic_tensor(lennard_jones(1.0, sigma), cubic, 2.5)
    rep = cauchy_residuals(t)
    scale = float(np.abs(t.c).max())
    assert rep.max_cauchy <= 1e-10 * scale
    assert rep.major_symmetry <= 1e-12 * scale
    assert rep.minor_symmetry <= 1e-10 * scale


def test_prestressed_pair_lattice_breaks_cauchy(square_spec):
    # at cutoff 1.5 the unit harmonic pair also reaches the sqrt(2) shell,
    # where V' = sqrt(2) - 1 != 0: the lattice is not stress-free, and
    # c_1122 = c_1212 fails by the stress term of c_1212,
    # sum_x V'(|x|) x_2^2 / |x| = 4 (sqrt(2) - 1) / sqrt(2)
    rep = cauchy_residuals(pair_elastic_tensor(harmonic_pair(1.0, 1.0), square_spec, 1.5))
    assert rep.max_cauchy == pytest.approx(4.0 - 2.0 * np.sqrt(2.0), rel=1e-12)


def test_pair_swap_symmetries_hold_for_any_potential():
    # without equilibration only the swap symmetries are exact
    cubic = build_lattice(3, np.eye(3))
    c = pair_elastic_tensor(lennard_jones(1.0, 2 ** (-1 / 6)), cubic, 2.5).c
    assert np.abs(c - np.transpose(c, (0, 3, 2, 1))).max() <= 1e-12 * np.abs(c).max()
    assert np.abs(c - np.transpose(c, (2, 1, 0, 3))).max() <= 1e-12 * np.abs(c).max()


def test_empty_shell_set(square_spec):
    with pytest.raises(ValueError, match="empty shell"):
        pair_elastic_tensor(radial(lambda r: r, lambda r: r), square_spec, 0.5)


@pytest.mark.parametrize("shell", [1.2, 2.0])
def test_empty_shell_on_the_cutoff(square_spec, shell):
    with pytest.raises(ValueError, match="empty shell"):
        pair_elastic_tensor(harmonic_pair(1.0, 1.0, shell=shell), square_spec, 1.5)


def test_shell_tensor_is_the_smaller_cutoff_tensor(square_spec):
    # the unit shell at cutoff 1.5 sums the nearest neighbours only
    shell = pair_elastic_tensor(harmonic_pair(1.0, 1.1, shell=1.0), square_spec, 1.5)
    near = pair_elastic_tensor(harmonic_pair(1.0, 1.1), square_spec, 1.0)
    assert np.array_equal(shell.c, near.c)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("cutoff", [1.0, 1.5])
def test_stiffness_weights_are_the_elastic_tensor_diagonal(d, cutoff):
    # the bond models' preconditioner weights at M = I and the lattice sum
    # contract the same Hessian blocks; the model counts each bond once
    spec = build_lattice(d, np.eye(d))
    potential = harmonic_pair(1.0, 1.0)
    weights = pair_potential_model(spec, potential, cutoff)._stiffness(np.eye(d))
    C = pair_elastic_tensor(potential, spec, cutoff).c
    assert weights is not None
    assert np.allclose(weights, 0.5 * spec.det_abs * np.einsum("iaia->ia", C), rtol=1e-14, atol=0)


def test_numeric_quadratic_density():
    W = lambda M: np.sum((0.5 * (M + M.T) - np.eye(2)) ** 2)
    t = numeric_elastic_tensor(W, d=2, h=1e-3)
    assert t.c[0, 0, 0, 0] == pytest.approx(2.0, abs=1e-8)
    assert t.c[0, 1, 0, 1] == pytest.approx(1.0, abs=1e-8)
    assert t.c[0, 0, 1, 1] == pytest.approx(0.0, abs=1e-8)


def test_numeric_affine_density_zero():
    W = lambda M: 3.0 + M[0, 1] - 2.0 * M[1, 1]
    t = numeric_elastic_tensor(W, d=2, h=1e-3)
    assert np.abs(t.c).max() <= 1e-9


def test_cross_oracle_harmonic(square_spec, harmonic):
    # the spring model counts each unordered bond once, i.e. it matches the
    # ordered-pair convention with half the potential
    pot = harmonic_pair(k=1.0, r0=1.0, shell=1.0)
    t_pair = pair_elastic_tensor(pot, square_spec, 1.0)
    t_num = numeric_elastic_tensor(lambda M: cauchy_born_density(harmonic, M),
                                   d=2, h=1e-3)
    scale = max(1.0, np.abs(t_pair.c).max())
    assert np.abs(t_pair.c - t_num.c).max() <= 1e-6 * scale


def test_cauchy_report_zero_tensor():
    rep = cauchy_residuals(ElasticTensor(d=3, c=np.zeros((3, 3, 3, 3))))
    assert rep.max_cauchy == 0.0
    assert len(rep.residuals) == 6


def test_cauchy_report_2d_single_residual():
    c = np.zeros((2, 2, 2, 2))
    c[0, 0, 1, 1] = 1.5
    c[0, 1, 0, 1] = 0.25
    rep = cauchy_residuals(ElasticTensor(d=2, c=c))
    assert list(rep.residuals.values()) == [pytest.approx(1.25)]


def test_quadratic_model_hessian_identity():
    Q = QuadraticForm.from_moduli(1.0, 0.0)   # |sym M|^2
    assert quadratic_model_hessian_check(Q, h=1e-3) <= 1e-5


def test_quadratic_model_hessian_scaling():
    Q1 = QuadraticForm.from_moduli(0.7, 0.3)
    Q2 = QuadraticForm(d=2, H=2.0 * Q1.H)
    spec = square_lattice()
    t1 = numeric_elastic_tensor(
        lambda M: cauchy_born_density(quadratic_form_model(spec, Q1), M), d=2)
    t2 = numeric_elastic_tensor(
        lambda M: cauchy_born_density(quadratic_form_model(spec, Q2), M), d=2)
    assert np.abs(2.0 * t1.c - t2.c).max() <= 1e-5


def test_quadratic_model_antisymmetric_nullspace():
    Q = QuadraticForm.from_moduli(1.0, 0.5)
    spec = square_lattice()
    t = numeric_elastic_tensor(
        lambda M: cauchy_born_density(quadratic_form_model(spec, Q), M), d=2)
    W = np.array([[0.0, 1.0], [-1.0, 0.0]])
    val = np.einsum("ijkl,ij,kl->", t.c, W, W)
    assert abs(val) <= 1e-5


def test_quadratic_model_breaks_cauchy():
    # lam != mu gives c_1122 = lam but c_1212 = mu
    Q = QuadraticForm.from_moduli(0.5, 1.0)
    spec = square_lattice()
    model = quadratic_form_model(spec, Q)
    t = numeric_elastic_tensor(lambda M: cauchy_born_density(model, M), d=2)
    rep = cauchy_residuals(t)
    assert t.c[0, 0, 1, 1] == pytest.approx(1.0, abs=1e-5)
    assert t.c[0, 1, 0, 1] == pytest.approx(0.5, abs=1e-5)
    assert rep.max_cauchy >= 0.1


def test_major_symmetry_invariant(square_spec, harmonic):
    t = numeric_elastic_tensor(lambda M: cauchy_born_density(harmonic, M), d=2)
    assert t.major_symmetry_residual <= 10 * 1e-6 * max(1.0, np.abs(t.c).max())


def test_minor_symmetry_frame_indifferent(square_spec, harmonic):
    t = numeric_elastic_tensor(lambda M: cauchy_born_density(harmonic, M), d=2)
    assert t.minor_symmetry_residual <= 1e-6 * max(1.0, np.abs(t.c).max())


def test_voigt_shapes():
    t2 = ElasticTensor(d=2, c=np.arange(16.0).reshape(2, 2, 2, 2))
    assert voigt_matrix(t2).shape == (3, 3)
    t3 = ElasticTensor(d=3, c=np.zeros((3, 3, 3, 3)))
    assert voigt_matrix(t3).shape == (6, 6)

import numpy as np
import pytest

from cellhom import (QuadraticForm, SolveOptions, cauchy_born_density,
                     cb_validity_scan, f_N, frobenius_squared_density,
                     lennard_jones, pair_potential_model, quadratic_form_model,
                     quasiconvex_wrapper_model, square_lattice,
                     tiling_upper_bound_check, w_cont_estimate)

from conftest import rotation

FAST = SolveOptions(n_random_starts=2)
TINY = SolveOptions(n_random_starts=1)


def target_density(M):
    # relaxed density of the harmonic chain model: stretched columns pay,
    # compressed columns buckle away
    a = np.linalg.norm(M[:, 0])
    b = np.linalg.norm(M[:, 1])
    return max(0.0, a - 1) ** 2 + max(0.0, b - 1) ** 2


def test_f_N_identity(harmonic):
    assert f_N(harmonic, np.eye(2), 8, FAST) <= 1e-12


def test_f_N_tension_exact(harmonic):
    f = f_N(harmonic, np.diag([1.2, 1.0]), 8, FAST)
    assert f == pytest.approx(0.04 * 36 / 64, abs=1e-12)


def test_f_N_rotation(harmonic):
    assert f_N(harmonic, rotation(np.pi / 6), 8, FAST) <= 1e-12


def test_w_cont_tension(harmonic):
    est = w_cont_estimate(harmonic, np.diag([1.2, 1.0]), [8, 16, 32, 64], FAST)
    assert est.w_cont == pytest.approx(0.04, abs=0.002)
    assert -0.2 < est.fit_coeff < -0.1
    for diag, N in zip(est.per_N, est.schedule):
        assert abs(diag["f_N"] - 0.04 * (N - 2) ** 2 / N**2) <= 1e-10


def test_w_cont_compression(harmonic):
    est = w_cont_estimate(harmonic, np.diag([0.5, 1.0]), [8, 16, 32], FAST)
    assert est.w_cont <= 0.005
    assert np.all(est.f_values * np.array(est.schedule) < 1.0)


def test_w_cont_clips_negative_intercept(harmonic):
    # compression from the buckling start alone: f_N falls steeply enough
    # over [6, 8, 12] that the 1/N fit crosses zero
    est = w_cont_estimate(harmonic, np.diag([0.5, 1.0]), [6, 8, 12],
                          SolveOptions(n_random_starts=0))
    assert est.clipped
    assert est.w_cont == 0.0
    assert "negative fit intercept clipped to zero" in est.warnings


def test_w_cont_identity(harmonic):
    est = w_cont_estimate(harmonic, np.eye(2), [4, 6, 8], TINY)
    assert est.w_cont <= 1e-12


def test_schedule_validation(harmonic):
    with pytest.raises(ValueError, match="schedule"):
        w_cont_estimate(harmonic, np.eye(2), [8, 16], TINY)
    with pytest.raises(ValueError, match="schedule"):
        w_cont_estimate(harmonic, np.eye(2), [8, 8, 16], TINY)


def test_cauchy_born_density_values(harmonic):
    assert cauchy_born_density(harmonic, np.diag([1.2, 1.0])) == pytest.approx(0.04, abs=1e-14)
    assert cauchy_born_density(harmonic, np.diag([0.5, 1.0])) == pytest.approx(0.25, abs=1e-14)
    assert cauchy_born_density(harmonic, rotation(1.0)) <= 1e-15


def test_cb_scan_flags_compression(harmonic):
    rows = cb_validity_scan(harmonic, [np.diag([0.5, 1.0]), rotation(0.5)],
                            [8, 16, 32], FAST)
    comp, rot = rows
    assert comp["gap"] == pytest.approx(0.25, abs=0.01)
    assert comp["flagged"]
    assert abs(rot["gap"]) <= 1e-10
    assert not rot["flagged"]


def test_cb_scan_small_strain(harmonic):
    M = np.eye(2) + np.array([[0.015, 0.004], [-0.002, 0.01]])
    rows = cb_validity_scan(harmonic, [M], [8, 16, 32], TINY)
    gap = rows[0]["gap"]
    assert -1e-6 <= gap <= 1e-3
    assert not rows[0]["flagged"]


def test_tiling_tension(harmonic):
    _, [(solved, tiled)] = tiling_upper_bound_check(harmonic, np.diag([1.2, 1.0]), [8, 16], FAST)
    assert solved <= tiled + 1e-9
    # under tension the minimizer is affine, so tiling reproduces it exactly
    assert solved == pytest.approx(tiled, abs=1e-12)


def test_tiling_identity(harmonic):
    _, [(solved, tiled)] = tiling_upper_bound_check(harmonic, np.eye(2), [4, 8], TINY)
    assert solved <= 1e-14 and tiled <= 1e-14


def test_tiling_compression(harmonic):
    _, [(solved, tiled)] = tiling_upper_bound_check(harmonic, np.diag([0.5, 1.0]), [8, 32], FAST)
    assert solved <= tiled + 1e-9
    # the tiled field pays the seams: solved relaxation is strictly better
    assert solved < tiled
    n_value = f_N(harmonic, np.diag([0.5, 1.0]), 8, FAST)
    # Tiles contribute (k/n)^d copies of the n-box energy; seams add O(1)
    # cells at the affine density 0.25.
    assert tiled <= n_value + 0.25 * (32**2 - 16 * 6**2) / 32**2 + 1e-9


@pytest.mark.parametrize("s0", [None, [[0.02], [0.01]]], ids=["relaxed", "s0"])
def test_tiling_multilattice(multilattice, s0):
    s0 = None if s0 is None else np.array(s0)
    M = np.array([[1.05, 0.02], [0.0, 0.97]])
    _, [(solved, tiled)] = tiling_upper_bound_check(multilattice, M, [4, 8], TINY, s0=s0)
    assert solved <= tiled + 1e-9
    # the minimizer is affine with one internal shift in every cell, so the
    # tiled field, internal shifts included, reproduces it
    assert solved == pytest.approx(tiled, rel=1e-12)


def test_tiling_requires_multiple(harmonic):
    with pytest.raises(ValueError, match="multiple"):
        tiling_upper_bound_check(harmonic, np.eye(2), [8, 12], TINY)


def test_quasiconvex_affine_optimal(square_spec):
    model = quasiconvex_wrapper_model(square_spec, frobenius_squared_density())
    M = np.diag([1.0, 2.0])
    est = w_cont_estimate(model, M, [16, 32, 64], TINY)
    assert est.w_cont == pytest.approx(5.0, abs=0.05)


def test_multilattice_rest(multilattice):
    est = w_cont_estimate(multilattice, np.eye(2), [4, 6, 8], TINY, s0=np.zeros((2, 1)))
    assert est.w_cont <= 1e-12


def test_multilattice_shifted_mean(multilattice):
    s0 = np.array([[0.2], [0.0]])
    est = w_cont_estimate(multilattice, np.eye(2), [4, 6, 8], TINY, s0=s0)
    assert est.w_cont > 0.0
    # the affine field with constant shift is admissible
    assert est.w_cont <= cauchy_born_density(multilattice, np.eye(2), s0) + 1e-9
    # per-N values approach the per-cell optimum at first order in 1/N
    diffs = np.abs(np.diff(est.f_values))
    assert diffs[-1] <= diffs[0] + 1e-12


def test_multilattice_frame_indifference(multilattice):
    s0 = np.array([[0.1], [0.05]])
    M = np.diag([1.05, 1.0])
    R = rotation(0.6)
    a = w_cont_estimate(multilattice, M, [4, 6, 8], TINY, s0=s0)
    b = w_cont_estimate(multilattice, R @ M, [4, 6, 8], TINY, s0=R @ s0)
    assert abs(a.w_cont - b.w_cont) <= 1e-6


def test_min_over_s_identity(multilattice):
    est = w_cont_estimate(multilattice, np.eye(2), [4, 6, 8], TINY)
    assert est.w_cont <= 1e-12


def test_min_over_s_dominates_constrained(multilattice):
    M = np.diag([1.1, 1.0])
    free = w_cont_estimate(multilattice, M, [4, 6, 8], TINY)
    for s0x in (-0.1, 0.0, 0.1):
        constrained = w_cont_estimate(multilattice, M, [4, 6, 8], TINY,
                                      s0=np.array([[s0x], [0.0]]))
        assert free.w_cont <= constrained.w_cont + 1e-9


def test_min_over_s_requires_internal(harmonic):
    with pytest.raises(ValueError, match="internal variables"):
        w_cont_estimate(harmonic, np.eye(2), [4, 6, 8], TINY, s0=np.zeros((2, 1)))


def test_zero_energy_all_builtin_zero_sets(square_spec, harmonic, multilattice, rng):
    models = [harmonic,
              quadratic_form_model(square_spec, QuadraticForm.from_moduli(1.0, 0.5))]
    for model in models:
        for _ in range(3):
            R = rotation(rng.uniform(0, 2 * np.pi))
            assert f_N(model, R, 5, TINY) <= 1e-12
    R = rotation(rng.uniform(0, 2 * np.pi))
    assert f_N(multilattice, R, 5, TINY, s0=np.zeros((2, 1))) <= 1e-12


def test_frame_indifference_of_f_N(harmonic, rng):
    M = np.diag([1.2, 1.0])
    base = f_N(harmonic, M, 8, FAST)
    for _ in range(5):
        R = rotation(rng.uniform(0, 2 * np.pi))
        assert abs(f_N(harmonic, R @ M, 8, FAST) - base) <= 1e-7


def test_cb_dominance(harmonic, rng):
    for _ in range(3):
        E = 0.1 * rng.standard_normal((2, 2))
        M = np.eye(2) + E
        est = w_cont_estimate(harmonic, M, [6, 8, 12], TINY)
        # every f_N is at most the affine value, so the fit cannot exceed
        # the affine density by more than fit slack
        assert est.w_cont <= cauchy_born_density(harmonic, M) + 1e-6


def test_benchmark_convergence_rate(harmonic):
    # |f_N - target| <= C/N with a stable constant across the schedule
    for M in (np.diag([1.2, 1.0]), np.diag([0.5, 1.0])):
        est = w_cont_estimate(harmonic, M, [8, 16, 32], FAST)
        t = target_density(M)
        consts = [abs(f - t) * N for f, N in zip(est.f_values, est.schedule)]
        assert max(consts) <= 2.0
        assert max(consts) <= 3.0 * max(min(consts), 0.05)


def test_lj_w_cont_keeps_negative_intercept():
    # LJ energies are negative, so a negative intercept is a density, not
    # a fit artefact to clip
    model = pair_potential_model(square_lattice(), lennard_jones(1.0, 2 ** (-1 / 6)), 2.5)
    M = np.array([[1.05, 0.05], [0.0, 1.0]])
    est = w_cont_estimate(model, M, [8, 12, 16],
                          SolveOptions(n_random_starts=0, max_iter=500))
    assert est.clipped is False
    assert est.w_cont < 0
    assert est.w_cont == pytest.approx(-2.5594, abs=1e-3)
    assert not any("clipped" in w for w in est.warnings)
    assert [d["stop"] for d in est.per_N] == ["converged"] * 3


def test_wall_times_are_recorded(harmonic):
    # every start records its own search's wall time; each per-N entry the
    # whole cell problem's, which holds the winner's, split into the grid
    # build, the Problem assembly and the multistart
    est = w_cont_estimate(harmonic, np.diag([1.2, 1.0]), [4, 6, 8], TINY)
    for entry in est.per_N:
        assert entry["wall_s"] >= 0
        parts = [entry["grid_s"], entry["assembly_s"], entry["multistart_s"]]
        assert min(parts) >= 0
        assert sum(parts) <= entry["wall_s"]
        assert sum(s["wall_s"] for s in entry["starts"]) <= entry["multistart_s"]
        assert [s["label"] for s in entry["starts"]] == ["affine", "random-0"]
        assert all(s["wall_s"] >= 0 for s in entry["starts"])
        won = next(s for s in entry["starts"] if s["label"] == entry["start_label"])
        assert won["wall_s"] <= entry["wall_s"]
        assert sum(s["wall_s"] for s in entry["starts"]) <= entry["wall_s"]

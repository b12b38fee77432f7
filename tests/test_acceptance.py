"""Acceptance gate: one test per criterion, each printing a PASS line.

Criteria pin the quantities and tolerances; solver options are chosen per
criterion to fit the stated runtime budgets (fewer random restarts only
weakens the upper-bound search and is always included alongside the
affine/buckling starts that carry the benchmark values).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from cellhom import (QuadraticForm, SolveOptions, build_grid, build_lattice,
                     cauchy_born_density, certified_ratio_bounds, f_N,
                     frobenius_squared_density, gradient_equivalence_ratio,
                     harmonic_pair, harmonic_spring_model, lennard_jones,
                     numeric_elastic_tensor, pair_elastic_tensor,
                     pair_potential_model, quadratic_form_model,
                     quadratic_model_hessian_check, quasiconvex_wrapper_model,
                     square_lattice, tiling_upper_bound_check, w_cont_estimate)
from cellhom.cli import parse_config, run
from cellhom.elasticity import cauchy_residuals
from cellhom.fields import _piece_maps, affine_deformation
from cellhom.lattice import lattice_vectors_within

from conftest import cell_gradient, fd_gradient, rotation

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(num, detail):
    print(f"\nACCEPTANCE {num:02d} PASS: {detail}")


def elapsed_guard(t0, budget, num):
    dt = time.time() - t0
    assert dt <= budget, f"criterion {num} exceeded its runtime budget: {dt:.1f}s"
    return dt


def batch_cell_gradients(grid, y):
    nc = grid.spec.n_corners
    Y = y[grid.interior_cell_sites]
    F = np.swapaxes(Y, 1, 2)
    return F - F[:, :, :nc].mean(axis=2, keepdims=True)


def test_criterion_01_harmonic_tension_benchmark(harmonic):
    t0 = time.time()
    M = np.diag([1.2, 1.0])
    schedule = [8, 16, 32, 64]
    est = w_cont_estimate(harmonic, M, schedule, SolveOptions(n_random_starts=2))
    assert est.w_cont == pytest.approx(0.04, abs=0.002)
    for diag, N in zip(est.per_N, schedule):
        assert abs(diag["f_N"] - 0.04 * (N - 2) ** 2 / N**2) <= 1e-8
    dt = elapsed_guard(t0, 60, 1)
    report(1, f"w_cont = {est.w_cont:.6f} (0.04 +/- 0.002), per-N exact to 1e-8, {dt:.1f}s")


def test_criterion_02_compression_cb_failure(harmonic):
    t0 = time.time()
    M = np.diag([0.5, 1.0])
    schedule = [8, 16, 32, 64]
    est = w_cont_estimate(harmonic, M, schedule, SolveOptions(n_random_starts=2))
    slope = np.polyfit(np.log(schedule), np.log(est.f_values), 1)[0]
    assert -1.3 <= slope <= -0.7
    assert est.w_cont <= 0.005
    wcb = cauchy_born_density(harmonic, M)
    assert wcb == pytest.approx(0.25, abs=1e-12)
    dt = elapsed_guard(t0, 180, 2)
    report(2, f"f_N ~ N^{slope:.2f}, w_cont = {est.w_cont:.2e} <= 0.005, "
              f"W_CB = {wcb:.2f}, {dt:.1f}s")


def test_criterion_03_cb_validity_small_strain(harmonic):
    t0 = time.time()
    rng = np.random.default_rng(30)
    opts = SolveOptions(n_random_starts=1)
    gaps = []
    for _ in range(10):
        E = rng.standard_normal((2, 2))
        E *= 0.02 * rng.uniform(0.2, 1.0) / np.linalg.norm(E)
        M = np.eye(2) + E
        est = w_cont_estimate(harmonic, M, [8, 16, 32], opts)
        gap = cauchy_born_density(harmonic, M) - est.w_cont
        assert -1e-6 <= gap <= 1e-3, f"gap {gap} outside [-1e-6, 1e-3]"
        gaps.append(gap)
    dt = elapsed_guard(t0, 300, 3)
    report(3, f"10 random strains |E| <= 0.02: gaps in "
              f"[{min(gaps):.2e}, {max(gaps):.2e}] within [-1e-6, 1e-3], {dt:.1f}s")


def test_criterion_04_zero_energy_manifold(harmonic, multilattice, square_spec):
    t0 = time.time()
    rng = np.random.default_rng(40)
    quad = quadratic_form_model(square_spec, QuadraticForm.from_moduli(1.0, 0.5))
    opts = SolveOptions(n_random_starts=1)
    worst = 0.0
    for _ in range(10):
        R = rotation(rng.uniform(0, 2 * np.pi))
        worst = max(worst, f_N(harmonic, R, 5, opts))
        worst = max(worst, f_N(quad, R, 5, opts))
        worst = max(worst, f_N(multilattice, R, 5, opts, s0=np.zeros((2, 1))))
    assert worst <= 1e-12

    M = np.diag([1.2, 1.0])
    base = f_N(harmonic, M, 8, opts)
    fi_worst = 0.0
    for _ in range(10):
        R = rotation(rng.uniform(0, 2 * np.pi))
        fi_worst = max(fi_worst, abs(f_N(harmonic, R @ M, 8, opts) - base))
    base_q = f_N(quad, np.diag([1.05, 1.0]), 6, opts)
    for _ in range(3):
        R = rotation(rng.uniform(0, 2 * np.pi))
        fi_worst = max(fi_worst, abs(f_N(quad, R @ np.diag([1.05, 1.0]), 6, opts) - base_q))
    assert fi_worst <= 1e-7
    dt = elapsed_guard(t0, 300, 4)
    report(4, f"f_N(rotations) <= {worst:.1e} (<= 1e-12), "
              f"frame residuals <= {fi_worst:.1e} (<= 1e-7), {dt:.1f}s")


def test_criterion_05_gradient_correctness(square_spec, multilattice):
    t0 = time.time()
    rng = np.random.default_rng(50)
    models = [
        ("harmonic", harmonic_spring_model(square_spec, 1.0, 1.0), 0),
        ("pair-lj", pair_potential_model(square_spec, lennard_jones(1.0, 2 ** (-1 / 6)), 1.8), 0),
        ("quasiconvex", quasiconvex_wrapper_model(square_spec, frobenius_squared_density()), 0),
        ("quadratic-form", quadratic_form_model(square_spec, QuadraticForm.from_moduli(1.0, 0.5)), 0),
        ("multilattice", multilattice, 1),
    ]
    overall = {}
    for name, model, m in models:
        worst = 0.0
        for _ in range(100):
            F = model.spec.stencil + 0.25 * rng.standard_normal((2, model.spec.n_cols))
            F = F - F[:, :4].mean(axis=1, keepdims=True)
            s = 0.2 * rng.standard_normal((2, 1)) if m else None
            gF, gS = cell_gradient(model, F, s)
            fF, fS = fd_gradient(model.energy, F, s)
            worst = max(worst, np.abs(gF - fF).max() / max(1.0, np.abs(fF).max()))
            if m:
                worst = max(worst, np.abs(gS - fS).max() / max(1.0, np.abs(fS).max()))
        assert worst <= 1e-6, f"{name}: gradient error {worst}"
        overall[name] = worst
    dt = elapsed_guard(t0, 300, 5)
    top = max(overall.values())
    report(5, f"analytic vs central FD over 100 states x {len(models)} models: "
              f"max rel err {top:.1e} <= 1e-6, {dt:.1f}s")


def test_criterion_06_tiling_dominance(harmonic):
    t0 = time.time()
    opts = SolveOptions(n_random_starts=2)
    results = []
    for M in (np.diag([1.2, 1.0]), np.diag([0.5, 1.0])):
        for n, k in ((8, 16), (8, 32)):
            solved, tiled = tiling_upper_bound_check(harmonic, M, n, k, opts)
            assert solved <= tiled + 1e-9
            results.append((n, k, solved, tiled))
    dt = elapsed_guard(t0, 300, 6)
    report(6, f"f_k(solved) <= f_k(tiled) + 1e-9 for (n,k) in (8,16),(8,32) "
              f"at tension and compression, {dt:.1f}s")


def test_criterion_07_quasiconvex_wrapper(square_spec):
    t0 = time.time()
    model = quasiconvex_wrapper_model(square_spec, frobenius_squared_density())
    est = w_cont_estimate(model, np.diag([1.0, 2.0]), [16, 32, 64],
                          SolveOptions(n_random_starts=1))
    assert est.w_cont == pytest.approx(5.0, abs=0.05)
    dt = elapsed_guard(t0, 300, 7)
    report(7, f"convex |M|^2 wrapper at diag(1,2): w_cont = {est.w_cont:.4f} "
              f"(5 +/- 0.05), {dt:.1f}s")


def test_criterion_08_hessian_identity_and_cauchy(square_spec):
    t0 = time.time()
    res = quadratic_model_hessian_check(QuadraticForm.from_moduli(1.0, 0.0), h=1e-3)
    assert res <= 1e-5

    # lam != mu escapes the Cauchy relations: c_1122 = lam, c_1212 = mu
    Q = QuadraticForm.from_moduli(0.5, 1.0)
    model = quadratic_form_model(square_spec, Q)
    t = numeric_elastic_tensor(lambda M: cauchy_born_density(model, M), d=2)
    quad_residual = cauchy_residuals(t).max_cauchy
    assert quad_residual >= 0.1

    # stress-free pair potentials obey the relations to round-off
    worst = 0.0
    for lattice, cutoff in ((square_lattice(), 2.5), (build_lattice(3, np.eye(3)), 2.5)):
        r = np.linalg.norm(lattice_vectors_within(lattice, cutoff)[1], axis=1)
        sigma = float((np.sum(r**-6.0) / (2.0 * np.sum(r**-12.0))) ** (1 / 6))
        tensor = pair_elastic_tensor(lennard_jones(1.0, sigma), lattice, cutoff)
        rel = cauchy_residuals(tensor).max_cauchy / np.abs(tensor.c).max()
        worst = max(worst, rel)
    tensor = pair_elastic_tensor(harmonic_pair(1.0, 1.0, shell=1.0), square_lattice(), 1.0)
    worst = max(worst, cauchy_residuals(tensor).max_cauchy / np.abs(tensor.c).max())
    assert worst <= 1e-10
    dt = elapsed_guard(t0, 300, 8)
    report(8, f"Hessian residual {res:.1e} <= 1e-5; quadratic-form Cauchy residual "
              f"{quad_residual:.2f} >= 0.1; pair residuals <= {worst:.1e} rel, {dt:.1f}s")


def test_criterion_09_interpolation_sandwich(square_spec):
    t0 = time.time()
    rng = np.random.default_rng(90)
    grid = build_grid(square_spec, 6)
    mats, fracs = _piece_maps(square_spec)
    n_fields = 10_000 // grid.n_interior + 1
    Fs = []
    for _ in range(n_fields):
        dfm = affine_deformation(grid, np.eye(2))
        dfm.y += rng.standard_normal(dfm.y.shape)
        Fs.append(batch_cell_gradients(grid, dfm.y))
    F = np.concatenate(Fs)[:10_000]
    norms = np.linalg.norm(F, axis=(1, 2))
    assert norms.min() > 1e-8
    for p in (2.0, 4.0):
        lo, hi = certified_ratio_bounds(square_spec, p)
        avg = sum(frac * np.linalg.norm(F @ W, axis=(1, 2)) ** p
                  for W, frac in zip(mats, fracs))
        ratios = avg / norms**p
        assert ratios.min() >= lo and ratios.max() <= hi, (
            f"p={p}: [{ratios.min()}, {ratios.max()}] vs [{lo}, {hi}]")

    # cross-check the vectorized ratios against the per-cell API
    dfm = affine_deformation(grid, np.eye(2))
    dfm.y += rng.standard_normal(dfm.y.shape)
    Fc = batch_cell_gradients(grid, dfm.y)
    for idx, cell in enumerate(np.flatnonzero(grid.interior_mask)):
        api = gradient_equivalence_ratio(dfm, int(cell), 2.0)
        direct = sum(frac * np.linalg.norm(Fc[idx] @ W) ** 2
                     for W, frac in zip(mats, fracs)) / np.linalg.norm(Fc[idx]) ** 2
        assert api == pytest.approx(direct, rel=1e-12)
    dt = elapsed_guard(t0, 300, 9)
    report(9, f"10^4 random cells within certified bounds for p in {{2,4}}, {dt:.1f}s")


def test_criterion_10_min_over_s_desk_check(multilattice):
    t0 = time.time()
    M = np.diag([1.1, 1.0])
    schedule = [5, 6, 8]
    opts = SolveOptions(n_random_starts=1, grad_tol=1e-7)
    free = w_cont_estimate(multilattice, M, schedule, opts)
    grid_vals = np.arange(-0.05, 0.051, 0.05)  # step 0.05 around the optimum
    best = np.inf
    for sx in grid_vals:
        for sy in grid_vals:
            est = w_cont_estimate(multilattice, M, schedule, opts,
                                  s0=np.array([[sx], [sy]]))
            best = min(best, est.w_cont)
    assert abs(free.w_cont - best) <= 1e-3, (free.w_cont, best)
    dt = elapsed_guard(t0, 300, 10)
    report(10, f"min over s0 grid {best:.6f} vs unconstrained {free.w_cont:.6f}, "
               f"|diff| <= 1e-3, {dt:.1f}s")


def test_criterion_11_determinism(tmp_path):
    t0 = time.time()
    config_path = CONFIG_DIR / "benchmark.json"
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert run(parse_config(config_path), out_dir=str(out1)) == 0
    assert run(parse_config(config_path), out_dir=str(out2)) == 0
    b1 = (out1 / "results.csv").read_bytes()
    b2 = (out2 / "results.csv").read_bytes()
    assert b1 == b2
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    s1.pop("timestamp"), s2.pop("timestamp")
    assert s1 == s2
    assert s1["results"]["estimates"][0]["w_cont"] == pytest.approx(0.04, abs=0.002)
    dt = elapsed_guard(t0, 300, 11)
    report(11, f"two benchmark runs byte-identical results.csv ({len(b1)} bytes), {dt:.1f}s")

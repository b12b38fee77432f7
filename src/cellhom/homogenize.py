"""Cell-problem sequences and their extrapolated continuum densities.

For a boundary matrix M the cell-problem value at box size N is the
minimized interior-cell energy divided by N^d.  The continuum density is
the N -> infinity limit of that sequence divided by the cell volume; here
it is estimated by a least-squares fit f_N = w + a/N over a schedule of
box sizes, motivated by the first-order boundary error of both the
harmonic benchmark and compressed states.  All reported values are upper
bounds obtained by multistart local search, with per-N diagnostics kept so
that downstream users can audit convergence.  Every cell problem is built
and solved by one schedule solver, which ``f_N``, ``w_cont_estimate`` and
``tiling_upper_bound_check`` share; it records, per N, the winning start
and the wall time of the grid build, the assembly and the multistart.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .fields import Deformation
from .lattice import build_grid, flat_index, integer_box
from .models import EnergyModel
from .solver import Problem, SolveOptions, multi_start_minimize

__all__ = [
    "HomogenizationResult",
    "f_N",
    "w_cont_estimate",
    "cauchy_born_density",
    "cb_validity_scan",
    "tiling_upper_bound_check",
]

_GAP_THRESHOLD = 0.01    # W_CB - w_cont above which cb_validity_scan flags M
_UNCONVERGED = "solver did not converge at some box sizes"


@dataclass
class HomogenizationResult:
    """Extrapolated cell-problem limit and its per-N evidence.

    ``f_values`` are energy / (N^d * |det A|), i.e. already in density
    units; ``w_cont`` is the intercept of the 1/N fit.  For a model marked
    ``nonnegative`` a negative intercept is clipped to zero and ``clipped``
    is set; any other model keeps its raw, possibly negative, intercept.
    Each ``per_N`` entry describes the winning start, except ``wall_s``,
    the wall time of the whole cell problem, and its parts ``grid_s``,
    ``assembly_s`` and ``multistart_s``: grid, assembly and all starts.
    """

    M: np.ndarray
    s0: np.ndarray | None
    schedule: list
    f_values: np.ndarray
    w_cont: float
    fit_coeff: float
    fit_residual: float
    per_N: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    clipped: bool = False


def _solve_schedule(model: EnergyModel, M, schedule, opts: SolveOptions, s0=None):
    """Build and multistart the cell problem at each box size, in order.

    Returns one ``(problem, result, record)`` per N, where ``record`` is
    the N's ``HomogenizationResult.per_N`` entry.
    """
    solved = []
    for N in schedule:
        t0 = time.perf_counter()
        grid = build_grid(model.spec, N)
        t1 = time.perf_counter()
        problem = Problem(grid, model, M, s0=s0)
        t2 = time.perf_counter()
        result = multi_start_minimize(problem, opts)
        t3 = time.perf_counter()
        solved.append((problem, result, {
            "N": N,
            "f_N": result.energy / N**model.spec.d / model.spec.det_abs,
            "energy": result.energy,
            "iterations": result.iterations,
            "converged": result.converged,
            "grad_norm": result.grad_norm,
            "start_label": result.start_label,
            "stop": result.stop,
            "n_evals": result.n_evals,
            "n_backtracks": result.n_backtracks,
            "precondition": problem.preconditioner,
            "failed_starts": result.failed_starts,
            "starts": result.starts,
            "wall_s": t3 - t0,
            "grid_s": t1 - t0,
            "assembly_s": t2 - t1,
            "multistart_s": t3 - t2,
        }))
    return solved


def f_N(model: EnergyModel, M, N, opts: SolveOptions | None = None, s0=None) -> float:
    """Cell-problem value at one box size, in density units: the minimized
    energy over N^d |det A|, the ``f_N`` of the box size's ``per_N`` record.

    This is an upper bound on the true infimum (local multistart search);
    it is *not* normalized by the interior-cell count.
    """
    return _solve_schedule(model, M, [int(N)], opts or SolveOptions(), s0)[0][2]["f_N"]


def _fit_schedule(schedule):
    """The box sizes as ints; ValueError unless there are at least three,
    strictly increasing, as the fit needs."""
    schedule = [int(N) for N in schedule]
    if len(schedule) < 3 or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing with length >= 3")
    return schedule


def w_cont_estimate(model: EnergyModel, M, schedule, opts: SolveOptions | None = None,
                    s0=None) -> HomogenizationResult:
    """Extrapolate the cell-problem sequence over a schedule of box sizes.

    Fits f_N = w + a/N by least squares in density units; the intercept,
    clipped at zero for nonnegative models, is the continuum density
    estimate.  For a multilattice model, ``s0`` constrains the mean of the
    internal shifts; ``s0=None`` relaxes it, which realizes the pointwise
    minimum of the constrained density over the mean.
    """
    schedule = _fit_schedule(schedule)
    M = np.asarray(M, dtype=float)
    solved = _solve_schedule(model, M, schedule, opts or SolveOptions(), s0)
    diag = [record for _, _, record in solved]
    f_vals = np.array([d["f_N"] for d in diag])

    inv = 1.0 / np.asarray(schedule, dtype=float)
    coeffs = np.polyfit(inv, f_vals, 1)
    slope, intercept = float(coeffs[0]), float(coeffs[1])
    fit = intercept + slope * inv
    residual = float(np.sqrt(np.mean((fit - f_vals) ** 2)))

    warnings = []
    if not all(d["converged"] for d in diag):
        warnings.append(_UNCONVERGED)
    rises = np.diff(f_vals)
    if np.any(rises > 1e-9 + 0.05 * (np.abs(f_vals).max() + 1e-15)):
        warnings.append("f_N increases along the schedule (no relaxation gain)")

    clipped = bool(model.nonnegative and intercept < 0)
    if clipped:
        warnings.append("negative fit intercept clipped to zero")
    return HomogenizationResult(
        M=M, s0=None if s0 is None else np.asarray(s0, dtype=float),
        schedule=schedule, f_values=f_vals,
        w_cont=0.0 if clipped else intercept, fit_coeff=slope, fit_residual=residual,
        per_N=diag, warnings=warnings, clipped=clipped,
    )


def cauchy_born_density(model: EnergyModel, M, s=None) -> float:
    """Energy density of the homogeneously deformed cell: W(M Z) / |det A|.

    All stencil columns follow the affine map, so column j is M times the
    stencil offset; for multilattice models the internal shift s rides
    along unchanged (defaults to zero).
    """
    M = np.asarray(M, dtype=float)
    F = M @ model.spec.stencil
    if model.m > 0:
        s = np.zeros((model.spec.d, model.m)) if s is None else np.asarray(s, dtype=float)
        s = s.reshape(model.spec.d, model.m)
        return model.energy(F, s) / model.spec.det_abs
    return model.energy(F) / model.spec.det_abs


def cb_validity_scan(model: EnergyModel, M_list, schedule,
                     opts: SolveOptions | None = None):
    """Compare the affine density with the relaxed cell-problem estimate.

    Returns one row per matrix: (M, W_CB, w_cont, gap, flagged), where a
    gap above ``_GAP_THRESHOLD`` is flagged as a candidate failure of the
    affine (Cauchy-Born) description at that deformation.
    """
    rows = []
    for M in M_list:
        M = np.asarray(M, dtype=float)
        wcb = cauchy_born_density(model, M)
        est = w_cont_estimate(model, M, schedule, opts)
        gap = wcb - est.w_cont
        rows.append({
            "M": M,
            "w_cb": wcb,
            "w_cont": est.w_cont,
            "gap": gap,
            "flagged": gap > _GAP_THRESHOLD,
            "result": est,
        })
    return rows


def tiling_upper_bound_check(model: EnergyModel, M, schedule,
                             opts: SolveOptions | None = None, s0=None):
    """Periodic extension of an n-box minimizer as a trial field of each k-box.

    ``schedule`` is [n, k, ...], each k a multiple of n; every box size is
    solved once.  The n-box minimizer is copied to every n-tile of a k-box
    with the matching affine offset, which is admissible for the k-box
    problem, so its energy per cell dominates the directly solved value.
    Internal shifts are copied too; with ``s0`` the k-box problem moves
    them all by one uniform shift, s0 - mean, to meet the mean constraint.
    Returns the schedule's ``per_N`` records and one (f_k_solved,
    f_k_tiled) pair per k, both energies divided by k^d |det A|, the unit
    of the records' f_N.
    """
    n, *ks = [int(N) for N in schedule]
    if not ks or any(k % n for k in ks):
        raise ValueError("each k must be a multiple of n")
    d, A, det_abs = model.spec.d, model.spec.A, model.spec.det_abs
    M = np.asarray(M, dtype=float)

    solved = _solve_schedule(model, M, [n, *ks], opts or SolveOptions(), s0)
    res_n = solved[0][1]
    grid_n = res_n.argmin.grid
    checks = []
    for problem_k, res_k, _ in solved[1:]:
        grid_k, k = problem_k.grid, problem_k.grid.N
        reps = k // n
        # site m of the k-box copies site m - n t of tile t; a site shared by
        # several tiles takes the last of them, t = min(m // n, reps - 1)
        tiles = integer_box(0, reps - 1, d)
        shifts = (n * tiles).astype(float) @ A.T @ M.T
        t = np.minimum(grid_k.site_multi // n, reps - 1)
        y_k = (res_n.argmin.y[flat_index(grid_k.site_multi - n * t, n + 1)]
               + shifts[flat_index(t, reps)])
        tiled = Deformation(grid_k, y_k)

        s_k = None
        if model.m > 0:
            # interior cell c of the k-box copies cell c % n of the n-box when
            # that one is interior, and starts from s0 (or zero) otherwise
            lookup = np.full(grid_n.n_cells, -1)
            lookup[grid_n.interior_mask] = np.arange(grid_n.n_interior)
            pos = lookup[flat_index(grid_k.cell_multi[grid_k.interior_mask] % n, n)]
            s_base = np.zeros((d, model.m)) if s0 is None else np.asarray(s0, dtype=float)
            s_k = np.where((pos >= 0)[:, None, None], res_n.internal[pos], s_base)

        e_tiled = problem_k.value_and_grad(problem_k.pack(tiled, s_k))[0]
        checks.append((res_k.energy / k**d / det_abs, e_tiled / k**d / det_abs))
    return [record for _, _, record in solved], checks

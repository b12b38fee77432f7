import numpy as np
import pytest

from cellhom import (Problem, SolveOptions, affine_deformation, buckling_start,
                     build_grid, build_lattice, harmonic_pair, lennard_jones,
                     minimize, multi_start_minimize, pair_potential_model,
                     square_lattice)
from cellhom import solver
from cellhom.fields import Deformation
from cellhom.solver import DivergedEvaluation, start_fields

from conftest import cell_gradient, rotation

FAST = SolveOptions(n_random_starts=2)


@pytest.fixture
def grid5(square_spec):
    return build_grid(square_spec, 5)


def test_energy_only_is_value_and_grad_energy(square_spec, harmonic, multilattice, rng):
    # one evaluation path: the line search ranks energies from both calls
    # against the same rounding floor, so they must agree to the bit
    from cellhom import (QuadraticForm, frobenius_squared_density,
                         quadratic_form_model, quasiconvex_wrapper_model)
    M = np.array([[1.05, 0.1], [0.0, 0.95]])
    lj = pair_potential_model(square_spec, lennard_jones(1.0, 2 ** (-1 / 6)), 1.8)
    cases = [
        (harmonic, None),
        (lj, None),
        (quasiconvex_wrapper_model(square_spec, frobenius_squared_density()), None),
        (quadratic_form_model(square_spec, QuadraticForm.from_moduli(1.0, 0.5)), None),
        (multilattice, None),
        (multilattice, np.array([[0.05], [-0.02]])),
    ]
    for model, s0 in cases:
        problem = Problem(build_grid(model.spec, 7), model, M, s0=s0)
        x = problem.pack(affine_deformation(problem.grid, M))
        x = x + 0.1 * rng.standard_normal(x.shape)
        assert problem.energy_only(x) == problem.value_and_grad(x)[0], model.name


def test_free_dof_count(grid5, harmonic):
    problem = Problem(grid5, harmonic, np.eye(2))
    assert problem.n_free == 4            # (N-3)^2 sites strictly inside
    assert problem.n_vars == 8


def test_internal_dof_counts(multilattice):
    grid = build_grid(multilattice.spec, 5)
    constrained = Problem(grid, multilattice, np.eye(2), s0=np.zeros((2, 1)))
    assert constrained.n_internal == 2 * 9
    free = Problem(grid, multilattice, np.eye(2))
    assert free.n_internal == 2 * 9


def test_s0_on_bravais_rejected(grid5, harmonic):
    with pytest.raises(ValueError, match="internal variables undefined"):
        Problem(grid5, harmonic, np.eye(2), s0=np.zeros((2, 1)))


def test_energy_zero_at_identity(grid5, harmonic):
    problem = Problem(grid5, harmonic, np.eye(2))
    x = problem.pack(affine_deformation(grid5, np.eye(2)))
    E, g = problem.value_and_grad(x)
    assert E == 0.0
    assert np.all(g == 0.0)


def test_gradient_matches_fd(grid5, harmonic, rng):
    problem = Problem(grid5, harmonic, np.diag([1.1, 0.9]))
    x = problem.pack(affine_deformation(grid5, np.diag([1.1, 0.9])))
    x = x + 0.2 * rng.standard_normal(x.shape)
    E, g = problem.value_and_grad(x)
    h = 1e-6
    worst = 0.0
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd = (problem.value_and_grad(xp)[0] - problem.value_and_grad(xm)[0]) / (2 * h)
        worst = max(worst, abs(fd - g[i]) / max(1.0, abs(fd)))
    assert worst <= 1e-6


def test_gradient_matches_fd_multilattice(multilattice, rng):
    grid = build_grid(multilattice.spec, 5)
    problem = Problem(grid, multilattice, np.diag([1.05, 1.0]), s0=np.array([[0.05], [0.0]]))
    x0 = problem.pack(affine_deformation(grid, np.diag([1.05, 1.0])),
                      np.tile(np.array([[0.05], [0.0]])[None], (9, 1, 1)))
    x = x0 + 0.1 * rng.standard_normal(x0.shape)
    E, g = problem.value_and_grad(x)
    h = 1e-6
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd = (problem.value_and_grad(xp)[0] - problem.value_and_grad(xm)[0]) / (2 * h)
        assert abs(fd - g[i]) <= 1e-6 * max(1.0, abs(fd))


# ---------------------------------------------------------------------------
# the bond path: pair-bond models evaluate the whole sample over one bond table
# ---------------------------------------------------------------------------

LJ = lennard_jones(1.0, 2 ** (-1 / 6))
TRIANGULAR = np.array([[1.0, 0.5], [0.0, np.sqrt(3) / 2]])


def cell_sum(problem, x):
    """The per-cell reference: ``energy_many`` and the ``_cells`` gradient on every
    interior cell, the cell gradients scattered onto the sites by np.add.at;
    the gradient is the free-site block only."""
    y, s = problem.unpack(x)
    F = np.swapaxes(y[problem.cell_sites], 1, 2)
    gF, _ = problem.model._cells(F, s, True)[1]
    g_sites = np.zeros_like(y)
    np.add.at(g_sites, problem.cell_sites, np.swapaxes(gF, 1, 2))
    return float(problem.model.energy_many(F, s).sum()), g_sites[problem.free_idx].ravel()


def test_cell_path_matches_cell_sum(square_spec, multilattice, rng):
    # the cell route gathers and scatters through flat indices; each site
    # sums its cells' contributions in the reference's order, so the two
    # agree to the bit
    from cellhom import (QuadraticForm, frobenius_squared_density,
                         quadratic_form_model, quasiconvex_wrapper_model)
    M = np.array([[1.05, 0.1], [0.0, 0.95]])
    for model, s0 in [
        (quasiconvex_wrapper_model(square_spec, frobenius_squared_density()), None),
        (quadratic_form_model(square_spec, QuadraticForm.from_moduli(1.0, 0.5)), None),
        (multilattice, None),
        (multilattice, np.array([[0.05], [-0.02]])),
    ]:
        problem = Problem(build_grid(model.spec, 7), model, M, s0=s0)
        assert problem.bonds is None
        x = problem.pack(affine_deformation(problem.grid, M))
        x = x + 0.1 * rng.standard_normal(x.shape)
        E_ref, g_ref = cell_sum(problem, x)
        E, g = problem.value_and_grad(x)
        assert E == E_ref, model.name
        assert np.array_equal(g[: problem.n_free * problem.d], g_ref), model.name


def test_kernels_get_batch_last_memory(square_spec, harmonic, multilattice, rng):
    # a spy on the kernel entry points records what Problem hands over: the
    # logical shape (C, d, n_cols) on the cell route and (1, d, n_sites) on
    # the bond route, over memory whose (n, d, B) transpose is C-contiguous
    from cellhom import QuadraticForm, quadratic_form_model
    M = np.array([[1.05, 0.1], [0.0, 0.95]])
    quadform = quadratic_form_model(square_spec, QuadraticForm.from_moduli(1.0, 0.5))
    for model in (harmonic, quadform, multilattice):
        problem = Problem(build_grid(model.spec, 7), model, M)
        seen = []
        for name in ("_energy", "_energy_gradient"):
            def spy(F, S, bonds=None, kernel=getattr(model, name)):
                seen.append(F)
                return kernel(F, S, bonds)
            setattr(model, name, spy)
        try:
            x = problem.pack(affine_deformation(problem.grid, M))
            x = x + 0.05 * rng.standard_normal(x.shape)
            problem.value_and_grad(x)
            problem.energy_only(x)
        finally:
            del model._energy, model._energy_gradient
        if problem.bonds is None:
            shape = (problem.n_cells, 2, model.n_cols)
        else:
            shape = (1, 2, len(problem.grid.site_multi))
        assert len(seen) == 2
        for F in seen:
            assert F.shape == shape, model.name
            assert F.transpose(2, 1, 0).flags.c_contiguous, model.name


@pytest.mark.parametrize("lattice, potential, cutoff, N", [
    ("square", None, None, 9),                                   # harmonic springs
    ("square", LJ, 2.5, 8),
    ("square", harmonic_pair(1.0, 1.1, shell=1.0), 1.5, 8),      # per-bond rest lengths
    ("triangular", LJ, 2.5, 8),
    ("cubic", LJ, 1.8, 5),
], ids=["harmonic", "lj", "pair_harmonic_shell", "lj_triangular", "lj_cubic"])
def test_bond_path_matches_cell_sum(lattice, potential, cutoff, N, harmonic, rng):
    spec = {"square": square_lattice(), "triangular": build_lattice(2, TRIANGULAR),
            "cubic": build_lattice(3, np.eye(3))}[lattice]
    model = harmonic if potential is None else pair_potential_model(spec, potential, cutoff)
    d = spec.d
    problem = Problem(build_grid(model.spec, N), model, np.eye(d) + 0.03 * rng.standard_normal((d, d)))
    assert problem.bonds is not None
    for _ in range(3):
        x = problem.pack(affine_deformation(problem.grid, problem.M))
        x = x + 0.05 * rng.standard_normal(x.shape)
        E_ref, g_ref = cell_sum(problem, x)
        E, g = problem.value_and_grad(x)
        assert abs(E - E_ref) <= 1e-12 * abs(E_ref)
        assert np.abs(g - g_ref).max() <= 1e-12 * np.abs(g_ref).max()
        assert problem.energy_only(x) == E


@pytest.mark.parametrize("potential, cutoff, N", [
    (None, None, 16),                                            # harmonic springs
    (LJ, 2.5, 12),
    (harmonic_pair(1.0, 1.1, shell=1.0), 1.5, 10),               # per-bond rest lengths
], ids=["harmonic", "lj", "pair_harmonic_shell"])
def test_moving_bonds_match_the_full_table(potential, cutoff, N, square_spec, harmonic, rng):
    # the kernel sees only the bonds with a free end, the energies of those
    # joining two pinned sites being fixed at assembly: the energy, energy_only
    # and the free-site gradient equal the full sample table's to the bit
    model = harmonic if potential is None else pair_potential_model(square_spec, potential, cutoff)
    M = np.array([[1.05, 0.05], [0.0, 0.97]])
    problem = Problem(build_grid(model.spec, N), model, M)
    full = model._sample_bonds(problem.cell_sites)
    free = problem.grid.free_mask
    moving = free[full[0]] | free[full[1]]
    assert 0 < moving.sum() < len(moving)
    assert all(np.array_equal(a, b[moving]) for a, b in zip(problem.bonds, full))
    for _ in range(3):
        x = problem.pack(affine_deformation(problem.grid, M))
        x = x + 0.05 * rng.standard_normal(x.shape)
        F = problem.unpack(x)[0].T[None]
        E_ref, (gF, _) = model._energy_gradient(F, None, full)
        E, g = problem.value_and_grad(x)
        assert E == E_ref[0]
        assert problem.energy_only(x) == model._energy(F, None, full)[0]
        assert np.array_equal(g, gF[0].T[problem.free_idx].ravel())


def test_bond_table_weights(square_spec, harmonic):
    grid = build_grid(square_spec, 6)
    r, n = grid.spec.radius, 6 - 2 * grid.spec.radius   # interior cells: an n-box
    springs = pair_potential_model(square_spec, harmonic_pair(2.0, 1.0, shell=1.0), 1.0)
    # harmonic springs are the shell-harmonic pair model, table for table
    assert all(np.array_equal(a, b) for a, b in zip(
        harmonic._sample_bonds(grid.interior_cell_sites),
        springs._sample_bonds(grid.interior_cell_sites)))
    i, j, w, _ = springs._sample_bonds(grid.interior_cell_sites)
    assert np.all(i < j) and len(set(zip(i, j))) == len(i)
    assert len(i) == 2 * n * (n + 1)      # every nearest-neighbour pair once
    # a pair on a face of the interior-cell box is held by one interior
    # cell, any other pair by two
    face = np.any((grid.site_multi[i] == grid.site_multi[j])
                  & np.isin(grid.site_multi[i], (r, r + n)), axis=1)
    assert face.sum() == 4 * n
    assert np.array_equal(w, np.where(face, 0.5, 1.0))
    lj = pair_potential_model(square_spec, LJ, 2.5)
    problem = Problem(build_grid(lj.spec, 7), lj, np.eye(2))
    w = lj._sample_bonds(problem.cell_sites)[2]
    assert w.sum() == pytest.approx(problem.n_cells * lj.weights.sum(), rel=1e-12)
    assert w.max() == pytest.approx(1.0, rel=1e-12)
    # each one-cell weight is 1 / (number of cells whose stencil holds the
    # pair): cell c holds it when off_i - c and off_j - c are both stencil
    # site offsets
    for spec, cutoff in [(square_spec, 2.5), (build_lattice(2, TRIANGULAR), 1.8),
                         (build_lattice(3, np.eye(3)), 2.0)]:
        model = pair_potential_model(spec, LJ, cutoff)
        off = model.spec.offsets_int
        sites = {tuple(o) for o in off}
        for (a, b), weight in zip(model.bonds, model.weights):
            count = sum(tuple(np.add(s, off[b] - off[a])) in sites for s in sites)
            assert weight == 1.0 / count


def test_bond_path_coincident_sites_diverge():
    model = pair_potential_model(square_lattice(), LJ, 2.5)
    problem = Problem(build_grid(model.spec, 8), model, np.eye(2))
    y = affine_deformation(problem.grid, np.eye(2)).y.copy()
    a, b = problem.free_idx[:2]            # neighbours along the last axis
    y[b] = y[a]
    x = problem.pack(Deformation(problem.grid, y))
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(DivergedEvaluation):
            problem.energy_only(x)
        with pytest.raises(DivergedEvaluation):
            problem.value_and_grad(x)


def test_site_forces_balance(harmonic, square_spec, rng):
    # bond forces obey action = reaction within every cell, so the columns
    # of each cell gradient sum to zero; the scatter onto the sites is
    # linear, so the raw per-site gradient (pinned pseudo-forces included)
    # sums to zero as well
    for _ in range(20):
        F = np.diag([1.3, 0.8]) @ square_spec.corners + 0.3 * rng.standard_normal((2, 4))
        gF, _ = cell_gradient(harmonic, F)
        assert np.abs(gF.sum(axis=1)).max() < 1e-12


def test_start_jitter_ignores_pinned_pairs(square_spec, harmonic):
    # M = diag(1, 0) collapses the pinned sites of each column onto one
    # point, which no jitter of the free sites can part
    M = np.diag([1.0, 0.0])
    problem = Problem(build_grid(square_spec, 6), harmonic, M)
    opts = SolveOptions(n_random_starts=1)
    starts = {label: dfm for label, dfm, _ in start_fields(problem, opts)}
    assert list(starts) == ["affine", "random-0"]
    affine = affine_deformation(problem.grid, M).y
    noise = solver._rng_for_start(opts.seed, 0).uniform(
        -opts.perturb_amp, opts.perturb_amp, size=(problem.n_free, 2))
    expected = affine.copy()
    expected[problem.free_idx] += noise
    assert np.array_equal(starts["random-0"].y, expected)
    # the affine start collapses free pairs too; its jitter parts them
    y = starts["affine"].y
    assert not np.array_equal(y, affine)
    free = problem.grid.free_mask
    n = problem.cell_sites.shape[1]
    for a in range(n):
        for b in range(a + 1, n):
            i, j = problem.cell_sites[:, a], problem.cell_sites[:, b]
            held = free[i] | free[j]
            assert np.linalg.norm(y[i[held]] - y[j[held]], axis=1).min() >= 1e-8


def brute_min_bond_length(problem, y):
    """The start screen by brute force: every interior cell's full matrix of
    stencil-site distances, over the pairs with a free end."""
    Y = np.take(y, problem.cell_sites, axis=0)           # (C, n_cols, d)
    L = np.linalg.norm(Y[:, :, None, :] - Y[:, None, :, :], axis=-1)
    free = problem.grid.free_mask[problem.cell_sites]
    movable = (free[:, :, None] | free[:, None, :]) & ~np.eye(L.shape[1], dtype=bool)
    return float(L[movable].min(initial=np.inf))


@pytest.mark.parametrize("case", ["harmonic", "lj", "multilattice"])
def test_start_screen_matches_brute_force(case, square_spec, harmonic, multilattice):
    model = {"harmonic": harmonic, "multilattice": multilattice,
             "lj": pair_potential_model(square_spec, LJ, 2.5)}[case]
    M = np.array([[1.05, 0.05], [0.0, 0.97]])
    rng = np.random.default_rng(21)
    for N in (7, 10):
        problem = Problem(build_grid(model.spec, N), model, M)
        affine = affine_deformation(problem.grid, M).y
        for amp in (0.0, 0.3, 0.6):
            y = affine.copy()
            y[problem.free_idx] += amp * rng.standard_normal((problem.n_free, 2))
            assert solver._min_bond_length(problem, y) == brute_min_bond_length(problem, y)


@pytest.mark.parametrize("M, amp, screened", [
    (np.diag([1.2, 1.0]), 0.1, ["affine"]),                 # 1 - 0.2 sqrt(2) >= 2e-8
    (np.diag([1.2, 1.0]), 0.4, ["affine", "random-0", "random-1"]),
    (np.diag([1.0, 0.1]), 0.1, ["affine", "buckling", "random-0", "random-1"]),
])
def test_random_starts_are_screened_unless_provably_parted(M, amp, screened, square_spec,
                                                           harmonic, monkeypatch):
    # a uniform perturbation of amplitude a moves a pair's distance by at
    # most 2 a sqrt(d), so the random starts are screened only where the
    # affine start's shortest pair could collapse under it
    problem = Problem(build_grid(square_spec, 8), harmonic, M)
    opts = SolveOptions(n_random_starts=2, perturb_amp=amp)
    seen = []
    screen = solver._min_bond_length
    monkeypatch.setattr(solver, "_min_bond_length",
                        lambda p, y: seen.append(y.copy()) or screen(p, y))
    starts = start_fields(problem, opts)
    assert [label for label, _, _ in starts][:len(screened)] == screened
    assert len(seen) == len(screened)
    for y, (_, dfm, _) in zip(seen, starts):
        assert np.array_equal(y, dfm.y)


def test_minimize_converges_at_critical_start(grid5, harmonic):
    problem = Problem(grid5, harmonic, np.eye(2))
    res = minimize(problem, FAST, affine_deformation(grid5, np.eye(2)), start_label="affine")
    assert res.converged
    assert res.iterations == 0
    assert res.energy == 0.0


def test_minimize_without_variables(square_spec, harmonic):
    # at N = 3 every site is pinned: one evaluation, and the start is the result
    problem = Problem(build_grid(square_spec, 3), harmonic, np.diag([1.2, 1.0]))
    assert problem.n_vars == 0
    res = minimize(problem, FAST, affine_deformation(problem.grid, problem.M))
    assert (res.stop, res.converged, res.iterations, res.n_evals) == ("converged", True, 0, 1)
    assert res.grad_norm == 0.0
    assert res.energy == pytest.approx(0.04, rel=1e-12)


def test_minimize_tension_affine_is_stationary(square_spec, harmonic):
    grid = build_grid(square_spec, 8)
    M = np.diag([1.2, 1.0])
    problem = Problem(grid, harmonic, M)
    res = minimize(problem, FAST, affine_deformation(grid, M), start_label="affine")
    assert res.converged
    assert res.energy / 64 == pytest.approx(0.04 * 36 / 64, abs=1e-12)


def test_minimize_random_restarts_find_no_lower_tension(square_spec, harmonic):
    grid = build_grid(square_spec, 8)
    M = np.diag([1.2, 1.0])
    problem = Problem(grid, harmonic, M)
    affine_energy = minimize(problem, FAST, affine_deformation(grid, M),
                             start_label="affine").energy
    rng = np.random.default_rng(99)
    for _ in range(32):
        start = affine_deformation(grid, M)
        start.y[grid.free_mask] += 0.1 * rng.standard_normal((problem.n_free, 2))
        res = minimize(problem, FAST, start, start_label="restart")
        assert res.energy >= affine_energy - 1e-10


def test_minimize_pinned_sites_never_move(grid5, harmonic, rng):
    M = np.diag([0.7, 1.1])
    problem = Problem(grid5, harmonic, M)
    start = affine_deformation(grid5, M)
    start.y[grid5.free_mask] += 0.2 * rng.standard_normal((problem.n_free, 2))
    pinned = np.flatnonzero(~grid5.free_mask)
    pinned_before = start.y[pinned].copy()
    res = minimize(problem, FAST, start, start_label="x")
    assert np.array_equal(res.argmin.y[pinned], pinned_before)


def test_minimize_rejects_bad_start(grid5, harmonic):
    dfm = affine_deformation(grid5, np.eye(2))
    dfm.y[np.flatnonzero(~grid5.free_mask)[0]] += 1.0
    problem = Problem(grid5, harmonic, np.eye(2))
    with pytest.raises(ValueError, match="boundary pinning"):
        minimize(problem, FAST, dfm)


def test_buckling_start_amplitude(square_spec):
    grid = build_grid(square_spec, 6)
    M = np.diag([0.5, 1.0])
    dfm = buckling_start(grid, M)
    affine = affine_deformation(grid, M)
    disp = dfm.y - affine.y
    free = grid.free_mask
    # only the compressed first column buckles: displacement along e2 with
    # coefficient 0.5*sqrt(1/0.25 - 1) * 0.5 = sqrt(3)/4, alternating sign
    assert np.abs(disp[free][:, 0]).max() < 1e-14
    amps = np.abs(disp[free][:, 1])
    assert np.allclose(amps, np.sqrt(3.0) / 4.0, atol=1e-12)
    assert np.all(disp[~free] == 0.0)


def test_buckling_start_identity_is_affine(square_spec):
    grid = build_grid(square_spec, 6)
    dfm = buckling_start(grid, np.eye(2))
    assert np.array_equal(dfm.y, affine_deformation(grid, np.eye(2)).y)


def test_buckling_bulk_bonds_relaxed(square_spec):
    grid = build_grid(square_spec, 8)
    M = np.diag([0.5, 1.0])
    dfm = buckling_start(grid, M)
    y = dfm.y.reshape(9, 9, 2)
    # interior x-bonds have unit deformed length at the start
    for i in range(3, 5):
        for j in range(3, 5):
            assert np.linalg.norm(y[i + 1, j] - y[i, j]) == pytest.approx(1.0, abs=1e-12)


def test_buckling_3d_rejected():
    spec3 = __import__("cellhom").build_lattice(3, np.eye(3))
    grid = build_grid(spec3, 4)
    with pytest.raises(ValueError, match="2D-only"):
        buckling_start(grid, np.eye(3))


def test_multistart_identity_winner(grid5, harmonic):
    res = multi_start_minimize(Problem(grid5, harmonic, np.eye(2)), FAST)
    assert res.start_label == "affine"
    assert res.energy == 0.0


def test_multistart_compression_buckling_wins(square_spec, harmonic):
    grid = build_grid(square_spec, 32)
    problem = Problem(grid, harmonic, np.diag([0.5, 1.0]))
    res = multi_start_minimize(problem, FAST)
    assert res.start_label == "buckling"
    assert res.energy / 32**2 <= 0.01


def test_multistart_deterministic(square_spec, harmonic):
    grid = build_grid(square_spec, 8)
    problem = Problem(grid, harmonic, np.diag([0.9, 1.0]))
    r1 = multi_start_minimize(problem, FAST)
    r2 = multi_start_minimize(problem, FAST)
    assert r1.energy == r2.energy
    assert np.array_equal(r1.argmin.y, r2.argmin.y)
    assert r1.start_label == r2.start_label


def test_internal_mean_constraint_held(multilattice, rng):
    grid = build_grid(multilattice.spec, 5)
    s0 = np.array([[0.1], [-0.05]])
    problem = Problem(grid, multilattice, np.diag([1.05, 1.0]), s0=s0)
    # any variable vector reconstructs internal shifts with the exact mean
    for _ in range(10):
        x = rng.standard_normal(problem.n_vars)
        _, s = problem.unpack(x)
        assert np.abs(s.mean(axis=0) - s0).max() < 1e-12
    res = multi_start_minimize(problem, SolveOptions(n_random_starts=1))
    assert np.abs(res.internal.mean(axis=0) - s0).max() < 1e-12


def test_rotation_boundary_reaches_floor(square_spec, harmonic):
    grid = build_grid(square_spec, 6)
    problem = Problem(grid, harmonic, rotation(0.7))
    res = multi_start_minimize(problem, SolveOptions())
    assert res.energy <= 1e-10


def test_random_start_below_rounding_floor_converges(square_spec, harmonic):
    # Harmonic tension, CELLHOM_SEED 13, N = 16: this start reaches a
    # gradient sup-norm of 4e-8 within 100 gradient calls, after which no
    # step decreases the energy by more than its rounding error.
    grid = build_grid(square_spec, 16)
    problem = Problem(grid, harmonic, np.diag([1.2, 1.0]))
    opts = SolveOptions(n_random_starts=2, seed=13, max_iter=500)
    starts = {label: (dfm, internal) for label, dfm, internal in start_fields(problem, opts)}
    res = minimize(problem, opts, *starts["random-1"], start_label="random-1")
    assert res.converged
    assert res.stop == "converged"
    assert res.iterations < 500


def test_multistart_reports_lowest_energy(monkeypatch):
    # random-1 reaches the lowest energy here; a search that stalls on it
    # below the rounding floor, or a rule that prefers converged starts,
    # reports random-0's higher energy instead
    spec = square_lattice()
    model = pair_potential_model(spec, lennard_jones(1.0, 2 ** (-1 / 6)), 2.5)
    problem = Problem(build_grid(model.spec, 16), model, np.diag([1.05, 1.0]))
    seen = []
    real = solver.minimize

    def record(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(solver, "minimize", record)
    best = multi_start_minimize(problem, SolveOptions(n_random_starts=2))
    assert [r.start_label for r in seen] == ["affine", "random-0", "random-1"]
    assert best.energy == min(r.energy for r in seen)
    assert best.stop == "converged"
    assert best.failed_starts == []


def test_multistart_selection_ignores_convergence(grid5, harmonic, monkeypatch):
    plan = {"affine": (2.0, True), "random-0": (1.0, False),
            "random-1": None, "random-2": (1.0, True)}

    def fake(problem, opts, dfm, internal=None, start_label="custom"):
        if plan[start_label] is None:
            raise DivergedEvaluation("diverged evaluation")
        energy, converged = plan[start_label]
        return solver.SolveResult(energy, dfm, internal, 0, converged, 0.0, start_label,
                                  "converged" if converged else "max_iter", 1)

    monkeypatch.setattr(solver, "minimize", fake)
    problem = Problem(grid5, harmonic, np.diag([1.2, 1.0]))
    best = multi_start_minimize(problem, SolveOptions(n_random_starts=3))
    assert best.start_label == "random-0"      # lowest energy, earliest of the tie
    assert best.converged is False
    assert best.stop == "max_iter"
    assert best.failed_starts == ["random-1"]


def test_multistart_tie_within_rounding_floor_goes_to_earliest(grid5, harmonic, monkeypatch):
    # starts that reach the same minimum differ by rounding only; a later
    # start must beat the incumbent by more than the energy's rounding floor
    energies = {}

    def fake(problem, opts, dfm, internal=None, start_label="custom"):
        return solver.SolveResult(energies[start_label], dfm, internal, 0, True, 0.0,
                                  start_label, "converged", 1)

    monkeypatch.setattr(solver, "minimize", fake)
    problem = Problem(grid5, harmonic, np.diag([1.2, 1.0]))
    opts = SolveOptions(n_random_starts=1)
    energies.update({"affine": 1.0, "random-0": 1.0 - 2e-16})
    best = multi_start_minimize(problem, opts)
    assert best.start_label == "affine"
    assert best.energy == 1.0
    assert [s["label"] for s in best.starts] == ["affine", "random-0"]
    assert [s["energy"] for s in best.starts] == [1.0, 1.0 - 2e-16]
    energies.update({"random-0": 1.0 - 1e-9})
    assert multi_start_minimize(problem, opts).start_label == "random-0"


class FloorProblem:
    """Energy frozen at its rounding floor with the gradient of
    1.5 |x - 1|^2, so only slopes can rank steps; the L-BFGS unit step from
    x = 0 overshoots to x = 3.  Evaluations with x[0] strictly inside
    ``diverge`` raise."""

    def __init__(self, diverge):
        self.diverge = diverge

    def start_vector(self, start, internal):
        return np.zeros(2)

    def value_and_grad(self, x):
        if self.diverge[0] < x[0] < self.diverge[1]:
            raise DivergedEvaluation("diverged evaluation")
        return 1.0, 3.0 * (x - 1.0)

    def precondition(self, v):
        return v

    grid = None

    def unpack(self, x):
        return x.copy(), None


def test_slope_search_steps_past_diverged_trial():
    # the bisection's first trial, x = 1.5, diverges; the next, x = 0.75,
    # meets the approximate Wolfe conditions
    res = minimize(FloorProblem((1.4, 1.6)), FAST, None)
    assert res.stop == "converged"
    assert np.allclose(res.argmin.y, 1.0)


def test_slope_search_stalls_when_every_trial_diverges():
    res = minimize(FloorProblem((0.0, 2.9)), FAST, None)
    assert res.stop == "line_search_stall"
    assert not res.converged
    assert res.iterations == 0
    assert np.all(np.isfinite(res.argmin.y))
    assert res.n_evals == 2 + solver._MAX_BACKTRACKS   # start, unit step, cap
    assert res.n_backtracks == solver._MAX_BACKTRACKS


class GradientDivergesProblem(FloorProblem):
    """E = 2 (x - 1)^2 from x = 0, whose gradient diverges at x = 1, where
    the energy, 0, is finite: the unit step from x = 0 lands at x = 4, above
    the floor, and the halved steps at x = 2, then x = 1 (t = 1/4)."""

    def __init__(self):
        self.points = []

    def start_vector(self, start, internal):
        return np.zeros(1)

    def value_and_grad(self, x):
        self.points.append(float(x[0]))
        if x[0] == 1.0:
            raise DivergedEvaluation("diverged evaluation")
        return 2.0 * (x[0] - 1.0) ** 2, 4.0 * (x - 1.0)


def test_halved_step_whose_gradient_diverges_is_too_long():
    # the trial at t = 1/4 is treated as a step too long, so the search goes
    # on to t = 1/8 instead of losing the start
    problem = GradientDivergesProblem()
    res = minimize(problem, FAST, None)
    assert problem.points[:5] == [0.0, 4.0, 2.0, 1.0, 0.5]
    assert res.stop == "converged"
    assert np.allclose(res.argmin.y, 1.0)
    assert res.n_evals == len(problem.points) == 1 + res.iterations + res.n_backtracks


class IndefinitePreconditionProblem(FloorProblem):
    """E = x^T A x / 2 - sum(x), A = diag(1, 4, 9), whose P^-1 flips the
    sign of the second coordinate: H0 = gamma P^-1 is indefinite, so some
    quasi-Newton directions do not descend."""

    def __init__(self):
        pass

    def start_vector(self, start, internal):
        return np.zeros(3)

    def value_and_grad(self, x):
        Ax = np.array([1.0, 4.0, 9.0]) * x
        return float(0.5 * x @ Ax - x.sum()), Ax - 1.0

    def precondition(self, v):
        return v * np.array([1.0, -1.0, 1.0])


def test_non_descent_direction_falls_back_to_steepest_descent(monkeypatch):
    uphill = []
    direction = solver._History.direction

    def spy(self, g, pg):
        d = direction(self, g, pg)
        uphill.append(not d @ g < 0)
        return d

    monkeypatch.setattr(solver._History, "direction", spy)
    res = minimize(IndefinitePreconditionProblem(), SolveOptions(), None)
    assert any(uphill)
    assert res.stop == "converged"
    assert np.allclose(res.argmin.y, [1.0, 0.25, 1.0 / 9.0])


def test_multistart_names_every_failed_start(square_spec):
    from cellhom import MatrixDensity, quasiconvex_wrapper_model
    nan = MatrixDensity(value=lambda G: np.full(G.shape[:-2], np.nan),
                        grad=lambda G: np.zeros(G.shape))
    model = quasiconvex_wrapper_model(square_spec, nan)
    problem = Problem(build_grid(square_spec, 6), model, np.diag([0.9, 1.0]))
    with pytest.raises(DivergedEvaluation,
                       match="^all starts failed: affine, buckling, random-0, random-1$"):
        multi_start_minimize(problem, FAST)


def test_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(grad_tol=0.0)
    with pytest.raises(ValueError):
        SolveOptions(max_iter=0)
    with pytest.raises(ValueError):
        SolveOptions(perturb_amp=-1.0)
    with pytest.raises(ValueError, match="history"):
        SolveOptions(history=-1)
    with pytest.raises(ValueError, match="n_random_starts"):
        SolveOptions(n_random_starts=-2)
    SolveOptions(history=0, n_random_starts=0)   # steepest descent, affine start only
    # non-integer counts used to fail only inside the solve, or never
    for bad in ({"history": 2.5}, {"n_random_starts": 1.5}, {"max_iter": 10.5},
                {"history": True}, {"seed": 3.7}, {"grad_tol": np.nan},
                {"perturb_amp": np.nan}, {"grad_tol": np.inf}):
        with pytest.raises(ValueError, match="integer|finite"):
            SolveOptions(**bad)
    SolveOptions(max_iter=np.int64(10), seed=np.uint64(2**63))   # numpy integers are integers


def textbook_direction(pairs, g, precondition=lambda v: v):
    """Nocedal's two-loop recursion over (s, y) pairs, oldest first, from
    H0 = gamma P^-1 with gamma = s . y / y . P^-1 y of the newest pair."""
    q = -g.copy()
    alpha = []
    for s, y in reversed(pairs):
        alpha.append((s @ q) / (s @ y))
        q -= alpha[-1] * y
    if pairs:
        s, y = pairs[-1]
        q = precondition(q) * ((s @ y) / (y @ precondition(y)))
    for (s, y), a in zip(pairs, reversed(alpha)):
        q += (a - (y @ q) / (s @ y)) * s
    return q


def test_two_loop_matches_textbook():
    # random pairs y = A s of a well-conditioned SPD A, fed to the solver's
    # ring and to a plain list that keeps the last `history` accepted pairs
    rng = np.random.default_rng(11)
    n, size = 40, SolveOptions().history
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = Q @ np.diag(rng.uniform(1.0, 10.0, n)) @ Q.T
    history, pairs = solver._History(size, n), []

    def push(s, y):
        history.push(s, y, y)
        if s @ y > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            pairs.append((s, y))
            del pairs[:-size]

    def check():
        g = rng.standard_normal(n)
        ref = textbook_direction(pairs, g)
        assert np.linalg.norm(history.direction(g, g) - ref) <= 1e-12 * np.linalg.norm(ref)

    def step():
        s = rng.standard_normal(n)
        push(s, A @ s + 0.01 * rng.standard_normal(n))

    check()                                 # empty: steepest descent
    for count in range(1, 2 * size + 8):
        step()
        if count in (1, 5, size, size + 1, size + 3, 2 * size + 7):
            check()                         # filling, full, wrapped twice
    s = rng.standard_normal(n)
    push(s, -s)                             # fails the curvature test
    assert len(pairs) == size and len(history.order) == size
    check()
    step()
    check()
    history.order.clear()                   # the steepest-descent reset
    pairs.clear()
    check()
    for count in range(3):
        step()
        check()


def test_preconditioned_two_loop_matches_textbook():
    # H0 = gamma P^-1 for an SPD P far from a multiple of the identity; the
    # first direction stays steepest descent
    rng = np.random.default_rng(12)
    n, size = 40, SolveOptions().history
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = Q @ np.diag(rng.uniform(1.0, 10.0, n)) @ Q.T
    B = rng.standard_normal((n, n))
    P_inv = np.linalg.inv(B @ B.T + 0.1 * np.eye(n))
    history, pairs = solver._History(size, n, identity=False), []
    g = rng.standard_normal(n)
    assert np.array_equal(history.direction(g, P_inv @ g), -g)
    for count in range(1, 2 * size + 4):
        s = rng.standard_normal(n)
        y = A @ s + 0.01 * rng.standard_normal(n)
        history.push(s, y, P_inv @ y)
        pairs.append((s, y))
        del pairs[:-size]
        if count in (1, 5, size, size + 1, 2 * size + 3):
            g = rng.standard_normal(n)
            ref = textbook_direction(pairs, g, lambda v: P_inv @ v)
            assert np.linalg.norm(history.direction(g, P_inv @ g) - ref) <= \
                1e-12 * np.linalg.norm(ref)


def dirichlet_laplacian(problem):
    """The graph Laplacian of the free sites' integer neighbours, pinned
    neighbours held at zero, by brute force over site pairs."""
    multi = problem.grid.site_multi[problem.free_idx]
    dist = np.abs(multi[:, None, :] - multi[None, :, :]).sum(axis=2)
    return 2.0 * problem.d * np.eye(len(multi)) - (dist == 1)


@pytest.mark.parametrize("case, N", [("quadform", 9), ("multilattice", 7), ("multilattice", 3),
                                     ("frobenius-3d", 7)])
def test_cell_route_preconditioner_inverts_dirichlet_laplacian(case, N, square_spec, multilattice):
    # N = 3 leaves the multilattice with internal shifts but no free site
    from cellhom import (QuadraticForm, frobenius_squared_density, quadratic_form_model,
                         quasiconvex_wrapper_model)
    if case == "quadform":
        model = quadratic_form_model(square_spec, QuadraticForm.from_moduli(1.0, 0.5))
        problem = Problem(build_grid(square_spec, N), model, np.diag([1.1, 0.95]))
    elif case == "multilattice":
        problem = Problem(build_grid(multilattice.spec, N), multilattice, np.eye(2))
    else:
        spec = build_lattice(3, np.eye(3))
        model = quasiconvex_wrapper_model(spec, frobenius_squared_density())
        problem = Problem(build_grid(spec, N), model, 1.1 * np.eye(3))
    assert problem.bonds is None
    n = problem.n_free * problem.d
    v = np.random.default_rng(5).standard_normal(problem.n_vars)
    u = problem.precondition(v)
    L = dirichlet_laplacian(problem)
    Lu = L @ u[:n].reshape(problem.n_free, problem.d)
    assert np.linalg.norm(Lu.ravel() - v[:n]) <= 1e-12 * np.linalg.norm(v[:n])
    assert (problem.n_internal > 0) == (case == "multilattice")
    assert np.array_equal(u[n:], v[n:])          # internal shifts: identity


@pytest.mark.parametrize("N", [7, 3])
def test_shift_gradient_is_projected_with_s0(N, multilattice, rng):
    # with a prescribed mean the shifts enter as s - mean(s) + s0, so the
    # shift block of the gradient sums to zero per (d, m) component, and P
    # leaves that block alone; the site block is still the Dirichlet
    # Laplacian, and N = 3 leaves no free site
    M, s0 = np.array([[1.05, 0.02], [0.0, 0.97]]), np.array([[0.02], [0.01]])
    problem = Problem(build_grid(multilattice.spec, N), multilattice, M, s0=s0)
    n = problem.n_free * problem.d
    affine = affine_deformation(problem.grid, M)
    x = problem.pack(affine)
    g = problem.value_and_grad(x + 0.1 * rng.standard_normal(x.shape))[1]
    shape = (problem.n_cells, problem.d, problem.m)
    for component in np.eye(problem.d * problem.m):      # the same shift in every cell
        u = problem.pack(affine, np.broadcast_to(component.reshape(shape[1:]), shape))
        assert abs(g[n:] @ u[n:]) <= 1e-12 * np.abs(g[n:]).sum()
    v = np.random.default_rng(7).standard_normal(problem.n_vars)
    u = problem.precondition(v)
    assert np.array_equal(u[n:], v[n:])
    Lu = dirichlet_laplacian(problem) @ u[:n].reshape(problem.n_free, problem.d)
    assert np.linalg.norm(Lu.ravel() - v[:n]) <= 1e-12 * max(1.0, np.linalg.norm(v[:n]))
    if N == 3:
        res = minimize(problem, SolveOptions(), affine_deformation(problem.grid, M))
        assert res.converged and res.iterations == 0
        assert np.array_equal(res.internal, np.tile(s0[None], (problem.n_cells, 1, 1)))


def test_multilattice_s0_buckling_start_iterations_are_mesh_independent(multilattice):
    # with the projected shifts the buckling start needs 16, 18 and 21
    # iterations; as differences against the last cell it needed 17, 20 and
    # 21 with a Sherman-Morrison block in P, and 37, 58 and 118 without
    M, s0 = np.array([[1.05, 0.02], [0.0, 0.97]]), np.array([[0.02], [0.01]])
    for N in (6, 8, 12):
        grid = build_grid(multilattice.spec, N)
        problem = Problem(grid, multilattice, M, s0=s0)
        E_affine = problem.energy_only(problem.start_vector(affine_deformation(grid, M)))
        res = minimize(problem, SolveOptions(), buckling_start(grid, M), start_label="buckling")
        assert res.converged and res.iterations <= 30, (N, res.iterations)
        assert abs(res.energy - E_affine) <= solver._ENERGY_FLOOR * (1.0 + abs(E_affine))


@pytest.mark.parametrize("potential", ["harmonic", "lj"])
def test_bond_route_preconditioner_is_identity(potential, square_spec, harmonic):
    model = harmonic if potential == "harmonic" else pair_potential_model(square_spec, LJ, 2.5)
    problem = Problem(build_grid(model.spec, 10), model, np.diag([0.9, 1.0]))
    assert problem.bonds is not None
    v = np.random.default_rng(6).standard_normal(problem.n_vars)
    keep = v.copy()
    assert problem.precondition(v) is v
    assert np.array_equal(v, keep)


def test_quadform_buckling_start_iterations_are_mesh_independent(square_spec):
    # the Laplacian-preconditioned L-BFGS needs 12-13 iterations at every N;
    # without the preconditioner it needed 18, 44 and 81
    from cellhom import QuadraticForm, quadratic_form_model
    model = quadratic_form_model(square_spec, QuadraticForm.from_moduli(1.0, 0.5))
    M = np.diag([1.1, 0.95])
    for N in (8, 16, 32):
        grid = build_grid(square_spec, N)
        problem = Problem(grid, model, M)
        E_affine = problem.energy_only(problem.start_vector(affine_deformation(grid, M)))
        res = minimize(problem, SolveOptions(), buckling_start(grid, M), start_label="buckling")
        assert res.converged and res.iterations <= 25, (N, res.iterations)
        assert abs(res.energy - E_affine) <= solver._ENERGY_FLOOR * (1.0 + abs(E_affine))


@pytest.mark.parametrize("N", [8, 12])
@pytest.mark.parametrize("diag", [(1.2, 1.0), (1.1, 1.05)])
def test_stiffness_preconditioner_is_spring_hessian(diag, N, square_spec, harmonic):
    # nearest-neighbour springs at a diagonal M: every bond's Hessian block
    # is diagonal and the free sites' Dirichlet neighbours carry bulk
    # weight, so the weighted Laplacian is the Hessian at the affine state
    M = np.diag(diag)
    problem = Problem(build_grid(square_spec, N), harmonic, M)
    assert problem.preconditioner == "stiffness"
    x = problem.pack(affine_deformation(problem.grid, M))
    v = np.random.default_rng(8).standard_normal(problem.n_vars)
    eps = 1e-6
    Hv = (problem.value_and_grad(x + eps * v)[1] - problem.value_and_grad(x - eps * v)[1]) / (2 * eps)
    assert np.max(np.abs(problem.precondition(Hv) - v)) <= 1e-8


def test_tension_random_starts_converge_in_few_iterations(square_spec, harmonic):
    # with P = identity the random starts needed 32, 75, 150 and 299
    # iterations; the stiffness-weighted Laplacian needs at most 31 here
    M = np.diag([1.2, 1.0])
    for N in (8, 16, 32, 64):
        problem = Problem(build_grid(square_spec, N), harmonic, M)
        best = multi_start_minimize(problem, FAST)
        assert best.start_label == "affine" and best.iterations == 0
        for start in best.starts[1:]:
            assert start["stop"] == "converged" and start["iterations"] <= 40, (N, start)


def test_collapsed_bond_keeps_identity_without_warning(square_spec, harmonic):
    # at M = diag(1, 0) the vertical bonds have length 0, where phi'/L and
    # u = b / L are undefined: P is the identity and nothing warns
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        problem = Problem(build_grid(square_spec, 8), harmonic, np.diag([1.0, 0.0]))
    assert problem.preconditioner == "identity"
    v = np.ones(problem.n_vars)
    assert problem.precondition(v) is v


def test_backtracks_count_trial_steps_after_the_unit_step():
    # the LJ workload's affine start at N = 12 backtracks; each line search
    # evaluates its unit step, then one point per backtrack, each trial with
    # its gradient: an accepted halved step is not evaluated again, and
    # nothing calls energy_only
    model = pair_potential_model(square_lattice(), LJ, 2.5)
    M = np.array([[1.05, 0.05], [0.0, 1.0]])
    problem = Problem(build_grid(model.spec, 12), model, M)
    calls = []
    for name in ("energy_only", "value_and_grad"):
        def record(x, f=getattr(problem, name), name=name):
            calls.append((name, x.copy()))
            return f(x)
        setattr(problem, name, record)
    opts = SolveOptions(max_iter=500)
    res = minimize(problem, opts, affine_deformation(problem.grid, M), start_label="affine")
    assert res.stop == "converged"
    assert res.n_backtracks > 0
    assert not [name for name, _ in calls if name == "energy_only"]
    assert not any(np.array_equal(a, b) for (_, a), (_, b) in zip(calls, calls[1:]))
    assert res.n_evals == len(calls) == 1 + res.iterations + res.n_backtracks
    again = minimize(Problem(build_grid(model.spec, 12), model, M), opts,
                     affine_deformation(problem.grid, M))
    assert (again.iterations, again.n_backtracks) == (res.iterations, res.n_backtracks)


def test_one_preconditioner_application_per_iteration(square_spec, harmonic):
    # pg = P^-1 g is kept beside g and the history keeps P^-1 y beside y, so
    # each accepted gradient is preconditioned once, the first one included;
    # with no history nothing is
    M = np.diag([1.2, 1.0])
    problem = Problem(build_grid(square_spec, 16), harmonic, M)
    assert problem.preconditioner == "stiffness"
    calls = []
    apply = problem.precondition
    problem.precondition = lambda v: calls.append(1) or apply(v)
    iterations = []
    for opts in (FAST, SolveOptions(n_random_starts=2, history=0, max_iter=50)):
        for label, dfm, internal in start_fields(problem, opts):
            calls.clear()
            res = minimize(problem, opts, dfm, internal, start_label=label)
            assert len(calls) == (res.iterations + 1 if opts.history else 0), label
            iterations.append(res.iterations)
    assert min(iterations[1:3]) > 0

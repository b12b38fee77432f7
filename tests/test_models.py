import math

import numpy as np
import pytest

from cellhom import (MatrixDensity, QuadraticForm, build_grid, build_lattice,
                     frobenius_squared_density, harmonic_pair, harmonic_spring_model,
                     lennard_jones, multilattice_harmonic_model,
                     pair_potential_model, quadratic_form_model,
                     quasiconvex_wrapper_model, square_lattice)
from cellhom.models import _smoothstep, check_quadratic_form

from conftest import cell_gradient, fd_gradient, max_rel_err, random_rotation, rotation


def centered(F):
    F = np.asarray(F, dtype=float)
    return F - F[:, :4].mean(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# harmonic springs
# ---------------------------------------------------------------------------


def test_harmonic_rest_state(harmonic, square_spec):
    assert harmonic.energy(square_spec.corners) == 0.0


def test_harmonic_tension_value(harmonic, square_spec):
    F = np.diag([1.2, 1.0]) @ square_spec.corners
    # two stretched x-edges at 0.5*(0.2)^2 each; also the target density
    # (max(0, 1.2-1))^2 = 0.04 of the benchmark
    assert harmonic.energy(F) == pytest.approx(0.04, abs=1e-14)


def test_harmonic_compression_value(harmonic, square_spec):
    F = np.diag([0.5, 1.0]) @ square_spec.corners
    assert harmonic.energy(F) == pytest.approx(0.25, abs=1e-14)


def test_harmonic_requires_square_lattice():
    spec = build_lattice(2, 2 * np.eye(2))
    with pytest.raises(ValueError):
        harmonic_spring_model(spec, 1.0, 1.0)


# ---------------------------------------------------------------------------
# pair potentials
# ---------------------------------------------------------------------------


def brute_force_pair_energy(model, grid, y):
    """Independent bond enumeration: every unordered site pair within the
    cutoff, weighted by (interior cells covering it) / (bulk cells covering
    it), both counted by explicit loops."""
    spec = model.spec
    coords = grid.site_coords
    cutoff = model.cutoff
    cell_cover = {}
    for c, sites in enumerate(grid.interior_cell_sites):
        for a in sites:
            for b in sites:
                if a < b:
                    cell_cover.setdefault((a, b), 0)
                    cell_cover[(a, b)] += 1
    offs = [tuple(o) for o in spec.offsets_int]
    offset_set = set(offs)

    def bulk_count(delta):
        # cells of the infinite lattice containing a bond of this integer
        # separation: one per stencil pair (o, o + delta)
        cnt = 0
        for o in offs:
            if tuple(np.asarray(o) + np.asarray(delta)) in offset_set:
                cnt += 1
        return cnt

    total = 0.0
    for (a, b), covered in cell_cover.items():
        r = np.linalg.norm(coords[a] - coords[b])
        if r > cutoff + 1e-12:
            continue
        delta = tuple(grid.site_multi[b] - grid.site_multi[a])
        nb = bulk_count(delta)
        length = np.linalg.norm(y[a] - y[b])
        total += covered / nb * float(model.potential.value_and_deriv(r, length)[0])
    return total


def test_bond_kernel_batch_equals_single_cells(square_spec, harmonic, rng):
    # the one-cell table on B = 3 cells at once and one cell at a time agrees
    # to the bit, also with a zero-length bond in cell 1 (its LJ energy is
    # nan, its force the zero subgradient)
    lj = pair_potential_model(square_spec, lennard_jones(1.0, 2 ** (-1 / 6)), 2.5)
    for model in (harmonic, lj):
        F = model.spec.stencil + 0.1 * rng.standard_normal((3, 2, model.n_cols))
        collapsed = F.copy()
        collapsed[1, :, 1] = collapsed[1, :, 0]
        for batch in (F, collapsed):
            with np.errstate(divide="ignore", invalid="ignore"):
                E, (gF, gS) = model._energy_gradient(batch, None)
                singles = [model._energy_gradient(batch[b:b + 1], None) for b in range(3)]
                energies = [model._energy(batch[b:b + 1], None) for b in range(3)]
            assert gS is None and np.all(np.isfinite(gF))
            assert np.array_equal(np.concatenate([E_b for E_b, _ in singles]), E, equal_nan=True)
            assert np.array_equal(np.concatenate(energies), E, equal_nan=True)
            assert np.array_equal(np.concatenate([g_b for _, (g_b, _) in singles]), gF)


def layouts(F):
    """The same batch (B, d, n) three ways: C-contiguous, site-major (memory
    (B, n, d), as gathered from the positions) and batch-last (memory
    (n, d, B))."""
    return [np.ascontiguousarray(F),
            np.swapaxes(np.ascontiguousarray(np.swapaxes(F, 1, 2)), 1, 2),
            np.ascontiguousarray(F.transpose(2, 1, 0)).transpose(2, 1, 0)]


def test_bond_kernel_ignores_layout(square_spec, harmonic, rng):
    # a cell batch on the one-cell table and a whole sample on its bond table
    lj = pair_potential_model(square_spec, lennard_jones(1.0, 2 ** (-1 / 6)), 2.5)
    for model in (harmonic, lj):
        F = model.spec.stencil + 0.1 * rng.standard_normal((5, 2, model.n_cols))
        grid = build_grid(model.spec, 9)
        y = grid.site_coords + 0.1 * rng.standard_normal(grid.site_coords.shape)
        bonds = model._sample_bonds(grid.interior_cell_sites)
        for batch, table in ((F, None), (y.T[None], bonds)):
            outs = [model._energy_gradient(G, None, table) for G in layouts(batch)]
            energies = [model._energy(G, None, table) for G in layouts(batch)]
            for E, (gF, _) in outs[1:]:
                assert np.array_equal(E, outs[0][0]) and np.array_equal(gF, outs[0][1][0])
            for E in energies:
                assert np.array_equal(E, outs[0][0])


def test_potential_derivatives_match_central_differences(harmonic, multilattice, rng):
    # phi' against central differences of phi, phi'' against those of phi',
    # for every built-in potential; no other test reads LJ's phi''
    rho = rng.uniform(0.8, 2.6, 200)
    r = rng.choice([np.sqrt(0.5), 1.0, np.sqrt(2.0)], size=rho.shape)
    h = 1e-5 * rho
    potentials = [lennard_jones(1.0, 2 ** (-1 / 6)), lennard_jones(0.7, 1.3),
                  harmonic_pair(1.5, 1.1), harmonic_pair(1.0, 1.1, shell=1.0),
                  harmonic.potential, multilattice.potential]
    for potential in potentials:
        dV = potential.value_and_deriv(r, rho)[1]
        (V_up, dV_up), (V_down, dV_down) = (potential.value_and_deriv(r, rho + h),
                                            potential.value_and_deriv(r, rho - h))
        assert np.allclose((V_up - V_down) / (2 * h), dV, rtol=1e-6, atol=1e-6), potential.name
        assert np.allclose((dV_up - dV_down) / (2 * h), potential.deriv2(r, rho),
                           rtol=1e-6, atol=1e-6), potential.name


def test_cell_kernels_round_per_value_not_layout(square_spec, multilattice, rng):
    # the interior cells of one N = 32 state, as a C-contiguous batch, as
    # the site-major view of the gathered positions and as a batch-last
    # view: energies and gradients agree to the bit
    models = [quadratic_form_model(square_spec, QuadraticForm.from_moduli(1.0, 0.5)),
              quasiconvex_wrapper_model(square_spec, frobenius_squared_density()),
              multilattice]
    M = np.array([[0.8, 0.1], [0.0, 1.0]])
    for model in models:
        grid = build_grid(model.spec, 32)
        y = grid.site_coords @ M.T + 0.3 * rng.standard_normal(grid.site_coords.shape)
        F = np.swapaxes(y[grid.interior_cell_sites], 1, 2)
        S = None if model.m == 0 else 0.1 * rng.standard_normal((len(F), 2, model.m))
        E_ref = model.energy_many(F, S)
        gF_ref, gS_ref = model._cells(F, S, True)[1]
        for batch in layouts(F):
            assert np.array_equal(model.energy_many(batch, S), E_ref), model.name
            gF, gS = model._cells(batch, S, True)[1]
            assert np.array_equal(gF, gF_ref), model.name
            assert (gS is None and gS_ref is None) or np.array_equal(gS, gS_ref)


def test_pair_zero_potential(square_spec):
    zero = harmonic_pair(k=0.0, r0=1.0)
    model = pair_potential_model(square_spec, zero, cutoff=1.5)
    rng = np.random.default_rng(0)
    F = centered(np.zeros((2, model.spec.n_cols)) + rng.standard_normal((2, model.spec.n_cols)))
    F = F - F[:, : 4].mean(axis=1, keepdims=True)
    assert model.energy_many(F[None])[0] == 0.0


def test_pair_matches_harmonic_springs(square_spec, harmonic):
    pot = harmonic_pair(k=2.0, r0=1.0, shell=1.0)  # (rho-1)^2 on shell 1
    model = pair_potential_model(square_spec, pot, cutoff=1.0)
    assert model.spec.n_cols == 4
    rng = np.random.default_rng(1)
    for _ in range(10):
        F = centered(square_spec.corners + 0.3 * rng.standard_normal((2, 4)))
        assert model.energy(F) == pytest.approx(harmonic.energy(F), abs=1e-13)


def test_pair_brute_force_oracle(square_spec):
    pot = lennard_jones(epsilon=1.0, sigma=2 ** (-1 / 6))  # minimum at r = 1
    model = pair_potential_model(square_spec, pot, cutoff=1.9)
    grid = build_grid(model.spec, 7)
    rng = np.random.default_rng(5)
    y = grid.site_coords + 0.05 * rng.standard_normal(grid.site_coords.shape)

    nc = model.spec.n_corners
    Y = y[grid.interior_cell_sites]
    F = np.swapaxes(Y, 1, 2)
    F = F - F[:, :, :nc].mean(axis=2, keepdims=True)
    total = float(model.energy_many(F).sum())
    oracle = brute_force_pair_energy(model, grid, y)
    assert total == pytest.approx(oracle, rel=1e-12)


def test_harmonic_springs_brute_force_oracle(square_spec):
    # harmonic springs are the pair model of harmonic_pair(2k, r0) at cutoff 1
    model = harmonic_spring_model(square_spec, 0.7, 1.3)
    grid = build_grid(model.spec, 7)
    y = grid.site_coords + 0.1 * np.random.default_rng(6).standard_normal(grid.site_coords.shape)
    F = np.swapaxes(y[grid.interior_cell_sites], 1, 2)
    total = float(model.energy_many(F).sum())     # energy_many centres each cell
    assert total == pytest.approx(brute_force_pair_energy(model, grid, y), rel=1e-12)


def test_pair_affine_matches_shell_sum(square_spec):
    # affine bulk energy per cell equals half the ordered-pair lattice sum
    pot = lennard_jones(1.0, 2 ** (-1 / 6))
    cutoff = 2.2
    model = pair_potential_model(square_spec, pot, cutoff)
    M = np.array([[1.03, 0.05], [0.0, 0.98]])
    cell_energy = model.energy(M @ model.spec.stencil)
    shell = 0.0
    for i in range(-4, 5):
        for j in range(-4, 5):
            v = np.array([float(i), float(j)])
            r = np.linalg.norm(v)
            if 0 < r <= cutoff + 1e-12:
                shell += float(pot.value_and_deriv(r, np.linalg.norm(M @ v))[0])
    assert cell_energy == pytest.approx(0.5 * shell, rel=1e-12)


@pytest.mark.parametrize("shell", [1.2, 2.0])
def test_pair_shell_without_bonds_rejected(square_spec, shell):
    # no lattice vector is 1.2 long, and those 2.0 long lie beyond the cutoff
    with pytest.raises(ValueError, match="no bond"):
        pair_potential_model(square_spec, harmonic_pair(1.0, 1.0, shell=shell), 1.5)


@pytest.mark.parametrize("build", [
    lambda: harmonic_spring_model(square_lattice(), math.nan, 1.0),
    lambda: harmonic_spring_model(square_lattice(), 1.0, math.nan),
    lambda: multilattice_harmonic_model(square_lattice(m=1), math.nan, math.sqrt(0.5)),
    lambda: multilattice_harmonic_model(square_lattice(m=1), 1.0, math.nan),
    lambda: quadratic_form_model(square_lattice(), QuadraticForm.from_moduli(1.0, 0.5),
                                 kappa=math.nan),
], ids=["harmonic-k", "harmonic-r0", "multilattice-k", "multilattice-r0", "quadform-kappa"])
def test_model_factories_reject_nan(build):
    # NaN fails every comparison, so "k <= 0" used to let it through
    with pytest.raises(ValueError, match="positive|kappa|corner distance"):
        build()


def test_shell_model_is_the_smaller_cutoff_model(square_spec):
    # the bonds off the shell are cut when the table is built, so the unit
    # shell at cutoff 1.5 is the cutoff-1 model, cell table and sample table
    shell = pair_potential_model(square_spec, harmonic_pair(1.0, 1.1, shell=1.0), 1.5)
    near = pair_potential_model(square_spec, harmonic_pair(1.0, 1.1), 1.0)
    assert shell.spec.n_cols == near.spec.n_cols
    assert all(np.array_equal(a, b) for a, b in zip(shell.table, near.table))
    cells = build_grid(near.spec, 8).interior_cell_sites
    assert all(np.array_equal(a, b) for a, b in zip(shell._sample_bonds(cells),
                                                     near._sample_bonds(cells)))


def test_pair_cutoff_too_small(square_spec):
    with pytest.raises(ValueError, match="empty stencil"):
        pair_potential_model(square_spec, lennard_jones(), cutoff=0.5)


# ---------------------------------------------------------------------------
# quasiconvex wrapper
# ---------------------------------------------------------------------------


def test_wrapper_affine_value(square_spec):
    model = quasiconvex_wrapper_model(square_spec, frobenius_squared_density())
    M = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert model.energy(M @ square_spec.corners) == pytest.approx(5.0, abs=1e-13)


def test_wrapper_constant_density(square_spec, rng):
    constant = MatrixDensity(value=lambda M: np.full(np.shape(M)[:-2], 7.0),
                             grad=lambda M: np.zeros(np.shape(M)))
    model = quasiconvex_wrapper_model(square_spec, constant)
    F = centered(square_spec.corners + rng.standard_normal((2, 4)))
    assert model.energy(F) == pytest.approx(7.0 * square_spec.det_abs, abs=1e-14)


def test_wrapper_corner_bump_brute_force(square_spec):
    model = quasiconvex_wrapper_model(square_spec, frobenius_squared_density())
    F = square_spec.corners.copy()
    F[:, 0] += np.array([-0.3, 0.0])   # push the lowest corner outward
    F = centered(F)
    # direct per-simplex evaluation on the two Kuhn triangles of the unit
    # square, 0 -> 1 -> 3 and 0 -> 2 -> 3 in corner columns
    expected = 0.0
    for ids in ([0, 1, 3], [0, 2, 3]):
        verts = square_spec.corners[:, ids].T
        vals = F[:, ids].T
        G = (vals[1:] - vals[0]).T @ np.linalg.inv((verts[1:] - verts[0]).T)
        expected += 0.5 * np.sum(G**2)
    got = model.energy(F)
    assert got == pytest.approx(expected, rel=1e-13)
    baseline = model.energy(centered(square_spec.corners))
    assert got > baseline + 0.01


@pytest.mark.parametrize("A", [np.eye(2), np.eye(3), np.array([[1.0, 0.4], [0.1, 0.9]])],
                         ids=["square", "cube", "skewed"])
def test_kuhn_simplices_tile_the_cell(A, rng):
    d = len(A)
    spec = build_lattice(d, A)
    model = quasiconvex_wrapper_model(spec, frobenius_squared_density())
    assert len(model._w) == math.factorial(d)
    assert model._w.sum() == pytest.approx(spec.det_abs, abs=1e-12)
    # each simplex reproduces affine corner values: (M @ corners) @ B_S = M
    M = rng.standard_normal((d, d))
    assert np.allclose(M @ spec.corners @ model._B, M, atol=1e-12)
    # every probe point of the cell lies inside exactly one simplex, whose
    # vertices are the corners with a nonzero row in B_S
    probes = (rng.random((2048, d)) - 0.5) @ A.T
    inside = np.zeros(len(probes), dtype=int)
    for B in model._B:
        ids = np.flatnonzero(np.abs(B).sum(axis=1) > 1e-12)
        assert len(ids) == d + 1
        lam = np.linalg.solve(np.vstack([spec.corners[:, ids], np.ones(d + 1)]),
                              np.vstack([probes.T, np.ones(len(probes))]))
        inside += (lam > 1e-10).all(axis=0)
    assert np.all(inside == 1)


# ---------------------------------------------------------------------------
# quadratic-form model
# ---------------------------------------------------------------------------


def test_quadratic_zero_at_rotations(square_spec, rng):
    model = quadratic_form_model(square_spec, QuadraticForm.from_moduli(1.0, 0.5))
    for _ in range(50):
        R = random_rotation(rng)
        c = rng.standard_normal((2, 1))
        F = R @ square_spec.corners + c
        assert abs(model.energy(F)) < 1e-12


def test_quadratic_positive_off_zero_set(square_spec, rng):
    model = quadratic_form_model(square_spec, QuadraticForm.from_moduli(1.0, 0.5))
    for _ in range(50):
        R = random_rotation(rng)
        pert = rng.standard_normal((2, 4))
        pert -= pert.mean(axis=1, keepdims=True)
        pert *= (0.05 + 0.3 * rng.random()) / np.linalg.norm(pert)
        F = centered(R @ square_spec.corners + pert)
        assert model.energy(F) > 0.0


def test_quadratic_translation_invariance(square_spec, rng):
    model = quadratic_form_model(square_spec, QuadraticForm.from_moduli(1.0, 0.5))
    F = centered(square_spec.corners + 0.2 * rng.standard_normal((2, 4)))
    c = rng.standard_normal((2, 1))
    e = model.energy(F)
    assert abs(model.energy(F + c) - e) <= 1e-13 * (1 + abs(e))


def test_quadratic_small_strain_expansion(square_spec):
    Q = QuadraticForm.from_moduli(1.0, 0.5)
    model = quadratic_form_model(square_spec, Q)
    E = np.array([[0.3, 0.1], [0.1, -0.2]])
    for t in (1e-2, 1e-3):
        val = model.energy((np.eye(2) + t * E) @ square_spec.corners)
        target = square_spec.det_abs * Q.value(t * E)
        assert abs(val - target) <= 5.0 * t**3


def test_quadratic_reflection_penalized(square_spec):
    model = quadratic_form_model(square_spec, QuadraticForm.from_moduli(1.0, 0.5))
    refl = np.diag([1.0, -1.0])
    assert model.energy(refl @ square_spec.corners) > 0.5


def test_inadmissible_q_rejected(square_spec):
    n = 4
    H = -np.eye(n)
    with pytest.raises(ValueError, match="inadmissible Q"):
        quadratic_form_model(square_spec, QuadraticForm(d=2, H=H))
    # vanishing on symmetric part too -> not definite on symmetric
    with pytest.raises(ValueError, match="inadmissible Q"):
        quadratic_form_model(square_spec, QuadraticForm(d=2, H=np.zeros((4, 4))))


def test_quadratic_unpenalized_batch_matches_general_path(square_spec, rng):
    # a batch with det Fp >= delta in every cell skips the orientation
    # penalty; a batch that also holds penalized cells takes the general
    # path, and both give the same numbers on the unpenalized cells
    model = quadratic_form_model(square_spec, QuadraticForm.from_moduli(1.0, 0.5))
    Ms = [np.diag([1.1, 0.95]), np.array([[0.8, 0.1], [0.0, 1.0]]), np.diag([0.3, 0.4]),
          np.diag([1.0, -0.2]), rotation(0.7) @ np.diag([1.2, 0.9]), np.diag([0.6, 0.7])]
    F = np.stack([Ms[i % len(Ms)] @ square_spec.corners + 0.05 * rng.standard_normal((2, 4))
                  for i in range(60)])
    det = np.linalg.det(F @ model._lift)
    off = det >= model.delta                     # h = 0 exactly there
    assert off.any() and not off.all()
    E, (gF, _) = model._evaluate(F, None)
    E_off, (gF_off, _) = model._evaluate(F[off], None)
    assert np.array_equal(E_off, E[off])
    assert np.array_equal(gF_off, gF[off])
    assert np.array_equal(model._energy(F[off], None), E_off)


def test_check_quadratic_form_accepts_moduli():
    check_quadratic_form(QuadraticForm.from_moduli(2.0, 1.0))


def mp_quadratic_reference(model, F):
    """(energy, dE/dF) of one quadratic-form cell, from 50-digit mpmath.

    The stretch comes from a symmetric eigensolve, independent of the
    model's closed form, and the gradient from ``mp.diff`` of the whole
    cell energy, one entry of F at a time.
    """
    from mpmath import mp

    spec = model.spec
    nc, n = spec.n_corners, spec.n_cols
    Z = mp.matrix(spec.corners.tolist())
    lift = Z.T * mp.inverse(Z * Z.T)
    H = model.Q.H

    def energy(G):
        F = mp.matrix(G)
        for i in range(2):
            mean = sum(F[i, j] for j in range(nc)) / nc
            for j in range(n):
                F[i, j] -= mean
        Fp = F * lift
        Fr = F - Fp * Z
        lam, V = mp.eigsy(Fp.T * Fp)
        U = V * mp.diag([mp.sqrt(max(x, 0)) for x in lam]) * V.T
        v = [U[0, 0] - 1, U[0, 1], U[1, 0], U[1, 1] - 1]
        Q = sum(v[i] * H[i, j] * v[j] for i in range(4) for j in range(4)) / 2
        u = min(max((model.delta - mp.det(Fp)) / (model.delta / 2), 0), 1)
        a = mp.exp(-1 / u) if u > 0 else mp.zero
        b = mp.exp(-1 / (1 - u)) if u < 1 else mp.zero
        grow = 1 + sum(F[i, j] ** 2 for i in range(2) for j in range(n))
        return (spec.det_abs * Q + sum(Fr[i, j] ** 2 for i in range(2) for j in range(n))
                + model.kappa * a / (a + b) * grow)

    def along(i, j):
        def f(t):
            G = [[mp.mpf(x) for x in row] for row in F]
            G[i][j] += t
            return energy(G)
        return f

    with mp.workdps(50):
        E = float(energy(F.tolist()))
        g = np.array([[float(mp.diff(along(i, j), 0)) for j in range(n)]
                      for i in range(2)])
    return E, g


def test_quadratic_exact_near_singular_cells(square_spec, rng):
    # Fp = R diag(s1, +-s2) V^T with s2/s1 down to 1e-8: an eigensolve of
    # Fp^T Fp loses the small stretch to rounding there
    pytest.importorskip("mpmath")
    model = quadratic_form_model(square_spec, QuadraticForm.from_moduli(1.0, 0.5))
    hourglass = 4.0 * square_spec.corners[0] * square_spec.corners[1]  # residual mode
    for ratio in (1e-2, 1e-6, 1e-8):
        for sign in (1.0, -1.0):
            s1 = rng.uniform(0.7, 1.3)
            Fp = (rotation(rng.uniform(0, 2 * np.pi)) @ np.diag([s1, sign * ratio * s1])
                  @ rotation(rng.uniform(0, 2 * np.pi)).T)
            F = Fp @ square_spec.corners + np.outer(1e-2 * rng.standard_normal(2), hourglass)
            E_ref, g_ref = mp_quadratic_reference(model, F)
            gF, _ = cell_gradient(model, F)
            assert abs(model.energy(F) - E_ref) <= 1e-12 * max(1.0, abs(E_ref)), (ratio, sign)
            assert max_rel_err(gF, g_ref) <= 1e-12, (ratio, sign)


def test_quadratic_exact_near_repeated_and_zero_stretch(square_spec, rng):
    # scaled rotations and reflections with 1e-9 noise, down to a cell
    # collapsed to 1e-13 of its size, and Fp = 0 itself (there the central
    # difference of the stretch term is 0, as is the model's gradient)
    pytest.importorskip("mpmath")
    model = quadratic_form_model(square_spec, QuadraticForm.from_moduli(1.0, 0.5))
    hourglass = 4.0 * square_spec.corners[0] * square_spec.corners[1]
    cells = [np.zeros((2, 4)), np.outer([0.3, -0.2], hourglass)]
    for scale in (1.0, 1e-3, 1e-7, 1e-13):
        for sign in (1.0, -1.0):
            Fp = rotation(rng.uniform(0, 2 * np.pi)) @ np.diag([1.0, sign])
            Fp = scale * (Fp + 1e-9 * rng.standard_normal((2, 2)))
            cells.append(Fp @ square_spec.corners)
    for F in cells:
        E_ref, g_ref = mp_quadratic_reference(model, F)
        E = model.energy(F)
        gF, _ = cell_gradient(model, F)
        assert np.isfinite(E) and np.all(np.isfinite(gF))
        assert abs(E - E_ref) <= 1e-12 * max(1.0, abs(E_ref))
        assert max_rel_err(gF, g_ref) <= 1e-12


def test_smoothstep_values_and_derivative():
    h, dh = _smoothstep(np.array([-2.0, -1e-9, 0.0, 1.0, 1.0 + 1e-9, 3.0]))
    assert np.array_equal(h, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    assert np.array_equal(dh, np.zeros(6))
    # central differences with a step that shrinks like the scale of
    # exp(-1/u) near either end.  Above u = 1/2, h rounds to 1 long before
    # h' underflows, so the difference h(u + du) - h(u - du) is taken in
    # its symmetric form h(v + du) - h(v - du), v = 1 - u, which is the
    # same number since h(u) = 1 - h(1 - u)
    u = np.array([1e-3, 2e-3, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99,
                  1 - 2e-3, 1 - 1e-3])
    v = np.minimum(u, 1.0 - u)
    du = 1e-5 * v**2
    assert np.all(np.abs(_smoothstep(u)[0] + _smoothstep(1.0 - u)[0] - 1.0) <= 1e-15)
    _, dh = _smoothstep(u)
    fd = (_smoothstep(v + du)[0] - _smoothstep(v - du)[0]) / (2.0 * du)
    assert np.all(np.abs(fd - dh) <= 1e-7 * np.abs(dh))
    assert np.all(dh[1:-1] > 0.0)


def test_smoothstep_early_exit_is_general_path():
    # with no positive u the step returns zeros at once; the general path
    # gives the same bits on those entries of a mixed input
    u = np.array([-2.0, -1e-300, -0.0, 0.0, 0.1, 0.5, 1.0, 2.0])
    off = u <= 0
    h, dh = _smoothstep(u)
    h0, dh0 = _smoothstep(u[off])
    assert h[off].tobytes() == h0.tobytes() and dh[off].tobytes() == dh0.tobytes()
    assert np.all(h[~off] > 0.0)


# ---------------------------------------------------------------------------
# multilattice harmonic
# ---------------------------------------------------------------------------


def test_multilattice_rest_state(multilattice):
    Z = multilattice.spec.corners
    assert multilattice.energy(Z, np.zeros((2, 1))) == 0.0


def test_multilattice_shifted_internal(multilattice):
    Z = multilattice.spec.corners
    s = np.array([[0.1], [0.0]])
    # direct evaluation of the four center-corner springs
    expected = 0.0
    for j in range(4):
        expected += 0.5 * (np.linalg.norm(Z[:, j] - s[:, 0]) - np.sqrt(0.5)) ** 2
    got = multilattice.energy(Z, s)
    assert got == pytest.approx(expected, abs=1e-14)
    assert got > 0.0


def test_multilattice_grid_argmin_symmetry(multilattice):
    F = np.diag([1.1, 1.0]) @ multilattice.spec.corners
    grid_vals = np.linspace(-0.2, 0.2, 41)
    best, best_s = np.inf, None
    for sx in grid_vals:
        for sy in grid_vals:
            e = multilattice.energy(F, np.array([[sx], [sy]]))
            if e < best:
                best, best_s = e, (sx, sy)
    assert best_s[1] == pytest.approx(0.0, abs=1e-12)


def test_multilattice_needs_internal_spec(square_spec):
    with pytest.raises(ValueError, match="unsupported internal count"):
        multilattice_harmonic_model(square_spec, 1.0, np.sqrt(0.5))


def test_multilattice_needs_a_shift(multilattice):
    F = multilattice.spec.corners
    with pytest.raises(ValueError, match="multilattice model needs an internal shift s"):
        multilattice.energy(F)
    for grad in (False, True):
        with pytest.raises(ValueError, match="multilattice model needs an internal shift s"):
            multilattice._cells(F[None], None, grad)


def test_multilattice_edges_and_arms_oracle(rng):
    # brute force: every corner pair one bit apart is a unit edge, every
    # corner an arm of rest length r0 to the atom at s from the corner mean
    k, r0 = 0.7, np.sqrt(0.5)
    model = multilattice_harmonic_model(square_lattice(m=1), k, r0)
    for _ in range(5):
        F = np.array([[1.3, 0.1], [-0.2, 0.8]]) @ model.spec.corners
        F = F + 0.1 * rng.standard_normal(F.shape) + rng.standard_normal((2, 1))
        s = 0.2 * rng.standard_normal((2, 1))
        atom = F.mean(axis=1) + s[:, 0]
        expected = sum(0.5 * k * (np.linalg.norm(F[:, j] - F[:, i]) - 1.0) ** 2
                       for i in range(4) for j in range(i + 1, 4) if bin(i ^ j).count("1") == 1)
        expected += sum(0.5 * k * (np.linalg.norm(atom - F[:, j]) - r0) ** 2 for j in range(4))
        assert abs(model.energy(F, s) - expected) <= 1e-12 * max(1.0, expected)


@pytest.mark.parametrize("build", [
    lambda spec: quadratic_form_model(spec, QuadraticForm.from_moduli(1.0, 0.5)),
    lambda spec: quasiconvex_wrapper_model(spec, frobenius_squared_density()),
], ids=["quadratic_form", "quasiconvex"])
def test_bravais_models_reject_internal_atoms(build):
    # the spec's m used to be dropped: model.m = 0 on a spec with m = 1
    with pytest.raises(ValueError, match="Bravais lattices"):
        build(square_lattice(m=1))


# ---------------------------------------------------------------------------
# single-cell energy and gradient
# ---------------------------------------------------------------------------


def test_eval_frame_indifference_gate(harmonic, square_spec, rng):
    R = random_rotation(rng)
    assert harmonic.energy(R @ square_spec.corners) == pytest.approx(
        harmonic.energy(square_spec.corners), abs=1e-14)


def test_grad_zero_at_rest(harmonic, square_spec):
    gF, gS = cell_gradient(harmonic, square_spec.corners)
    assert np.all(gF == 0.0)
    assert gS is None


def test_grad_zero_on_rotation_manifold(square_spec, rng):
    model = quadratic_form_model(square_spec, QuadraticForm.from_moduli(1.0, 0.5))
    R = random_rotation(rng)
    gF, _ = cell_gradient(model, R @ square_spec.corners)
    assert np.max(np.abs(gF)) < 1e-12


def all_models(square_spec, multilattice):
    lj = pair_potential_model(square_spec, lennard_jones(1.0, 2 ** (-1 / 6)), 1.8)
    return [
        ("harmonic", harmonic_spring_model(square_spec, 1.0, 1.0), 0),
        ("pair-lj", lj, 0),
        ("quasiconvex", quasiconvex_wrapper_model(square_spec, frobenius_squared_density()), 0),
        ("quadratic", quadratic_form_model(square_spec, QuadraticForm.from_moduli(1.0, 0.5)), 0),
        ("multilattice", multilattice, 1),
    ]


def test_gradients_match_finite_differences(square_spec, multilattice, rng):
    for name, model, m in all_models(square_spec, multilattice):
        worst = 0.0
        for _ in range(20):
            F = model.spec.stencil + 0.2 * rng.standard_normal((2, model.spec.n_cols))
            F = F - F[:, :4].mean(axis=1, keepdims=True)
            s = 0.2 * rng.standard_normal((2, 1)) if m else None
            gF, gS = cell_gradient(model, F, s)
            fF, fS = fd_gradient(model.energy, F, s)
            worst = max(worst, np.abs(gF - fF).max() / max(1.0, np.abs(fF).max()))
            if m:
                worst = max(worst, np.abs(gS - fS).max() / max(1.0, np.abs(fS).max()))
        assert worst <= 1e-6, f"{name}: rel err {worst}"


def test_translation_invariance_machine_precision(square_spec, multilattice, rng):
    # adding c to every column (the corner block and any stencil columns
    # together) changes the energy only by rounding of the shifted inputs
    for name, model, m in all_models(square_spec, multilattice):
        F = model.spec.stencil + 0.3 * rng.standard_normal((2, model.spec.n_cols))
        F = F - F[:, :4].mean(axis=1, keepdims=True)
        s = 0.1 * rng.standard_normal((2, 1)) if m else None
        c = rng.standard_normal((2, 1))
        e = model.energy(F, s)
        assert abs(model.energy(F + c, s) - e) <= 1e-13 * (1 + abs(e)), name


def test_frame_indifference_invariant(square_spec, multilattice, rng):
    for name, model, m in all_models(square_spec, multilattice):
        if not model.frame_indifferent:
            continue
        F = model.spec.stencil + 0.2 * rng.standard_normal((2, model.spec.n_cols))
        F = F - F[:, :4].mean(axis=1, keepdims=True)
        s = 0.1 * rng.standard_normal((2, 1)) if m else None
        base = model.energy(F, s)
        for _ in range(100):
            R = random_rotation(rng)
            rs = R @ s if m else None
            assert abs(model.energy(R @ F, rs) - base) <= 1e-10 * (1 + abs(base)), name


def test_zero_set_characterization(square_spec, rng):
    models = [
        harmonic_spring_model(square_spec, 1.0, 1.0),
        quadratic_form_model(square_spec, QuadraticForm.from_moduli(1.0, 0.5)),
    ]
    Z = square_spec.corners
    for model in models:
        for _ in range(50):
            R = random_rotation(rng)
            c = rng.standard_normal((2, 1))
            assert abs(model.energy(R @ Z + c)) < 1e-12
        for _ in range(50):
            pert = rng.standard_normal((2, 4))
            pert -= pert.mean(axis=1, keepdims=True)
            pert *= (0.05 + rng.random()) / np.linalg.norm(pert)
            assert model.energy(centered(Z + pert)) > 0.0


def test_growth_sandwich(square_spec, multilattice, rng):
    for name, model, m in all_models(square_spec, multilattice):
        if model.growth is None:
            continue
        c, cp, cpp = model.growth
        n = 10_000
        F = 3.0 * rng.standard_normal((n, 2, model.spec.n_cols))
        F -= F[:, :, :4].mean(axis=2, keepdims=True)
        S = 3.0 * rng.standard_normal((n, 2, 1)) if m else None
        E = model.energy_many(F, S)
        nF2 = np.sum(F**2, axis=(1, 2))
        nS2 = np.sum(S**2, axis=(1, 2)) if m else 0.0
        assert np.all(E >= c * nF2 - cp - 1e-9), name
        assert np.all(E <= cpp * (nF2 + nS2 + 1) + 1e-9), name
        if model.nonnegative:
            assert np.all(E >= 0.0), name

"""Minimization of the total interior-cell energy under affine pinning.

The free variables are the positions of sites not touching any boundary
cell, plus (for multilattice models) the internal shifts of every interior
cell.  When a mean value s0 is prescribed for the shifts, they enter the
energy projected onto it, s - mean(s) + s0, so the constraint holds
identically along all iterates and the gradient is the projected one.
The pinned sites carry the affine datum y = M x.  Energies and gradients
come from ``Problem._evaluate``.  A pair-bond model sees the whole sample
as one batch entry, over its interior cells' bonds compiled once into
unique site pairs, so each lattice bond is evaluated once per call.  Any
other model sees the interior cells, centred on their corner mean, and its
cell gradients are scattered back onto the sites.

The minimizer is L-BFGS over a preallocated ring of its last pairs and
their Gram matrix: the two-loop recursion runs on at most ``history``
floats plus four matrix-vector products.  Its initial inverse Hessian is
H0 = gamma P^-1, with P^-1 from ``Problem.precondition``.  P is a Dirichlet
Laplacian of the free sites, the identity on the internal shifts: for
coordinate alpha, sum_a c[alpha, a] D_a over the second differences D_a
along the site axes, weighted by the bond stiffness as in Packwood et al.,
J. Chem. Phys. 144 (2016) 164109.  On the cell route c = 1, the graph
Laplacian, which makes the iteration count independent of N.  On the bond
route c comes from the bonds' Hessian blocks at the affine state
(``_BondModel._stiffness``); for nearest-neighbour springs at a diagonal M
it makes P the Hessian itself.  Where some weight is negative (compression,
shear) or not finite (a collapsed bond), or a coordinate has none, P is the
identity: those Hessians are indefinite or not bounded by a Laplacian, and
the unweighted one put compression and LJ winners in higher basins.  Each result records
its line-search backtracks, the trial steps after the unit step.

The first step is steepest descent.  The line search tries the unit step
first.  A step whose energy rises above the rounding floor of the current
energy, 1e-12 (1 + |E|), is halved on energies alone until the Armijo test
(constant 1e-4) holds.  A step that fails the Armijo test but stays within
that floor cannot be ranked by energy any more; it is bracketed and
bisected on the directional derivative instead, until the approximate Wolfe
conditions of Hager & Zhang (SIAM J. Optim. 16 (2005) 170-192) hold.
Accepted energies never rise above that floor, and pinned coordinates never
change.  Everything is deterministic given the options, including the
random warm starts, which draw from per-start counter-based generators.
Each result records why its search stopped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import Deformation, affine_deformation
from .lattice import CellGrid
from .models import EnergyModel

__all__ = [
    "SolveOptions",
    "SolveResult",
    "Problem",
    "minimize",
    "buckling_start",
    "start_fields",
    "multi_start_minimize",
    "DivergedEvaluation",
]


class DivergedEvaluation(RuntimeError):
    """Raised when the energy evaluates to a non-finite value."""


@dataclass(frozen=True)
class SolveOptions:
    grad_tol: float = 1e-8          # sup-norm of the gradient
    max_iter: int = 5000
    history: int = 10               # quasi-Newton memory length
    n_random_starts: int = 8
    perturb_amp: float = 0.1        # lattice units
    seed: int = 0

    def __post_init__(self):
        for name in ("max_iter", "history", "n_random_starts", "seed"):
            _integer(getattr(self, name), name)
        if not (np.isfinite(self.grad_tol) and self.grad_tol > 0):
            raise ValueError("grad_tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.history < 0:
            raise ValueError("history must be nonnegative")
        if self.n_random_starts < 0:
            raise ValueError("n_random_starts must be nonnegative")
        if not (np.isfinite(self.perturb_amp) and self.perturb_amp >= 0):
            raise ValueError("perturb_amp must be nonnegative and finite")


def _integer(value, name):
    """``value`` itself when it is an integer (a bool is not), else ValueError."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


@dataclass
class SolveResult:
    energy: float
    argmin: Deformation
    internal: np.ndarray | None     # (C, d, m) internal shifts
    iterations: int
    converged: bool
    grad_norm: float
    start_label: str
    stop: str                       # converged | max_iter | line_search_stall
    n_evals: int                    # energy and energy-gradient evaluations
    n_backtracks: int = 0           # line-search trials after the unit step
    failed_starts: list = field(default_factory=list)  # multistart labels that diverged
    starts: list = field(default_factory=list)   # multistart record, one dict per start


class Problem:
    """Assembled cell problem: grid + model + affine boundary data.

    A start must carry the pinned values of ``affine_deformation`` bit for
    bit; all evaluations go through ``_evaluate``.  ``bonds`` is the bond
    table of the whole sample, None for models evaluated cell by cell.
    ``preconditioner`` names P: "laplacian" on the cell route, "stiffness"
    on the bond route where the stiffness weights qualify, else "identity".
    Kernels read batch-last memory: y itself as ``y.T[None]`` (bond route),
    or the cells gathered by one ``take`` into an (n_cols, d, C) buffer; the
    cell gradients go back onto y by one ``np.bincount`` over ``_scatter``.
    """

    def __init__(self, grid: CellGrid, model: EnergyModel, M, s0=None):
        if model.spec.n_cols != grid.spec.n_cols or model.spec.d != grid.spec.d:
            raise ValueError("incompatible stencil between model and grid")
        if not np.allclose(model.spec.A, grid.spec.A):
            raise ValueError("model and grid live on different lattices")
        if grid.spec.radius < model.spec.radius:
            raise ValueError("incompatible stencil radius vs N: grid too narrow")
        self.grid = grid
        self.model = model
        self.M = np.asarray(M, dtype=float)
        self.d = grid.spec.d
        self.n_free = int(grid.free_mask.sum())
        self.free_idx = np.nonzero(grid.free_mask)[0]
        self.cell_sites = grid.interior_cell_sites
        self.n_cells = self.cell_sites.shape[0]
        self.bonds = model._sample_bonds(self.cell_sites)
        # unpack copies the affine datum and writes the free block into it
        self._template = affine_deformation(grid, self.M).y
        axes = np.arange(self.d)
        self._free_flat = (self.d * self.free_idx[:, None] + axes).ravel()
        if self.bonds is None:          # flat indices of the cells' sites in y
            self._scatter = self.d * self.cell_sites[:, :, None] + axes
            self._gather = np.ascontiguousarray(self._scatter.transpose(1, 2, 0))
            weights = np.ones((1, self.d))  # one graph Laplacian for every coordinate
            self.preconditioner = "laplacian"
        else:
            weights = model._stiffness(self.M)
            self.preconditioner = "identity" if weights is None else "stiffness"
        self._sine = None
        if weights is not None and self.n_free:     # free sites: the cube [r + 1, N - 1 - r]^d
            self._sine, self._inv_eig = _dirichlet_laplacian(
                grid.N - 1 - 2 * grid.spec.radius, self.d, weights)

        self.m = model.m
        if self.m == 0 and s0 is not None:
            raise ValueError("internal variables undefined for Bravais model")
        self.s0 = None if s0 is None else np.asarray(s0, dtype=float).reshape(self.d, self.m)
        self.n_internal = self.n_cells * self.d * self.m
        self.n_vars = self.n_free * self.d + self.n_internal

    # -- variable packing ---------------------------------------------------

    def pack(self, deformation: Deformation, internal=None):
        """The variables of a deformation and of (C, d, m) internal shifts,
        which x holds batch-last, as (m, d, C); no shifts stand for zeros,
        which ``unpack`` maps to s0 when it is set."""
        x = np.zeros(self.n_vars)
        x[: self.n_free * self.d] = deformation.y[self.free_idx].ravel()
        if internal is not None:
            x[self.n_free * self.d:] = np.ravel(np.transpose(internal))
        return x

    def unpack(self, x):
        """(y, s): the site positions and the (C, d, m) internal shifts, None
        for a Bravais model; with s0 the shifts are s - mean(s) + s0."""
        y = self._template.copy()
        np.put(y, self._free_flat, x[: self.n_free * self.d])
        s = None
        if self.m > 0:
            s = x[self.n_free * self.d:].reshape(self.m * self.d, self.n_cells)
            if self.s0 is not None:
                s = s - s.mean(axis=1, keepdims=True) + self.s0.T.reshape(-1, 1)
            s = s.reshape(self.m, self.d, self.n_cells).T
        return y, s

    def deformation(self, x) -> Deformation:
        return Deformation(self.grid, self.unpack(x)[0])

    def internal_field(self, x):
        return self.unpack(x)[1]

    def start_vector(self, deformation: Deformation, internal=None):
        pinned = ~self.grid.free_mask
        if not np.array_equal(deformation.y[pinned], self._template[pinned]):
            raise ValueError("start does not satisfy the boundary pinning")
        return self.pack(deformation, internal)

    # -- energy assembly ----------------------------------------------------

    def _evaluate(self, x, grad):
        """Total interior-cell energy at ``x`` and, with ``grad``, the pair
        (energy, gradient in the flat variables).

        The kernel, ``model._energy`` or ``model._energy_gradient``, gets
        either the sample as one batch entry whose columns are the sites, or
        the interior cells' discrete gradients centred on the corner mean,
        whose gradient is chained through the centring and scattered back
        onto the sites.  Raises ``DivergedEvaluation`` on a non-finite
        energy or site gradient.
        """
        y, s = self.unpack(x)
        if self.bonds is not None:
            kernel = self.model._energy_gradient if grad else self.model._energy
            out = kernel(y.T[None], s, self.bonds)       # F: (1, d, n_sites)
        else:
            F = y.take(self._gather).transpose(2, 1, 0)  # (C, d, n_cols)
            out = self.model._cells(F, s, grad)
        if not grad:
            E = float(out.sum())
            if not np.isfinite(E):
                raise DivergedEvaluation("diverged evaluation")
            return E
        E_cells, (gF, gS) = out
        E = float(E_cells.sum())
        if self.bonds is not None:
            g_sites = gF[0].T                            # y's memory, (n_sites, d)
        else:
            g_sites = np.bincount(self._scatter.ravel(), gF.transpose(0, 2, 1).ravel(),
                                  minlength=y.size)
        if not (np.isfinite(E) and np.all(np.isfinite(g_sites))):
            raise DivergedEvaluation("diverged evaluation")
        g = np.empty(self.n_vars)
        g[: self.n_free * self.d] = g_sites.take(self._free_flat)
        if self.m > 0:      # batch-last; with s0, the gradient through the projection
            gS = gS.T.reshape(self.m * self.d, self.n_cells)
            if self.s0 is not None:
                gS = gS - gS.mean(axis=1, keepdims=True)
            g[self.n_free * self.d:] = gS.ravel()
        return E, g

    def precondition(self, v):
        """P^-1 v for the quasi-Newton initial Hessian.  P is a Dirichlet
        Laplacian of the free sites (see ``preconditioner``), and the
        identity on the internal shifts, whose block of ``v`` is returned
        unchanged.  Where P is the identity, or with no free site, ``v``
        itself is returned."""
        if self._sine is None:
            return v
        n, side, S = self.n_free * self.d, self._sine.shape[0], self._sine
        w = v[:n]
        for a in range(self.d):                 # to the sine basis, one site axis at a time
            w = S @ w.reshape(side ** a, side, -1)
        w = w * self._inv_eig
        for a in range(self.d):                 # and back: S is its own inverse
            w = S @ w.reshape(side ** a, side, -1)
        return np.concatenate((w.ravel(), v[n:]))

    def energy_only(self, x) -> float:
        return self._evaluate(x, False)

    def value_and_grad(self, x):
        return self._evaluate(x, True)


def _dirichlet_laplacian(side, d, weights):
    """The orthonormal DST-I matrix on ``side`` points, a symmetric
    involution, and the inverse eigenvalues, shaped (side^(d-1), side, k),
    of the Laplacian sum_a weights[alpha, a] D_a on the cube of side^d free
    sites, first axis slowest, per coordinate alpha of the k rows of
    ``weights``; D_a is the second difference along axis a with pinned
    neighbours held at zero, diagonal in that basis."""
    k = np.arange(1, side + 1)
    sine = np.sqrt(2.0 / (side + 1)) * np.sin(np.outer(k, k) * (np.pi / (side + 1)))
    lam = 2.0 - 2.0 * np.cos(k * (np.pi / (side + 1)))
    # sum_a weights[:, a] lam_{i_a}, shape (side,)*d + (k,)
    eig = sum(g[..., None] * weights[:, a] for a, g in enumerate(np.ix_(*[lam] * d)))
    return sine, (1.0 / eig).reshape(side ** (d - 1), side, len(weights))


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------

_ARMIJO = 1e-4
_WOLFE_SIGMA = 0.9        # curvature constant of the approximate Wolfe test
_WOLFE_DELTA = 0.1        # its decrease constant: phi'(t) <= (2 delta - 1) phi'(0)
_ENERGY_FLOOR = 1e-12     # relative rounding tolerance of a total energy
_BACKTRACK = 0.5
_MAX_BACKTRACKS = 60      # trial evaluations per line search after the unit step


def _line_search(problem: Problem, x, E, direction, slope):
    """One step along ``direction`` from ``x``; slope = phi'(0) < 0.

    Returns ``(x_new, E_new, g_new, evals, backtracks)``, with ``x_new =
    None`` when no acceptable step was found; ``backtracks`` counts the
    trial steps after the unit step.  A trial that diverges counts as too
    long.
    """
    floor = E + _ENERGY_FLOOR * (1.0 + abs(E))

    def trial(t):
        x_t = x + t * direction
        try:
            return (x_t, *problem.value_and_grad(x_t))
        except DivergedEvaluation:
            return x_t, np.inf, None

    x_t, E_t, g_t = trial(1.0)
    evals = 1
    if E_t <= E + _ARMIJO * slope:
        return x_t, E_t, g_t, evals, 0

    if E_t <= floor:
        # Below the rounding floor energies cannot rank steps: bracket and
        # bisect on phi'(t) = g(x + t d) . d instead.
        lo, hi, t = 0.0, np.inf, 1.0
        while True:
            if E_t > floor:
                hi = t
            else:
                dphi = g_t @ direction
                if dphi < _WOLFE_SIGMA * slope:
                    lo = t
                elif dphi > (2.0 * _WOLFE_DELTA - 1.0) * slope:
                    hi = t
                else:
                    return x_t, E_t, g_t, evals, evals - 1
            if evals > _MAX_BACKTRACKS:
                return None, E, None, evals, evals - 1
            t = 2.0 * t if hi == np.inf else 0.5 * (lo + hi)
            x_t, E_t, g_t = trial(t)
            evals += 1

    t = 1.0
    for backtracks in range(1, _MAX_BACKTRACKS + 1):
        t *= _BACKTRACK
        x_t = x + t * direction
        try:
            E_t = problem.energy_only(x_t)
        except DivergedEvaluation:
            E_t = np.inf
        evals += 1
        if E_t <= E + _ARMIJO * t * slope:
            E_t, g_t = problem.value_and_grad(x_t)
            return x_t, E_t, g_t, evals + 1, backtracks
    return None, E, None, evals, _MAX_BACKTRACKS


class _History:
    """The last ``size`` accepted pairs (s, y) of the quasi-Newton descent,
    in rows S[a] and Y[a] of a ring whose slots ``order`` lists oldest first.
    Beside them are kept rho_a = 1 / s_a . y_a, the newest pair's scale
    gamma = s . y / y . P^-1 y and the Gram entries SY[a, b] = s_a . y_b for
    a older than b, the only ones the recursions read.  The initial inverse
    Hessian is H0 = gamma P^-1, with ``precondition`` applying P^-1.  A push
    costs one matrix-vector product over the n variables and one P^-1, a
    direction four and one P^-1."""

    def __init__(self, size, n, precondition=lambda v: v):
        self.S, self.Y, self.SY = np.empty((size, n)), np.empty((size, n)), np.empty((size, size))
        self.rho, self.order = [0.0] * size, []
        self.precondition = precondition

    def push(self, s, y):
        sy, yy, order = float(s @ y), float(y @ y), self.order
        if self.rho and sy > 1e-12 * (float(s @ s) * yy) ** 0.5:
            p = order.pop(0) if len(order) == len(self.rho) else len(order)
            order.append(p)
            k = len(order)              # the filled slots are rows [0, k)
            self.S[p], self.Y[p], self.rho[p] = s, y, 1.0 / sy
            self.gamma = sy / float(y @ self.precondition(y))
            self.SY[:k, p] = self.S[:k] @ y

    def direction(self, g):
        """-H g by Nocedal's two-loop recursion (Math. Comp. 35 (1980)
        773-782) from H0 = gamma P^-1, its dot products s_a . q and y_a . r
        taken from S g, Y q and the Gram entries of swept pairs."""
        order, rho, k = self.order, self.rho, len(self.order)
        if not k:
            return -g
        S, Y, G = self.S[:k], self.Y[:k], self.SY[:k, :k].tolist()
        sg = (S @ g).tolist()
        alpha = [0.0] * k
        for t, a in reversed(list(enumerate(order))):
            acc = sg[a]
            for b in order[t + 1:]:
                acc += alpha[b] * G[a][b]
            alpha[a] = -rho[a] * acc
        q = self.precondition(-g - np.array(alpha) @ Y) * self.gamma
        yq = (Y @ q).tolist()
        c = [0.0] * k
        for t, a in enumerate(order):
            acc = yq[a]
            for b in order[:t]:
                acc += c[b] * G[b][a]
            c[a] = alpha[a] - rho[a] * acc
        return q + np.array(c) @ S


def minimize(problem: Problem, opts: SolveOptions, start: Deformation, internal_start=None,
             start_label: str = "custom") -> SolveResult:
    """Limited-memory quasi-Newton descent from one start.

    Terminates when the gradient sup-norm drops below ``opts.grad_tol``
    (``stop = "converged"``), when the iteration cap is hit (``"max_iter"``)
    or when the line search finds no step (``"line_search_stall"``); the
    last accepted iterate is returned.  No accepted energy exceeds the
    previous one by more than its rounding floor.
    """
    x = problem.start_vector(start, internal_start)
    E, g = problem.value_and_grad(x)
    n_evals = 1
    if g.size == 0:
        return SolveResult(E, problem.deformation(x), problem.internal_field(x),
                           0, True, 0.0, start_label, "converged", n_evals)
    history = _History(opts.history, g.size, problem.precondition)
    iterations = n_backtracks = 0
    converged = bool(np.max(np.abs(g)) <= opts.grad_tol)
    stop = "max_iter"

    while not converged and iterations < opts.max_iter:
        direction = history.direction(g)
        slope = direction @ g
        if not np.isfinite(slope) or slope >= 0:
            direction = -g
            slope = -(g @ g)
            history.order.clear()

        x_new, E_new, g_new, evals, backtracks = _line_search(problem, x, E, direction, slope)
        n_evals += evals
        n_backtracks += backtracks
        if x_new is None:
            stop = "line_search_stall"
            break
        if not E_new <= E + _ENERGY_FLOOR * (1.0 + abs(E)):
            raise RuntimeError(f"line search raised the energy from {E!r} to {E_new!r}")
        history.push(x_new - x, g_new - g)
        x, E, g = x_new, E_new, g_new
        iterations += 1
        converged = bool(np.max(np.abs(g)) <= opts.grad_tol)

    return SolveResult(
        energy=E,
        argmin=problem.deformation(x),
        internal=problem.internal_field(x),
        iterations=iterations,
        converged=converged,
        grad_norm=float(np.max(np.abs(g))),
        start_label=start_label,
        stop="converged" if converged else stop,
        n_evals=n_evals,
        n_backtracks=n_backtracks,
    )


# ---------------------------------------------------------------------------
# warm starts
# ---------------------------------------------------------------------------


def buckling_start(grid: CellGrid, M) -> Deformation:
    """Affine field plus the 2-periodic zig-zag that relaxes compression.

    Each compressed column m of M (|m| < 1) contributes the alternating
    displacement 0.5*(-1)^z * sqrt(1/|m|^2 - 1) * (-m_2, m_1) along its
    lattice direction, which restores every bulk bond in that direction to
    unit length; pinned sites keep the affine datum.
    """
    if grid.spec.d != 2:
        raise ValueError("buckling start is 2D-only")
    M = np.asarray(M, dtype=float)
    out = affine_deformation(grid, M)
    disp = np.zeros_like(out.y)
    for col in range(2):
        m = M[:, col]
        nsq = float(m @ m)
        if nsq >= 1.0 or nsq < 1e-20:
            continue
        amp = 0.5 * np.sqrt(1.0 / nsq - 1.0)
        vec = np.array([-m[1], m[0]])
        signs = np.where(grid.site_multi[:, col] % 2 == 0, 1.0, -1.0)
        disp += amp * signs[:, None] * vec[None, :]
    out.y[grid.free_mask] += disp[grid.free_mask]
    return out


def _rng_for_start(seed: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=(index,))
    return np.random.Generator(np.random.Philox(ss))


def _min_bond_length(problem: Problem, x) -> float:
    """Shortest distance between two stencil sites of one interior cell, at
    least one of them free: the start jitter cannot part a pinned pair."""
    y, _ = problem.unpack(x)
    Y = np.take(y, problem.cell_sites, axis=0)           # (C, n_cols, d)
    L = np.linalg.norm(Y[:, :, None, :] - Y[:, None, :, :], axis=-1)
    free = problem.grid.free_mask[problem.cell_sites]
    movable = (free[:, :, None] | free[:, None, :]) & ~np.eye(L.shape[1], dtype=bool)
    return float(L[movable].min(initial=np.inf))


def start_fields(problem: Problem, opts: SolveOptions):
    """The starts of ``multi_start_minimize``, in order, as (label, deformation,
    internal shifts): affine, buckling (2D, when it differs from affine) and
    ``opts.n_random_starts`` random perturbations of the affine field.  The
    shifts are None, which starts them at s0 or zero, except on random starts
    without s0.  A start with a collapsed bond is jittered by 1e-6 so its
    gradient exists.
    """
    starts = []
    affine = affine_deformation(problem.grid, problem.M)
    starts.append(("affine", affine, None))

    if problem.d == 2:
        buck = buckling_start(problem.grid, problem.M)
        if not np.array_equal(buck.y, affine.y):
            starts.append(("buckling", buck, None))

    for k in range(opts.n_random_starts):
        rng = _rng_for_start(opts.seed, k)
        dfm = affine.copy()
        noise = rng.uniform(-opts.perturb_amp, opts.perturb_amp,
                            size=(problem.n_free, problem.d))
        dfm.y[problem.free_idx] += noise
        internal = None
        if problem.m > 0 and problem.s0 is None:
            internal = rng.uniform(-opts.perturb_amp, opts.perturb_amp,
                                   size=(problem.n_cells, problem.d, problem.m))
        starts.append((f"random-{k}", dfm, internal))

    for idx, (label, dfm, internal) in enumerate(starts):
        if _min_bond_length(problem, problem.start_vector(dfm, internal)) < 1e-8:
            rng = _rng_for_start(opts.seed, 10_000 + idx)
            dfm = dfm.copy()
            dfm.y[problem.free_idx] += rng.uniform(
                -1e-6, 1e-6, size=(problem.n_free, problem.d))
            starts[idx] = (label, dfm, internal)
    return starts


def multi_start_minimize(problem: Problem, opts: SolveOptions) -> SolveResult:
    """Minimize from every start of ``start_fields``; lowest energy wins.

    Energies within the rounding floor 1e-12 (1 + |E|) of the incumbent's
    tie, and the earliest start wins a tie.  The winner keeps its own
    ``converged`` and ``stop``; its ``starts`` records every start that
    returned, in order, and its ``failed_starts`` the labels of starts
    whose evaluation diverged.
    """
    results, failed = [], []
    for label, dfm, internal in start_fields(problem, opts):
        try:
            results.append(minimize(problem, opts, dfm, internal, start_label=label))
        except DivergedEvaluation:
            failed.append(label)
    if not results:
        raise DivergedEvaluation(f"all starts failed: {', '.join(failed)}")
    best = results[0]
    for r in results[1:]:
        if r.energy < best.energy - _ENERGY_FLOOR * (1.0 + abs(best.energy)):
            best = r
    best.failed_starts = failed
    best.starts = [{"label": r.start_label, "energy": r.energy, "stop": r.stop,
                    "iterations": r.iterations, "n_evals": r.n_evals,
                    "n_backtracks": r.n_backtracks}
                   for r in results]
    return best

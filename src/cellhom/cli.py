"""Batch driver: JSON run configs in, CSV tables and a JSON summary out.

Usage:
    cellhom run <config.json> [--out DIR]

A config selects a lattice, a model, one task and its inputs.  Outputs are
``results.csv`` (one row per solved cell problem, for every task but
``elastic``), ``summary.json`` (extrapolations, gaps, residuals, tiling
checks, solver metadata, config hash, and per box size the winner's stop
reason, evaluation count, preconditioner and diverged starts, the cell
problem's wall time split into grid, assembly and multistart, and every
start's energy, stop reason, cost and wall time) and ``plotdata/*.csv``
(f_N against 1/N per boundary matrix of a fitted task).  Identical configs
and seeds produce byte-identical results.csv; only the timestamp and the
wall times in summary.json vary between runs.  ``run`` returns 1 when
cell problems were solved and none converged; ``main`` prints a rejected
config's error and returns 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import homogenize as hm
from . import models as md
from .elasticity import cauchy_residuals, numeric_elastic_tensor, voigt_matrix
from .lattice import build_lattice
from .solver import SolveOptions, _integer

__all__ = ["RunConfig", "parse_config", "run", "main"]

ARTIFACT_VERSION = "0.1.0"

_TASKS = ("homogenize", "cb_scan", "elastic", "tiling_check")
_TOP_KEYS = {"lattice", "model", "task", "M", "s0", "schedule", "solver", "seed"}
_LATTICE_KEYS = {"d", "A", "m"}
_SOLVER_KEYS = {"grad_tol", "max_iter", "n_random_starts"}
_MODEL_KEYS = {"name", "params"}

_DEFAULT_SCHEDULES = {2: [8, 16, 32, 64], 3: [4, 6, 8, 12]}


@dataclass
class RunConfig:
    raw: dict
    model: object          # EnergyModel
    task: str
    M_list: list
    s0_list: list | None
    schedule: list
    solver: SolveOptions

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _reject_unknown(block, allowed, where):
    unknown = set(block) - allowed
    if unknown:
        raise ValueError(f"unknown keys in {where}: {sorted(unknown)}")


def _require(block, key, where):
    if key not in block:
        raise ValueError(f"missing field '{key}' in {where}")
    return block[key]


def _typed(value, kind, where):
    """``value`` itself when it is a JSON object (``dict``) or list, else ValueError."""
    if not isinstance(value, kind):
        raise ValueError(f"{where} must be a JSON {'object' if kind is dict else 'list'}")
    return value


def _build_model(name, params, spec):
    """The named model; every key of ``params`` must be one it reads."""
    params = dict(params)
    if name == "harmonic":
        model = md.harmonic_spring_model(spec, params.pop("k", 1.0), params.pop("r0", 1.0))
    elif name == "pair_lj":
        pot = md.lennard_jones(params.pop("epsilon", 1.0), params.pop("sigma", 1.0))
        model = md.pair_potential_model(spec, pot, params.pop("cutoff", 2.5))
        model.name = name
    elif name == "pair_harmonic":
        pot = md.harmonic_pair(params.pop("k", 1.0), params.pop("r0", 1.0),
                               shell=params.pop("shell", None))
        model = md.pair_potential_model(spec, pot, params.pop("cutoff", 1.0))
        model.name = name
    elif name == "quasiconvex_frobenius":
        model = md.quasiconvex_wrapper_model(spec, md.frobenius_squared_density())
    elif name == "quadratic_form":
        Q = md.QuadraticForm.from_moduli(params.pop("mu", 1.0),
                                         params.pop("lam", 0.0), d=spec.d)
        model = md.quadratic_form_model(spec, Q, kappa=params.pop("kappa", 1.0),
                                        delta=params.pop("delta", 0.5))
    elif name == "multilattice_harmonic":
        r0 = params.pop("r0", float(np.linalg.norm(spec.corners[:, 0])))
        model = md.multilattice_harmonic_model(spec, params.pop("k", 1.0), r0)
    else:
        raise ValueError(f"unknown model name '{name}'")
    if params:
        raise ValueError(f"unknown model params: {sorted(params)}")
    return model


def _finite(text):
    """A JSON number or constant (NaN, Infinity) as a float, if it is finite."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"config numbers must be finite, got {text}")
    return value


def parse_config(path) -> RunConfig:
    """Load and validate a run config; fills documented defaults."""
    with open(path) as fh:
        raw = json.load(fh, parse_float=_finite, parse_constant=_finite)
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config")

    lat = _typed(_require(raw, "lattice", "config"), dict, "lattice block")
    _reject_unknown(lat, _LATTICE_KEYS, "lattice block")
    d = _integer(_require(lat, "d", "lattice block"), "lattice d")
    A_rows = _typed(_require(lat, "A", "lattice block"), list, "lattice A")
    if len(A_rows) != d or any(not isinstance(row, list) or len(row) != d for row in A_rows):
        raise ValueError(f"dimension mismatch: A must be {d}x{d}")
    m = _integer(lat.get("m", 0), "lattice m")
    spec = build_lattice(d, np.array(A_rows, dtype=float), m=m)

    mdl = _typed(_require(raw, "model", "config"), dict, "model block")
    _reject_unknown(mdl, _MODEL_KEYS, "model block")
    model = _build_model(_require(mdl, "name", "model block"),
                         _typed(mdl.get("params", {}), dict, "model params"), spec)

    task = _require(raw, "task", "config")
    if task not in _TASKS:
        raise ValueError(f"unknown task '{task}', expected one of {_TASKS}")

    M_list = []
    for entry in _typed(raw.get("M", []), list, "M"):
        flat = np.asarray(entry, dtype=float).reshape(-1)
        if flat.size != d * d:
            raise ValueError(f"dimension mismatch: M entries must have {d * d} values")
        M_list.append(flat.reshape(d, d))
    if task in ("homogenize", "cb_scan", "tiling_check") and not M_list:
        raise ValueError("missing field 'M' in config")

    s0_list = None
    if raw.get("s0") is not None:
        if model.m == 0:
            raise ValueError("internal variables undefined for Bravais model")
        if task in ("cb_scan", "elastic"):
            raise ValueError(f"s0 is not used by task '{task}'")
        s0_list = [np.asarray(v, dtype=float).reshape(d, model.m)
                   for v in _typed(raw["s0"], list, "s0")]
        if len(s0_list) not in (1, len(M_list)):
            raise ValueError("s0 list must have length 1 or match the M list")

    schedule = [_integer(N, "schedule")
                for N in _typed(raw.get("schedule", _DEFAULT_SCHEDULES[d]), list, "schedule")]
    r = model.spec.radius
    if any(N <= 2 * r for N in schedule):
        raise ValueError(f"schedule invalid for stencil radius {r}: need N > {2 * r}")
    if task in ("homogenize", "cb_scan"):
        hm._fit_schedule(schedule)
    elif task == "tiling_check" and (len(schedule) < 2
                                     or any(k % schedule[0] for k in schedule[1:])):
        raise ValueError("tiling_check needs a schedule [n, k, ...] with at least one k, "
                         "each k a multiple of n")

    sol = _typed(raw.get("solver", {}), dict, "solver block")
    _reject_unknown(sol, _SOLVER_KEYS, "solver block")
    seed = raw.get("seed", 0)
    if "CELLHOM_SEED" in os.environ:
        try:
            seed = int(os.environ["CELLHOM_SEED"])
        except ValueError:
            raise ValueError("CELLHOM_SEED must be an integer, "
                             f"got {os.environ['CELLHOM_SEED']!r}") from None
    solver = SolveOptions(**sol, seed=seed)

    return RunConfig(raw=raw, model=model, task=task,
                     M_list=M_list, s0_list=s0_list, schedule=schedule,
                     solver=solver)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _fmt_matrix(M) -> str:
    return " ".join(repr(float(v)) for v in np.asarray(M).reshape(-1))


_CSV_HEADER = "task,model,M,s0,N,f_N,energy,iters,converged,grad_norm,start_label"


def _result_rows(task, model_name, M, s0, per_N):
    rows = []
    for diag in per_N:
        rows.append(",".join([
            task, model_name, _fmt_matrix(M),
            "" if s0 is None else _fmt_matrix(s0),
            _fmt(diag["N"]), _fmt(diag["f_N"]), _fmt(diag["energy"]),
            _fmt(diag["iterations"]), _fmt(diag["converged"]),
            _fmt(diag["grad_norm"]), diag["start_label"],
        ]))
    return rows


def _est_summary(est):
    return {
        "M": np.asarray(est.M).reshape(-1).tolist(),
        "s0": None if est.s0 is None else np.asarray(est.s0).reshape(-1).tolist(),
        "schedule": list(est.schedule),
        "f_values": [float(v) for v in est.f_values],
        "w_cont": est.w_cont,
        "fit_coeff": est.fit_coeff,
        "fit_residual": est.fit_residual,
        "clipped": est.clipped,
        "warnings": list(est.warnings),
        "converged": [bool(d["converged"]) for d in est.per_N],
        "per_N": est.per_N,
    }


def _write_plotdata(out_dir, tag, est):
    path = os.path.join(out_dir, "plotdata", f"{tag}.csv")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write("N,inv_N,f_N\n")
        for N, f in zip(est.schedule, est.f_values):
            fh.write(f"{N},{_fmt(1.0 / N)},{_fmt(float(f))}\n")


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------


def _s0_for(config, i):
    s0 = config.s0_list
    return None if s0 is None else s0[0 if len(s0) == 1 else i]


def _run_homogenize(config: RunConfig):
    rows, summary, warnings, estimates, solved = [], [], [], [], []
    for i, M in enumerate(config.M_list):
        s0 = _s0_for(config, i)
        est = hm.w_cont_estimate(config.model, M, config.schedule, config.solver, s0=s0)
        rows.extend(_result_rows("homogenize", config.model.name, M, s0, est.per_N))
        summary.append(_est_summary(est))
        warnings.extend(est.warnings)
        estimates.append(est)
        solved.extend(est.per_N)
    return rows, {"estimates": summary}, warnings, estimates, solved


def _run_cb_scan(config: RunConfig):
    scan = hm.cb_validity_scan(config.model, config.M_list, config.schedule,
                               config.solver)

    rows, table, warnings, estimates, solved = [], [], [], [], []
    for M, entry in zip(config.M_list, scan):
        est = entry["result"]
        rows.extend(_result_rows("cb_scan", config.model.name, M, None, est.per_N))
        table.append({
            "M": np.asarray(M).reshape(-1).tolist(),
            "w_cb": entry["w_cb"],
            "w_cont": entry["w_cont"],
            "gap": entry["gap"],
            "flagged": bool(entry["flagged"]),
            "per_N": est.per_N,
        })
        warnings.extend(est.warnings)
        estimates.append(est)
        solved.extend(est.per_N)
    return rows, {"cb_table": table}, warnings, estimates, solved


def _run_elastic(config: RunConfig):
    model = config.model
    W = lambda M: hm.cauchy_born_density(model, M)
    tensor = numeric_elastic_tensor(W, d=model.spec.d, h=1e-3)
    report = cauchy_residuals(tensor)
    rows = ["i,j,k,l,c_ijkl"]
    d = model.spec.d
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    rows.append(f"{i+1},{j+1},{k+1},{l+1},{_fmt(tensor.c[i, j, k, l])}")
    summary = {
        "voigt": voigt_matrix(tensor).tolist(),
        "cauchy_residuals": report.residuals,
        "max_cauchy": report.max_cauchy,
        "minor_symmetry": report.minor_symmetry,
        "major_symmetry": report.major_symmetry,
    }
    return rows, summary, [], [], []


def _run_tiling(config: RunConfig):
    n = config.schedule[0]
    rows, checks, schedules, warnings, solved = [], [], [], [], []
    for i, M in enumerate(config.M_list):
        s0 = _s0_for(config, i)
        per_N, pairs = hm.tiling_upper_bound_check(config.model, M, config.schedule,
                                                   config.solver, s0=s0)
        flat = np.asarray(M).reshape(-1).tolist()
        for k, (f_solved, f_tiled) in zip(config.schedule[1:], pairs):
            checks.append({
                "M": flat, "n": n, "k": k,
                "f_k_solved": f_solved, "f_k_tiled": f_tiled,
                "dominated": bool(f_solved <= f_tiled + 1e-9),
            })
        rows.extend(_result_rows("tiling_check", config.model.name, M, s0, per_N))
        schedules.append({"M": flat, "per_N": per_N,
                          "s0": None if s0 is None else np.asarray(s0).reshape(-1).tolist()})
        if not all(d["converged"] for d in per_N):
            warnings.append(hm._UNCONVERGED)
        solved.extend(per_N)
    if not all(c["dominated"] for c in checks):
        warnings.append("tiling dominance violated")
    return rows, {"tiling": checks, "schedules": schedules}, warnings, [], solved


def run(config: RunConfig, out_dir=".") -> int:
    """Execute the configured task; write results.csv/summary.json/plotdata."""
    os.makedirs(out_dir, exist_ok=True)
    runner = {
        "homogenize": _run_homogenize,
        "cb_scan": _run_cb_scan,
        "elastic": _run_elastic,
        "tiling_check": _run_tiling,
    }[config.task]
    rows, results, warnings, estimates, solved = runner(config)

    with open(os.path.join(out_dir, "results.csv"), "w") as fh:
        lines = rows if config.task == "elastic" else [_CSV_HEADER, *rows]
        fh.write("\n".join(lines) + "\n")

    for i, est in enumerate(estimates):
        _write_plotdata(out_dir, f"m{i}", est)

    summary = {
        "config_hash": config.config_hash,
        "task": config.task,
        "results": results,
        "warnings": warnings,
        "artifact_version": ARTIFACT_VERSION,
        "solver": asdict(config.solver),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    if solved and not any(d["converged"] for d in solved):
        print("error: no cell problem converged", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cellhom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a run config")
    p_run.add_argument("config", help="path to the JSON run config")
    p_run.add_argument("--out", default=".")

    args = parser.parse_args(argv)
    try:
        config = parse_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())

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
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import homogenize as hm
from . import models as md
from .elasticity import cauchy_residuals, numeric_elastic_tensor, voigt_matrix
from .lattice import build_lattice
from .solver import SolveOptions

__all__ = ["RunConfig", "parse_config", "run", "main"]

ARTIFACT_VERSION = "0.1.0"

_DEFAULT_SCHEDULES = {2: [8, 16, 32, 64], 3: [4, 6, 8, 12]}
_REQUIRED = object()
_JSON_TYPES = {"object": dict, "list": list, "string": str, "integer": int, "number": (int, float),
               "list or null": (list, type(None)), "number or null": (int, float, type(None))}

# Each config key once, as key: (JSON type, default); a type that is a table
# is a nested block's, and _REQUIRED a key that must be given.  The solver
# keys and defaults are SolveOptions' but the seed; schedule None is d's own.
_SCHEMA = {
    "lattice": ({"d": ("integer", _REQUIRED), "A": ("list", _REQUIRED), "m": ("integer", 0)},
                _REQUIRED),
    "model": ({"name": ("string", _REQUIRED), "params": ("object", {})}, _REQUIRED),
    "task": ("string", _REQUIRED),
    "M": ("list", []),
    "s0": ("list or null", None),
    "schedule": ("list", None),
    "solver": ({f.name: ({"int": "integer", "float": "number"}[f.type], f.default)
                for f in fields(SolveOptions) if f.name != "seed"}, {}),
    "seed": ("integer", 0),
}

# Every model once, as name: (its params, keyed as in _SCHEMA, a default of
# None the factory's own, and the factory that takes them as keywords).
_MODELS = {
    "harmonic": ({"k": ("number", 1.0), "r0": ("number", 1.0)}, md.harmonic_spring_model),
    "pair_lj": ({"epsilon": ("number", 1.0), "sigma": ("number", 1.0), "cutoff": ("number", 2.5)},
        lambda spec, cutoff, **pot: md.pair_potential_model(spec, md.lennard_jones(**pot), cutoff)),
    "pair_harmonic": (
        {"k": ("number", 1.0), "r0": ("number", 1.0), "cutoff": ("number", 1.0),
         "shell": ("number or null", None)},
        lambda spec, cutoff, **pot: md.pair_potential_model(spec, md.harmonic_pair(**pot), cutoff)),
    "quasiconvex_frobenius": (
        {}, lambda spec: md.quasiconvex_wrapper_model(spec, md.frobenius_squared_density())),
    "quadratic_form": (
        {"mu": ("number", 1.0), "lam": ("number", 0.0), "kappa": ("number", 1.0),
         "delta": ("number", 0.5)},
        lambda spec, mu, lam, **penalty: md.quadratic_form_model(
            spec, md.QuadraticForm.from_moduli(mu, lam, d=spec.d), **penalty)),
    "multilattice_harmonic": ({"k": ("number", 1.0), "r0": ("number", None)},
                              md.multilattice_harmonic_model),
}


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


def _checked(value, kind, name):
    """``value`` if it has the JSON type ``kind``, which a bool never has, else ValueError."""
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise ValueError(f"{name} must be a JSON {kind}")
    return value


def _walk(block, schema, where):
    """``block``'s values by ``schema``'s keys, defaults filled in; ValueError
    names an unknown or missing key and a value of the wrong JSON type."""
    _checked(block, "object", where)
    if unknown := set(block) - set(schema):
        raise ValueError(f"unknown keys in {where}: {sorted(unknown)}")
    prefix = "" if where == "config" else where.removesuffix(" block") + " "
    values = {}
    for key, (kind, default) in schema.items():
        if key not in block and default is _REQUIRED:
            raise ValueError(f"missing field '{key}' in {where}")
        if isinstance(kind, dict):
            values[key] = _walk(block.get(key, default), kind, f"{prefix}{key} block")
        else:
            values[key] = _checked(block[key], kind, prefix + key) if key in block else default
    return values


def _numbers(value, name):
    """``value``, a JSON number or nested lists of them, as a float array."""
    for item in np.asarray(value, dtype=object).flat:
        _checked(item, "number", f"each {name} value")
    return np.asarray(value, dtype=float)


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
    top = _walk(raw, _SCHEMA, "config")

    d, A_rows = top["lattice"]["d"], top["lattice"]["A"]
    if len(A_rows) != d or any(not isinstance(row, list) or len(row) != d for row in A_rows):
        raise ValueError(f"dimension mismatch: A must be {d}x{d}")
    spec = build_lattice(d, _numbers(A_rows, "lattice A"), m=top["lattice"]["m"])

    name = top["model"]["name"]
    if name not in _MODELS:
        raise ValueError(f"unknown model name '{name}'")
    params, factory = _MODELS[name]
    model = factory(spec, **_walk(top["model"]["params"], params, "model params"))
    if model.name == "pair":            # results.csv tells the two pair models apart
        model.name = name

    task = top["task"]
    if task not in _TASKS:
        raise ValueError(f"unknown task '{task}', expected one of {tuple(_TASKS)}")

    M_list = [_numbers(entry, "M") for entry in top["M"]]
    if any(M.size != d * d for M in M_list):
        raise ValueError(f"dimension mismatch: M entries must have {d * d} values")
    M_list = [M.reshape(d, d) for M in M_list]
    if task in ("homogenize", "cb_scan", "tiling_check") and not M_list:
        raise ValueError("missing field 'M' in config")

    s0_list = None
    if top["s0"] is not None:
        if model.m == 0:
            raise ValueError("internal variables undefined for Bravais model")
        if task in ("cb_scan", "elastic"):
            raise ValueError(f"s0 is not used by task '{task}'")
        s0_list = [_numbers(v, "s0").reshape(d, model.m) for v in top["s0"]]
        if len(s0_list) not in (1, len(M_list)):
            raise ValueError("s0 list must have length 1 or match the M list")

    schedule = [_checked(N, "integer", "each schedule value")
                for N in (_DEFAULT_SCHEDULES[d] if top["schedule"] is None else top["schedule"])]
    r = model.spec.radius
    if any(N <= 2 * r for N in schedule):
        raise ValueError(f"schedule invalid for stencil radius {r}: need N > {2 * r}")
    if task in ("homogenize", "cb_scan"):
        hm._fit_schedule(schedule)
    elif task == "tiling_check" and (len(schedule) < 2
                                     or any(k % schedule[0] for k in schedule[1:])):
        raise ValueError("tiling_check needs a schedule [n, k, ...] with at least one k, "
                         "each k a multiple of n")

    seed = top["seed"]
    if "CELLHOM_SEED" in os.environ:
        try:
            seed = int(os.environ["CELLHOM_SEED"])
        except ValueError:
            raise ValueError("CELLHOM_SEED must be an integer, "
                             f"got {os.environ['CELLHOM_SEED']!r}") from None
    solver = SolveOptions(**top["solver"], seed=seed)

    return RunConfig(raw=raw, model=model, task=task, M_list=M_list, s0_list=s0_list,
                     schedule=schedule, solver=solver)


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
    scan = hm.cb_validity_scan(config.model, config.M_list, config.schedule, config.solver)
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
    for i, j, k, l in np.ndindex(d, d, d, d):
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


_TASKS = {"homogenize": _run_homogenize, "cb_scan": _run_cb_scan, "elastic": _run_elastic,
          "tiling_check": _run_tiling}


def run(config: RunConfig, out_dir=".") -> int:
    """Execute the configured task; write results.csv/summary.json/plotdata."""
    os.makedirs(out_dir, exist_ok=True)
    rows, results, warnings, estimates, solved = _TASKS[config.task](config)

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

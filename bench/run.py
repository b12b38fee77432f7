"""Benchmark for cellhom: times ``cli.run`` on fixed cell-problem workloads.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--full]

Run from anywhere; the package is imported from ``src/`` next to this
directory.  The seed reaches the program only through ``CELLHOM_SEED``,
and the program sees only the generated config.  Repetition k runs program
seed ``(seed + k mod 3) mod 32``: a run cycles through three consecutive
seeds of the 32 that ``refs.json`` holds references for.  A start that
stalls on one seed (harmonic-tension, seed 13: about 18 s instead of
2.5 s) then costs one repetition of a run, not all of them, and the
median over the run does not follow it.

A run parses the workload config afresh and calls ``cli.run`` repeatedly
for ``--seconds`` seconds (at least three times), checks every
repetition's outputs and reports medians.

``--trace 0`` prints the end-to-end metrics:

- ``run_s``: wall time of ``cli.run``;
- ``setup_s``: fresh interpreter to config parsed and model built
  (``import cellhom`` + ``parse_config``), median over one child process
  before each repetition (at least 5);
- ``peak_rss_mb``: peak resident memory of this process;
- ``f_N_rel``: max over the cell problems of 1 + (f_N - f_ref)/|f_ref|,
  with f_ref the reference commit's value for the same seed; 1 means the
  search reached the reference energies, above 1 a worse basin;
- ``w_cont_err``: max over M of |w_cont - w_exact| (density units), with
  w_exact 0.04 (tension), 0 (compression) or the Cauchy-Born density
  (quadform-scan exactly; lj-cutoff2.5 as a stand-in for the unknown
  limit); errors below 1e-9 read 1e-9;
- ``converged_frac``: cell problems reported converged / attempted.  Cell
  problems lost to a raised run or a failed output check count as not
  converged and as failed.

``--trace 1`` alternates untraced and traced repetitions, at least three
of each so that every program seed is traced once, and prints the
per-layer metrics (see ``tracing.py``), ``trace.overhead_frac`` (median
over seeds of traced over untraced wall time, minus one) and three
fixed-input timings at the largest N: one fused kernel call on all
interior cells, one ``Problem.value_and_grad`` and one
``Problem.energy_only``, on a state drawn from the seed.

Output checks, per repetition: ``cli.run`` returns 0; ``results.csv`` has
one row per (M, N); on harmonic-tension f_N = 0.04 (N-2)^2/N^2 within
1e-8; ``results.csv`` is byte-identical to that of the first repetition
with the same program seed.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` (counted in cell problems) and ``metrics``.  Per-run records and
spans go to ``bench/out/``.  Without the package sources the benchmark
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
REFS = BENCH_DIR / "refs.json"
REF_SEEDS = 32
SEED_WINDOW = 3     # program seeds a run cycles through
SETUP_SAMPLES = 5   # at least; one more is taken before each repetition
MIN_REPS = 3        # odd, so one stalled repetition is not the median;
                    # at least SEED_WINDOW, see timed_reps
MAX_REPS = 200
ERR_FLOOR = 1e-9
TENSION_TOL = 1e-8

UNITS = {
    # end to end
    "run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "f_N_rel": "ratio",
    "w_cont_err": "density", "converged_frac": "ratio",
    # per layer
    "models.kernel_s": "s", "models.cells": "count", "models.ns_per_cell": "ns",
    "models.bond_evals": "count", "models.kernel_us": "us",
    "solver.vag_calls": "count", "solver.vag_self_s": "s", "solver.vag_ms": "ms",
    "solver.energy_only_calls": "count", "solver.energy_only_self_s": "s",
    "solver.energy_only_ms": "ms", "solver.stalled_starts": "count",
    "solver.iterations": "count", "solver.evals_per_iter": "ratio",
    "solver.s_per_iter": "s", "solver.minimize_self_s": "s",
    "multistart.winner_iterations": "count", "multistart.starts": "count",
    "multistart.useful_frac": "ratio", "multistart.largest_N_s": "s",
    "multistart.lower_discarded": "count", "homogenize.schedule_s": "s",
    "homogenize.largest_N_share": "ratio", "lattice.build_grid_s": "s",
    "cli.overlap": "ratio", "cli.write_s": "s", "trace.overhead_frac": "ratio",
}

_SETUP_CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
import cellhom
from cellhom import cli
cli.parse_config(sys.argv[2])
print("ready", flush=True)
"""


@dataclass
class Rep:
    seed: int           # the program seed, CELLHOM_SEED
    wall: float
    rc: int | None
    error: str | None
    results: bytes | None
    summary: dict | None
    traced: bool = False
    layers: dict | None = None


def write_config(name: str, full: bool) -> Path:
    spec = WORKLOADS[name]
    config = spec["full"] if full and spec["full"] else spec["config"]
    path = OUT / name / ("full.json" if full else "config.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config, indent=1) + "\n")
    return path


def parse_results(text: str) -> list[dict]:
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:] if line]


def row_M(row: dict) -> tuple:
    return tuple(float(v) for v in row["M"].split())


def run_once(cellhom, config_path: Path, out_dir: Path, seed: int,
             tracer=None) -> Rep:
    """One ``cli.run`` with program seed ``seed`` on a freshly parsed config,
    traced when ``tracer`` is given; patching and deriving the layer metrics
    stay outside the timing."""
    import tracing

    os.environ["CELLHOM_SEED"] = str(seed)
    config = cellhom.cli.parse_config(config_path)
    for stale in ("results.csv", "summary.json"):
        (out_dir / stale).unlink(missing_ok=True)
    call = lambda: cellhom.cli.run(config, out_dir=str(out_dir))  # noqa: E731
    if tracer is not None:
        tracing.instrument(tracer, cellhom.solver, cellhom.homogenize, config.model)
        call = tracer.wrap("cli.run", call)
    rc = error = None
    t0 = time.perf_counter()
    try:
        rc = call()
    except Exception as exc:  # noqa: BLE001 - a raised run is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.restore()
    if error is not None:
        return Rep(seed, wall, rc, error, None, None, tracer is not None)
    layers = None
    if tracer is not None:
        run_span = next(s for s in tracer.spans if s.name == "cli.run")
        bonds = len(getattr(config.model, "bonds", ()))
        layers = tracing.layer_metrics(tracer, run_span, bonds)
    return Rep(seed, wall, rc, None, (out_dir / "results.csv").read_bytes(),
               json.loads((out_dir / "summary.json").read_text()),
               tracer is not None, layers)


def timed_reps(seconds: float, one_rep, min_reps: int) -> list[Rep]:
    """Repeat until the next repetition would overrun ``seconds``.

    The next repetition is expected to take as long as the last one with
    its program seed, so a run does not start a stalled seed again near
    its end.
    """
    reps = []
    t_start = time.perf_counter()
    while len(reps) < MAX_REPS:
        reps.append(one_rep(len(reps)))
        spent = time.perf_counter() - t_start
        if len(reps) >= min_reps and \
                spent + reps[len(reps) - SEED_WINDOW].wall > seconds:
            break
    return reps


def setup_time(config_path: Path) -> float:
    """Fresh interpreter to ``parse_config`` done, in one child process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(config_path)],
        stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up process failed (status {proc.returncode})")
    return elapsed


def check_reps(name: str, config_path: Path, reps: list[Rep], refs: dict | None):
    """Apply the output checks; return the accounting and the quality data.

    Every expected (M, N) row of every repetition is one attempted cell
    problem.  A row is lost when its repetition raised, returned nonzero,
    wrote the wrong number of rows or other bytes than the first
    repetition with its seed, or (harmonic-tension) misses the closed form.
    ``refs`` maps a program seed to its reference rows.
    """
    config = json.loads(config_path.read_text())
    expected = [(i, N) for i in range(len(config["M"])) for N in config["schedule"]]
    first = {}
    for r in reps:
        if r.results is not None:
            first.setdefault(r.seed, r.results)
    attempted = failed = converged = 0
    valid, problems = [], []
    for k, rep in enumerate(reps):
        attempted += len(expected)
        reason = None
        rows = parse_results(rep.results.decode()) if rep.results is not None else []
        if rep.error is not None:
            reason = rep.error
        elif rep.rc != 0:
            reason = f"cli.run returned {rep.rc}"
        elif [(row_M(r), int(r["N"])) for r in rows] != \
                [(tuple(config["M"][i]), N) for i, N in expected]:
            reason = f"result rows {[(r['M'], r['N']) for r in rows]} are not " \
                     "one per (M, N)"
        elif rep.results != first[rep.seed]:
            reason = f"results.csv differs from the first repetition with seed {rep.seed}"
        if reason is not None:
            failed += len(expected)
            problems.append(f"rep {k}: {reason}")
            continue
        for (i, N), row in zip(expected, rows):
            f = float(row["f_N"])
            if name == "harmonic-tension" and \
                    abs(f - 0.04 * (N - 2) ** 2 / N**2) > TENSION_TOL:
                failed += 1
                problems.append(f"rep {k}: f_N = {f!r} at N = {N} misses the closed form")
                continue
            converged += row["converged"] == "true"
            valid.append((rep.seed, i, N, f))
    f_rel = None
    if refs is not None and valid:
        ref = {(seed, i, N): f for seed, rows in refs.items() for i, N, f in rows}
        f_rel = max(1.0 + (f - ref[(s, i, N)]) / abs(ref[(s, i, N)])
                    for s, i, N, f in valid)
    return attempted, failed, converged, f_rel, len(valid), problems


def w_cont_error(name: str, config, summary: dict) -> float:
    from cellhom.homogenize import cauchy_born_density

    results = summary["results"]
    rows = results["estimates"] if "estimates" in results else results["cb_table"]
    exact = WORKLOADS[name]["w_exact"]
    errs = []
    for M, row in zip(config.M_list, rows):
        target = cauchy_born_density(config.model, M) if exact == "cb" else exact
        errs.append(abs(row["w_cont"] - target))
    return max(max(errs), ERR_FLOOR)


def fixed_input_rows(cellhom, config, seed: int) -> dict:
    """Median times of single layer calls on one state at the largest N.

    A metric whose entry point no longer exists is left out.
    """
    import numpy as np

    model, M = config.model, config.M_list[0]
    try:
        grid = cellhom.lattice.build_grid(model.spec, max(config.schedule))
        problem = cellhom.solver.Problem(grid, model, M)
        x = problem.pack(cellhom.fields.affine_deformation(grid, M))
        x = x + np.random.default_rng(seed).uniform(-0.05, 0.05, size=x.shape)
        y, s = problem.unpack(x)
        F = np.swapaxes(y[problem.cell_sites], 1, 2)
        F = F - F[:, :, :model.spec.n_corners].mean(axis=2, keepdims=True)
    except AttributeError as exc:
        print(f"  missing entry point: {exc}")
        return {}
    calls = {
        "models.kernel_us": (1e6, lambda: model._energy_gradient(F, s)),
        "solver.vag_ms": (1e3, lambda: problem.value_and_grad(x)),
        "solver.energy_only_ms": (1e3, lambda: problem.energy_only(x)),
    }
    out = {}
    for metric, (scale, call) in calls.items():
        times = []
        t_end = time.perf_counter() + 0.3
        try:
            while len(times) < 5 or time.perf_counter() < t_end:
                t0 = time.perf_counter()
                call()
                times.append(time.perf_counter() - t0)
        except AttributeError as exc:
            print(f"  missing entry point: {exc}")
            continue
        out[metric] = scale * statistics.median(times)
    return out


def stamp(load_start) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "loadavg_start": load_start,
            "loadavg_end": list(os.getloadavg()),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_all(args) -> int:
    """Every workload in its own process; the last line merges their results,
    with metrics named ``workload/metric``."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd + ["--full"] * args.full,
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}/{m}": v for m, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full", action="store_true",
                        help="run the unscaled config (slow; no f_N reference)")
    args = parser.parse_args(argv)

    if not (SRC / "cellhom" / "__init__.py").is_file():
        print(f"error: cellhom sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    load_start = list(os.getloadavg())
    seeds = [(args.seed + j) % REF_SEEDS for j in range(SEED_WINDOW)]
    sys.path.insert(0, str(SRC))
    import cellhom
    import cellhom.cli as cli
    import tracing

    name = args.workload
    config_path = write_config(name, args.full)
    out_dir = OUT / name / f"seed{args.seed}{'-full' if args.full else ''}"
    out_dir.mkdir(parents=True, exist_ok=True)
    refs = None
    if not args.full:
        table = json.loads(REFS.read_text())["workloads"][name]
        refs = {s: table[str(s)] for s in seeds}

    setup, tracers = [], []

    def one_rep(k):
        tracer = None
        if args.trace and k % 2:   # traced runs alternate with untraced ones
            tracer = tracing.Tracer()
            tracers.append(tracer)
        elif not args.trace:
            # spread over the run, so a slow spell of the machine hits
            # set-up and run samples alike
            setup.append(setup_time(config_path))
        return run_once(cellhom, config_path, out_dir, seeds[k % SEED_WINDOW], tracer)

    reps = timed_reps(args.seconds, one_rep, MIN_REPS * (1 + args.trace))
    while not args.trace and len(setup) < SETUP_SAMPLES:
        setup.append(setup_time(config_path))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, converged, f_rel, n_valid, problems = check_reps(
        name, config_path, reps, refs)
    config = cli.parse_config(config_path)
    good = [r for r in reps if r.summary is not None]
    w_err = w_cont_error(name, config, good[0].summary) if good else None

    untraced = [r.wall for r in reps if not r.traced]
    rows = []   # (metric, value, samples)
    if args.trace:
        traced_reps = [r for r in reps if r.layers is not None]
        names = sorted({m for r in traced_reps for m in r.layers})
        for metric in names:
            vals = [r.layers[metric] for r in traced_reps if metric in r.layers]
            rows.append((metric, statistics.median(vals), len(vals)))
        ratios = []
        for seed in seeds:
            walls = [[r.wall for r in good if r.seed == seed and r.traced == t]
                     for t in (True, False)]
            if all(walls):
                ratios.append(statistics.median(walls[0]) / statistics.median(walls[1]))
        if ratios:
            rows.append(("trace.overhead_frac", statistics.median(ratios) - 1.0,
                         len(ratios)))
        for metric, value in fixed_input_rows(cellhom, config, args.seed).items():
            rows.append((metric, value, 1))
    else:
        rows.append(("run_s", statistics.median(untraced), len(untraced)))
        rows.append(("setup_s", statistics.median(setup), len(setup)))
        rows.append(("peak_rss_mb", peak_rss_mb, 1))
        if f_rel is not None:
            rows.append(("f_N_rel", f_rel, n_valid))
        if w_err is not None:
            rows.append(("w_cont_err", w_err, len(config.M_list)))
        rows.append(("converged_frac", converged / attempted, attempted))

    metrics = {m: {"value": v, "unit": UNITS[m]} for m, v, _ in rows}

    info = stamp(load_start)
    print(f"workload {name}  seed {args.seed} (CELLHOM_SEED cycles {seeds})  "
          f"trace {args.trace}  reps {len(reps)}  full {args.full}")
    lo, hi = quartiles(untraced)
    print(f"  untraced cli.run: median {statistics.median(untraced):.4f} s, "
          f"quartiles {lo:.4f}-{hi:.4f} s, n={len(untraced)}")
    for m, v, n in rows:
        print(f"  {m:30s} {v:14.6g} {metrics[m]['unit']:8s} n={n}")
    if good:
        res = good[0].summary["results"]
        for est in res.get("estimates", res.get("cb_table", [])):
            print(f"  M={est['M']} w_cont={est['w_cont']!r}"
                  f" clipped={est.get('clipped', '-')}")
    for p in problems:
        print(f"  check failed: {p}")
    for tracer in tracers[:1]:
        for missing in sorted(tracer.missing):
            print(f"  missing entry point: {missing}")
    print(f"  stamp {json.dumps(info)}")

    record = {"workload": name, "seed": args.seed, "program_seeds": seeds,
              "trace": args.trace, "full": args.full, "stamp": info,
              "reps": [{"seed": r.seed, "wall": r.wall, "traced": r.traced}
                       for r in reps], "setup": setup,
              "problems": problems, "metrics": metrics}
    (out_dir / f"trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if tracers:
        origin = min((s.start for s in tracers[0].spans), default=0.0)
        with open(out_dir / "spans.jsonl", "w") as fh:
            for k, tracer in enumerate(tracers):
                tracer.write(fh, origin, rep=k)

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

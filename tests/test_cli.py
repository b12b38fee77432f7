import ast
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import cellhom
from cellhom.cli import main, parse_config, run

from conftest import reproducible


def write_config(tmp_path, name="config.json", **overrides):
    config = {
        "lattice": {"d": 2, "A": [[1.0, 0.0], [0.0, 1.0]]},
        "model": {"name": "harmonic", "params": {"k": 1.0, "r0": 1.0}},
        "task": "homogenize",
        "M": [[1.2, 0.0, 0.0, 1.0]],
        "schedule": [4, 6, 8],
        "solver": {"n_random_starts": 1},
        "seed": 0,
    }
    config.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def test_parse_minimal_defaults(tmp_path):
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps({
        "lattice": {"d": 2, "A": [[1.0, 0.0], [0.0, 1.0]]},
        "model": {"name": "harmonic"},
        "task": "homogenize",
        "M": [[1.2, 0.0, 0.0, 1.0]],
    }))
    config = parse_config(path)
    assert config.schedule == [8, 16, 32, 64]
    assert config.solver.seed == 0
    assert config.solver.n_random_starts == 8
    assert config.model.name == "harmonic"


def test_parse_dimension_mismatch(tmp_path):
    path = write_config(tmp_path, M=[[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="dimension mismatch"):
        parse_config(path)


def test_parse_bad_A_shape(tmp_path):
    path = write_config(tmp_path, lattice={"d": 2, "A": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]})
    with pytest.raises(ValueError, match="dimension mismatch"):
        parse_config(path)


def test_parse_s0_for_bravais_rejected(tmp_path):
    path = write_config(tmp_path, s0=[[0.1, 0.0]])
    with pytest.raises(ValueError, match="internal variables undefined"):
        parse_config(path)


@pytest.mark.parametrize("task", ["cb_scan", "elastic"])
def test_parse_s0_rejected_where_unused(tmp_path, task):
    # these tasks never read s0: the key used to be accepted and ignored
    path = write_config(tmp_path, lattice={"d": 2, "A": [[1.0, 0.0], [0.0, 1.0]], "m": 1},
                        model={"name": "multilattice_harmonic"}, task=task,
                        s0=[[0.02, 0.01]])
    with pytest.raises(ValueError, match="s0 is not used"):
        parse_config(path)


def test_parse_unknown_keys_rejected(tmp_path):
    path = write_config(tmp_path, extra_field=1)
    with pytest.raises(ValueError, match="unknown keys"):
        parse_config(path)
    # nothing reads a top-level output directory: --out sets it
    path = write_config(tmp_path, output="out/")
    with pytest.raises(ValueError, match="unknown keys in config"):
        parse_config(path)


@pytest.mark.parametrize("solver", [{"seed": 5}, {"use_buckling_starts": False}])
def test_parse_solver_seed_and_buckling_keys_rejected(tmp_path, solver):
    # the one seed is the top-level key or CELLHOM_SEED; a solver-block seed
    # used to override CELLHOM_SEED, and nothing reads use_buckling_starts
    path = write_config(tmp_path, solver=solver)
    with pytest.raises(ValueError, match="unknown keys in solver block"):
        parse_config(path)


def test_readme_config_schema_matches_parser():
    from cellhom import cli
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
    schema = json.loads(re.sub(r"//.*", "", block))
    assert set(schema) == cli._TOP_KEYS
    assert set(schema["lattice"]) == cli._LATTICE_KEYS
    assert set(schema["model"]) == cli._MODEL_KEYS
    assert set(schema["solver"]) == cli._SOLVER_KEYS


def test_parse_stencil_key_rejected(tmp_path):
    # every model builds its own stencil: a pair model used to keep its
    # cutoff's stencil and silently drop this one
    lattice = {"d": 2, "A": [[1.0, 0.0], [0.0, 1.0]], "stencil": [[0, 0], [1, 0]]}
    path = write_config(tmp_path, lattice=lattice,
                        model={"name": "pair_lj", "params": {"cutoff": 1.5}})
    with pytest.raises(ValueError, match="unknown keys in lattice block"):
        parse_config(path)


def test_parse_unknown_model_params_rejected(tmp_path):
    for model in ({"name": "harmonic", "params": {"k": 1.0, "r_0": 1.3}},
                  {"name": "pair_lj", "params": {"cutof": 1.5}}):
        path = write_config(tmp_path, model=model)
        with pytest.raises(ValueError, match="unknown model params"):
            parse_config(path)


@pytest.mark.parametrize("overrides", [
    {"seed": 3.7}, {"seed": True}, {"schedule": [8, 12.5, 16]},
    {"lattice": {"d": 2.5, "A": [[1.0, 0.0], [0.0, 1.0]]}},
    {"lattice": {"d": 2, "A": [[1.0, 0.0], [0.0, 1.0]], "m": 1.5},
     "model": {"name": "multilattice_harmonic"}},
    {"solver": {"max_iter": 10.5}}, {"solver": {"history": True}},
    {"solver": {"grad_tol": float("nan")}},
    {"model": {"name": "quadratic_form", "params": {"kappa": float("nan")}}},
    {"M": [[float("nan"), 0.0, 0.0, 1.0]]},
    {"model": {"name": "harmonic", "params": {"k": float("nan")}}},
    {"lattice": {"d": 2, "A": [[1.0, 0.0], [0.0, 1.0]], "m": 1},
     "model": {"name": "multilattice_harmonic"}, "s0": [[float("nan"), 0.0]]},
    {"M": [[float("inf"), 0.0, 0.0, 1.0]]}, {"M": [[1.2, 0.0, 0.0, "1e999"]]},
], ids=["seed-float", "seed-bool", "schedule", "d", "m", "max_iter", "history", "grad_tol",
        "kappa-nan", "M-nan", "k-nan", "s0-nan", "M-inf", "M-overflow"])
def test_parse_non_integer_or_non_finite_rejected(tmp_path, monkeypatch, overrides):
    # each used to be truncated to an integer or passed on without a word;
    # NaN, Infinity and 1e999, which json reads as floats, used to reach the
    # models and end in a run that exits 0, a misleading error or a traceback
    monkeypatch.delenv("CELLHOM_SEED", raising=False)
    path = write_config(tmp_path, **overrides)
    path.write_text(path.read_text().replace('"1e999"', "1e999"))
    with pytest.raises(ValueError, match="integer|finite"):
        parse_config(path)


@pytest.mark.parametrize("task, schedule", [
    ("tiling_check", [4]), ("tiling_check", [4, 6]), ("tiling_check", [4, 8, 10]),
    ("homogenize", [4, 8]), ("homogenize", [4, 8, 8]), ("cb_scan", [8, 4, 12]),
], ids=["tiling-one-entry", "tiling-not-multiple", "tiling-later-not-multiple",
        "homogenize-two-entries", "homogenize-repeated", "cb_scan-decreasing"])
def test_parse_rejects_schedule_the_task_cannot_use(tmp_path, task, schedule):
    # tiling_check with [4] used to exit 0 with no check and no warning; the
    # fit's schedule errors used to surface only after parsing
    path = write_config(tmp_path, task=task, schedule=schedule)
    with pytest.raises(ValueError, match="schedule"):
        parse_config(path)


@pytest.mark.parametrize("name", ["quadratic_form", "quasiconvex_frobenius"])
def test_parse_bravais_model_rejects_internal_atoms(tmp_path, name):
    # the lattice's m used to be dropped: spec.m = 1 under a model with m = 0
    path = write_config(tmp_path, lattice={"d": 2, "A": [[1.0, 0.0], [0.0, 1.0]], "m": 1},
                        model={"name": name})
    with pytest.raises(ValueError, match="Bravais lattices"):
        parse_config(path)


@pytest.mark.parametrize("shell", [1.2, 2.0])
def test_parse_pair_shell_without_bonds_rejected(tmp_path, shell):
    # a shell that holds no bond within the cutoff would be a zero model
    model = {"name": "pair_harmonic", "params": {"cutoff": 1.5, "shell": shell}}
    with pytest.raises(ValueError, match="no bond"):
        parse_config(write_config(tmp_path, model=model))


def test_parse_missing_field(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"model": {"name": "harmonic"}, "task": "homogenize"}))
    with pytest.raises(ValueError, match="missing field 'lattice'"):
        parse_config(path)


def test_parse_unknown_task(tmp_path):
    path = write_config(tmp_path, task="frobnicate")
    with pytest.raises(ValueError, match="unknown task"):
        parse_config(path)


def test_seed_env_override(tmp_path, monkeypatch):
    path = write_config(tmp_path, seed=3)
    monkeypatch.setenv("CELLHOM_SEED", "17")
    config = parse_config(path)
    assert config.solver.seed == 17


def test_run_homogenize_outputs(tmp_path):
    path = write_config(tmp_path)
    config = parse_config(path)
    out = tmp_path / "out"
    assert run(config, out_dir=str(out)) == 0

    csv = (out / "results.csv").read_text().strip().splitlines()
    assert csv[0] == "task,model,M,s0,N,f_N,energy,iters,converged,grad_norm,start_label"
    assert len(csv) == 1 + 3  # one row per schedule entry

    summary = json.loads((out / "summary.json").read_text())
    for key in ("config_hash", "task", "results", "warnings"):
        assert key in summary
    est = summary["results"]["estimates"][0]
    assert est["w_cont"] == pytest.approx(0.04, abs=0.01)
    assert [d["N"] for d in est["per_N"]] == [4, 6, 8]
    for entry in est["per_N"]:
        assert entry["stop"] == "converged"
        assert entry["failed_starts"] == []
        assert entry["n_evals"] >= 1
        assert entry["precondition"] == "stiffness"
        starts = entry["starts"]
        assert [s["label"] for s in starts] == ["affine", "random-0"]
        for s in starts:
            assert set(s) == {"label", "energy", "stop", "iterations", "n_evals",
                              "n_backtracks", "wall_s"}
            assert s["stop"] in ("converged", "max_iter", "line_search_stall")
            assert s["energy"] >= entry["energy"] - 1e-12 * (1 + abs(entry["energy"]))
            assert s["wall_s"] >= 0
        won = next(s for s in starts if s["label"] == entry["start_label"])
        assert won.pop("wall_s") <= entry["wall_s"]     # one start of the cell problem
        assert won == {"label": entry["start_label"], "energy": entry["energy"],
                       "stop": entry["stop"], "iterations": entry["iterations"],
                       "n_evals": entry["n_evals"], "n_backtracks": entry["n_backtracks"]}

    plot = (out / "plotdata" / "m0.csv").read_text().strip().splitlines()
    assert plot[0] == "N,inv_N,f_N"
    assert len(plot) == 4


@pytest.mark.parametrize("model, M, expected", [    # "stiffness": test_run_homogenize_outputs
    ({"name": "harmonic"}, [0.5, 0.0, 0.0, 1.0], "identity"),
    ({"name": "quadratic_form", "params": {"mu": 1.0, "lam": 0.5}}, [1.1, 0.0, 0.0, 0.95],
     "laplacian"),
])
def test_summary_names_the_preconditioner(tmp_path, model, M, expected):
    path = write_config(tmp_path, model=model, M=[M], solver={"n_random_starts": 0})
    assert run(parse_config(path), out_dir=str(tmp_path / "out")) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    per_N = summary["results"]["estimates"][0]["per_N"]
    assert [d["precondition"] for d in per_N] == [expected] * 3


def test_run_deterministic_csv(tmp_path):
    path = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(parse_config(path), out_dir=str(out1)) == 0
    assert run(parse_config(path), out_dir=str(out2)) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    assert reproducible(s1) == reproducible(s2)


def test_run_cb_scan(tmp_path):
    path = write_config(tmp_path, task="cb_scan",
                        M=[[0.5, 0.0, 0.0, 1.0]], schedule=[6, 8, 12])
    out = tmp_path / "out"
    assert run(parse_config(path), out_dir=str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    row = summary["results"]["cb_table"][0]
    assert row["w_cb"] == pytest.approx(0.25, abs=1e-12)
    assert row["flagged"]


def test_solve_path_imports_no_scipy_or_fft(tmp_path):
    # importing scipy.sparse or scipy.optimize costs more than a small run;
    # the solve path stays numpy-only, the preconditioner included
    cell = write_config(tmp_path, "cell.json", task="cb_scan",
                        model={"name": "quadratic_form", "params": {"mu": 1.0, "lam": 0.5}},
                        M=[[1.1, 0.0, 0.0, 0.95]], schedule=[4, 6, 8],
                        solver={"n_random_starts": 1})
    bond = write_config(tmp_path, "bond.json")
    script = (
        "import json, sys\n"
        "from cellhom.cli import parse_config, run\n"
        "for path, out in zip(sys.argv[1::2], sys.argv[2::2]):\n"
        "    if run(parse_config(path), out_dir=out) != 0:\n"
        "        sys.exit(1)\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] == 'scipy' or m.startswith('numpy.fft'))))\n"
    )
    src = str(pathlib.Path(cellhom.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", script, str(cell), str(tmp_path / "cell"),
         str(bond), str(tmp_path / "bond")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []
    assert (tmp_path / "cell" / "results.csv").exists()
    assert (tmp_path / "bond" / "results.csv").exists()


def test_run_elastic(tmp_path):
    path = write_config(tmp_path, task="elastic", M=[])
    out = tmp_path / "out"
    assert run(parse_config(path), out_dir=str(out)) == 0
    csv = (out / "results.csv").read_text().strip().splitlines()
    assert csv[0] == "i,j,k,l,c_ijkl"
    assert len(csv) == 1 + 16
    summary = json.loads((out / "summary.json").read_text())
    assert np.asarray(summary["results"]["voigt"]).shape == (3, 3)


def test_run_tiling(tmp_path):
    path = write_config(tmp_path, task="tiling_check", schedule=[4, 8])
    out = tmp_path / "out"
    assert run(parse_config(path), out_dir=str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    entry = summary["results"]["tiling"][0]
    assert entry["n"] == 4 and entry["k"] == 8
    assert entry["dominated"]


def test_run_tiling_uses_s0(tmp_path):
    # without the s0 the check reports the relaxed-shift value 0.002032323186659076
    path = write_config(tmp_path, lattice={"d": 2, "A": [[1.0, 0.0], [0.0, 1.0]], "m": 1},
                        model={"name": "multilattice_harmonic"}, task="tiling_check",
                        M=[[1.05, 0.02, 0.0, 0.97]], s0=[[0.02, 0.01]], schedule=[4, 8])
    out = tmp_path / "out"
    assert run(parse_config(path), out_dir=str(out)) == 0
    entry = json.loads((out / "summary.json").read_text())["results"]["tiling"][0]
    assert entry["f_k_solved"] == pytest.approx(0.0023270897470942663, rel=1e-12)
    assert entry["dominated"]


def test_run_fails_when_no_cell_problem_converges(tmp_path, capsys):
    path = write_config(tmp_path, M=[[0.5, 0.0, 0.0, 1.0]], schedule=[6, 8, 12],
                        solver={"max_iter": 1, "n_random_starts": 0})
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "error: no cell problem converged" in capsys.readouterr().err
    assert "true" not in (tmp_path / "out" / "results.csv").read_text()


@pytest.mark.parametrize("task, overrides", [
    ("homogenize", {}),
    ("cb_scan", {}),
    ("elastic", {"M": []}),
    ("tiling_check", {"schedule": [4, 8]}),
])
def test_every_task_runs_without_energy_only(tmp_path, monkeypatch, task, overrides):
    # Problem.energy_only is the benchmark's entry point; no task reaches it
    def energy_only(self, x):
        raise AssertionError("energy_only called")

    monkeypatch.setattr(cellhom.solver.Problem, "energy_only", energy_only)
    path = write_config(tmp_path, task=task, **overrides)
    assert run(parse_config(path), out_dir=str(tmp_path / "out")) == 0


def test_main_run(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "cli_out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert (out / "results.csv").exists()


def test_main_rejects_retired_validate(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_src_has_no_assert():
    # python -O strips assert statements, so a check written as one would
    # silently stop checking; the package must raise instead
    src = pathlib.Path(cellhom.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in src/cellhom: {found}"


def test_export_lists_resolve():
    # a removal that leaves its name in __all__ breaks ``import *``; every
    # name the package root imports must be some module's public name
    src = pathlib.Path(cellhom.__file__).parent
    public = set()
    for path in sorted(src.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"cellhom.{path.stem}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"cellhom.{path.stem}.__all__ names undefined {missing}"
        public.update(module.__all__)
    tree = ast.parse((src / "__init__.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert imported, "no imports found in cellhom/__init__.py"
    assert not imported - public, f"imported but in no __all__: {sorted(imported - public)}"

"""The benchmark's tracer finds every entry point it wraps.

``bench/tracing.py`` patches named attributes of the solver, homogenize
and model layers; a rename would drop per-layer metrics from the benchmark
without failing anything else.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import cellhom
from cellhom import (QuadraticForm, affine_deformation, build_grid,
                     frobenius_squared_density, harmonic_spring_model,
                     lennard_jones, multilattice_harmonic_model,
                     pair_potential_model, quadratic_form_model,
                     quasiconvex_wrapper_model, square_lattice)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def builtin_models():
    square = square_lattice()
    return [
        harmonic_spring_model(square, 1.0, 1.0),
        pair_potential_model(square, lennard_jones(1.0, 2 ** (-1 / 6)), 1.8),
        quasiconvex_wrapper_model(square, frobenius_squared_density()),
        quadratic_form_model(square, QuadraticForm.from_moduli(1.0, 0.5)),
        multilattice_harmonic_model(square_lattice(m=1), 1.0, np.sqrt(0.5)),
    ]


def test_tracer_finds_every_entry_point():
    tracing = load_tracing()
    for model in builtin_models():
        tracer = tracing.Tracer()
        tracing.instrument(tracer, cellhom.solver, cellhom.homogenize, model)
        try:
            # the kernel spans nest inside the problem's evaluations
            problem = cellhom.solver.Problem(build_grid(model.spec, 5), model, np.eye(2))
            x = problem.pack(affine_deformation(problem.grid, np.eye(2)))
            problem.value_and_grad(x)
            problem.energy_only(x)
        finally:
            tracer.restore()
        assert not tracer.missing, (model.name, tracer.missing)
        names = [(s.name, s.parent) for s in tracer.spans]
        ids = {s.id: s.name for s in tracer.spans}
        assert [(n, ids.get(p)) for n, p in names] == [
            ("models.kernel", "solver.value_and_grad"),
            ("solver.value_and_grad", None),
            ("models.kernel_energy", "solver.energy_only"),
            ("solver.energy_only", None),
        ], model.name
        # restore leaves nothing patched behind
        assert "_energy_gradient" not in vars(model)
        assert not hasattr(cellhom.solver.Problem.value_and_grad, "__wrapped__")
        assert not hasattr(cellhom.homogenize.multi_start_minimize, "__wrapped__")

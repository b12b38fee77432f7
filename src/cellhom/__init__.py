"""Continuum elastic energy densities from atomistic cell problems.

The package solves boundary-value cell problems on finite lattice boxes,
extrapolates them to continuum stored-energy densities, compares against
the affine (Cauchy-Born) density, and computes elastic constants with
their Cauchy-relation residuals.
"""

from .elasticity import (CauchyReport, ElasticTensor, cauchy_residuals,
                         numeric_elastic_tensor, pair_elastic_tensor,
                         quadratic_model_hessian_check, voigt_matrix)
from .fields import (Deformation, affine_deformation, certified_ratio_bounds,
                     discrete_gradient, gradient_equivalence_ratio)
from .homogenize import (HomogenizationResult, cauchy_born_density,
                         cb_validity_scan, f_N, tiling_upper_bound_check,
                         w_cont_estimate)
from .lattice import (CellGrid, LatticeSpec, build_grid, build_lattice,
                      square_lattice)
from .models import (EnergyModel, MatrixDensity, PairPotential, QuadraticForm,
                     frobenius_squared_density, harmonic_pair,
                     harmonic_spring_model, lennard_jones,
                     multilattice_harmonic_model, pair_potential_model,
                     quadratic_form_model, quasiconvex_wrapper_model)
from .solver import (Problem, SolveOptions, SolveResult, buckling_start,
                     minimize, multi_start_minimize)

__version__ = "0.1.0"

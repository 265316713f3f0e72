"""Capacity engine for monotone fluxes on P1 triangulations of a square."""

from .errors import (ConfigError, IncompatiblePair, InvalidInput,
                     MeshMismatch, SolverDiverged)
from .flux import (Flux, adversarial_fixture, anisotropic_p, check_conditions,
                   combine, eval_flux, flat_core_p, flux_jacobian,
                   linear_matrix, p_laplacian, s_transform,
                   weighted_p_laplacian)
from .mesh import (Mesh, NodeSet, ShapeExpr, build_mesh, disk, halfplane,
                   intersect, is_subset, rasterize, rect, shape_all,
                   shape_complement, shape_difference, shape_from_json,
                   shape_intersect, shape_none, shape_union, validate_pair)
from .assembly import pairing, residual
from .solver import PotentialField, SolverOptions, solve_dirichlet
from .capacity import (CapacityReport, NodeMeasure, compute_capacity,
                       distributions, p_capacity, sweep_s)
from .oracle import (RadialSpec, radial_numeric, radial_p_capacity,
                     strip_capacity)
from .properties import (SuiteReport, default_flux_family, run_bounds_suite,
                         run_convergence_study, run_invariance_suite,
                         run_order_suite, run_s_suite, run_sequence_demo,
                         run_subadditivity_suite)
from .reporting import canonical_json, config_hash

__version__ = "0.1.0"

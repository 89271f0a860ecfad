"""perimap: T-periodic attracting invariant curves of periodically perturbed
maps and of Poincare maps of periodically forced hybrid systems."""

from .cycle_analysis import (AdaptedNorm, CycleReport, adapted_norm,
                             analyze_cycle, certify_contraction,
                             find_fixed_point, jacobian_and_spectrum)
from .embedding import (EmbeddingParams, bump_psi, certificate,
                        conjugacy_residual, eval_F_lambda, eval_G_lambda,
                        invert_G, spectral_gap, tilde_alpha, tilde_beta)
from .exceptions import (CertificateError, ChartError, ConfigError,
                         ConvergenceError, DomainError, EvaluationError,
                         IntegrationError, MonotonicityError, NoReturnError,
                         PerimapError)
from .hybrid_ode import (EventConfig, FlowResult, HybridSystem,
                         check_forcing_period, check_transversality,
                         flow_batch, polar_hybrid, simulate_hybrid)
from .invariant_graph import (AttractionReport, CurveConfig, PeriodicGridFn,
                              SolverReport, attraction_test, continuity_in_eps,
                              curve_table, graph_transform,
                              invariance_residual, periodicity_defect,
                              rate_bound_from_q, solve_invariant_curve,
                              uniqueness_test, write_csv, write_json)
from .map_core import (AssumptionReport, MapSpec, SamplingBox, Trajectory,
                       beta_y0, check_assumptions, eval_map, iterate,
                       linear_shear, make_system, nonlinear_toy)
from .poincare import (PoincareHandle, cylinder_table, extract_alpha_beta,
                       p_eps_batch, prepare_handle, time_to_return)

__version__ = "0.1.0"

"""Convex composite minimization via accelerated high-order proximal points."""

from .acceptance import AcceptedPoint, check_lemma_properties, evaluate
from .config import (AcceptanceFailure, BioptError, BisectionStall,
                     CertificateUndefined, DegenerateCoefficient, DomainViolation,
                     InvariantViolation, NonFinitePoint, OptimalityReached,
                     RegionViolation, SubproblemStall)
from .driver import (EstimatingState, RunTrace, estimating_min, gap_certificate,
                     new_state, psi_star, psi_value, rate_fit, run, step_exact,
                     step_inexact, verify_trace)
from .lower import (RelSmoothParams, ScalingFunction, bregman, reg_bregman,
                    rel_smooth_params, solve_acceptable, subproblem_solve)
from .numerics import (Metric, monotone_root, power_mean_norm, prox_power,
                       solve_step_coefficient, uniform_convexity_gap)
from .problems import (ProblemInstance, QuadraticOracle, SeparableOracle,
                       SimpleOracle, build_builtin, build_example_1d,
                       build_logbar, build_quadratic, build_separable,
                       load_instance, newton_minimize)
from .segment import (SegmentResult, SproxResult, bisect_segment,
                      exact_sprox_1d, exact_sprox_1d_general, make_sprox_oracle,
                      sprox_quadratic, sprox_reference)

__version__ = "0.1.0"

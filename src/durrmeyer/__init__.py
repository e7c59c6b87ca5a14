"""Numerical toolkit for the Jacobi-weighted Bernstein-Durrmeyer operator
on the interval and the triangle.

Layers, bottom up: special functions (log-gamma, digamma, polygamma, stable
gamma-ratio logs), eigenvalues and summability multipliers of the operator
with their continuous-argument extensions and derivatives, Gauss-Jacobi and
triangle product quadrature, orthogonal polynomial bases with spectral
coefficient containers, the operator itself in basis and spectral form with
its limiting differential operator, K-functional evaluation (exact at p = 2,
bracketed elsewhere), named test-function suites, and a verification harness
that checks every identity and inequality the construction rests on.  The
command-line front end lives in `durrmeyer.cli`.
"""

from .harness import (CheckReport, CheckRow, check_lemma, estimate_operator_norm,
                      report_all, run_direct, run_kfunc, run_lemmas, run_norms,
                      run_proposition, run_theorem1, verify_bracket,
                      verify_cesaro_contraction, verify_eigenstructure,
                      verify_kfunc_closed_form, verify_q_identity,
                      verify_telescoping)
from .kfunc import (KBracket, NormContext, default_candidates, k_bracket,
                    k_exact_p2, k_lower, k_upper, k_upper_detail, norm_rule,
                    sup_points)
from .operators import (DurrmeyerPlan, apply_durrmeyer, apply_durrmeyer_spectral,
                        apply_P_spectral, apply_Q, build_g_n, index_range,
                        make_plan)
from .orthopoly import (SpectralCoefficients, basis_eval, cesaro_factors,
                        cesaro_mean, get_basis, partial_sum, project,
                        projection_rule, synthesize)
from .quadrature import (ConstructionError, QuadratureRule, gauss_jacobi_rule,
                         interval_rule, lp_norm, simplex_rule_2d, weight_mass)
from .specfun import digamma, gamma_ratio_log, log_gamma, polygamma
from .spectrum import (DegeneracyError, WeightConfig, c_n, c_n_prime,
                       c_n_second, config_for_rho, eigenvalue_mu,
                       eigenvalue_mu_all, log_mu_all, log_nu_all,
                       mu_continuous, multiplier_nu_all, nu_continuous,
                       nu_prime, nu_second)
from .suite import TestFunction, get_suite

__version__ = "0.1.0"

__all__ = [
    "CheckReport", "CheckRow", "ConstructionError",
    "DegeneracyError", "DurrmeyerPlan", "KBracket", "NormContext",
    "QuadratureRule", "SpectralCoefficients", "TestFunction", "WeightConfig",
    "apply_P_spectral", "apply_Q", "apply_durrmeyer",
    "apply_durrmeyer_spectral", "basis_eval", "build_g_n",
    "c_n", "c_n_prime", "c_n_second", "cesaro_factors", "cesaro_mean",
    "check_lemma", "config_for_rho", "default_candidates", "digamma",
    "eigenvalue_mu", "eigenvalue_mu_all",
    "estimate_operator_norm", "gamma_ratio_log", "gauss_jacobi_rule",
    "get_basis", "get_suite", "index_range", "interval_rule", "k_bracket",
    "k_exact_p2", "k_lower", "k_upper", "k_upper_detail", "log_gamma",
    "log_mu_all", "log_nu_all", "lp_norm", "make_plan", "mu_continuous",
    "multiplier_nu_all", "norm_rule", "nu_continuous",
    "nu_prime", "nu_second", "partial_sum", "polygamma", "project",
    "projection_rule", "report_all",
    "run_direct", "run_kfunc", "run_lemmas", "run_norms", "run_proposition",
    "run_theorem1",
    "simplex_rule_2d", "sup_points", "synthesize", "verify_bracket",
    "verify_cesaro_contraction", "verify_eigenstructure",
    "verify_kfunc_closed_form", "verify_q_identity", "verify_telescoping",
    "weight_mass",
]

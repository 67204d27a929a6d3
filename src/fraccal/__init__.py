"""fraccal: fractional calculus in the complex plane on Laplace-Borel dual
spaces, with hypergeometric touchstones and Whittaker-monodromy verification
suites.

The operators D_alpha / I_alpha act on functions analytic in a tube around
the positive axis; at series level they scale Taylor coefficients by
Gamma(alpha+k+1)/k! and its reciprocal, and they admit boundary-integral
representations evaluated by adaptive contour quadrature.
"""

from .errors import (BudgetError, ConvergenceError, DegenerateCaseError,
                     DomainError, FraccalError, GammaPoleError,
                     PreconditionError, QuadratureError)
from .series import (GrowthEstimate, PowerSeries, add, cauchy_product,
                     estimate_growth, eval_series, exp_series,
                     geometric_series, monomial, scale, series_arith,
                     taylor_shift)
from .gammafn import digamma, gamma, loggamma, pochhammer, rgamma
from .hyp import (Hyp2F1Params, PFQParams, connection_coefficient,
                  euler_ltf_check, geom_alpha_check, hyp2f1, hyp2f1_continue,
                  hyp_pfq, monodromic_jump_2f1)
from .contours import (Arc, InfiniteRay, IntegralResult, Line,
                       NeighborhoodContour, QuadratureSpec, cauchy_eval,
                       gamma_contour, infinite_tube_boundary, integrate_path,
                       integrate_paths)
from .fracops import (FractionalOrder, PsiPolynomial, frac_deriv_contour,
                      frac_deriv_series, frac_deriv_series_normalized,
                      frac_integ_contour, frac_integ_series, frac_h1,
                      frac_of_pfq, psi_coefficients_contour, psi_limit_check,
                      psi_polynomial)
from .transforms import (AsymptoticSeries, LaplaceOracle, borel_log_scaled,
                         borel_map, h_norm, inverse_borel, laplace_alpha,
                         laplace_quadrature, remainder,
                         s_side_representation_check, to_standard_transform,
                         verify_lm_duality, watson_gevrey_check)
from .whittaker import (DualPair, MonodromyTriple, NormalizedODE, PWDEParams,
                        PhaseAmplitudePair, WhittakerSurface, borel_duals,
                        continue_series_along, default_t_grid,
                        default_zeta_grid, mon1_mw1_consistency,
                        normalize_ode, phase_amplitude_recurrence,
                        phase_amplitude_values, stokes_multipliers_whittaker,
                        verify_dual_monodromy, verify_eg_ltf,
                        verify_goursat_ltf, verify_mw_system,
                        whittaker_dual_pair)

__version__ = "0.1.0"

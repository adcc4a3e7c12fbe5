"""Bad-triangle transversals on signed graphs.

A bad triangle is a triangle with exactly one negative edge; a transversal
(cover) is an edge set meeting every bad triangle.  This package bundles
the cover LP and its packing dual (exact rational and multiplicative-
weights solvers), LP-rounding 2-approximations, the standard packing
3-approximation, pivot-based cover-to-clustering transformations with
their exact charging certificate, exact desk-scale oracles for minimum
covers and minimum-disagreement clusterings, and generators for the
instance families used throughout, all behind a batch-oriented CLI.
"""

from .errors import (BttError, BudgetExceededError, CapacityError,
                     ConvergenceError, InputError, VerificationError)
from .graphs import (Clustering, Edge, EdgeCover, NEGATIVE, POSITIVE,
                     SignedGraph, cc_cost, flip_edges, is_feasible_cover)
from .lp import (FractionalCover, FractionalPacking, LpSolution,
                 check_fractional_feasibility, check_packing_feasibility,
                 greedy_maximal_packing, solve_exact, solve_mwu)
from .approx import (RoundingOutcome, derandomized_sweep, krivelevich,
                     round_deterministic, round_fixed_threshold,
                     round_randomized, standard_three_approx)
from .pivot import (PivotTrace, TripletConfig, cover_pivot,
                    exhaustive_expected_disagreements, inclusion_probability,
                    join_probabilities, match_flip_pivot, run_pivot,
                    standard_pivot, triplet_sums, verify_charging_tables)
from .exact import (ExactResult, exact_btt, exact_btt_positive_only,
                    exact_cc, ratio_survey)
from .generators import (GadgetMap, TwoCnfFormula, consistent_cover,
                         gen_figure2, gen_hardness_reduction, gen_hexagram,
                         gen_integrality_gap, gen_random, gen_vc_reduction)

__version__ = "0.1.0"

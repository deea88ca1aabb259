"""Exact certificates and censuses for homogeneous polynomial systems
over finite fields: decide that a system cuts out a set-theoretic or
ideal-theoretic complete intersection, a nonsingular one, or an
absolutely irreducible one; compute the matching degree and probability
bounds; and validate them by exhaustive or Monte Carlo census.
"""

__version__ = "0.1.0"

from .bounds import (BoundsReport, DegreeBounds, FactorizationCount, GOfB,
                     HypersurfaceCensusBounds, PatternLandscape, PatternStats,
                     ProbabilityBound, bell_number, bounds_report,
                     degree_bounds, factorization_count, factorizations,
                     g_of_b, hypersurface_census_bounds,
                     linear_independent_count, multihomog_zero_bound,
                     pattern_landscape, pattern_stats,
                     probability_lower_bound, projective_count,
                     recipe_macaulay_degree, recipe_macaulay_shape,
                     system_space_size)
from .census import (BruteForceVerdict, CensusReport, CertSummary,
                     OracleReport, TrialRecord, brute_force_absirr,
                     brute_force_empty, count_zf_points, enumerate_systems,
                     feasible_max_ext, oracle_check, projective_points,
                     run_census, sample_system, trial_seed,
                     wilson_interval)
from .chow import ChowClass, chow_class, extract_bound, top_coefficient
from .errors import (ArityMismatch, CicensusError, DegreeMismatch,
                     DivisionByZero, EmptyInput, FormatError,
                     HypothesisViolated, IncompatibleFields, IndexOutOfRange,
                     InhomogeneousInput, MixedFields, NotAMatrix, NotPrime,
                     PatternViolation, ReducibleModulus, SearchSpaceTooLarge,
                     TooLarge, UnsupportedCertificate)
from .field import Field, field_from_order, is_prime, parse_field_spec
from .macaulay import (EmptinessVerdict, certify, coordinate_slice, decide,
                       decide_certs, decide_many, macaulay_degree,
                       macaulay_instance, projective_empty, rank_over_field)
from .poly import (CERTS, DegreePattern, Poly, PolySystem, TestSystem,
                   build_test_system, cert_recipe, compose_linear,
                   jacobian_det, jacobian_minor, monomials, parse_system_file,
                   poly_parse, recipe_degrees, shift_index, system_file_text)

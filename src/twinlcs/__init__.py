"""Twins in words, long common subsequences, and low-LCS families.

The package has eight layers: word primitives (words), subsequence
engines (lcs), twin search and certificates (twins), explicit word
families with certified ceilings (constructions), tail-bound calculus
and numeric constants (bounds), seeded sampling and tail estimation
(experiments), distributions on permutations and the expected-LCS
minimization (perm), and verification suites (verify).  Only verify
and the ``twinlcs`` CLI import from bounds and constructions.
"""

from .bounds import (AsymptoticThreshold, LowerBoundValues, MinMaxConstant,
                     MonotoneImageResult, ThetaBreakdown, ThresholdResult,
                     alpha_threshold, asymptotic_threshold, lower_bound_values,
                     minmax_constant, monotone_image, random_strongly_monotone,
                     role_count, role_prob, sharp_image_tables,
                     strong_monotonicity_violation, theta, union_bound)
from .constructions import (Ceiling, FamilyOutput, FAMILY_BUILDERS,
                            check_family, cube_quadruple, grid_pair,
                            multiperm_quadruple, quadratic_family,
                            stratified_family, tuplet_family)
from .errors import BudgetError, InvalidCertificateError
from .experiments import (ExperimentConfig, SCHEMA_VERSION, TailEstimate,
                          estimate_lt_tail, sample_word, substream,
                          threshold_pairs, wilson_interval)
from .lcs import (DEFAULT_BUDGET_CELLS, LcsResult, ReversibleResult,
                  SetLcsStats, lcs_len, lcs_multi, lcs_pair, lcs_reversible,
                  set_lcs_stats)
from .perm import (MinimizeResult, PermutationDistribution, expected_lcs,
                   minimize_expected_lcs, pairwise_lcs_table, permutations_of)
from .twins import (BlockTwinsResult, DEFAULT_NODE_BUDGET, RegularityViolation,
                    RoleStats, TwinCertificate, extract,
                    find_regularity_violation, is_monotone, is_regular_pair,
                    is_twin_roles, lt_exact, lt_oracle, minimal_certificate,
                    monotonize, parse_roles, random_monotone_certificate,
                    regularize, role_stats, roles_to_text, run_count,
                    split_upper_bound, twins_via_blocks, twins_via_runs)
from .verify import CheckResult, SUITES, SuiteReport, verify_suite
from .words import RegularityReport, Word, is_regular, parse_word

__version__ = "0.1.0"

"""Twins in words, long common subsequences, and low-LCS families.

The package has six layers: word primitives (words), subsequence
engines (lcs), twin search and certificates (twins), explicit word
families with certified ceilings (constructions), tail-bound calculus
and numeric constants (bounds), and seeded experiments plus
verification suites (experiments) behind the ``twinlcs`` CLI.
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
from .experiments import (CheckResult, ExperimentConfig, MinimizeResult,
                          PermutationDistribution, SCHEMA_VERSION, SUITES,
                          SuiteReport, TailEstimate, estimate_lt_tail,
                          expected_lcs, minimize_expected_lcs,
                          pairwise_lcs_table, permutations_of, sample_word,
                          substream, threshold_pairs, verify_suite,
                          wilson_interval)
from .lcs import (DEFAULT_BUDGET_CELLS, LcsResult, ReversibleResult,
                  SetLcsStats, lcs_len, lcs_multi, lcs_pair, lcs_reversible,
                  set_lcs_stats)
from .twins import (BlockTwinsResult, DEFAULT_NODE_BUDGET, RegularityViolation,
                    RoleStats, TwinCertificate, extract,
                    find_regularity_violation, is_monotone, is_regular_pair,
                    is_twin_roles, lt_exact, lt_oracle, minimal_certificate,
                    monotonize, parse_roles, random_monotone_certificate,
                    regularize, role_stats, roles_to_text, run_count,
                    split_upper_bound, twins_via_blocks, twins_via_runs)
from .words import RegularityReport, Word, is_regular, parse_word

__version__ = "0.1.0"

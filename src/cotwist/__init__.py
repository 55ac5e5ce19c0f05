"""Exact cocycle twists of finitely presented connected graded algebras
under finite abelian group actions, with a degree-truncated noncommutative
Groebner engine as the computational oracle."""

from .cyclo import CycNum, parse_scalar
from .errors import (AlphabetMismatch, ConductorMismatch, CotwistError,
                     DegreeBoundExceeded, FalsificationError, ParseError,
                     ValidationError)
from .freealg import (GeneratorInfo, GenMap, NcPoly, Presentation,
                      change_basis, embed_presentation, make_alphabet,
                      make_presentation, parse_ncpoly)
from .groups import (AbGroup, Cocycle, Duality, GroupAut, all_automorphisms,
                     coboundary, cocycle_from_formula, cocycle_from_scalars,
                     cocycle_inverse, cocycle_product, cocycle_pullback,
                     cohomologous, is_coboundary, klein_duality, klein_mu,
                     make_duality, make_group_aut, schur_order,
                     standard_duality, trivial_cocycle, validate_cocycle)
from .action import (GGrading, GradedAction, HomogBasis, diagonal_action,
                     grading_from_degrees, isotypic_basis,
                     regrade_presentation, validate_action)
from .twist import (TwistSpec, coboundary_rescale_matches, double_twist,
                    twist_poly, twist_presentation, verify_duality_benign,
                    verify_regrade_compat, word_twist_scalar)
from .gbasis import (TruncGB, hilbert_coeffs, ideal_contains,
                     is_normal_to_degree, is_regular_to_degree, normal_form,
                     truncated_gb, verify_iso)
from .crossed import (CrossedElement, CrossedModel, FinDimAlg,
                      build_crossed_model, center_basis, diagonal_invariants,
                      is_full_matrix_algebra, isotypic_component,
                      twisted_group_algebra, verify_bimodule_component,
                      verify_invariant_ring)
from .presets import (CHECKS, PRESET_NAMES, Preset, a_family_xbasis,
                      full_report, preset)

__version__ = "0.1.0"

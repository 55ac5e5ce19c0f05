"""Exact cocycle twists of finitely presented connected graded algebras
under finite abelian group actions, with a degree-truncated noncommutative
Groebner engine as the computational oracle.

The names below are re-exported from the layer modules on first use
(PEP 562), so `import cotwist` loads no layer and a CLI command loads only
the layers it runs.  `cotwist.<layer>` names a layer module the same way."""

import importlib

_EXPORTS = {
    "cyclo": ("CycNum", "parse_scalar"),
    "errors": ("AlphabetMismatch", "ConductorMismatch", "CotwistError",
               "DegreeBoundExceeded", "FalsificationError", "LimitExceeded",
               "ParseError", "ValidationError"),
    "freealg": ("GeneratorInfo", "GenMap", "NcPoly", "Presentation",
                "embed_presentation", "make_alphabet", "make_presentation",
                "parse_ncpoly"),
    "groups": ("AbGroup", "Cocycle", "Duality", "GroupAut",
               "all_automorphisms", "coboundary", "cocycle_from_formula",
               "cocycle_from_scalars", "cocycle_inverse", "cocycle_product",
               "cocycle_pullback", "commutator_radical", "is_coboundary",
               "klein_duality", "klein_mu", "make_duality", "make_group_aut",
               "schur_order", "standard_duality", "trivial_cocycle",
               "validate_cocycle"),
    "action": ("HomogBasis", "isotypic_basis", "regrade_presentation",
               "validate_action"),
    "twist": ("GGrading", "TwistSpec", "coboundary_rescale_matches",
              "double_twist", "grading_from_degrees", "twist_poly",
              "twist_presentation", "verify_duality_benign",
              "verify_regrade_compat", "word_twist_scalar"),
    "gbasis": ("TruncGB", "hilbert_coeffs", "ideal_contains",
               "is_normal_to_degree", "is_regular_to_degree", "normal_form",
               "truncated_gb", "verify_iso"),
    "crossed": ("CrossedElement", "CrossedModel", "build_crossed_model",
                "isotypic_component", "verify_bimodule_component",
                "verify_invariant_ring"),
    "presets": ("CHECKS", "PRESET_NAMES", "Preset", "full_report", "preset"),
}
_LAYERS = ("action", "cli", "crossed", "cyclo", "errors", "freealg", "gbasis",
           "groups", "jsonio", "linalg", "presets", "twist")
_ORIGIN = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__),
                        name)
    elif name in _LAYERS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_ORIGIN) | set(_LAYERS))

"""Built-in data: the Klein-group twist setup and the twist-related members
of the Rogalski-Zhang families, stored in the diagonal w-basis, plus
`CHECKS`, the table of named checks behind the `theorem55` and `report`
commands.

Every preset lives over conductor 4, has three degree-1 generators with
G-degrees (e, g2, g1) and twists by the cocycle
mu(g1^p g2^q, g1^r g2^s) = (-1)^(p*s).  The degrees are those the
quasi-trivial action (g1 negates w2, g2 negates w3) induces under the Klein
duality; a preset keeps no action, as the spec loader keeps none once it has
diagonalized one.  Each preset is built once, with its twist spec (grading,
duality and cocycle) and its twist, and the checks read both from it.

Per-relation twist scalars are reported against the catalog display forms of
the target relations (the stored presentations are canonically rescaled, and
one display form, the C-family cubic, has leading coefficient -1).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .crossed import verify_bimodule_component, verify_invariant_ring
from .cyclo import CycNum
from .errors import CotwistError
from .freealg import GenMap, Presentation, make_alphabet, make_presentation, parse_ncpoly
from .gbasis import hilbert_coeffs, is_regular_to_degree, verify_iso
from .groups import (AbGroup, all_automorphisms, commutator_radical,
                     klein_duality, klein_mu, schur_order, standard_duality,
                     trivial_cocycle)
from .twist import (GGrading, TwistSpec, coboundary_rescale_matches,
                    double_twist, grading_from_degrees, twist_poly,
                    twist_presentation, verify_duality_benign,
                    verify_regrade_compat)

CONDUCTOR = 4

_SHARED_ACBD = ("w1^2 - w2^2", "w3*w1 - w1*w3", "w3^2*w2 - w2*w3^2")
_SHARED_EG = ("w1^2 - w2^2", "w3*w1 - w1*w3", "w3^2*w2 + w2*w3^2")

_CATALOG = {
    "A(1,-1)": _SHARED_ACBD + ("[w3,[w1,w2]_+]",),
    "B(1)": _SHARED_ACBD + ("[w3,[w2,w1]]_+",),
    "C(1)": _SHARED_ACBD + ("[w3,[w1,w2]]",),
    "D(1,1)": _SHARED_ACBD + ("w3*w1*w2 + w3*w2*w1 + w1*w2*w3 + w2*w1*w3",),
    "E(1,i)": _SHARED_EG + ("w3*w2*w1 - w1*w3*w2 + i*w1*w2*w3 - i*w2*w1*w3",),
    "E(1,-i)": _SHARED_EG + ("w3*w2*w1 - w1*w3*w2 - i*w1*w2*w3 + i*w2*w1*w3",),
    "G(1,(1+i)/2)": _SHARED_EG + ("w3*w1*w2 + w3*w2*w1 + i*(w1*w2*w3 + w2*w1*w3)",),
    "G(1,(1-i)/2)": _SHARED_EG + ("w3*w1*w2 + w3*w2*w1 - i*(w1*w2*w3 + w2*w1*w3)",),
}

# source -> (target, expected per-relation scalars against display forms)
TWIST_PAIRS = {
    "A(1,-1)": ("D(1,1)", (1, 1, 1, -1)),
    "B(1)": ("C(1)", (1, 1, 1, 1)),
    "E(1,i)": ("E(1,-i)", (1, 1, 1, -1)),
    "G(1,(1+i)/2)": ("G(1,(1-i)/2)", (1, 1, 1, -1)),
}

PRESET_NAMES = tuple(_CATALOG)


class Preset(NamedTuple):
    """A catalog entry: the display forms of its relations, its twist data
    and the twisted presentation."""

    name: str
    display_relations: tuple
    spec: TwistSpec
    twisted: GGrading

    @property
    def presentation(self) -> Presentation:
        return self.spec.presentation

    def twist_spec(self) -> TwistSpec:
        return self.spec


# One entry per catalog name at most; an unknown name raises and is not cached.
@lru_cache(maxsize=len(_CATALOG))
def preset(name: str) -> Preset:
    if name not in _CATALOG:
        raise CotwistError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    gens = make_alphabet([("w1", 1), ("w2", 1), ("w3", 1)])
    display = tuple(parse_ncpoly(text, gens, CONDUCTOR) for text in _CATALOG[name])
    pres = make_presentation(CONDUCTOR, gens, display)
    grading = grading_from_degrees(pres, AbGroup((2, 2)),
                                   ((0, 0), (0, 1), (1, 0)))
    spec = TwistSpec(grading, klein_duality(), klein_mu())
    return Preset(name, display, spec, twist_presentation(spec))


# ---------------------------------------------------------------------------
# the verification battery: one table of named checks
# ---------------------------------------------------------------------------

# fixed bounds of the crossed-product and regularity checks
INVARIANT_BOUND = 4
BIMODULE_BOUND = 3
REGULARITY_BOUND = 4

# generator rescalings g -> i^k, as exponents mod 4
_FIXED_RESCALINGS = (
    {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 1},
    {(0, 0): 0, (1, 0): 0, (0, 1): 1, (1, 1): 3},
)


def _section(items_key: str, items: list, verdict_key: str = "pass",
             **details) -> dict:
    """A report section listing `items`, records with a `pass` verdict; it
    passes when every item does."""
    return {items_key: items,
            verdict_key: all(item["pass"] for item in items), **details}


def verdict(section: dict) -> bool:
    """The verdict of a section (`passed` for the twist suite and the whole
    report, `pass` elsewhere); a section with neither fails."""
    return section.get("pass", section.get("passed")) is True


def _twist_suite(bound: int) -> dict:
    """Twist each source preset, demand an exact syntactic match with its
    target, record the per-relation scalars against the display forms, and
    re-verify with the degree-bounded membership and Hilbert checks."""
    pairs = []
    for source_name, (target_name, expected) in TWIST_PAIRS.items():
        source = preset(source_name)
        target = preset(target_name)
        twisted = source.twisted.presentation
        syntactic = twisted.relations == target.presentation.relations

        scalars = []
        for raw, tgt in zip(source.display_relations, target.display_relations):
            tw = twist_poly(raw, source.spec.grading, source.spec.cocycle)
            ratio = tw.leading_coeff() * tgt.leading_coeff().inverse()
            scalars.append(ratio if tw == tgt.scale(ratio) else None)
        scalars_ok = scalars == [CycNum.rational(s, CONDUCTOR) for s in expected]

        iso = verify_iso(twisted, target.presentation,
                         GenMap.identity(target.presentation.generators, CONDUCTOR),
                         bound)
        pairs.append({
            "source": source_name,
            "target": target_name,
            "verdict": "SYNTACTIC" if syntactic else "FAILED",
            "scalars": [str(s) if s is not None else None for s in scalars],
            "iso_status": iso.status,
            "hilbert": list(iso.hilbert_lhs),
            "hilbert_equal": iso.hilbert_equal,
            "twisted_relations": [str(r) for r in twisted.relations],
            "target_relations": [str(r) for r in target.presentation.relations],
            "pass": syntactic and scalars_ok and iso.ok and iso.hilbert_equal,
        })
    return _section("pairs", pairs, verdict_key="passed", degree=bound, notes={
        "scalar_reference": "scalars compare the twisted relations with "
                            "the catalog display forms of the targets",
        "g_family_parametrization": "the G-family cubic is stored with "
                                    "coefficient 2*gamma-1; this "
                                    "parametrization is inferred from the "
                                    "conjugate-parameter target",
    })


def _hilbert_preservation(bound: int) -> dict:
    presets = []
    for name in PRESET_NAMES:
        p = preset(name)
        own = hilbert_coeffs(p.presentation, bound)
        other = hilbert_coeffs(p.twisted.presentation, bound)
        presets.append({"name": name, "dims": list(own), "twist_dims": list(other),
                        "pass": own == other and own[:3] == (1, 3, 7)})
    return _section("presets", presets)


def _invariant_ring(bound: int) -> dict:
    presets = []
    for name in ("A(1,-1)", "B(1)"):
        rep = verify_invariant_ring(preset(name).spec, INVARIANT_BOUND)
        presets.append({
            "name": name, "bound": rep.bound,
            "dims": [list(t) for t in rep.dims_match],
            "relations_vanish": rep.relations_vanish,
            "multiplicative": rep.multiplicative,
            "pass": rep.ok})
    return _section("presets", presets)


def _bimodule_components(bound: int) -> dict:
    spec = preset("A(1,-1)").spec
    components = []
    for g in spec.group.elements():
        rep = verify_bimodule_component(spec, g, BIMODULE_BOUND)
        components.append({
            "g": spec.group.describe(g),
            "dims": [list(t) for t in rep.component_dims],
            "scaling_multiplicative": rep.scaling_multiplicative,
            "spans_match": rep.left_span_matches and rep.right_span_matches,
            "pass": rep.ok})
    return _section("components", components)


def _twisted_group_algebra(bound: int) -> dict:
    spec = preset("A(1,-1)").spec
    group = spec.group
    radical = commutator_radical(spec.cocycle)
    out = {
        "twisted_center_dim": len(radical),
        "twisted_trace_rank": group.order,
        "is_full_matrix_algebra": len(radical) == 1,
        "plain_center_dim": len(commutator_radical(trivial_cocycle(group))),
    }
    out["pass"] = (out["twisted_center_dim"] == 1
                   and out["is_full_matrix_algebra"]
                   and out["plain_center_dim"] == group.order)
    return out


def _schur(bound: int) -> dict:
    values = {label: schur_order(AbGroup(factors)) for label, factors in (
        ("C2xC2", (2, 2)), ("C2", (2,)), ("C3", (3,)), ("C4", (4,)),
        ("C3xC3", (3, 3)))}
    return {"values": values,
            "pass": (values["C2xC2"] == 2
                     and values["C2"] == values["C3"] == values["C4"] == 1
                     and values["C3xC3"] == 3)}


def _regrade_compat(bound: int) -> dict:
    spec = preset("A(1,-1)").spec
    oks = [verify_regrade_compat(spec, sigma)
           for sigma in all_automorphisms(spec.group)]
    return {"pass": all(oks), "automorphisms": len(oks)}


def _duality_compat(bound: int) -> dict:
    """Raises FalsificationError when no compatible duality change exists."""
    spec = preset("A(1,-1)").spec
    tau = verify_duality_benign(spec.grading, spec.duality,
                                standard_duality(spec.group), spec.cocycle)
    return {"pass": True,
            "witness": [spec.group.describe(img) for img in tau.images]}


def _double_twist(bound: int) -> dict:
    presets = []
    for name in PRESET_NAMES:
        p = preset(name)
        back = double_twist(p.spec)
        presets.append({"name": name, "pass": back.presentation == p.presentation})
    return _section("presets", presets)


def _coboundary_rescale(bound: int) -> dict:
    oks = [coboundary_rescale_matches(preset(name).spec, 4, rho)
           for name in PRESET_NAMES for rho in _FIXED_RESCALINGS]
    return {"pass": all(oks), "checked": len(oks)}


def _regularity_agreement(bound: int) -> dict:
    # The twist maps the presets onto one another, so each presentation comes
    # up twice, as a preset and as a twist; its verdicts are computed once.
    checked = [preset(name) for name in PRESET_NAMES]
    distinct = dict.fromkeys(pres for p in checked
                             for pres in (p.presentation, p.twisted.presentation))
    regular = {(pres, g.index): is_regular_to_degree(pres.gen_poly(g.index), pres,
                                                     REGULARITY_BOUND)
               for pres in distinct for g in pres.generators}
    presets = []
    for p in checked:
        verdicts = []
        for g in p.presentation.generators:
            before = regular[p.presentation, g.index]
            after = regular[p.twisted.presentation, g.index]
            verdicts.append({"generator": g.name,
                             "before": list(before), "after": list(after)})
        agree = all(v["before"] == v["after"] for v in verdicts)
        presets.append({"name": p.name, "verdicts": verdicts, "pass": agree})
    return _section("presets", presets)


# report key -> check(bound) -> section, in report order; `theorem55` runs
# the `twist_suite` entry, `report` runs them all
CHECKS = {
    "twist_suite": _twist_suite,
    "hilbert_preservation": _hilbert_preservation,
    "invariant_ring": _invariant_ring,
    "bimodule_components": _bimodule_components,
    "twisted_group_algebra": _twisted_group_algebra,
    "schur": _schur,
    "regrade_compat": _regrade_compat,
    "duality_compat": _duality_compat,
    "double_twist": _double_twist,
    "coboundary_rescale": _coboundary_rescale,
    "regularity_agreement": _regularity_agreement,
}


def full_report(bound: int = 6) -> dict:
    """Run every check in `CHECKS`; the report passes when every section
    has a passing verdict."""
    report = {key: check(bound) for key, check in CHECKS.items()}
    report["passed"] = all(verdict(section) for section in report.values())
    return report

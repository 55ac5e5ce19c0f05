"""Built-in data: the Klein-group twist setup and the twist-related members
of the Rogalski-Zhang families, stored in the diagonal w-basis, plus the
end-to-end verification pipelines behind the `theorem55` and `report`
commands.

Every preset lives over conductor 4, has three degree-1 generators with
G-degrees (e, g2, g1), carries the quasi-trivial action (g1 negates w2, g2
negates w3) and twists by the cocycle mu(g1^p g2^q, g1^r g2^s) = (-1)^(p*s).

Per-relation twist scalars are reported against the catalog display forms of
the target relations (the stored presentations are canonically rescaled, and
one display form, the C-family cubic, has leading coefficient -1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .action import GGrading, GradedAction, diagonal_action, grading_from_degrees
from .cyclo import CycNum
from .errors import CotwistError
from .freealg import GenMap, NcPoly, Presentation, make_alphabet, make_presentation, parse_ncpoly
from .gbasis import hilbert_coeffs, is_regular_to_degree, verify_iso
from .groups import (AbGroup, Cocycle, Duality, klein_duality, klein_mu,
                     standard_duality, all_automorphisms, trivial_cocycle)
from .twist import (TwistSpec, coboundary_rescale_matches, double_twist,
                    twist_poly, twist_presentation, verify_duality_benign,
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


@dataclass(frozen=True)
class Preset:
    name: str
    presentation: Presentation
    display_relations: tuple
    group: AbGroup
    duality: Duality
    cocycle: Cocycle
    g_degrees: tuple
    action: GradedAction
    expected_target: Optional[str]
    expected_scalars: Optional[tuple]

    def grading(self) -> GGrading:
        return grading_from_degrees(self.presentation, self.group, self.g_degrees)

    def twist_spec(self) -> TwistSpec:
        return TwistSpec(self.grading(), self.duality, self.cocycle)


_PRESET_CACHE: dict = {}


def preset(name: str):
    """A named preset; `klein-mu` returns the built-in cocycle table."""
    if name == "klein-mu":
        return klein_mu()
    if name not in _CATALOG:
        raise CotwistError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)} "
            f"and klein-mu")
    if name in _PRESET_CACHE:
        return _PRESET_CACHE[name]
    gens = make_alphabet([("w1", 1), ("w2", 1), ("w3", 1)])
    display = tuple(parse_ncpoly(text, gens, CONDUCTOR) for text in _CATALOG[name])
    pres = make_presentation(CONDUCTOR, gens, display)
    group = AbGroup((2, 2))
    duality = klein_duality()
    mu = klein_mu()
    degrees = ((0, 0), (0, 1), (1, 0))
    act = diagonal_action(pres, group, duality, degrees)
    pair = TWIST_PAIRS.get(name)
    scalars = None
    if pair is not None:
        scalars = tuple(CycNum.rational(s, CONDUCTOR) for s in pair[1])
    p = Preset(name, pres, display, group, duality, mu, degrees, act,
               pair[0] if pair else None, scalars)
    _PRESET_CACHE[name] = p
    return p


def a_family_xbasis() -> tuple:
    """The A(1,-1) preset rewritten to the non-diagonal x-basis together with
    the swap/negate action matrices; a demonstration input for the
    diagonalization pipeline (w1 = x1 + x2, w2 = x1 - x2, w3 = x3)."""
    src = preset("A(1,-1)")
    gens = make_alphabet([("x1", 1), ("x2", 1), ("x3", 1)])
    one = CycNum.one(CONDUCTOR)
    zero = CycNum.zero(CONDUCTOR)
    # column k of the basis matrix holds w_{k+1} in x-coordinates
    basis_matrix = [[one, one, zero], [one, -one, zero], [zero, zero, one]]
    images = []
    for k in range(3):
        terms = {(j,): basis_matrix[j][k] for j in range(3)
                 if not basis_matrix[j][k].is_zero()}
        images.append(NcPoly(gens, CONDUCTOR, terms))
    to_x = GenMap(src.presentation.generators, tuple(images))
    relations = [to_x.apply(r) for r in src.presentation.relations]
    pres = make_presentation(CONDUCTOR, gens, relations)
    swap = [[zero, one, zero], [one, zero, zero], [zero, zero, one]]
    negate = [[one, zero, zero], [zero, one, zero], [zero, zero, -one]]
    return pres, (swap, negate)


# ---------------------------------------------------------------------------
# the four built-in twist isomorphisms
# ---------------------------------------------------------------------------

def run_twist_suite(bound: int = 6) -> dict:
    """Twist each source preset, demand an exact syntactic match with its
    target, record the per-relation scalars, and re-verify with the degree-
    bounded membership and Hilbert checks."""
    pairs = []
    passed = True
    for source_name, (target_name, _) in TWIST_PAIRS.items():
        source = preset(source_name)
        target = preset(target_name)
        twisted = twist_presentation(source.twist_spec())
        syntactic = twisted.presentation.relations == target.presentation.relations

        scalars = []
        scalars_ok = True
        for raw, tgt in zip(source.display_relations, target.display_relations):
            tw = twist_poly(raw, source.grading(), source.cocycle)
            ratio = tw.leading_coeff() * tgt.leading_coeff().inverse()
            if tw != tgt.scale(ratio):
                scalars_ok = False
                scalars.append(None)
            else:
                scalars.append(ratio)
        scalars_ok = scalars_ok and tuple(scalars) == source.expected_scalars

        iso = verify_iso(twisted.presentation, target.presentation,
                         GenMap.identity(target.presentation.generators, CONDUCTOR),
                         bound)
        ok = syntactic and scalars_ok and iso.ok and iso.hilbert_equal
        passed = passed and ok
        pairs.append({
            "source": source_name,
            "target": target_name,
            "verdict": "SYNTACTIC" if syntactic else "FAILED",
            "scalars": [str(s) if s is not None else None for s in scalars],
            "iso_status": iso.status,
            "hilbert": list(iso.hilbert_lhs),
            "hilbert_equal": iso.hilbert_equal,
            "twisted_relations": [str(r) for r in twisted.presentation.relations],
            "target_relations": [str(r) for r in target.presentation.relations],
            "pass": ok,
        })
    return {
        "pairs": pairs,
        "passed": passed,
        "degree": bound,
        "notes": {
            "scalar_reference": "scalars compare the twisted relations with "
                                "the catalog display forms of the targets",
            "g_family_parametrization": "the G-family cubic is stored with "
                                        "coefficient 2*gamma-1; this "
                                        "parametrization is inferred from the "
                                        "conjugate-parameter target",
        },
    }


# ---------------------------------------------------------------------------
# the full verification battery
# ---------------------------------------------------------------------------

# generator rescalings g -> i^k, as exponents mod 4
_FIXED_RESCALINGS = (
    {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 1},
    {(0, 0): 0, (1, 0): 0, (0, 1): 1, (1, 1): 3},
)


def full_report(bound: int = 6, invariant_bound: int = 4,
                bimodule_bound: int = 3) -> dict:
    """Run every verification the package can make, machine-readably."""
    from .crossed import (center_basis, is_full_matrix_algebra,
                          trace_form_rank, twisted_group_algebra,
                          verify_bimodule_component, verify_invariant_ring)
    from .groups import schur_order

    report: dict = {}
    report["twist_suite"] = run_twist_suite(bound)

    hilbert = {"pass": True, "presets": []}
    for name in PRESET_NAMES:
        p = preset(name)
        own = hilbert_coeffs(p.presentation, bound)
        twisted = twist_presentation(p.twist_spec())
        other = hilbert_coeffs(twisted.presentation, bound)
        ok = own == other and own[:3] == (1, 3, 7)
        hilbert["pass"] = hilbert["pass"] and ok
        hilbert["presets"].append({
            "name": name, "dims": list(own), "twist_dims": list(other),
            "pass": ok})
    report["hilbert_preservation"] = hilbert

    invariant = {"pass": True, "presets": []}
    for name in ("A(1,-1)", "B(1)"):
        rep = verify_invariant_ring(preset(name).twist_spec(), invariant_bound)
        invariant["pass"] = invariant["pass"] and rep.ok
        invariant["presets"].append({
            "name": name, "bound": rep.bound,
            "dims": [list(t) for t in rep.dims_match],
            "relations_vanish": rep.relations_vanish,
            "multiplicative": rep.multiplicative,
            "pass": rep.ok})
    report["invariant_ring"] = invariant

    bimodule = {"pass": True, "components": []}
    spec_a = preset("A(1,-1)").twist_spec()
    for g in spec_a.group.elements():
        rep = verify_bimodule_component(spec_a, g, bimodule_bound)
        bimodule["pass"] = bimodule["pass"] and rep.ok
        bimodule["components"].append({
            "g": spec_a.group.describe(g),
            "dims": [list(t) for t in rep.component_dims],
            "scaling_multiplicative": rep.scaling_multiplicative,
            "spans_match": rep.left_span_matches and rep.right_span_matches,
            "pass": rep.ok})
    report["bimodule_components"] = bimodule

    group = spec_a.group
    alg = twisted_group_algebra(group, klein_mu(), CONDUCTOR)
    plain = twisted_group_algebra(group, trivial_cocycle(group), CONDUCTOR)
    kgmu = {
        "twisted_center_dim": len(center_basis(alg)),
        "twisted_trace_rank": trace_form_rank(alg),
        "is_full_matrix_algebra": is_full_matrix_algebra(alg),
        "plain_center_dim": len(center_basis(plain)),
    }
    kgmu["pass"] = (kgmu["twisted_center_dim"] == 1
                    and kgmu["is_full_matrix_algebra"]
                    and kgmu["plain_center_dim"] == group.order)
    report["twisted_group_algebra"] = kgmu

    schur = {
        "values": {
            "C2xC2": schur_order(AbGroup((2, 2))),
            "C2": schur_order(AbGroup((2,))),
            "C3": schur_order(AbGroup((3,))),
            "C4": schur_order(AbGroup((4,))),
            "C3xC3": schur_order(AbGroup((3, 3))),
        }
    }
    schur["pass"] = (schur["values"]["C2xC2"] == 2
                     and schur["values"]["C2"] == schur["values"]["C3"]
                     == schur["values"]["C4"] == 1
                     and schur["values"]["C3xC3"] == 3)
    report["schur"] = schur

    regrade = {"pass": True, "automorphisms": 0}
    for sigma in all_automorphisms(group):
        ok = verify_regrade_compat(spec_a, sigma)
        regrade["pass"] = regrade["pass"] and ok
        regrade["automorphisms"] += 1
    report["regrade_compat"] = regrade

    tau = verify_duality_benign(preset("A(1,-1)").action,
                                klein_duality(), standard_duality(group),
                                klein_mu())
    report["duality_compat"] = {
        "pass": True,
        "witness": [group.describe(img) for img in tau.images],
    }

    double = {"pass": True, "presets": []}
    for name in PRESET_NAMES:
        p = preset(name)
        back = double_twist(p.twist_spec())
        ok = back.presentation == p.presentation
        double["pass"] = double["pass"] and ok
        double["presets"].append({"name": name, "pass": ok})
    report["double_twist"] = double

    rescale = {"pass": True, "checked": 0}
    for name in PRESET_NAMES:
        p = preset(name)
        for rho in _FIXED_RESCALINGS:
            ok = coboundary_rescale_matches(p.twist_spec(), 4, rho)
            rescale["pass"] = rescale["pass"] and ok
            rescale["checked"] += 1
    report["coboundary_rescale"] = rescale

    regular = {"pass": True, "presets": []}
    for name in PRESET_NAMES:
        p = preset(name)
        twisted = twist_presentation(p.twist_spec())
        agree = True
        verdicts = []
        for g in p.presentation.generators:
            before = is_regular_to_degree(p.presentation.gen_poly(g.index),
                                          p.presentation, 4)
            after = is_regular_to_degree(
                twisted.presentation.gen_poly(g.index),
                twisted.presentation, 4)
            verdicts.append({"generator": g.name,
                             "before": list(before), "after": list(after)})
            agree = agree and before == after
        regular["pass"] = regular["pass"] and agree
        regular["presets"].append({"name": name, "verdicts": verdicts,
                                   "pass": agree})
    report["regularity_agreement"] = regular

    report["passed"] = report["twist_suite"]["passed"] and all(
        section["pass"] for key, section in report.items()
        if isinstance(section, dict) and "pass" in section)
    return report

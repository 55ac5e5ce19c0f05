import itertools
import json
import sys

import pytest

from cotwist import freealg, gbasis, presets, twist
from cotwist.cyclo import root_of_unity
from cotwist.cli import main
from cotwist.errors import CotwistError
from cotwist.freealg import GenMap, make_presentation
from cotwist.gbasis import hilbert_coeffs, verify_iso
from cotwist.groups import AbGroup, coboundary, cocycle_product, trivial_cocycle
from cotwist.presets import (CHECKS, PRESET_NAMES, TWIST_PAIRS, full_report,
                             preset)
from cotwist.twist import TwistSpec, twist_presentation
from support import a_family_xbasis, diagonal_matrices

KLEIN = AbGroup((2, 2))


def test_catalog_shape():
    assert len(PRESET_NAMES) == 8
    for name in PRESET_NAMES:
        p = preset(name)
        assert p.presentation.conductor == 4
        assert len(p.presentation.generators) == 3
        assert all(g.degree == 1 for g in p.presentation.generators)
        assert len(p.presentation.relations) == 4
        assert p.spec.grading.g_degrees == ((0, 0), (0, 1), (1, 0))


def test_presets_connected_with_three_dimensional_degree_one():
    for name in PRESET_NAMES:
        dims = hilbert_coeffs(preset(name).presentation, 2)
        assert dims[0] == 1 and dims[1] == 3


def test_unknown_preset_rejected():
    with pytest.raises(CotwistError, match="unknown preset"):
        preset("Z(9)")


def test_preset_cache_holds_one_entry_per_catalog_name():
    first = {name: preset(name) for name in PRESET_NAMES}
    for bad in ("Z(9)", "A(1,1)", ""):
        with pytest.raises(CotwistError):
            preset(bad)
    info = preset.cache_info()
    assert info.maxsize == info.currsize == len(PRESET_NAMES)
    assert all(preset(name) is p for name, p in first.items())


def test_each_preset_holds_its_spec_and_its_twist():
    for name in PRESET_NAMES:
        p = preset(name)
        assert p.twist_spec() is p.spec
        assert p.presentation is p.spec.presentation
        assert p.twisted == twist_presentation(p.spec)
    for source_name, (target_name, _) in TWIST_PAIRS.items():
        assert preset(source_name).twisted.presentation == \
            preset(target_name).presentation


# the calls one `full_report(6)` makes from cold caches: each preset is
# graded and twisted once, when it is built, and only the checks whose
# subject is twisting (double twist, coboundary rescaling, regrading, the
# duality change, the invariant ring) twist again
REPORT_CALLS = {"grading_from_degrees": (twist, 8),
                "twist_presentation": (twist, 56),
                "make_presentation": (freealg, 80),
                "is_regular_to_degree": (gbasis, 24),
                "_complete": (gbasis, 17)}


def test_report_builds_each_preset_and_its_twist_once(monkeypatch):
    counts = dict.fromkeys(REPORT_CALLS, 0)

    def counted(name, real):
        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return call

    modules = [module for key, module in sys.modules.items()
               if key.startswith("cotwist.")]
    for name, (owner, _) in REPORT_CALLS.items():
        real = getattr(owner, name)
        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted(name, real))
    presets.preset.cache_clear()
    gbasis._GB_CACHE.clear()
    assert full_report(6)["passed"]
    assert counts == {name: n for name, (_, n) in REPORT_CALLS.items()}


def test_fourth_relations_differ_between_source_and_target():
    for source_name, (target_name, _) in TWIST_PAIRS.items():
        src = preset(source_name).presentation
        tgt = preset(target_name).presentation
        assert src.relations[:3] == tgt.relations[:3]
        assert src.relations[3] != tgt.relations[3]


def test_twist_suite_passes_with_expected_scalars():
    report = CHECKS["twist_suite"](6)
    assert report["pass"]
    by_source = {pair["source"]: pair for pair in report["pairs"]}
    assert by_source["A(1,-1)"]["scalars"] == ["1", "1", "1", "-1"]
    assert by_source["B(1)"]["scalars"] == ["1", "1", "1", "1"]
    assert by_source["E(1,i)"]["scalars"] == ["1", "1", "1", "-1"]
    assert by_source["G(1,(1+i)/2)"]["scalars"] == ["1", "1", "1", "-1"]
    for pair in report["pairs"]:
        assert pair["verdict"] == "SYNTACTIC"
        assert pair["iso_status"] == "SYNTACTIC"


def test_trivial_cocycle_negative_control():
    p = preset("A(1,-1)")
    spec = TwistSpec(p.spec.grading, p.spec.duality, trivial_cocycle(KLEIN))
    twisted = twist_presentation(spec)
    assert twisted.presentation == p.presentation
    target = preset("D(1,1)").presentation
    verdict = verify_iso(twisted.presentation, target,
                         GenMap.identity(target.generators, 4), 6)
    assert verdict["status"] == "FAILED"


def test_coboundary_modified_cocycle_passes_after_rescaling():
    p = preset("A(1,-1)")
    target = preset("D(1,1)")
    # rho = (1, i, -1, -i) as exponents base i
    rho = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}
    modified = cocycle_product(p.spec.cocycle, coboundary(KLEIN, 4, rho))
    twisted = twist_presentation(TwistSpec(p.spec.grading, p.spec.duality,
                                           modified))
    scalars = [root_of_unity(rho[g], 4, 4) for g in p.spec.grading.g_degrees]
    rescale = GenMap.scaling(p.presentation.generators, 4, scalars)
    rescaled = make_presentation(
        4, p.presentation.generators,
        [rescale.apply(r) for r in twisted.presentation.relations])
    assert rescaled == target.presentation


def test_double_klein_twist_returns_preset_exactly():
    for name in PRESET_NAMES:
        p = preset(name)
        once = twist_presentation(p.spec)
        twice = twist_presentation(TwistSpec(once, p.spec.duality,
                                             p.spec.cocycle))
        assert twice.presentation == p.presentation


def test_hilbert_prefixes_equal_across_twist_pairs():
    for source_name, (target_name, _) in TWIST_PAIRS.items():
        a = hilbert_coeffs(preset(source_name).presentation, 6)
        b = hilbert_coeffs(preset(target_name).presentation, 6)
        assert a == b


def test_xbasis_demo_is_equivalent_presentation():
    pres, _ = a_family_xbasis()
    assert hilbert_coeffs(pres, 5) == \
        hilbert_coeffs(preset("A(1,-1)").presentation, 5)


def test_preset_action_diagonal_values():
    # the quasi-trivial action that the degrees (e, g2, g1) mean: the
    # exponents base -1 of chi_{g^-1} at (g1, g2) for each generator's
    # degree g, so g1 negates w2 and g2 negates w3
    spec = preset("E(1,-i)").spec
    values = [spec.duality.values(KLEIN.inv(g))
              for g in spec.grading.g_degrees]
    assert values == [(0, 0), (1, 0), (0, 1)]


def test_loading_presets_completes_no_basis():
    # a preset keeps its grading and its twist, not an action, so loading
    # one completes no basis
    gbasis._GB_CACHE.clear()
    presets.preset.cache_clear()
    for name in PRESET_NAMES:
        preset(name)
    assert not gbasis._GB_CACHE


def test_regrade_on_preset_is_identity():
    from cotwist.action import isotypic_basis, regrade_presentation
    for name in ("A(1,-1)", "G(1,(1-i)/2)"):
        p = preset(name)
        basis = isotypic_basis(p.presentation, KLEIN,
                               diagonal_matrices(p.spec), p.spec.duality)
        grading = regrade_presentation(p.presentation, basis, KLEIN)
        assert grading.presentation == p.presentation
        assert grading.g_degrees == p.spec.grading.g_degrees


def test_preset_relations_survive_string_round_trip():
    for name in PRESET_NAMES:
        pres = preset(name).presentation
        for rel in pres.relations:
            assert pres.parse(str(rel)) == rel


def _failing(attr):
    """The verifier `attr` with its record's `pass` verdict false."""
    real = getattr(presets, attr)
    return lambda *args: {**real(*args), "pass": False}


def _answering_anew(attr):
    """The verifier `attr` giving a different answer on every call, so no
    before/after or source/twist comparison can agree."""
    real, counter = getattr(presets, attr), itertools.count()
    return lambda *args: tuple(real(*args)) + (next(counter),)


# check -> (verifier it delegates to, in the presets namespace; a factory of
# a falsifying stand-in)
FALSIFIERS = {
    "twist_suite": ("verify_iso", lambda: _failing("verify_iso")),
    "hilbert_preservation": ("hilbert_coeffs",
                             lambda: _answering_anew("hilbert_coeffs")),
    "invariant_ring": ("verify_invariant_ring",
                       lambda: _failing("verify_invariant_ring")),
    "bimodule_components": ("verify_bimodule_component",
                            lambda: _failing("verify_bimodule_component")),
    # a radical of the whole group: a commutative kG_mu
    "twisted_group_algebra": ("commutator_radical",
                              lambda: lambda mu: mu.group.elements()),
    "schur": ("schur_order", lambda: lambda group: 1),
    "regrade_compat": ("verify_regrade_compat", lambda: lambda spec, sigma: False),
    # a search that finds no witness
    "duality_compat": ("verify_duality_benign", lambda: lambda *args: None),
    # a "double" twist that twists once
    "double_twist": ("double_twist", lambda: twist_presentation),
    "coboundary_rescale": ("coboundary_rescale_matches",
                           lambda: lambda spec, modulus, rho: False),
    "regularity_agreement": ("is_regular_to_degree",
                             lambda: _answering_anew("is_regular_to_degree")),
}


@pytest.mark.parametrize("key", list(CHECKS))
def test_every_check_fails_when_its_verifier_does(monkeypatch, capsys, key):
    attr, make = FALSIFIERS[key]
    assert CHECKS[key](4)["pass"] is True
    monkeypatch.setattr(presets, attr, make())
    assert CHECKS[key](4)["pass"] is False
    # a failed check is a record of the report, which still prints in full
    assert main(["report", "--degree", "4"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert set(report) == set(CHECKS) | {"passed"}
    assert report[key]["pass"] is False and report["passed"] is False


def test_section_without_verdict_fails_the_report(monkeypatch):
    for key in CHECKS:
        monkeypatch.setitem(CHECKS, key, lambda bound: {"pass": True})
    assert full_report(4)["passed"] is True
    monkeypatch.setitem(CHECKS, "schur", lambda bound: {"values": {}})
    report = full_report(4)
    assert list(report) == list(CHECKS) + ["passed"]
    assert report["passed"] is False

"""JSON schemas for presentations, group data and twist specifications.

A presentation file is `{conductor, generators: [{name, degree}], relations:
[string]}` with relation strings in the parser grammar.  A full spec file
adds `group` (the cyclic factor list), `duality` (an r x r scalar table or
{"builtin": "standard"|"klein"}), `cocycle` ({"table": ...}, {"formula":
...} or {"builtin": "klein"|"trivial"}) and either `action` (one matrix per
group generator) or `g_degrees` (declared generator degrees, meaning the
diagonal action).  An action is an input form: the loader checks it and
diagonalizes it once into the G-grading that every later layer reads.

The computation conductor is the lcm of every conductor appearing in the
file (the builtin standard duality counts as the group exponent), at most
`cyclo.MAX_CONDUCTOR`; all scalars are embedded into it once at load time.
All dumps render scalars canonically and sort keys, so output bytes are a
function of input bytes.

Only the scalar, polynomial and error layers load with this module; the
group and twist layers load inside the loaders that build their objects,
and the action layer only for a spec that declares an action, so reading
and writing a bare presentation needs none of them.
"""

from __future__ import annotations

import json
from math import lcm
from typing import TYPE_CHECKING, NamedTuple, Optional

from .cyclo import common_conductor, parse_scalar, root_of_unity
from .errors import FalsificationError, ParseError, ValidationError
from .freealg import (MAX_LITERAL_DIGITS, GenMap, NcPoly, Presentation,
                      make_alphabet, make_presentation, parse_ncpoly)

if TYPE_CHECKING:
    from .action import HomogBasis
    from .gbasis import IsoVerdict, TruncGB
    from .groups import AbGroup, Cocycle
    from .twist import GGrading, TwistSpec


def _json_int(text: str) -> int:
    if len(text) > MAX_LITERAL_DIGITS:
        raise ValueError(f"a number of {len(text)} digits exceeds the limit "
                         f"{MAX_LITERAL_DIGITS}")
    return int(text)


def load_json(path: str) -> dict:
    # a ValueError: malformed JSON, too long a number or text not in UTF-8
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, parse_int=_json_int)
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read JSON from {path}: {exc}") from exc


def dump_json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

# Malformed input raises ParseError naming its JSON path, e.g.
# "generators[0].name" or "relations[1]".

def _check(ok: bool, where: str, what: str) -> None:
    if not ok:
        raise ParseError(f"{where} must be {what}")


def _require(data: dict, key: str, where: str = ""):
    _check(isinstance(data, dict), where or "the top level", "an object")
    if key not in data:
        raise ParseError(f"{where}.{key} is missing" if where else f"{key} is missing")
    return data[key]


def generators_from_dict(data: dict):
    gens = _require(data, "generators")
    _check(isinstance(gens, list), "generators", "a list")
    pairs = []
    for k, item in enumerate(gens):
        if isinstance(item, str):
            pairs.append((item, 1))
            continue
        where = f"generators[{k}]"
        _check(isinstance(item, dict), where, "a name or a {name, degree} object")
        _check(isinstance(item.get("name"), str), f"{where}.name", "a string")
        degree = item.get("degree", 1)
        _check(type(degree) is int, f"{where}.degree", "an integer")
        pairs.append((item["name"], degree))
    return make_alphabet(pairs)


def presentation_from_dict(data: dict, conductor: Optional[int] = None) -> Presentation:
    """The presentation at lcm(its "conductor", `conductor`, every conductor
    its relations name)."""
    gens = generators_from_dict(data)
    base = data.get("conductor", 1)
    _check(type(base) is int and base > 0, "conductor", "a positive integer")
    base = lcm(base, conductor or 1)
    texts = data.get("relations", [])
    _check(isinstance(texts, list), "relations", "a list")
    relations = []
    for k, text in enumerate(texts):
        _check(isinstance(text, str), f"relations[{k}]", "a string")
        relations.append(parse_ncpoly(text, gens, base))
    return make_presentation(lcm(base, *(r.conductor for r in relations)),
                             gens, relations)


def group_from_dict(data: dict) -> AbGroup:
    from .groups import AbGroup
    factors = _require(data, "group")
    _check(isinstance(factors, list) and factors
           and all(type(n) is int and n >= 2 for n in factors),
           "group", "a nonempty list of cyclic orders, each at least 2")
    return AbGroup(tuple(factors))


def _parse_scalar_table(rows, block: str) -> list:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ParseError(f"{block} must be a list of rows of scalars")
    return [[parse_scalar(str(x)) for x in row] for row in rows]


def _klein_only(group: AbGroup, where: str) -> None:
    _check(group.factors == (2, 2), where, 'used with "group": [2, 2]')


def duality_from_dict(data: dict, group: AbGroup) -> tuple:
    """The duality and the conductor its input names.  A table that is no
    nondegenerate duality of the group is malformed input."""
    from .groups import klein_duality, make_duality, standard_duality
    block = data.get("duality", {"builtin": "standard"})
    if isinstance(block, dict):
        builtin = block.get("builtin")
        if builtin == "standard":
            return standard_duality(group), group.exponent()
        if builtin == "klein":
            _klein_only(group, "the builtin klein duality")
            return klein_duality(), 1
        raise ParseError(f"unknown builtin duality {builtin!r}")
    table = _parse_scalar_table(block, "duality table")
    try:
        duality = make_duality(group, table)
    except ValidationError as exc:
        raise ParseError(f"duality: {exc}") from exc
    return duality, common_conductor(*(x for row in table for x in row))


def _falsified(check, *args):
    """check(*args), with the ValidationError it raises reported as a
    FalsificationError: the input's claim that it holds a cocycle, a
    G-homogeneous presentation or an action is false."""
    try:
        return check(*args)
    except ValidationError as exc:
        raise FalsificationError(str(exc)) from exc


def cocycle_from_dict(data: dict, group: AbGroup) -> tuple:
    """The cocycle and the conductor its input names."""
    from .groups import (cocycle_from_scalars, formula_table, klein_mu,
                         trivial_cocycle)
    _check(isinstance(data, dict), "the top level", "an object")
    block = data.get("cocycle", {"builtin": "trivial"})
    if not isinstance(block, dict):
        raise ParseError("cocycle block must be an object with one of: "
                         "builtin, formula, table")
    if "builtin" in block:
        name = block["builtin"]
        if name == "trivial":
            return trivial_cocycle(group), 1
        if name == "klein":
            _klein_only(group, "the builtin klein cocycle")
            return klein_mu(), 1
        raise ParseError(f"unknown builtin cocycle {name!r}")
    if "formula" in block:
        table = formula_table(group, str(block["formula"]))

        def cell(g, h):
            return f"cocycle.formula at ({group.describe(g)},{group.describe(h)})"
    elif "table" in block:
        elements = group.elements()
        parsed = _parse_scalar_table(block["table"], "cocycle table")
        if len(parsed) != len(elements) or any(len(r) != len(elements) for r in parsed):
            raise ParseError("cocycle table must be |G| x |G| in element "
                             "enumeration order")
        table = {(g, h): parsed[a][b]
                 for a, g in enumerate(elements) for b, h in enumerate(elements)}

        def cell(g, h):
            return f"cocycle.table[{group.index(g)}][{group.index(h)}]"
    else:
        raise ParseError("cocycle block needs one of: builtin, formula, table")
    # a value outside the roots of unity is input this tool does not read,
    # unlike a failing cocycle identity, which falsifies the input's claim
    return (_falsified(cocycle_from_scalars, group, table, cell),
            common_conductor(*table.values()))


def _group_element(vec, group: AbGroup, where: str) -> tuple:
    if not isinstance(vec, list) or len(vec) != group.rank or not all(
            type(x) is int and 0 <= x < n for x, n in zip(vec, group.factors)):
        raise ParseError(
            f"{where} is not an element of the group {list(group.factors)}: "
            f"it needs {group.rank} integer coordinates with 0 <= x_j < n_j")
    return tuple(vec)


class SpecBundle(NamedTuple):
    """Everything loaded from a full spec file, at one shared conductor; the
    group, duality, cocycle and the grading over the homogeneous generators
    are `spec`'s."""

    basis: Optional[HomogBasis]       # None when g_degrees were declared
    spec: TwistSpec


def spec_bundle_from_dict(data: dict) -> SpecBundle:
    """An action block is checked and diagonalized here, once, into the
    grading; past this point only the grading is read.  Declared g_degrees
    need no action check: `grading_from_degrees` refuses relations that are
    not G-homogeneous, and G-homogeneous relations make the diagonal action
    preserve the ideal."""
    from .twist import TwistSpec, grading_from_degrees
    group = group_from_dict(data)
    duality, duality_conductor = duality_from_dict(data, group)
    cocycle, cocycle_conductor = cocycle_from_dict(data, group)

    need = lcm(duality_conductor, cocycle_conductor)
    action_block = data.get("action")
    matrices = None
    if action_block is not None:
        _check(isinstance(action_block, list)
               and all(isinstance(item, dict) for item in action_block),
               "action", "a list of {generator, matrix} objects")
        by_name = {str(item.get("generator")): item.get("matrix")
                   for item in action_block}
        expected = [f"g{j + 1}" for j in range(group.rank)]
        if set(by_name) != set(expected):
            raise ParseError(f"action block must name exactly {expected}")
        matrices = [_parse_scalar_table(by_name[name], f"action matrix for {name}")
                    for name in expected]
        need = lcm(need, *(x.conductor for m in matrices for row in m for x in row))

    presentation = presentation_from_dict(data, need)

    if matrices is not None:
        n = len(presentation.generators)
        for name, m in zip(expected, matrices):
            _check(len(m) == n and all(len(row) == n for row in m),
                   f"action matrix for {name}", f"{n} x {n}")
        from .action import isotypic_basis, regrade_presentation, validate_action
        matrices = _falsified(validate_action, presentation, group, matrices)
        basis = isotypic_basis(presentation, group, matrices, duality)
        grading = regrade_presentation(presentation, basis, group)
    elif "g_degrees" in data:
        raw = data["g_degrees"]
        if not isinstance(raw, list):
            raise ParseError("g_degrees must be a list of group elements")
        degrees = [_group_element(vec, group, f"g_degrees[{i}]")
                   for i, vec in enumerate(raw)]
        if len(degrees) != len(presentation.generators):
            raise ParseError("g_degrees must list one group element per generator")
        basis = None
        grading = _falsified(grading_from_degrees, presentation, group, degrees)
    else:
        raise ParseError("spec needs either an action block or g_degrees")
    return SpecBundle(basis, TwistSpec(grading, duality, cocycle))


def genmap_from_dict(data: dict, source: Presentation,
                     target: Presentation) -> GenMap:
    """The map with each image at lcm(the target's conductor, the conductor
    its text names); the caller lifts them to one field."""
    images_block = _require(data, "images")
    if isinstance(images_block, dict):
        texts = [_require(images_block, g.name, "images") for g in source.generators]
    else:
        _check(isinstance(images_block, list), "images", "an object or a list")
        texts = images_block
    if len(texts) != len(source.generators):
        raise ParseError("one image per source generator required")
    return GenMap(source.generators, tuple(
        parse_ncpoly(str(text), target.generators, target.conductor)
        for text in texts))


# ---------------------------------------------------------------------------
# dumping
# ---------------------------------------------------------------------------

def presentation_to_dict(p: Presentation) -> dict:
    return {
        "conductor": p.conductor,
        "generators": [{"name": g.name, "degree": g.degree}
                       for g in p.generators],
        "relations": [str(r) for r in p.relations],
    }


def grading_to_dict(grading: GGrading) -> dict:
    group = grading.group
    return {
        "group": list(group.factors),
        "g_degrees": [list(g) for g in grading.g_degrees],
        "named_degrees": {gen.name: group.describe(g)
                          for gen, g in zip(grading.presentation.generators,
                                            grading.g_degrees)},
    }


def cocycle_to_dict(c: Cocycle, conductor: int) -> dict:
    return {
        "elements": [c.group.describe(g) for g in c.group.elements()],
        "table": [[str(root_of_unity(k, c.modulus, conductor)) for k in row]
                  for row in c.values],
    }


def basis_to_dict(basis: HomogBasis, group: AbGroup) -> dict:
    return {
        "names": list(basis.names),
        "matrix": [[str(x) for x in row] for row in basis.matrix],
        "g_degrees": [group.describe(g) for g in basis.g_degrees],
    }


def gb_to_dict(gb: TruncGB) -> dict:
    return {
        "bound": gb.bound,
        "elements": [str(g) for g in gb.elements],
        "leading_words": [str(NcPoly.from_word(gb.presentation.generators,
                                               gb.presentation.conductor, w))
                          for w in sorted(gb.lead_map)],
    }


def verdict_to_dict(v: IsoVerdict) -> dict:
    return {
        "status": v.status,
        "degree": v.degree,
        "syntactic": v.syntactic,
        "relations_in_ideal": v.relations_in_ideal,
        "hilbert_lhs": list(v.hilbert_lhs),
        "hilbert_rhs": list(v.hilbert_rhs),
        "hilbert_equal": v.hilbert_equal,
        "scalars": [str(s) for s in v.scalars] if v.scalars else None,
        "failure": v.failure,
    }

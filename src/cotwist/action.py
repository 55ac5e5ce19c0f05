"""Graded actions of a finite abelian group on a presentation, and the
G-grading they induce.

An action is a commuting family of matrices, one per group generator, acting
on the span of the algebra generators (block-diagonal by N-degree).  Over a
splitting field of characteristic zero these matrices diagonalize
simultaneously; each joint eigenvector v satisfies h.v = chi_{g^-1}(h) v for
a unique g, and that g is the G-degree of v.

An action is an input form only: the spec loader checks it
(`validate_action`) and diagonalizes it once (`isotypic_basis`,
`regrade_presentation`) into a `twist.GGrading`, and every later layer reads
that grading.  Only the spec loader imports this module, and only for a spec
that declares an action.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .cyclo import CycNum, root_of_unity
from .errors import ValidationError
from .freealg import GenMap, NcPoly, Presentation, make_alphabet, make_presentation
from .gbasis import ideal_contains
from .groups import AbGroup, Duality
from .linalg import kernel_basis, mat_inverse
from .twist import GGrading


def _compose(f: GenMap, g: GenMap) -> GenMap:
    """f after g."""
    return GenMap(g.source, tuple(f.apply(image) for image in g.images))


def action_violations(presentation: Presentation, group: AbGroup,
                      matrices: Sequence) -> list:
    """All failed checks, in check order; empty means the action is valid.
    `matrices` holds one n x n table per group generator, n the number of
    algebra generators; the spec loader checks that shape."""
    gens = presentation.generators
    n = len(gens)
    conductor = presentation.conductor
    problems = []
    mats = [[[x.embed(conductor) for x in row] for row in m] for m in matrices]
    degrees = [g.degree for g in gens]
    for j, m in enumerate(mats):
        for a in range(n):
            for b in range(n):
                if degrees[a] != degrees[b] and not m[a][b].is_zero():
                    problems.append(
                        f"matrix for g{j + 1} mixes generators of degrees "
                        f"{degrees[b]} and {degrees[a]}")
    if problems:
        return problems
    maps = [GenMap.from_matrix(gens, gens, conductor, m) for m in mats]
    identity = GenMap.identity(gens, conductor)
    for j, gm in enumerate(maps):
        power = gm
        for _ in range(group.factors[j] - 1):
            power = _compose(power, gm)
        if power != identity:
            problems.append(
                f"matrix for g{j + 1} does not have order dividing "
                f"{group.factors[j]}")
    if problems:
        return problems
    for j in range(group.rank):
        for k in range(j + 1, group.rank):
            if _compose(maps[j], maps[k]) != _compose(maps[k], maps[j]):
                problems.append(f"matrices for g{j + 1} and g{k + 1} do not commute")
    if problems:
        return problems
    bound = presentation.max_relation_degree()
    for j, gm in enumerate(maps):
        for k, rel in enumerate(presentation.relations):
            if not ideal_contains(gm.apply(rel), presentation, bound):
                problems.append(
                    f"relation {k + 1} is not preserved by g{j + 1}: the ideal "
                    f"is not invariant")
    return problems


def validate_action(presentation: Presentation, group: AbGroup,
                    matrices: Sequence) -> tuple:
    """The matrices at the presentation's conductor, once they pass every
    check of `action_violations`."""
    problems = action_violations(presentation, group, matrices)
    if problems:
        raise ValidationError("; ".join(problems))
    conductor = presentation.conductor
    return tuple(tuple(tuple(x.embed(conductor) for x in row) for row in m)
                 for m in matrices)


class HomogBasis(NamedTuple):
    """A simultaneous eigenbasis of a graded action, with the G-degree read
    off against a fixed duality.  Column k of `matrix` holds the old
    coordinates of new generator k."""

    names: tuple
    degrees: tuple      # N-degrees of the new generators
    matrix: tuple
    inverse: tuple
    g_degrees: tuple    # one group element per new generator


def isotypic_basis(pres: Presentation, group: AbGroup, matrices: Sequence,
                   duality: Duality) -> HomogBasis:
    """Diagonalize the commuting action matrices (as `validate_action`
    returns them) into G-homogeneous generators.

    Output is deterministic: eigenvectors are scaled so the first nonzero
    coordinate is 1, ordered by G-degree (group enumeration order) and then
    by the index of that coordinate."""
    conductor = pres.conductor
    n = len(pres.generators)
    degrees = [g.degree for g in pres.generators]
    blocks: dict = {}
    for idx, d in enumerate(degrees):
        blocks.setdefault(d, []).append(idx)

    found = []   # (g-position, first-nonzero, vector, n-degree)
    for g_pos, g in enumerate(group.elements()):
        pattern = [root_of_unity(k, group.exponent(), conductor)
                   for k in duality.values(group.inv(g))]
        for block_degree, cols in sorted(blocks.items()):
            stacked = []
            for j in range(group.rank):
                m = matrices[j]
                for r in cols:
                    row = [m[r][c] - (pattern[j] if r == c else CycNum.zero(conductor))
                           for c in cols]
                    stacked.append(row)
            for local in kernel_basis(stacked, len(cols), conductor):
                vec = [CycNum.zero(conductor)] * n
                for c, value in zip(cols, local):
                    vec[c] = value
                first = next(i for i, x in enumerate(vec) if not x.is_zero())
                found.append((g_pos, first, vec, block_degree))
    if len(found) != n:
        raise AssertionError(
            "eigenvalue pattern mismatch: a valid action always splits into "
            "character eigenspaces")
    found.sort(key=lambda item: (item[0], item[1]))

    matrix = [[found[k][2][i] for k in range(n)] for i in range(n)]
    inverse = mat_inverse(matrix)
    is_identity = all(
        (matrix[i][k].is_one() if i == k else matrix[i][k].is_zero())
        for i in range(n) for k in range(n))
    if is_identity:
        names = tuple(g.name for g in pres.generators)
    else:
        names = tuple(f"w{k + 1}" for k in range(n))
    elements = group.elements()
    return HomogBasis(
        names=names,
        degrees=tuple(item[3] for item in found),
        matrix=tuple(tuple(row) for row in matrix),
        inverse=tuple(tuple(row) for row in inverse),
        g_degrees=tuple(elements[item[0]] for item in found),
    )


def regrade_presentation(presentation: Presentation,
                         basis: HomogBasis, group: AbGroup) -> GGrading:
    """Rewrite the relations in the homogeneous generator basis and attach
    the induced G-grading; every relation must come out G-homogeneous."""
    conductor = presentation.conductor
    new_gens = make_alphabet(list(zip(basis.names, basis.degrees)))
    n = len(new_gens)
    images = []
    for i in range(n):
        terms = {(k,): basis.inverse[k][i]
                 for k in range(n) if not basis.inverse[k][i].is_zero()}
        images.append(NcPoly(new_gens, conductor, terms))
    substitution = GenMap(presentation.generators, tuple(images))
    relations = [substitution.apply(r) for r in presentation.relations]
    new_pres = make_presentation(conductor, new_gens, relations)
    grading = GGrading(group, new_pres, basis.g_degrees)
    for k, rel in enumerate(new_pres.relations):
        if grading.poly_degree(rel) is None:
            raise AssertionError(
                f"relation {k + 1} is not G-homogeneous after the basis "
                f"change; an invalid action slipped past validation")
    return grading


"""Graded actions of a finite abelian group on a presentation, and the
G-grading they induce.

An action is a commuting family of matrices, one per group generator, acting
on the span of the algebra generators (block-diagonal by N-degree).  Over a
splitting field of characteristic zero these matrices diagonalize
simultaneously; each joint eigenvector v satisfies h.v = chi_{g^-1}(h) v for
a unique g, and that g is the G-degree of v.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .cyclo import CycNum, root_of_unity
from .errors import ValidationError
from .freealg import GenMap, NcPoly, Presentation, Word, make_alphabet, make_presentation
from .gbasis import ideal_contains
from .groups import AbGroup, Duality, Element
from .linalg import (identity, kernel_basis, mat_eq, mat_inverse, mat_mul,
                     mat_pow)


@dataclass(frozen=True)
class GradedAction:
    group: AbGroup
    presentation: Presentation
    matrices: tuple   # one n x n matrix per group generator

    def genmap(self, j: int) -> GenMap:
        """The algebra endomorphism induced by group generator j."""
        return GenMap.from_matrix(self.presentation.generators,
                                  self.presentation.generators,
                                  self.presentation.conductor,
                                  self.matrices[j])


def action_violations(presentation: Presentation, group: AbGroup,
                      matrices: Sequence) -> list:
    """All failed checks, in check order; empty means the action is valid."""
    n = len(presentation.generators)
    conductor = presentation.conductor
    problems = []
    if len(matrices) != group.rank:
        return [f"expected {group.rank} matrices, got {len(matrices)}"]
    mats = []
    for j, m in enumerate(matrices):
        if len(m) != n or any(len(row) != n for row in m):
            return [f"matrix for g{j + 1} is not {n}x{n}"]
        mats.append([[x.embed(conductor) for x in row] for row in m])
    degrees = [g.degree for g in presentation.generators]
    for j, m in enumerate(mats):
        for a in range(n):
            for b in range(n):
                if degrees[a] != degrees[b] and not m[a][b].is_zero():
                    problems.append(
                        f"matrix for g{j + 1} mixes generators of degrees "
                        f"{degrees[b]} and {degrees[a]}")
    if problems:
        return problems
    eye = identity(n, conductor)
    for j, m in enumerate(mats):
        if not mat_eq(mat_pow(m, group.factors[j], conductor), eye):
            problems.append(
                f"matrix for g{j + 1} does not have order dividing "
                f"{group.factors[j]}")
    if problems:
        return problems
    for j in range(group.rank):
        for k in range(j + 1, group.rank):
            if not mat_eq(mat_mul(mats[j], mats[k]), mat_mul(mats[k], mats[j])):
                problems.append(f"matrices for g{j + 1} and g{k + 1} do not commute")
    if problems:
        return problems
    bound = presentation.max_relation_degree()
    for j in range(group.rank):
        gm = GenMap.from_matrix(presentation.generators,
                                presentation.generators, conductor, mats[j])
        for k, rel in enumerate(presentation.relations):
            if not ideal_contains(gm.apply(rel), presentation, bound):
                problems.append(
                    f"relation {k + 1} is not preserved by g{j + 1}: the ideal "
                    f"is not invariant")
    return problems


def validate_action(presentation: Presentation, group: AbGroup,
                    matrices: Sequence) -> GradedAction:
    problems = action_violations(presentation, group, matrices)
    if problems:
        raise ValidationError("; ".join(problems))
    conductor = presentation.conductor
    mats = tuple(tuple(tuple(x.embed(conductor) for x in row) for row in m)
                 for m in matrices)
    return GradedAction(group, presentation, mats)


def diagonal_action(presentation: Presentation, group: AbGroup,
                    duality: Duality, g_degrees: Sequence[Element]) -> GradedAction:
    """The action determined by declared generator G-degrees: group element h
    scales a generator of degree g by chi_{g^-1}(h)."""
    if len(g_degrees) != len(presentation.generators):
        raise ValidationError("one G-degree per generator required")
    conductor = presentation.conductor
    zero = CycNum.zero(conductor)
    matrices = []
    for j in range(group.rank):
        h = group.generator(j)
        m = [[zero] * len(presentation.generators)
             for _ in presentation.generators]
        for idx, g in enumerate(g_degrees):
            m[idx][idx] = root_of_unity(duality.char_eval(group.inv(g), h),
                                        group.exponent(), conductor)
        matrices.append(m)
    return validate_action(presentation, group, matrices)


@dataclass(frozen=True)
class HomogBasis:
    """A simultaneous eigenbasis of a graded action, with the G-degree read
    off against a fixed duality.  Column k of `matrix` holds the old
    coordinates of new generator k."""

    names: tuple
    degrees: tuple      # N-degrees of the new generators
    matrix: tuple
    inverse: tuple
    g_degrees: tuple    # one group element per new generator


def isotypic_basis(action: GradedAction, duality: Duality) -> HomogBasis:
    """Diagonalize the commuting action matrices into G-homogeneous generators.

    Output is deterministic: eigenvectors are scaled so the first nonzero
    coordinate is 1, ordered by G-degree (group enumeration order) and then
    by the index of that coordinate."""
    pres = action.presentation
    group = action.group
    conductor = pres.conductor
    n = len(pres.generators)
    degrees = [g.degree for g in pres.generators]
    blocks: dict = {}
    for idx, d in enumerate(degrees):
        blocks.setdefault(d, []).append(idx)

    found = []   # (g-position, first-nonzero, vector, n-degree)
    for g_pos, g in enumerate(group.elements()):
        g_inv = group.inv(g)
        pattern = [root_of_unity(duality.char_eval(g_inv, group.generator(j)),
                                 group.exponent(), conductor)
                   for j in range(group.rank)]
        for block_degree, cols in sorted(blocks.items()):
            stacked = []
            for j in range(group.rank):
                m = action.matrices[j]
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


@dataclass(frozen=True)
class GGrading:
    """A presentation with G-homogeneous generators and their G-degrees."""

    group: AbGroup
    presentation: Presentation
    g_degrees: tuple

    def word_degree(self, word: Word) -> Element:
        out = self.group.identity()
        for letter in word:
            out = self.group.mul(out, self.g_degrees[letter])
        return out

    def poly_degree(self, p: NcPoly) -> Optional[Element]:
        """Common G-degree of all words, or None when inhomogeneous."""
        degrees = {self.word_degree(w) for w in p.terms}
        if len(degrees) != 1:
            return None
        return degrees.pop()


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


def grading_from_degrees(presentation: Presentation, group: AbGroup,
                         g_degrees: Sequence[Element]) -> GGrading:
    """Attach declared G-degrees directly (generators already homogeneous);
    validates that every relation is G-homogeneous."""
    grading = GGrading(group, presentation, tuple(tuple(g) for g in g_degrees))
    for k, rel in enumerate(presentation.relations):
        if grading.poly_degree(rel) is None:
            raise ValidationError(
                f"relation {k + 1} is not G-homogeneous under the declared degrees")
    return grading

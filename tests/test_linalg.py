"""Sparse exact elimination against the dense reference in `oracles`."""

import random
from fractions import Fraction

import pytest

from cotwist.cyclo import CycNum
from cotwist.linalg import (SingularMatrixError, _echelon, kernel_basis,
                            mat_inverse, rank, row_spaces_equal)
from oracles import FracCyclo, dense_inverse, dense_kernel, dense_rref

CONDUCTORS = (1, 4, 5, 6)
# (rows, columns): empty (0 x 0 too), single entry, wide, tall and square
SHAPES = ((0, 0), (0, 3), (1, 1), (2, 7), (3, 8), (7, 3), (8, 2), (4, 4),
          (6, 6))


def random_entry(rng, n, density):
    if rng.random() >= density:
        return CycNum.zero(n)
    phi = len(CycNum.zero(n).coeffs)
    return CycNum(n, [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(phi)])


def random_matrix(rng, n, nrows, ncols, density):
    """Random rows; about a third of the time the last rows are combinations
    of the earlier ones, so some matrices are rank deficient."""
    rows = [[random_entry(rng, n, density) for _ in range(ncols)]
            for _ in range(nrows)]
    if nrows > 2 and rng.random() < 0.35:
        for k in range(nrows // 2, nrows):
            a, b = random_entry(rng, n, 1.0), random_entry(rng, n, 1.0)
            rows[k] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


def matrices(n):
    """(column count, matrix) pairs: a zero and three random matrices of
    each shape."""
    rng = random.Random(1000 + n)
    out = []
    for nrows, ncols in SHAPES:
        out.append((ncols, [[CycNum.zero(n)] * ncols for _ in range(nrows)]))
        for density in (0.15, 0.5, 1.0):
            out.append((ncols, random_matrix(rng, n, nrows, ncols, density)))
    return out


def frac(x: CycNum) -> FracCyclo:
    return FracCyclo(x.conductor, list(x.coeffs))


def as_frac(matrix):
    return [[frac(x) for x in row] for row in matrix]


def sparse(matrix):
    """The rows {column: entry} that `rank` and `row_spaces_equal` take."""
    return [{c: x for c, x in enumerate(row) if not x.is_zero()}
            for row in matrix]


def coeffs(matrix):
    return [[tuple(x.coeffs) for x in row] for row in matrix]


@pytest.mark.parametrize("n", CONDUCTORS)
def test_rref_and_rank_match_dense_reference(n):
    """The forward echelon form has the pivot columns of the reduced row
    echelon form, which `kernel_basis` and `mat_inverse` rely on."""
    for _, m in matrices(n):
        ref_pivots = dense_rref(as_frac(m), n)[1]
        assert sorted(_echelon(sparse(m), {})) == ref_pivots
        assert rank(sparse(m)) == len(ref_pivots)


@pytest.mark.parametrize("n", CONDUCTORS)
def test_row_spaces_equal_ignores_order_and_dependent_rows(n):
    rng = random.Random(n)
    for ncols, m in matrices(n):
        if not m or not ncols:
            continue
        shuffled = m[::-1] + [[x + y for x, y in zip(m[0], m[-1])]]
        assert row_spaces_equal(sparse(m), sparse(shuffled))
        if rank(sparse(m)) < len(m[0]):
            extra = [random_entry(rng, n, 1.0) for _ in m[0]]
            assert row_spaces_equal(sparse(m), sparse(m + [extra])) == (
                rank(sparse(m + [extra])) == rank(sparse(m)))


@pytest.mark.parametrize("n", CONDUCTORS)
def test_kernel_basis_matches_dense_reference(n):
    for ncols, m in matrices(n):
        kernel = kernel_basis(m, ncols, n)
        assert coeffs(kernel) == coeffs(dense_kernel(as_frac(m), ncols, n))
        for vec in kernel:
            for row in m:
                total = CycNum.zero(n)
                for x, y in zip(row, vec):
                    total = total + x * y
                assert total.is_zero()


@pytest.mark.parametrize("n", CONDUCTORS)
def test_mat_inverse_matches_dense_reference(n):
    for ncols, m in matrices(n):
        if len(m) != ncols:
            continue
        expected = dense_inverse(as_frac(m), n)
        if expected is None:
            with pytest.raises(SingularMatrixError):
                mat_inverse(m)
        else:
            assert coeffs(mat_inverse(m)) == coeffs(expected)

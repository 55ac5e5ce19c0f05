"""Exact linear algebra over cyclotomic scalars.

Matrices are lists of row lists.  Row reduction works on sparse rows
{column: CycNum}, because the matrices built here (multiplication maps on
normal words, crossed-product coordinates) are mostly zero; the dimensions
are small (at most a few hundred rows).  `rank` and `row_spaces_equal` take
such sparse rows directly, keyed by whatever the caller holds (normal words,
crossed-product monomials), and eliminate forward only.
"""

from __future__ import annotations

from .cyclo import CycNum
from .errors import CotwistError

Matrix = list


class SingularMatrixError(CotwistError):
    pass


def identity(n: int, conductor: int) -> Matrix:
    zero, one = CycNum.zero(conductor), CycNum.one(conductor)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _subtract(row: dict, factor: CycNum, pivot: dict) -> None:
    """row -= factor * pivot, in place; entries that cancel are deleted."""
    for k, x in pivot.items():
        y = row.get(k)
        y = factor.neg_mul(x) if y is None else y.sub_mul(factor, x)
        if y.is_zero():
            del row[k]
        else:
            row[k] = y


def _sparse_rref(matrix: Matrix) -> tuple[list, list[int]]:
    """Gauss-Jordan elimination on sparse rows {column: CycNum}: pivots are
    chosen column by column as in the dense algorithm, and a row operation
    touches only the nonzero entries of the pivot row."""
    rows = [{c: x for c, x in enumerate(row) if not x.is_zero()}
            for row in matrix]
    pivots = []
    r = 0
    for c in sorted(set().union(*rows)):
        pivot_row = next((i for i in range(r, len(rows)) if c in rows[i]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inverse()
        pivot = rows[r] = {k: x * inv for k, x in rows[r].items()}
        for i, row in enumerate(rows):
            factor = row.get(c)
            if factor is not None and i != r:
                _subtract(row, factor, pivot)
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _dense(rows: list, ncols: int, zero: CycNum) -> Matrix:
    out = []
    for row in rows:
        dense = [zero] * ncols
        for c, x in row.items():
            dense[c] = x
        out.append(dense)
    return out


def rref(matrix: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rows, pivot column list)."""
    if not matrix or not matrix[0]:
        return [list(r) for r in matrix], []
    rows, pivots = _sparse_rref(matrix)
    zero = CycNum.zero(matrix[0][0].conductor)
    return _dense(rows, len(matrix[0]), zero), pivots


def _echelon(rows, pivots: dict) -> dict:
    """Add sparse `rows` to the echelon form `pivots`, which maps a column c
    to the row whose least column is c.  Each row is reduced only at its
    least column until that column is no pivot's (forward elimination), and
    then becomes a pivot itself, unscaled: most rows never eliminate one."""
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                pivots[c] = row
                break
            _subtract(row, row[c] / pivot[c], pivot)
    return pivots


def rank(rows: list) -> int:
    """The rank of sparse rows {column: CycNum}; columns are any mutually
    comparable keys, such as normal words."""
    return len(_echelon(rows, {}))


def row_spaces_equal(a: list, b: list) -> bool:
    """Whether sparse rows `a` and `b` span the same space: b adds no pivot
    to the echelon form of a, and the two ranks agree."""
    pivots = _echelon(a, {})
    rank_a = len(pivots)
    return len(_echelon(b, pivots)) == rank_a == rank(b)


def kernel_basis(matrix: Matrix, ncols: int, conductor: int) -> list:
    """Basis of the right kernel.  Each vector is scaled so its first nonzero
    coordinate is 1; vectors are ordered by that coordinate's index."""
    rows, pivots = _sparse_rref(matrix)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    zero = CycNum.zero(conductor)
    one = CycNum.one(conductor)
    for f in free:
        vec = [zero] * ncols
        vec[f] = one
        for r, p in enumerate(pivots):
            x = rows[r].get(f)
            if x is not None:
                vec[p] = -x
        first = next(i for i, x in enumerate(vec) if not x.is_zero())
        scale = vec[first].inverse()
        vec = [x * scale for x in vec]
        basis.append((first, vec))
    basis.sort(key=lambda pair: pair[0])
    return [vec for _, vec in basis]


def mat_inverse(matrix: Matrix) -> Matrix:
    n = len(matrix)
    if any(len(r) != n for r in matrix):
        raise SingularMatrixError("matrix is not square")
    conductor = matrix[0][0].conductor
    aug = [list(row) + list(idrow)
           for row, idrow in zip(matrix, identity(n, conductor))]
    rows, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in rows[:n]]

"""Exact linear algebra over cyclotomic scalars.

Row reduction works on sparse rows {column: CycNum}, because the matrices
built here (multiplication maps on normal words, crossed-product
coordinates) are mostly zero; the dimensions are small (at most a few
hundred rows).  There is one elimination, `_echelon`, and it runs forward
only.  `rank` and `row_spaces_equal` take sparse rows directly, keyed by
whatever the caller holds (normal words, crossed-product monomials).
`kernel_basis` and `mat_inverse` take dense matrices (lists of row lists)
and back-substitute in the echelon form: a row echelon form has the pivot
columns of the reduced one, so each kernel vector is fixed by its values at
the columns that hold no pivot.
"""

from __future__ import annotations

from .cyclo import CycNum
from .errors import CotwistError

Matrix = list


class SingularMatrixError(CotwistError):
    pass


def _subtract(row: dict, factor: CycNum, pivot: dict) -> None:
    """row -= factor * pivot, in place; entries that cancel are deleted."""
    for k, x in pivot.items():
        y = row.get(k)
        y = factor.neg_mul(x) if y is None else y.sub_mul(factor, x)
        if y.is_zero():
            del row[k]
        else:
            row[k] = y


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


def _solve(pivots: dict, free: int, conductor: int) -> dict:
    """The sparse kernel vector of the echelon form `pivots` that is 1 at
    column `free` and 0 at every other column that no pivot holds, by back
    substitution from the last pivot column to the first."""
    vec = {free: CycNum.one(conductor)}
    for p in sorted(pivots, reverse=True):
        row = pivots[p]
        total = CycNum.zero(conductor)
        for k, x in row.items():
            if k in vec:
                total = total.sub_mul(x, vec[k])
        if not total.is_zero():
            vec[p] = total / row[p]
    return vec


def _sparse(matrix: Matrix) -> list:
    return [{c: x for c, x in enumerate(row) if not x.is_zero()}
            for row in matrix]


def kernel_basis(matrix: Matrix, ncols: int, conductor: int) -> list:
    """Basis of the right kernel: one vector per column that holds no pivot
    of the echelon form.  Each vector is scaled so its first nonzero
    coordinate is 1; vectors are ordered by that coordinate's index."""
    pivots = _echelon(_sparse(matrix), {})
    zero = CycNum.zero(conductor)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            vec = _solve(pivots, f, conductor)
            scale = vec[min(vec)].inverse()
            dense = [zero] * ncols
            for c, x in vec.items():
                dense[c] = x * scale
            basis.append((min(vec), dense))
    basis.sort(key=lambda pair: pair[0])
    return [vec for _, vec in basis]


def mat_inverse(matrix: Matrix) -> Matrix:
    """The inverse of M from the echelon form of [M | -I]: column j of the
    inverse is the kernel vector that is 1 at column n + j."""
    n = len(matrix)
    if any(len(r) != n for r in matrix):
        raise SingularMatrixError("matrix is not square")
    if n == 0:
        return []
    conductor = matrix[0][0].conductor
    minus_one = -CycNum.one(conductor)
    rows = _sparse(matrix)
    for i, row in enumerate(rows):
        row[n + i] = minus_one
    pivots = _echelon(rows, {})
    if any(c >= n for c in pivots):
        raise SingularMatrixError("matrix is singular")
    zero = CycNum.zero(conductor)
    inverse = [[zero] * n for _ in range(n)]
    for j in range(n):
        for i, x in _solve(pivots, n + j, conductor).items():
            if i < n:
                inverse[i][j] = x
    return inverse

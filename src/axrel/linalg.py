"""Exact linear algebra over the tower field (small dense matrices).

Matrices are tuples of row tuples of ExactReal; all pivoting decisions
use exact zero tests, so inverses and null spaces are exact.
"""

from __future__ import annotations

from .field import ER

Vec = tuple
Mat = tuple


def matrix(rows) -> Mat:
    return tuple(tuple(ER(e) for e in row) for row in rows)


def identity(n: int) -> Mat:
    return tuple(tuple(ER(1 if i == j else 0) for j in range(n)) for i in range(n))


def mat_mul(a: Mat, b: Mat) -> Mat:
    n, m, p = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(m)), ER(0)) for j in range(p))
        for i in range(n)
    )


def mat_vec(a: Mat, v: Vec) -> Vec:
    return tuple(sum((a[i][k] * v[k] for k in range(len(v))), ER(0)) for i in range(len(a)))


def transpose(a: Mat) -> Mat:
    return tuple(tuple(a[i][j] for i in range(len(a))) for j in range(len(a[0])))


def mat_eq(a: Mat, b: Mat) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(x + y for x, y in zip(u, v))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(x - y for x, y in zip(u, v))


def _eliminate(work: list, cols: int) -> list:
    """Gauss-Jordan elimination in place on the first `cols` columns of the
    augmented rows `work`: each pivot row is scaled to 1 and its column
    cleared in every other row.  Returns the pivot columns, in row order."""
    rows = len(work)
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if not work[i][c].is_zero()), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = ER(1) / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(rows):
            if i != r and not work[i][c].is_zero():
                factor = work[i][c]
                work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return pivots


def mat_inverse(a: Mat) -> Mat:
    """Gauss-Jordan inverse; raises ValueError on singular input."""
    n = len(a)
    work = [list(row) + [ER(1 if i == j else 0) for j in range(n)] for i, row in enumerate(a)]
    if len(_eliminate(work, n)) < n:
        raise ValueError("singular matrix")
    return tuple(tuple(row[n:]) for row in work)


def solve_linear(a: Mat, b: Vec):
    """One solution of A x = b, or None if inconsistent.

    A may be rectangular; returns (solution, null_space_basis).
    """
    rows, cols = len(a), len(a[0]) if a else 0
    work = [list(row) + [bi] for row, bi in zip(a, b)]
    pivots = _eliminate(work, cols)
    for i in range(len(pivots), rows):
        if not work[i][cols].is_zero():
            return None
    free = [c for c in range(cols) if c not in pivots]
    solution = [ER(0)] * cols
    for i, c in enumerate(pivots):
        solution[c] = work[i][cols]
    basis = []
    for f in free:
        vec = [ER(0)] * cols
        vec[f] = ER(1)
        for i, c in enumerate(pivots):
            vec[c] = -work[i][f]
        basis.append(tuple(vec))
    return tuple(solution), basis


def null_space(a: Mat):
    """Basis of the exact null space of A."""
    res = solve_linear(a, tuple(ER(0) for _ in a))
    return res[1] if res else []

"""Exact Gaussian elimination over the scalar field.

Matrices are lists of lists of Scalar, eliminated plainly over the fraction
field.  The largest system solved is the full invariant-form system (1,728
rows by 16 columns at N = 4, where ``hopf._invariance_solution`` cannot
read the solution off the cofactor expansions).
"""

from __future__ import annotations

from .scalars import ONE, ZERO, Scalar


def zeros(rows: int, cols: int):
    return [[ZERO] * cols for _ in range(rows)]


def identity(n: int):
    M = zeros(n, n)
    for i in range(n):
        M[i][i] = ONE
    return M


def mat_mul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0])
    out = zeros(rows, cols)
    for i in range(rows):
        for k in range(inner):
            a = A[i][k]
            if a.is_zero:
                continue
            for j in range(cols):
                b = B[k][j]
                if not b.is_zero:
                    out[i][j] = out[i][j] + a * b
    return out


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A, c: Scalar):
    return [[a * c for a in row] for row in A]


def transpose(A):
    return [list(col) for col in zip(*A)]


def is_zero_matrix(A) -> bool:
    return all(a.is_zero for row in A for a in row)


def rref(A):
    """Reduced row echelon form; returns (R, pivot column list)."""
    M = [row[:] for row in A]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if not M[i][c].is_zero), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        inv = M[r][c].inverse()
        M[r] = [x * inv for x in M[r]]
        for i in range(rows):
            if i != r and not M[i][c].is_zero:
                f = M[i][c]
                M[i] = [x if y.is_zero else x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return M, pivots


def rank(A) -> int:
    if not A:
        return 0
    return len(rref(A)[1])


def nullspace(A):
    """Basis of the right nullspace, one vector per free column.  Repeated
    rows are dropped before elimination: the row space, and so its reduced
    echelon form, stays the same (the full invariant-form systems of uq 4
    have 1,728 rows, 340 and 337 of them distinct)."""
    if not A:
        return []
    R, pivots = rref(list(dict.fromkeys(map(tuple, A))))
    cols = len(A[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        basis.append(v)
    return basis


def same_column_space(A, B) -> bool:
    """Do the columns of A and B span the same subspace?"""
    At = transpose(A) if A else []
    Bt = transpose(B) if B else []
    ra, rb = rank(At), rank(Bt)
    if ra != rb:
        return False
    return rank(At + Bt) == ra

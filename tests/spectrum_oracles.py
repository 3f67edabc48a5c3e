"""Test oracles for the sphere's Peter-Weyl dimensions: Gelfand-Tsetlin
patterns listed one by one, and the bidegree-(a, b) component's dimension
as the exact rank of the span of its products, computed by rewriting."""

from itertools import product

from qsphere.errors import InvalidTopRow
from qsphere.freealg import NcPoly, z, zs
from qsphere.linalg import rank
from qsphere.presentations import build
from qsphere.spectrum import dim_irrep


def enumerate_gt(top_row):
    """All Gelfand-Tsetlin patterns with the given (weakly decreasing,
    nonnegative integer) top row, as tuples of rows."""
    top = tuple(int(x) for x in top_row)
    if any(a < b for a, b in zip(top, top[1:])) or (top and top[-1] < 0):
        raise InvalidTopRow(f"not weakly decreasing nonnegative: {top}")

    if not top:
        return [()]
    # depth-first on an explicit stack: a pattern is a path of entry
    # choices, row by row and left to right, and each row's choices run
    # from cur[j] down to cur[j + 1] (interlacing), so they are pushed in
    # increasing order and the largest is popped first
    out = []
    stack = [((top,), ())]  # (rows so far, the next row so far)
    while stack:
        rows, partial = stack.pop()
        cur = rows[-1]
        j = len(partial)
        if len(cur) == 1:
            out.append(rows)
        elif j == len(cur) - 1:
            stack.append((rows + (partial,), ()))
        else:
            stack.extend((rows, partial + (v,)) for v in range(cur[j + 1], cur[j] + 1))
    return out


def bigraded_dimension(N: int, a: int, b: int) -> int:
    """Dimension of the bidegree-(a, b) component predicted by the
    decomposition into irreducibles: sum over j of dim V_{a-j, b-j}."""
    return sum(dim_irrep(N, a - j, b - j) for j in range(0, min(a, b) + 1))


def bigraded_dim_check(N: int, a: int, b: int) -> dict:
    """Compare the representation-theoretic dimension of the bidegree-(a, b)
    component against the rank, computed by rewriting, of the span of all
    products of a coordinates and b adjoint coordinates."""
    sphere = build("sphere", N)
    polys = []
    words = set()
    for zi in product(range(1, N + 1), repeat=a):
        for zj in product(range(1, N + 1), repeat=b):
            w = tuple(z(i) for i in zi) + tuple(zs(j) for j in zj)
            p = sphere.nf(NcPoly.monomial(w))
            polys.append(p)
            words.update(p.terms)
    words = sorted(words)
    span_rank = rank([[p.coeff(w) for w in words] for p in polys])
    predicted = bigraded_dimension(N, a, b)
    return {"N": N, "bidegree": [a, b], "rank": span_rank,
            "predicted": predicted, "equal": span_rank == predicted}

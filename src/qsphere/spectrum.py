"""Dirac spectrum on the odd-dimensional quantum spheres.

Multiplicities are dimensions of irreducibles: the bidegree (n, k) part of
the sphere algebra carries the irreducible with highest weight
(n + k, k, ..., k, 0), whose dimension is the number of interlacing
triangular Gelfand-Tsetlin patterns with that top row.  ``dim_irrep`` takes
it from Weyl's product formula; ``enumerate_gt`` lists the patterns and is
the test oracle for the formula.
"""

from __future__ import annotations

from itertools import combinations, product
from math import prod

from .errors import InvalidTopRow
from .freealg import NcPoly, z, zs
from .linalg import rank
from .presentations import build


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


def _top_row(N: int, n: int, k: int):
    if n < 0 or k < 0:
        raise InvalidTopRow(f"bidegree out of range: ({n}, {k})")
    return (n + k,) + (k,) * (N - 2) + (0,)


def weyl_dim(top) -> int:
    """Weyl's product formula for the dimension of the irreducible with
    highest weight ``top``: with l_i = top_i + n - 1 - i for i < n, the
    product of l_i - l_j over i < j divided by that of j - i.  It equals
    the number of Gelfand-Tsetlin patterns with top row ``top``."""
    n = len(top)
    shifted = [top[i] + n - 1 - i for i in range(n)]
    pairs = list(combinations(range(n), 2))
    return prod(shifted[i] - shifted[j] for i, j in pairs) // prod(j - i for i, j in pairs)


def dim_irrep(N: int, n: int, k: int) -> int:
    """Dimension of the bidegree-(n, k) irreducible summand: the count of
    patterns with top row (n+k, k, ..., k, 0) of length N."""
    if N < 2:
        raise InvalidTopRow("need N >= 2")
    return weyl_dim(_top_row(N, n, k))


def d_eigenvalue(n: int, k: int) -> int:
    """Dirac eigenvalue on the (n, k) summand."""
    return -k if n == 0 else n + k


def spectrum_with_multiplicities(N: int, max_eig: int):
    """Eigenvalues with multiplicities, |lambda| <= max_eig.

    Returns a dict with keys ``spectrum`` (sorted list of
    ``{"eigenvalue": lam, "multiplicity": m, "summands": [...]}``) and
    ``status`` ("pass", or "flagged" for N = 2 where the eigenvalue
    assignment is extrapolated from the N >= 3 pattern).
    """
    buckets: dict[int, list] = {}
    # n + k <= max_eig covers every |eigenvalue| <= max_eig
    for n in range(0, max_eig + 1):
        for k in range(0, max_eig + 1 - (n if n else 0)):
            lam = d_eigenvalue(n, k)
            if abs(lam) > max_eig:
                continue
            buckets.setdefault(lam, []).append((n, k))
    spectrum = []
    for lam in sorted(buckets):
        pairs = sorted(buckets[lam])
        mult = sum(dim_irrep(N, n, k) for n, k in pairs)
        spectrum.append(
            {
                "eigenvalue": lam,
                "multiplicity": mult,
                "summands": [{"n": n, "k": k, "dim": dim_irrep(N, n, k)} for n, k in pairs],
            }
        )
    return {
        "N": N,
        "max_eig": max_eig,
        "spectrum": spectrum,
        "status": "flagged" if N == 2 else "pass",
        "note": "eigenvalue assignment extrapolated" if N == 2 else None,
    }


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

"""Dirac spectrum on the odd-dimensional quantum spheres.

Multiplicities are dimensions of irreducibles: the bidegree (n, k) part of
the sphere algebra carries the irreducible with highest weight
(n + k, k, ..., k, 0), whose dimension is the number of interlacing
triangular Gelfand-Tsetlin patterns with that top row.  ``dim_irrep`` takes
it from Weyl's product formula.  The tests hold the pattern enumeration as
the oracle for the formula, and the ``gt-spectrum-thm76`` check ties each
dimension to the algebra by counting the sphere's normal words of that
bidegree.
"""

from __future__ import annotations

from itertools import combinations
from math import prod

from .errors import InvalidTopRow


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
    # |d_eigenvalue(n, k)| is k or n + k, so n + k <= max_eig is exactly
    # |eigenvalue| <= max_eig
    for n in range(0, max_eig + 1):
        for k in range(0, max_eig + 1 - n):
            buckets.setdefault(d_eigenvalue(n, k), []).append((n, k))
    spectrum = []
    for lam in sorted(buckets):
        summands = [{"n": n, "k": k, "dim": dim_irrep(N, n, k)} for n, k in sorted(buckets[lam])]
        spectrum.append(
            {
                "eigenvalue": lam,
                "multiplicity": sum(s["dim"] for s in summands),
                "summands": summands,
            }
        )
    return {
        "N": N,
        "max_eig": max_eig,
        "spectrum": spectrum,
        "status": "flagged" if N == 2 else "pass",
        "note": "eigenvalue assignment extrapolated" if N == 2 else None,
    }

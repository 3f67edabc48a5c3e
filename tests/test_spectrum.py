"""Gelfand-Tsetlin counting, the Dirac eigenvalue ledger, and the count of
the sphere's normal words in each bidegree against both."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from qsphere.errors import InvalidTopRow
from qsphere.presentations import build
from qsphere.spectrum import d_eigenvalue, dim_irrep, spectrum_with_multiplicities, weyl_dim
from spectrum_oracles import bigraded_dim_check, bigraded_dimension, enumerate_gt


def test_gt_enumeration_small():
    pats = enumerate_gt((1, 0))
    assert len(pats) == 2
    assert enumerate_gt((0, 0)) == [((0, 0), (0,))]


@given(st.lists(st.integers(0, 4), min_size=2, max_size=4))
@settings(max_examples=40, deadline=None)
def test_gt_count_matches_weyl_formula(rows):
    top = tuple(sorted(rows, reverse=True))
    # enumeration is the oracle for the product formula dim_irrep uses
    assert len(enumerate_gt(top)) == weyl_dim(top)


def test_gt_interlacing_property():
    for pat in enumerate_gt((2, 1, 0)):
        for upper, lower in zip(pat, pat[1:]):
            for j, v in enumerate(lower):
                assert upper[j] >= v >= upper[j + 1]


def test_invalid_top_rows():
    with pytest.raises(InvalidTopRow):
        enumerate_gt((1, 2))
    with pytest.raises(InvalidTopRow):
        enumerate_gt((2, -1))
    with pytest.raises(InvalidTopRow):
        dim_irrep(1, 1, 0)


def test_dim_irrep_values():
    assert dim_irrep(2, 0, 0) == 1
    assert dim_irrep(2, 1, 0) == 2
    assert dim_irrep(3, 1, 0) == 3
    assert dim_irrep(3, 0, 1) == 3
    assert dim_irrep(3, 1, 1) == 8
    assert dim_irrep(3, 2, 0) == 6


@pytest.mark.parametrize("n, k", [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
def test_dim_irrep_at_large_n_matches_weyl_formula(n, k):
    # the patterns nest about N^2/2 choices deep, past the recursion limit
    top = (n + k,) + (k,) * 58 + (0,)
    assert dim_irrep(60, n, k) == weyl_dim(top) == len(enumerate_gt(top))


@given(st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=25, deadline=None)
def test_dim_symmetry(n, k):
    # the (n, k) and (k, n) summands are dual, hence equidimensional
    assert dim_irrep(3, n, k) == dim_irrep(3, k, n)


def test_d_eigenvalue_case_split():
    assert d_eigenvalue(0, 3) == -3
    assert d_eigenvalue(0, 0) == 0
    assert d_eigenvalue(2, 1) == 3
    assert d_eigenvalue(1, 0) == 1


def test_spectrum_n3_multiplicities():
    out = spectrum_with_multiplicities(3, 2)
    assert out["status"] == "pass"
    mult = {e["eigenvalue"]: e["multiplicity"] for e in out["spectrum"]}
    assert mult[-1] == 3
    assert mult[1] == 3
    assert mult[2] == 14
    assert mult[-2] == 6
    assert mult[0] == 1
    two = next(e for e in out["spectrum"] if e["eigenvalue"] == 2)
    assert sorted((s["n"], s["k"], s["dim"]) for s in two["summands"]) == [
        (1, 1, 8),
        (2, 0, 6),
    ]


def test_spectrum_n2_flagged():
    out = spectrum_with_multiplicities(2, 2)
    assert out["status"] == "flagged"
    assert out["note"]


def test_bigraded_dimension_and_rank():
    assert bigraded_dimension(3, 1, 1) == 8 + 1
    out = bigraded_dim_check(3, 1, 1)
    assert out["rank"] == 9
    assert out["equal"]


def test_bigraded_rank_n2():
    out = bigraded_dim_check(2, 2, 1)
    assert out["equal"]


def _bidegree(word):
    """(letters z_i, letters z*_i) of a sphere word."""
    a = sum(g[0] == "z" for g in word)
    return (a, len(word) - a)


def _bidegree_counts(N, max_degree):
    P = build("sphere", N)
    grade = {g: _bidegree((g,)) for g in P.generators}
    return P, P.system.count_normal_words(grade, max_degree)


@pytest.mark.parametrize("N, degree", [(2, 10), (3, 7), (4, 6), (5, 5), (6, 4)])
def test_normal_word_count_matches_enumeration_and_dim_irrep(N, degree):
    P, counts = _bidegree_counts(N, degree)
    listed = Counter(_bidegree(w) for level in P.system.enumerate_basis(degree) for w in level)
    assert counts == dict(listed)
    assert len(counts) == (degree + 1) * (degree + 2) // 2
    for (a, b), c in counts.items():
        assert c == dim_irrep(N, a, b)


@pytest.mark.parametrize("N, pairs", [
    (2, [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]),
    (3, [(1, 1), (2, 1), (1, 2), (2, 2)]),
])
def test_filtered_count_matches_the_rank_of_the_products(N, pairs):
    # the products of a letters z_i and b letters z*_i span the sum of the
    # (a - j, b - j) parts: the rank oracle and the count agree on it
    _, counts = _bidegree_counts(N, max(a + b for a, b in pairs))
    for a, b in pairs:
        filtered = sum(counts[(a - j, b - j)] for j in range(min(a, b) + 1))
        out = bigraded_dim_check(N, a, b)
        assert out["equal"] and filtered == out["rank"] == bigraded_dimension(N, a, b)

"""Rewriting engine: termination, determinism, confluence, basis counts."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from qsphere.errors import AlphabetMismatch, DuplicateRule, NonTerminatingRule
from qsphere.freealg import NcPoly, z, zs
from qsphere.presentations import build
from qsphere.rewrite import MonomialOrder, RewriteSystem, Rule
from qsphere.scalars import DeformationContext, ONE

A, B, C = ("g", 1), ("g", 2), ("g", 3)


def test_order_degree_first():
    order = MonomialOrder([A, B, C])
    assert order.less((C,), (A, A))
    assert order.less((A, C), (B, A))
    assert not order.less((B,), (A,))


def test_rule_validation():
    order = MonomialOrder([A, B])
    Rule((B, A), NcPoly.monomial((A, B))).validate(order)
    with pytest.raises(NonTerminatingRule):
        Rule((A, B), NcPoly.monomial((B, A))).validate(order)
    with pytest.raises(NonTerminatingRule):
        Rule((A,), NcPoly.monomial((A, A))).validate(order)


def test_duplicate_lhs_rejected():
    order = MonomialOrder([A, B])
    r = Rule((B, A), NcPoly.monomial((A, B)))
    with pytest.raises(DuplicateRule):
        RewriteSystem(order, [r, Rule((B, A), NcPoly.unit())])


def test_alphabet_mismatch():
    order = MonomialOrder([A, B])
    with pytest.raises(AlphabetMismatch):
        RewriteSystem(order, [Rule((C, A), NcPoly.unit())])
    sys_ = RewriteSystem(order, [])
    with pytest.raises(AlphabetMismatch):
        sys_.normal_form(NcPoly.gen(C))


def test_simple_commutation_confluent():
    order = MonomialOrder([A, B, C])
    rules = [
        Rule((B, A), NcPoly.monomial((A, B))),
        Rule((C, A), NcPoly.monomial((A, C))),
        Rule((C, B), NcPoly.monomial((B, C))),
    ]
    sys_ = RewriteSystem(order, rules)
    rep = sys_.check_confluence()
    assert rep.confluent
    nf = sys_.normal_form(NcPoly.monomial((C, B, A)))
    assert nf == NcPoly.monomial((A, B, C))


def test_nonconfluent_detected():
    # ba -> a and ba -> ... cannot conflict with one rule; use ab->a, ba->b:
    # the overlap aba resolves two ways to different results
    order = MonomialOrder([A, B])
    rules = [Rule((A, B), NcPoly.gen(A)), Rule((B, A), NcPoly.gen(B))]
    sys_ = RewriteSystem(order, rules)
    rep = sys_.check_confluence()
    assert not rep.confluent
    assert rep.to_dict()["unresolved"]


def test_normal_form_idempotent_sphere():
    P = build("sphere", 2)
    a = NcPoly.monomial((zs(1), z(1), zs(2), z(2)))
    nf = P.nf(a)
    assert P.nf(nf) == nf


def test_reduction_deterministic():
    P = build("sphere", 3)
    a = NcPoly.monomial((zs(2), z(2), zs(1), z(3)))
    assert P.nf(a) == P.nf(a)


@settings(max_examples=30)
@given(st.lists(st.sampled_from([z(1), z(2), zs(1), zs(2)]), max_size=5))
def test_nf_multiplicative_when_confluent(word):
    # confluence certified => normal_form(a*b) = normal_form(nf(a)*nf(b))
    P = build("sphere", 2)
    mid = max(0, len(word) // 2)
    a = NcPoly.monomial(tuple(word[:mid]))
    b = NcPoly.monomial(tuple(word[mid:]))
    assert P.nf(a * b) == P.nf(P.nf(a) * P.nf(b))


def test_basis_enumeration_matches_irreducibility():
    P = build("mq", 2)
    graded = P.system.enumerate_basis(3)
    for level in graded:
        for w in level:
            assert P.system.is_irreducible_word(w)
    # ordered monomials in N^2 = 4 letters
    from math import comb

    for d, level in enumerate(graded):
        assert len(level) == comb(d + 3, 3)


def test_inclusion_ambiguities_counted():
    # determinant rules have length-N lhs containing length-2 lhs
    P = build("suq", 2)
    rep = P.system.check_confluence()
    assert rep.confluent
    assert rep.total > 0


def _linear_scan_redex(system, word):
    """Reference redex search: every rule at every position, in list order."""
    for pos in range(len(word)):
        for idx, rule in enumerate(system.rules):
            if word[pos : pos + len(rule.lhs)] == rule.lhs:
                return (pos, idx)
    return None


@pytest.mark.parametrize(
    "algebra,N",
    [(a, n) for a in ("mq", "suq", "uq", "sphere") for n in (2, 3)] + [("uq", 4)],
)
def test_indexed_redex_matches_linear_scan(algebra, N):
    # suq and uq are not confluent, so their normal forms depend on the redex
    # choice: the lhs index must pick the same (position, rule) as the scan.
    # The built systems list the long determinant rules last; the reversed
    # list makes a long lhs win a tie at the same position.
    built = build(algebra, N).system
    rng = random.Random(f"{algebra}{N}")
    gens = built.order.precedence
    long_lhs = [r.lhs for r in built.rules if len(r.lhs) > 2]
    for system in (built, RewriteSystem(built.order, built.rules[::-1])):
        for _ in range(300):
            word = [rng.choice(gens) for _ in range(rng.randint(0, 9))]
            if long_lhs and rng.random() < 0.5:
                at = rng.randint(0, len(word))
                word[at:at] = rng.choice(long_lhs)
            word = tuple(word)
            assert system._find_redex(word) == _linear_scan_redex(system, word)

"""Rewriting engine: termination, determinism, confluence, basis counts."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from qsphere.errors import AlphabetMismatch, DuplicateRule, NonTerminatingRule
from qsphere.freealg import NcPoly, z, zs
from qsphere.presentations import build, build_free_matrix
from qsphere.rewrite import MonomialOrder, RewriteSystem, Rule

A, B, C = ("g", 1), ("g", 2), ("g", 3)


def test_order_degree_first():
    order = MonomialOrder([A, B, C])
    assert order.key((C,)) < order.key((A, A))
    assert order.key((A, C)) < order.key((B, A))
    assert not order.key((B,)) < order.key((A,))


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
            assert P.nf(NcPoly.monomial(w)) == NcPoly.monomial(w)
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


SYSTEMS = pytest.mark.parametrize(
    "algebra,N",
    [(a, n) for a in ("mq", "suq", "uq", "sphere") for n in (2, 3)] + [("uq", 4)],
)


def _systems_and_words(algebra, N, count, max_len=9):
    """The built rule order and the reversed one, each with random words.

    The built systems list the long determinant rules last; the reversed
    list makes a long lhs win a tie at the same position.  About half of
    the words have a long lhs inserted, so that determinant rules fire.
    """
    built = build(algebra, N).system
    rng = random.Random(f"{algebra}{N}")
    gens = built.order.precedence
    long_lhs = [r.lhs for r in built.rules if len(r.lhs) > 2]
    for system in (built, RewriteSystem(built.order, built.rules[::-1])):
        words = []
        for _ in range(count):
            word = [rng.choice(gens) for _ in range(rng.randint(0, max_len))]
            if long_lhs and rng.random() < 0.5:
                at = rng.randint(0, len(word))
                word[at:at] = rng.choice(long_lhs)
            words.append(tuple(word))
        yield system, words, rng


@SYSTEMS
def test_indexed_redex_matches_linear_scan(algebra, N):
    # suq and uq are not confluent, so their normal forms depend on the redex
    # choice: the lhs index must pick the same (position, rule) as the scan.
    for system, words, _ in _systems_and_words(algebra, N, 300):
        for word in words:
            assert system._find_redex(word) == _linear_scan_redex(system, word)


@SYSTEMS
def test_redex_search_from_start_matches_linear_scan(algebra, N):
    # any start at or before the leftmost redex finds that same redex
    for system, words, rng in _systems_and_words(algebra, N, 300):
        for word in words:
            hit = _linear_scan_redex(system, word)
            start = rng.randint(0, len(word) if hit is None else hit[0])
            assert system._find_redex(word, start) == hit


@SYSTEMS
def test_redex_search_on_a_list_matches_the_tuple(algebra, N):
    # reduce_word follows one-term runs on a list; suq and uq are not
    # confluent, so the list must give the tuple's (position, rule)
    for system, words, rng in _systems_and_words(algebra, N, 300):
        for word in words:
            start = rng.randint(0, len(word))
            assert system._find_redex(list(word)) == system._find_redex(word)
            assert system._find_redex(list(word), start) == system._find_redex(word, start)


def _reference_reduce_word(system, word, cache):
    """Normal form by the plain engine: every word met is cached, and every
    redex search starts at position 0.  Each step rewrites the leftmost
    redex with the lowest rule index and sums the reduced rhs terms in rhs
    order, so the result, its term order included, is what ``reduce_word``
    must give.
    """
    stack = [(word, None)]
    while stack:
        w, children = stack[-1]
        if children is None:
            if w in cache:
                stack.pop()
                continue
            hit = system._find_redex(w)
            if hit is None:
                cache[w] = NcPoly.monomial(w)
                stack.pop()
                continue
            pos, idx = hit
            rule = system.rules[idx]
            pre, suf = w[:pos], w[pos + len(rule.lhs) :]
            children = [(pre + r + suf, c) for r, c in rule.rhs.terms.items()]
            stack[-1] = (w, children)
            pending = [(x, None) for x, _ in reversed(children) if x not in cache]
            if pending:
                stack.extend(pending)
                continue
        stack.pop()
        result = NcPoly()
        for x, c in children:
            for w2, c2 in cache[x].scale(c).terms.items():
                result._iadd_term(w2, c2)
        cache[w] = result
    return cache[word]


def _assert_matches_reference(system, words):
    ref_cache = {}
    for word in words:
        got = system.reduce_word(word)
        want = _reference_reduce_word(system, word, ref_cache)
        assert list(got.terms.items()) == list(want.terms.items())
    # every word the engine caches is one the reference met, with the same
    # normal form in the same term order
    assert system._nf_cache.keys() <= ref_cache.keys()
    for w, nf in system._nf_cache.items():
        assert list(nf.terms.items()) == list(ref_cache[w].terms.items())


@SYSTEMS
def test_reduce_word_matches_reference_engine(algebra, N):
    # suq and uq are not confluent, so this pins the redex choice of every
    # step, not only the linear map on a confluent system
    max_len = 6 if (algebra, N) == ("uq", 4) else 8
    for system, words, _ in _systems_and_words(algebra, N, 150, max_len):
        _assert_matches_reference(system, words)


def test_reduce_word_without_rules():
    system = build_free_matrix(2).system
    gens = system.order.precedence
    rng = random.Random("free")
    words = [tuple(rng.choice(gens) for _ in range(rng.randint(0, 6))) for _ in range(50)]
    _assert_matches_reference(system, words)
    assert all(system.reduce_word(w) == NcPoly.monomial(w) for w in words)


def test_single_term_chain_caches_only_its_ends():
    # z[2]^k*z[1] -> q^-k z[1]*z[2]^k is k one-term steps; the words in
    # between are not cached
    built = build("sphere", 2).system
    system = RewriteSystem(built.order, built.rules)
    k = 1500
    nf = system.normal_form(NcPoly.monomial((z(2),) * k + (z(1),)))
    assert list(nf.terms) == [(z(1),) + (z(2),) * k]
    assert len(system._nf_cache) <= 2

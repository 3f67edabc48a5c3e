"""Rewriting engine: termination, determinism, confluence, basis counts."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from qsphere.errors import AlphabetMismatch, DuplicateRule, NonTerminatingRule
from qsphere.freealg import NcPoly, z, zs
from qsphere.presentations import build, build_exterior, build_free_matrix, build_torus
from qsphere.rewrite import MonomialOrder, RewriteSystem, Rule, _add_scaled
from qsphere.scalars import ONE, QPARAM, Scalar

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
    with pytest.raises(AlphabetMismatch):
        RewriteSystem(order, [Rule((B, A), NcPoly.gen(C))])
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


@pytest.mark.parametrize("algebra, N, degree", [
    ("mq", 2, 4), ("suq", 2, 4), ("suq", 3, 4), ("uq", 2, 3), ("sphere", 3, 4),
])
def test_normal_word_count_matches_enumeration(algebra, N, degree):
    # graded by each letter's own count, so the count sees every letter
    # multiset; suq 3 has left sides of lengths 2 and 3
    P = build(algebra, N)
    gens = P.generators
    grade = {g: tuple(int(g == h) for h in gens) for g in gens}
    listed = {}
    for level in P.system.enumerate_basis(degree):
        for w in level:
            key = tuple(w.count(h) for h in gens)
            listed[key] = listed.get(key, 0) + 1
    assert P.system.count_normal_words(grade, degree) == listed


def test_inclusion_ambiguities_counted():
    # determinant rules have length-N lhs containing length-2 lhs
    P = build("suq", 2)
    rep = P.system.check_confluence()
    assert rep.confluent
    assert rep.total > 0


def _pairwise_ambiguities(system):
    """Reference ambiguity search: every rule against every rule, in
    rule-pair order, overlaps by k before inclusions by position."""
    for ia, ra in enumerate(system.rules):
        for ib, rb in enumerate(system.rules):
            for k in range(1, min(len(ra.lhs), len(rb.lhs))):
                if ra.lhs[-k:] == rb.lhs[:k]:
                    yield (
                        "overlap", ia, ib, ra.lhs + rb.lhs[k:],
                        ra.rhs * NcPoly.monomial(rb.lhs[k:]),
                        NcPoly.monomial(ra.lhs[:-k]) * rb.rhs,
                    )
            if ia != ib and len(rb.lhs) < len(ra.lhs):
                for pos in range(len(ra.lhs) - len(rb.lhs) + 1):
                    if ra.lhs[pos : pos + len(rb.lhs)] == rb.lhs:
                        pre = ra.lhs[:pos]
                        suf = ra.lhs[pos + len(rb.lhs) :]
                        yield (
                            "inclusion", ia, ib, ra.lhs, ra.rhs,
                            NcPoly.monomial(pre) * rb.rhs * NcPoly.monomial(suf),
                        )


def _ambiguity_systems():
    """Built systems in their own and in reversed rule order, the exterior
    algebra, the torus, and a small system with left sides of one to three
    letters that overlap themselves and hold one another."""
    for algebra in ("mq", "suq", "uq", "sphere"):
        for N in (1, 2, 3):
            system = build(algebra, N).system
            yield f"{algebra}{N}", system
            yield f"{algebra}{N}-reversed", RewriteSystem(system.order, system.rules[::-1])
    yield "exterior3", build_exterior(3).system
    yield "torus2", build_torus(2).system
    small = [
        Rule((A, A, A), NcPoly.monomial((A,))),
        Rule((B, A), NcPoly.monomial((A, B), QPARAM)),
        Rule((C,), NcPoly.monomial((A,))),
        Rule((B, B, A), NcPoly.monomial((A, A))),
        Rule((A, C), NcPoly()),
    ]
    yield "small", RewriteSystem(MonomialOrder([A, B, C]), small)


@pytest.mark.parametrize("name,system", list(_ambiguity_systems()),
                         ids=[n for n, _ in _ambiguity_systems()])
def test_indexed_ambiguities_match_the_pairwise_search(name, system):
    # the lookup of overlaps and inclusions yields what the double loop
    # over rule pairs yields, in its order, so the confluence JSON is the same
    assert list(system._ambiguities()) == list(_pairwise_ambiguities(system))


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


# -- the batched kernel against the unbatched one ----------------------------


def _unbatched_find_redex(system, word, start=0):
    """The redex search by lhs length: a slice of the word for every left
    side length at every position.  Kept as the oracle of the pair index."""
    get = system._lhs_index.get
    n = len(word)
    for pos in range(start, n):
        best = None
        for L in system._lhs_lengths:
            if pos + L > n:
                break
            idx = get(tuple(word[pos : pos + L]))
            if idx is not None and (best is None or idx < best):
                best = idx
        if best is not None:
            return (pos, best)
    return None


def _unbatched_reduce_word(system, word, cache):
    """The kernel before runs were batched: a one-term run is followed one
    rewrite step at a time on a list, its coefficient multiplied as a
    ``Scalar`` at each step, and only its first and last words are cached.
    Kept as the oracle of ``RewriteSystem.reduce_word``, which must give the
    same normal forms, term order and cached words.
    """
    word = tuple(word)
    if word in cache:
        return cache[word]
    rules = system.rules
    back = max(system._lhs_lengths, default=1) - 1
    stack = [(word, 0, None)]
    while stack:
        w, start, children = stack.pop()
        if children is None:
            if w in cache:
                continue
            x = w
            buf, coef = None, ONE
            hit = _unbatched_find_redex(system, w, start)
            while hit is not None:
                pos, idx = hit
                rule = rules[idx]
                if len(rule.rhs.terms) != 1:
                    break
                ((r, c),) = rule.rhs.terms.items()
                if buf is None:
                    buf = list(w)
                buf[pos : pos + len(rule.lhs)] = r
                if not c.is_one:
                    coef = coef * c
                start = max(0, pos - back)
                hit = _unbatched_find_redex(system, buf, start)
            if buf is not None:
                x = tuple(buf)
                stack.append((w, None, [(x, coef)]))
                if x in cache:
                    continue
            if hit is None:
                cache[x] = NcPoly.monomial(x)
                continue
            pos, idx = hit
            rule = rules[idx]
            pre, suf = x[:pos], x[pos + len(rule.lhs) :]
            children = [(pre + r + suf, c) for r, c in rule.rhs.terms.items()]
            stack.append((x, None, children))
            start = max(0, pos - back)
            stack.extend(
                (y, start, None) for y, _ in reversed(children) if y not in cache
            )
            continue
        out = NcPoly()
        for x, c in children:
            _add_scaled(out.terms, cache[x].terms, c)
        cache[w] = out
    return cache[word]


def _assert_matches_unbatched(system, words):
    """Fresh copies of ``system`` (its rules as built and reversed) give the
    unbatched kernel's normal forms, term order and cached words."""
    for rules in (system.rules, system.rules[::-1]):
        fresh = RewriteSystem(system.order, rules)
        oracle = {}
        for word in words:
            got = fresh.reduce_word(word)
            want = _unbatched_reduce_word(fresh, word, oracle)
            assert list(got.terms.items()) == list(want.terms.items()), word
        assert fresh._nf_cache.keys() == oracle.keys()
        for w, nf in fresh._nf_cache.items():
            assert list(nf.terms.items()) == list(oracle[w].terms.items())


def _run_words(gens, count, rng, max_runs=4, max_run=6):
    """Random words made of runs of one letter, so that runs get batched."""
    words = []
    for _ in range(count):
        word = []
        for _ in range(rng.randint(1, max_runs)):
            word += [rng.choice(gens)] * rng.randint(1, max_run)
        words.append(tuple(word))
    return words


@pytest.mark.parametrize(
    "algebra,N",
    [(a, n) for a in ("mq", "suq", "uq", "sphere") for n in (2, 3)]
    + [("mq", 4), ("suq", 4), ("sphere", 4), ("uq", 4)]
    + [("suq", 1), ("uq", 1), ("sphere", 1)],
)
def test_batched_runs_match_the_unbatched_kernel(algebra, N):
    # at N = 1, u[1,1] -> 1 on suq is a one-letter left side, and the
    # one-term rules of uq and the sphere shorten the word
    # suq and uq are not confluent, so this pins every redex choice
    system = build(algebra, N).system
    rng = random.Random(f"runs{algebra}{N}")
    gens = system.order.precedence
    small = (algebra, N) in (("uq", 4), ("suq", 4))
    words = [
        tuple(rng.choice(gens) for _ in range(rng.randint(0, 5 if small else 8)))
        for _ in range(60)
    ]
    words += _run_words(gens, 60, rng, max_runs=3 if small else 4)
    _assert_matches_unbatched(system, words)


def test_batched_power_words_match_the_unbatched_kernel():
    u11, u22 = ("u", 1, 1), ("u", 2, 2)
    for k in (1, 2, 5, 40):
        _assert_matches_unbatched(build("mq", 2).system, [(u22,) * k + (u11,)])
        _assert_matches_unbatched(build("sphere", 2).system, [(z(2),) * k + (z(1),)])
        _assert_matches_unbatched(
            build("sphere", 2).system, [(zs(1),) * min(k, 8) + (z(1),) * min(k, 8)]
        )


A4, B4, C4, D4, E4 = (("g", i) for i in range(1, 6))


def _coefficient_system():
    """Swaps whose coefficients are a sum, a fraction and an integer times
    a power of q; one pair that a longer left side contains, so that its
    swap is not batched; and a one-letter left side."""
    q = QPARAM
    rules = [
        Rule((B4, A4), NcPoly.monomial((A4, B4), ONE + q)),
        Rule((C4, A4), NcPoly.monomial((A4, C4), q / (ONE + q))),
        Rule((C4, B4), NcPoly.monomial((B4, C4), Scalar.from_int(2) * q ** -1)),
        Rule((A4, C4, B4), NcPoly.monomial((A4, B4, C4)) + NcPoly.monomial((A4, A4), q)),
        Rule((D4,), NcPoly.monomial((A4,), -q)),
        Rule((E4, A4), NcPoly.monomial((A4, E4), Scalar.from_int(-3) * q ** 2)),
        Rule((E4, C4), NcPoly.monomial((C4, E4), Scalar.from_int(2))),
    ]
    return RewriteSystem(MonomialOrder([A4, B4, C4, D4, E4]), rules)


def test_batched_runs_with_other_coefficients_match_the_unbatched_kernel():
    system = _coefficient_system()
    runs = [step[2] if step else None for step in system._steps]
    assert runs == [B4, C4, None, None, None, E4, E4]
    rng = random.Random("coefficients")
    gens = system.order.precedence
    words = _run_words(gens, 300, rng)
    words += [(B4,) * 9 + (A4,), (C4,) * 7 + (A4,) * 3, (C4,) * 5 + (B4,) + (D4,) * 3,
              (E4,) * 6 + (A4,) + (E4,) * 3 + (C4,) * 2]
    _assert_matches_unbatched(system, words)
    for rules in (system.rules, system.rules[::-1]):
        fresh = RewriteSystem(system.order, rules)
        for word in words:
            start = rng.randint(0, len(word))
            assert fresh._find_redex(word) == _linear_scan_redex(fresh, word)
            assert fresh._find_redex(list(word), start) == _unbatched_find_redex(
                fresh, word, start)


def _redex_searches(monkeypatch, system, word):
    calls = []
    find = RewriteSystem._find_redex
    monkeypatch.setattr(RewriteSystem, "_find_redex",
                        lambda self, w, start=0: calls.append(1) or find(self, w, start))
    RewriteSystem(system.order, system.rules).reduce_word(word)
    monkeypatch.undo()
    return len(calls)


@pytest.mark.parametrize("algebra, head, tail", [
    ("mq", ("u", 2, 2), ("u", 1, 1)),
    ("sphere", z(2), z(1)),
])
def test_redex_searches_grow_linearly_on_power_words(monkeypatch, algebra, head, tail):
    # each child of u[2,2]^k*u[1,1] moves through its run of u[2,2] in one
    # step, so the searches grow with k, not k^2 (10,201 at k = 100 when
    # each swap was a step of its own)
    system = build(algebra, 2).system
    n100, n200 = (_redex_searches(monkeypatch, system, (head,) * k + (tail,))
                  for k in (100, 200))
    assert n200 <= 2 * n100 + 1
    assert n100 <= 5 * 100

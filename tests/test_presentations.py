"""Presentations: rule counts, determinant, antipode tables, zero testing."""

import random
from functools import cache
from itertools import product
from math import comb

import pytest

from qsphere import hopf
from qsphere.errors import AlphabetMismatch, IdentityFails
from qsphere.freealg import DINV, NcPoly, TensorPoly, u, z, zs
from qsphere.hopf import (
    antipode,
    check_matrix_identities,
    embed_sphere,
    star_laws,
    tensor_zero,
)
from qsphere.presentations import (
    Presentation,
    StructureMaps,
    antipode_matrix,
    as_built,
    build,
    build_free_matrix,
    build_torus,
    check_central,
    dinv_split,
    quantum_determinant,
)
from qsphere.scalars import QPARAM, Scalar
from records import way
from variants import variant, with_tables

q = QPARAM


# -- rule counts ------------------------------------------------------------


@pytest.mark.parametrize("N", [1, 2, 3])
def test_mq_rule_count(N):
    # one oriented rule per unordered pair of distinct generators
    P = build("mq", N)
    assert len(P.system.rules) == comb(N * N, 2)


def test_sphere_rule_count():
    # z-z, zs-zs, mixed off-diagonal, diagonal straightening, unit relation
    for N in (1, 2, 3):
        P = build("sphere", N)
        want = 2 * comb(N, 2) + N * (N - 1) + N + 1
        assert len(P.system.rules) == want


# -- quantum determinant ----------------------------------------------------


def test_det_n1_n2_explicit():
    assert quantum_determinant(1) == NcPoly.gen(u(1, 1))
    d2 = NcPoly.monomial((u(1, 1), u(2, 2))) - NcPoly.monomial((u(1, 2), u(2, 1)), q)
    assert quantum_determinant(2) == d2


def test_det_column_expansion_oracle():
    # independent construction: expand along the last row with quantum signs
    def det_rec(rows, cols):
        if not rows:
            return NcPoly.unit()
        r = rows[-1]
        out = NcPoly()
        for pos, c in enumerate(cols):
            minor = det_rec(rows[:-1], cols[:pos] + cols[pos + 1 :])
            sign = (-q) ** (len(cols) - 1 - pos)
            out = out + (minor * NcPoly.gen(u(r, c))).scale(sign)
        return out

    for N in (2, 3):
        rows = cols = list(range(1, N + 1))
        assert quantum_determinant(N) == det_rec(rows, cols)


@pytest.mark.parametrize("N", [2, 3])
def test_det_central_in_mq(N):
    P = build("mq", N)
    assert check_central(quantum_determinant(N), P)
    assert not check_central(NcPoly.gen(u(1, 2)), P)


def test_det_leading_coefficient():
    d = quantum_determinant(3)
    lead = (u(1, 3), u(2, 2), u(3, 1))
    assert d.coeff(lead) == (-q) ** 3


# -- antipode tables --------------------------------------------------------


def test_antipode_table_n2_sl():
    S = antipode_matrix(2, "sl")
    assert S[0][0] == NcPoly.gen(u(2, 2))
    assert S[0][1] == NcPoly.gen(u(1, 2), -(q ** (-1)))
    assert S[1][0] == NcPoly.gen(u(2, 1), -q)
    assert S[1][1] == NcPoly.gen(u(1, 1))


def test_antipode_table_gl_has_dinv_factor():
    G = antipode_matrix(2, "gl")
    assert G[0][0] == NcPoly.monomial((DINV, u(2, 2)))


# -- star structure ---------------------------------------------------------


@pytest.mark.parametrize("name,N", [("sphere", 2), ("sphere", 3),
                                    ("suq", 2), ("suq", 3),
                                    ("uq", 1), ("uq", 2)])
def test_star_closure_and_involution(name, N):
    laws = star_laws(build(name, N))
    assert laws["closure"] and laws["involution"]


# -- exact zero testing beyond confluence -----------------------------------


def test_suq_det_is_one():
    for N in (2, 3):
        P = build("suq", N)
        assert P.equals(quantum_determinant(N), NcPoly.unit())


def test_suq3_quotient_catches_nonconfluent_zero():
    # (D - 1) u^2_1 is zero in suq(3) but its normal form is a nonzero
    # irreducible polynomial; the quotient reduction must decide it
    P = build("suq", 3)
    g = NcPoly.gen(u(2, 1))
    dm1 = quantum_determinant(3) - NcPoly.unit()
    residuals = [P.nf(dm1 * g), P.nf(g * dm1)]
    assert any(not r.is_zero for r in residuals)
    for r in residuals:
        assert P.is_zero_elem(r)


def test_uq2_localization_catches_nonconfluent_zero():
    # S(dinv u - u dinv) normalizes to a nonzero irreducible element that
    # vanishes after clearing dinv through the determinant
    P = build("uq", 2)
    qi = q ** (-1)
    a = (
        NcPoly.monomial((u(1, 1), u(2, 2), u(2, 2), DINV), qi * qi)
        - NcPoly.monomial((u(1, 2), u(2, 1), u(2, 2), DINV), qi)
        - NcPoly.monomial((u(2, 2),), qi * qi)
    )
    assert not P.nf(a).is_zero
    assert P.is_zero_elem(a)


def test_uq_dinv_inverts_det():
    P = build("uq", 2)
    d = quantum_determinant(2)
    assert P.is_zero_elem(d * NcPoly.gen(DINV) - NcPoly.unit())
    assert P.is_zero_elem(NcPoly.gen(DINV) * d - NcPoly.unit())


def test_is_zero_elem_sound_on_nonzero():
    P = build("uq", 2)
    assert not P.is_zero_elem(NcPoly.gen(u(1, 2)))
    assert not P.is_zero_elem(NcPoly.gen(DINV) - NcPoly.unit())
    Q = build("suq", 3)
    assert not Q.is_zero_elem(NcPoly.gen(u(1, 2)))


def _det_minus_one_cases(N):
    D = quantum_determinant(N)
    g = NcPoly.gen(u(1, 1))
    return {"D-1": D - NcPoly.unit(), "u11-u11*D": g - g * D}


@pytest.mark.parametrize("name,N", [("suq", 2), ("suq", 3), ("uq", 2), ("uq", 3)])
@pytest.mark.parametrize("case", ["D-1", "u11-u11*D"])
def test_det_minus_one_level_rules(name, N, case):
    # D = 1 in suq, but in uq D is only invertible: the suq level rule
    # (by degree) must not be applied to uq, nor the uq rule (by dinv
    # count) to suq
    P = build(name, N)
    a = _det_minus_one_cases(N)[case]
    assert P.is_zero_elem(a) == (name == "suq")


def test_suq3_one_call_clears_every_degree_residue():
    P = build("suq", 3)
    dm1 = quantum_determinant(3) - NcPoly.unit()

    def word(*gens):
        return NcPoly.monomial(tuple(u(*g) for g in gens))

    polys = [
        word((2, 1)) * dm1,
        word((3, 2), (2, 1)) * dm1,
        word((3, 3), (3, 2), (2, 1)) * dm1,
        word((2, 1)) * dm1 + word((1, 2)),
    ]
    normal = [P.nf(a) for a in polys]
    assert all(not p.is_zero for p in normal)
    residues = {len(w) % 3 for p in normal for w in p.terms}
    assert residues == {0, 1, 2}
    images = P.zero_test_images(polys)
    assert [img.is_zero for img in images] == [True, True, True, False]
    # with D on the left of u^2_1 the normal form already vanishes
    assert P.nf(dm1 * word((2, 1))).is_zero


# -- the echelon quotient of suq as an oracle -------------------------------

_ECHELON = {}  # id(P) -> (P, degree built, {leading word: monic row})


def _reference_quotient_reduce(P, a):
    """Canonical coset representative of an mq-normal ``a`` modulo (D - 1).

    Reduces against an echelon basis of the degree <= deg(a) slice of
    (D - 1) mq, which is span{nf((D - 1) m) : m an mq-normal word}, since D
    is central and homogeneous of degree N.  The basis grows by degree.
    """
    if a.is_zero:
        return a
    _, built, elim = _ECHELON.get(id(P), (P, -1, {}))
    d = a.degree()
    if d > built:
        key = P.aux.system.order.key
        if d >= P.N:
            graded = P.aux.system.enumerate_basis(d - P.N)
            for deg, level in enumerate(graded):
                if deg + P.N <= built:
                    continue
                for m in level:
                    row = P.aux.nf((P.det - NcPoly.unit()) * NcPoly.monomial(m))
                    row = _eliminate(row, elim)
                    if not row.is_zero:
                        lead = max(row.terms, key=key)
                        elim[lead] = row.scale(row.terms[lead].inverse())
        _ECHELON[id(P)] = (P, d, elim)
    return _eliminate(a, elim)


def _eliminate(a, elim):
    while True:
        hits = [w for w in a.terms if w in elim]
        if not hits:
            return a
        w = hits[0]
        a = a - elim[w].scale(a.terms[w])


def _random_word(rng, gens, lo, hi):
    return tuple(rng.choice(gens) for _ in range(rng.randint(lo, hi)))


def _random_poly(rng, gens, lo, hi):
    out = NcPoly()
    for _ in range(3):
        c = Scalar.from_int(rng.choice([-2, -1, 1, 3])) * q ** rng.randint(-2, 2)
        out = out + NcPoly.monomial(_random_word(rng, gens, lo, hi), c)
    return out


def _hidden_zero(rng, P, gens):
    # m1 (D - 1) m2 with m1 m2 of length up to 4 (at least N + 1 on suq 3),
    # so that a level rule with the wrong period N + 1 is caught
    dm1 = P.det - NcPoly.unit()
    w = _random_word(rng, gens, 0, 4)
    cut = rng.randint(0, len(w))
    return P.nf(NcPoly.monomial(w[:cut]) * dm1 * NcPoly.monomial(w[cut:]))


@cache
def _oracle_cases(N):
    """Seeded suq inputs: hidden zeros, random polynomials and hidden zeros
    plus a nonzero word."""
    P = build("suq", N)
    gens = list(P.generators)
    rng = random.Random(f"suq{N}-quotient-oracle")
    cases = []
    for _ in range(20):
        cases.append(_hidden_zero(rng, P, gens))
        cases.append(_random_poly(rng, gens, 1, N + 2))
        cases.append(_hidden_zero(rng, P, gens) + NcPoly.monomial(_random_word(rng, gens, 1, N)))
    return P, cases


@pytest.mark.parametrize("N", [2, 3])
def test_zero_test_matches_echelon_quotient(N):
    P, cases = _oracle_cases(N)
    verdicts = []
    for a in cases:
        want = _reference_quotient_reduce(P, P.nf(a)).is_zero
        assert P.is_zero_elem(a) == want
        verdicts.append(want)
    assert any(verdicts) and not all(verdicts)
    # suq 2 is confluent; on suq 3 some hidden zeros keep a nonzero normal
    # form, and only the clearing step decides them
    if N > 2:
        assert any(not P.nf(a).is_zero for a, v in zip(cases, verdicts) if v)


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("leg", [0, 1])
def test_tensor_zero_matches_echelon_quotient(N, leg):
    P, cases = _oracle_cases(N)
    normal = [P.nf(a) for a in cases]
    zeros, nonzeros = [], []
    for a in normal:
        (zeros if _reference_quotient_reduce(P, a).is_zero else nonzeros).append(a)
    # words of degree < N are independent in suq: (D - 1) b has degree >= N
    others = [(g,) for g in P.generators][: 2 * N]
    if N > 2:
        others.append((u(1, 2), u(2, 1)))

    def tensor(legs):
        t = TensorPoly()
        for a, w in zip(legs, others):
            m = NcPoly.monomial(w)
            t = t + (TensorPoly.of(m, a) if leg else TensorPoly.of(a, m))
        return t.terms

    # the hidden zero with the most terms, on every other-leg word
    hidden = max(zeros, key=lambda a: len(a.terms))
    assert N == 2 or not hidden.is_zero
    assert tensor_zero(tensor([hidden] * len(others)), (P, P))
    rng = random.Random(f"suq{N}-tensor-oracle-{leg}")
    for trial in range(8):
        legs = rng.choices(zeros, k=len(others))
        if trial % 2:
            legs[rng.randrange(len(legs))] = rng.choice(nonzeros)
        assert tensor_zero(tensor(legs), (P, P)) == (trial % 2 == 0)


# -- the zero test from the suq/uq normal form as an oracle -----------------


def _reference_zero_test_images(P, polys):
    """The zero test as it was before it started from ``P.reduce``: the
    normal form in the non-confluent suq/uq system, then the clearing of
    each normal word into mq."""
    images = [P.nf(a) for a in polys]
    M = max((P._level(w)[1] for p in images for w in p.terms), default=0)
    if not M:
        return images
    out = []
    for p in images:
        img = NcPoly()
        for w, c in p.terms.items():
            img = img + P.clear_word(w, M, P.det_powers()).scale(c)
        out.append(img)
    return out


@cache
def _reduce_oracle_cases(name, N):
    """Seeded inputs: multiples of relations, differences of unresolved
    ambiguities, both plus a word, and the determinant cases."""
    P = build(name, N)
    gens = list(P.generators)
    rng = random.Random(f"{name}{N}-reduce-oracle")
    rels = P.relations
    # half of the multiples use a relation beyond those of mq, which
    # ``reduce`` alone does not kill
    beyond_mq = rels[len(P.aux.relations):]
    diffs = [a.difference for a in P.system.check_confluence().unresolved]
    zeros = []
    for i in range(12):
        w = _random_word(rng, gens, 0, 3)
        cut = rng.randint(0, len(w))
        rel = rng.choice(beyond_mq if i % 2 else rels)
        m = NcPoly.monomial(w[:cut]) * rel * NcPoly.monomial(w[cut:])
        zeros.append(m.scale(q ** rng.randint(-2, 2)))
    zeros += rng.sample(diffs, min(6, len(diffs)))
    cases = zeros + [a + NcPoly.monomial(_random_word(rng, gens, 1, N)) for a in zeros]
    D = quantum_determinant(N)
    one = NcPoly.unit()
    cases.append(D - one)
    if name == "uq":
        dinv, g = NcPoly.gen(DINV), NcPoly.gen(u(1, 1))
        cases += [dinv * D - one, D * dinv * g - g]
    return P, cases


@pytest.mark.parametrize("name,N", [("suq", 2), ("suq", 3), ("uq", 2), ("uq", 3)])
def test_zero_test_matches_normal_form_oracle(name, N):
    P, cases = _reduce_oracle_cases(name, N)
    want = [img.is_zero for img in _reference_zero_test_images(P, cases)]
    got = [img.is_zero for img in P.zero_test_images(cases)]
    assert got == want
    # one by one as well, where each input sets its own largest level
    assert [P.is_zero_elem(a) for a in cases] == want
    assert any(want) and not all(want)
    # the clearing step decides some zeros that ``reduce`` leaves nonzero
    assert any(not P.reduce(a).is_zero for a, v in zip(cases, want) if v)
    # D - 1 is zero on suq only; dinv D - 1 and D dinv u11 - u11 on uq
    tail = want[-3:] if name == "uq" else want[-1:]
    assert tail == ([False, True, True] if name == "uq" else [True])
    if N > 2 or name == "uq":
        # unresolved ambiguities exist, and their differences are zeros
        # with a nonzero normal form
        assert any(not P.nf(a).is_zero for a, v in zip(cases, want) if v)


@pytest.mark.parametrize("name,N", [("suq", 2), ("suq", 3), ("uq", 2), ("uq", 3)])
def test_clearing_skips_top_level_words_exactly(name, N):
    # a reduced word at the top level g = M is its own image; the oracle
    # sends every word through ``clear_word``
    P, cases = _reduce_oracle_cases(name, N)
    reduced = [P.reduce(a) for a in cases]
    M = max(P._level(w)[1] for p in reduced for w in p.terms)
    want = []
    for p in reduced:
        img = NcPoly()
        for w, c in p.terms.items():
            img = img + P.clear_word(w, M, P.det_powers()).scale(c)
        want.append(img)
    assert P.zero_test_images(cases) == want
    assert any(P._level(w)[1] == M for p in reduced for w in p.terms)


def test_matches_construction_is_memoised_and_follows_replaced_parts():
    # as built means made by build; a presentation constructed otherwise
    # is not, even with the very parts build made
    P = build("uq", 2)
    assert as_built(P) and as_built(P.aux)
    assert not as_built(variant(P))
    # equal structure maps on a variant of P, or a table replaced there:
    # out of scope either way
    maps = P.structure
    equal = StructureMaps(maps.delta, maps.epsilon, maps.antipode)
    assert not as_built(variant(P, structure=equal))
    assert not as_built(with_tables(P, antipode={u(1, 2): NcPoly.gen(u(1, 2))}))
    assert as_built(P)
    # a uq built on an mq variant, with the parts of mq or a table replaced
    assert not as_built(build("uq", 2, aux=variant(build("mq", 2))))
    mq = with_tables(build("mq", 2), epsilon={u(1, 2): Scalar.from_int(1)})
    R = build("uq", 2, aux=mq)
    assert not as_built(mq) and not as_built(R)
    assert as_built(P)


def test_det_powers_follow_a_replaced_determinant(monkeypatch):
    # the powers of D live in the memo, and a variant with D replaced by
    # 2 D, made after P has its powers, clears with 2 D: D - 1 is not 0
    P = build("suq", 2)
    D, one = quantum_determinant(2), NcPoly.unit()
    assert P.is_zero_elem(D - one)
    Q = variant(P, det=P.det.scale(Scalar.from_int(2)))
    assert not Q.is_zero_elem(D - one)
    assert Q.det_powers()[1] == P.aux.nf(Q.det)
    assert P.is_zero_elem(D - one)
    assert not variant(P, det=Q.det).is_zero_elem(D - one)
    # looked up once per clearing step, not once per word
    lookups = []
    memo = Presentation.memo
    monkeypatch.setattr(Presentation, "memo",
                        lambda self, key, compute: (lookups.append(key), memo(self, key, compute))[1])
    words = [NcPoly.gen(g) for g in P.generators]
    assert not Q.is_zero_elem(sum(words[1:], D))
    assert lookups == [("det", "powers")]


def test_a_copy_has_a_memo_of_its_own(monkeypatch):
    # a variant with another star, after which P and it are asked in turn
    P = build("suq", 2)
    Q = variant(P, star={**P.star, u(1, 2): P.star[u(1, 2)].scale(Scalar.from_int(2))})
    calls = []
    lemma = hopf._star_lemma
    monkeypatch.setattr(hopf, "_star_lemma", lambda A: (calls.append(A), lemma(A))[1])
    for _ in range(3):
        assert hopf.star_lemma(P) is not None
        assert hopf.star_lemma(Q) is None
    assert calls == [P, Q]


@pytest.mark.parametrize("name", ["suq", "uq"])
def test_parts_are_fixed_when_a_presentation_is_made(monkeypatch, name):
    P = build(name, 2)
    for part in ("name", "N", "system", "star", "structure", "aux", "det"):
        with pytest.raises(AttributeError, match="construct a new Presentation"):
            setattr(P, part, getattr(P, part))
    for table in ("delta", "epsilon", "antipode"):
        with pytest.raises(AttributeError, match="construct a new StructureMaps"):
            setattr(P.structure, table, getattr(P.structure, table))
    assert as_built(P)
    report, lemma = hopf.verify_hopf(P), hopf.star_lemma(P)
    assert way(report, "hopf-axioms") == "frt-lemma" and lemma is not None
    # a variant with every part equal, here the same objects: not as built,
    # and its verdicts are its own, computed afresh
    calls = []
    for fn in ("_verify_hopf", "_star_lemma"):
        real = getattr(hopf, fn)
        monkeypatch.setattr(hopf, fn, lambda A, real=real: (calls.append(A), real(A))[1])
    Q = variant(P)
    assert not as_built(Q)
    assert way(hopf.verify_hopf(Q), "hopf-axioms") == "loop"
    assert hopf.star_lemma(Q) is None
    assert len(calls) == 2 and all(A is Q for A in calls)
    # P's verdicts are still those memoised on it
    assert (hopf.verify_hopf(P), hopf.star_lemma(P)) == (report, lemma)
    assert len(calls) == 2


def test_build_rejects_a_wrong_companion():
    for name, aux in [("suq", build("mq", 2)), ("uq", build("uq", 3)), ("uq", build("sphere", 3))]:
        with pytest.raises(ValueError):
            build(name, 3, aux=aux)
    assert as_built(build("suq", 3, aux=build("mq", 3)))


def _det_relations(P):
    """The two uq relations dinv D = 1 and D dinv = 1, the only ones with a
    word of the determinant (N >= 2)."""
    return [r for r in P.relations if any(len(w) == P.N + 1 for w in r.terms)]


def _dinv_words(P):
    """Words with dinv first, in the middle and last, and dinv^2."""
    a, b = u(1, 2), u(P.N, 1)
    return [(DINV, a, b), (a, DINV, b), (a, b, DINV), (DINV, DINV)]


@pytest.mark.parametrize("name,N", [("suq", 2), ("suq", 3), ("uq", 2), ("uq", 3)])
def test_antipode_matches_free_expansion(name, N):
    P = build(name, N)
    S = P.structure.antipode
    gens = list(P.generators)
    rng = random.Random(f"{name}{N}-antipode")
    words = [(g,) for g in gens] + [_random_word(rng, gens, 2, 2) for _ in range(12)]
    elems = [NcPoly.monomial(w) for w in words]
    if name == "uq":
        elems += [NcPoly.monomial(w) for w in _dinv_words(P)] + _det_relations(P)
    for a in elems:
        free = a.star(S)  # the antimultiplicative expansion
        assert P.is_zero_elem(antipode(a, P) - P.nf(free)), a


@pytest.mark.parametrize("name,N", [("suq", 2), ("suq", 3), ("uq", 2), ("uq", 3)])
def test_star_matches_free_expansion(name, N):
    # the star reduced after each factor against NcPoly.star, the free
    # expansion, on every relation and generator (and on uq on words with
    # dinv letters)
    P = build(name, N)
    elems = P.relations + [NcPoly.gen(g) for g in P.generators]
    extra = [NcPoly.monomial(w) for w in _dinv_words(P)] if name == "uq" else []
    for a in elems + extra:
        got = P.anti_extend(a, P.star)
        assert P.is_zero_elem(got - a.star(P.star)), a
    assert sum(P.is_zero_elem(P.anti_extend(a, P.star)) for a in elems) == len(P.relations)


@pytest.mark.parametrize("N", [2, 3])
def test_dinv_images_are_level_shifts(N):
    # the image of dinv*lead is N cofactors, each carrying one dinv, times
    # D.  As a level shift D cancels one trailing dinv: N - 1 dinv letters
    # and cores of length N(N - 1).  Multiplied out it gives N and N^2.
    P = build("uq", N)
    rels = _det_relations(P)
    assert len(rels) == 2
    for table in (P.structure.antipode, P.star):
        for r in rels:
            splits = [dinv_split(w) for w in P.anti_extend(r, table).terms]
            assert max(len(core) for core, _ in splits) == N * (N - 1)
            assert max(k for _, k in splits) == N - 1


def _star_u12_doubled(P):
    return {**P.star, u(1, 2): P.star[u(1, 2)].scale(Scalar.from_int(2))}


def _star_dinv_doubled(P):
    # a dinv image other than D is multiplied out, not applied as a shift
    return {**P.star, DINV: P.det.scale(Scalar.from_int(2))}


@pytest.mark.parametrize(
    "name,N,mutate",
    [
        pytest.param("suq", 2, _star_u12_doubled, id="suq-2"),
        pytest.param("uq", 2, _star_u12_doubled, id="uq-2"),
        pytest.param("uq", 2, _star_dinv_doubled, id="uq-2-dinv"),
        pytest.param("suq", 3, _star_u12_doubled, id="suq-3"),
        pytest.param("uq", 3, _star_u12_doubled, id="uq-3"),
        pytest.param("uq", 3, _star_dinv_doubled, id="uq-3-dinv"),
    ],
)
def test_star_checks_catch_a_broken_table(name, N, mutate):
    P = build(name, N)
    laws = star_laws(variant(P, star=mutate(P)))
    assert not laws["closure"] and not laws["involution"]


def test_reduce_keeps_the_alphabet_check():
    for name in ("suq", "uq"):
        with pytest.raises(AlphabetMismatch):
            build(name, 2).reduce(NcPoly.gen(z(1)))


def test_dinv_split():
    assert dinv_split((u(1, 1), DINV, DINV)) == ((u(1, 1),), 2)
    assert dinv_split((u(1, 1),)) == ((u(1, 1),), 0)
    assert dinv_split(()) == ((), 0)


# -- basis counts against combinatorial oracles -----------------------------


def _sphere_dim_oracle(N, d):
    # ordered monomials z^a zs^b with |a| + |b| = d, excluding those where
    # both z_N and zs_N occur (the unit relation removes exactly these)
    count = 0
    for a in product(range(d + 1), repeat=N):
        for b in product(range(d + 1), repeat=N):
            if sum(a) + sum(b) == d and not (a[N - 1] > 0 and b[N - 1] > 0):
                count += 1
    return count


@pytest.mark.parametrize("N", [2, 3])
def test_sphere_basis_counts(N):
    P = build("sphere", N)
    assert P.system.check_confluence().confluent
    graded = P.system.enumerate_basis(4)
    for d in range(5):
        assert len(graded[d]) == _sphere_dim_oracle(N, d)


@pytest.mark.parametrize("N", [2, 3])
def test_mq_pbw_counts(N):
    P = build("mq", N)
    assert P.system.check_confluence().confluent
    graded = P.system.enumerate_basis(4)
    for d in range(5):
        assert len(graded[d]) == comb(d + N * N - 1, N * N - 1)


# -- matrix identities ------------------------------------------------------


def _count_zero_tests(monkeypatch):
    calls = []
    zero_test = Presentation.is_zero_elem
    monkeypatch.setattr(Presentation, "is_zero_elem",
                        lambda self, a: calls.append(a) or zero_test(self, a))
    return calls


@pytest.mark.parametrize("name,N", [("suq", 2), ("uq", 2)])
def test_matrix_identities(monkeypatch, name, N):
    _matrix_identities_and_zero_tests(monkeypatch, name, N, refused=False)


@pytest.mark.parametrize("name,N", [("suq", 2), ("uq", 2)])
def test_matrix_identities_by_products_where_the_certificate_is_refused(monkeypatch, name, N):
    monkeypatch.setattr(hopf, "_cofactors_by_exterior", lambda mq: None)
    _matrix_identities_and_zero_tests(monkeypatch, name, N, refused=True)


def _matrix_identities_and_zero_tests(monkeypatch, name, N, refused):
    calls = _count_zero_tests(monkeypatch)
    report = check_matrix_identities(build(name, N))
    assert list(report) == ["S(u)*u", "u*S(u)", "u*ustar", "ustar*u"] + (
        ["E-relation-left", "E-relation-right"] if name == "uq" else []
    ) + ["decided"]
    assert way(report, "matrix-identities") == ("loop" if refused else "cofactor-expansions")
    report.pop("decided")
    assert all(report.values())
    # the certificate decides every product with no zero test of its own;
    # refused, u* = S(u) as built: the star products are the antipode
    # products, zero-tested once, N^2 entries per distinct product
    assert len(calls) == (N * N * (4 if name == "uq" else 2) if refused else 0)


def test_matrix_identities_fail_on_a_scaled_antipode_entry():
    P = build("suq", 2)
    P = with_tables(P, antipode={u(1, 1): P.structure.antipode[u(1, 1)].scale(Scalar.from_int(2))})
    with pytest.raises(IdentityFails) as exc:
        check_matrix_identities(P)
    assert exc.value.entry == ("S(u)*u", (1, 1))


def test_matrix_identities_compute_the_star_products_where_u_star_is_not_s_u(monkeypatch):
    # the antipode products hold; u* differs from S(u) at (1, 1), so the
    # star products are formed and u u* fails there
    P = build("suq", 2)
    P = variant(P, star={**P.star, u(1, 1): P.star[u(1, 1)].scale(Scalar.from_int(2))})
    calls = _count_zero_tests(monkeypatch)
    with pytest.raises(IdentityFails) as exc:
        check_matrix_identities(P)
    assert exc.value.entry == ("u*ustar", (1, 1))
    assert len(calls) == 2 * 4 + 1


def test_matrix_identities_wrong_algebra():
    with pytest.raises(ValueError):
        check_matrix_identities(build("mq", 2))


# -- embedding and auxiliary presentations ----------------------------------


@pytest.mark.parametrize("N", [2, 3])
def test_embed_sphere(N):
    phi = embed_sphere(N)
    assert phi.apply(NcPoly.gen(z(1))) == NcPoly.gen(u(1, 1))


def test_embed_sphere_n1_rejected():
    with pytest.raises(ValueError):
        embed_sphere(1)


def test_torus_confluent_and_unitary():
    P = build_torus(2)
    assert P.system.check_confluence().confluent
    t, ts = ("T", 1), ("Ts", 1)
    assert P.nf(NcPoly.monomial((t, ts))) == NcPoly.unit()
    assert P.nf(NcPoly.monomial((ts, t))) == NcPoly.unit()
    assert P.nf(NcPoly.monomial((("T", 2), ("Ts", 1), ("Ts", 2)))) == NcPoly.gen(ts)


def test_free_matrix_has_no_relations():
    P = build_free_matrix(2)
    assert P.system.rules == []
    assert P.structure.antipode is None


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build("nope", 2)
    with pytest.raises(ValueError):
        build("mq", 0)

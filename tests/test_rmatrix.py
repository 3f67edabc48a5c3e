"""The braiding matrix, its eigenstructure, and the r-form calculus."""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qsphere import rmatrix
from qsphere.errors import AxiomFails
from qsphere.freealg import NcPoly, u
from qsphere.linalg import identity, is_zero_matrix, mat_mul, mat_sub, rank
from qsphere.presentations import build
from qsphere.rmatrix import (
    RFormEvaluator,
    _commutation_holds,
    _relation_kills_failing,
    check_comodule_morphism,
    check_cqt,
    check_eigenspace_orthogonality,
    check_hecke,
    eigenprojections,
    flip_operator,
    mult_kernel,
    rhat,
    rhat_inverse,
    sigma,
)
from qsphere.scalars import DeformationContext, ONE, ZERO, Scalar

ctx = DeformationContext.standard()
q = ctx.q


def test_rhat_n2_entries():
    R = rhat(2)
    # basis order (1,1),(1,2),(2,1),(2,2)
    qq = q - q ** (-1)
    want = [
        [q, ZERO, ZERO, ZERO],
        [ZERO, qq, ONE, ZERO],
        [ZERO, ONE, ZERO, ZERO],
        [ZERO, ZERO, ZERO, q],
    ]
    assert R == want


@pytest.mark.parametrize("N", [2, 3, 4])
def test_hecke(N):
    assert check_hecke(N)


@pytest.mark.parametrize("N", [2, 3])
def test_rhat_inverse(N):
    R = rhat(N)
    Ri = rhat_inverse(N)
    assert mat_mul(R, Ri) == identity(N * N)


@pytest.mark.parametrize("N", [2, 3])
def test_projection_ranks(N):
    p_plus, p_minus = eigenprojections(N)
    # idempotents summing to the identity
    assert mat_mul(p_plus, p_plus) == p_plus
    assert mat_mul(p_minus, p_minus) == p_minus
    assert is_zero_matrix(mat_mul(p_plus, p_minus))
    assert rank(p_plus) == (N * N + N) // 2
    assert rank(p_minus) == (N * N - N) // 2


def test_classical_limit_is_flip():
    # at q = 1 the braiding degenerates to the flip
    F = flip_operator(2)
    R = rhat(2)
    num = [[x.eval_at(1) for x in row] for row in R]
    assert num == [[x.eval_at(1) for x in row] for row in F]


@pytest.mark.parametrize("N", [2, 3, 4])
def test_mult_kernel(N):
    info = mult_kernel(N)
    assert info["dim_kernel"] == N * (N - 1) // 2
    assert info["dim_image"] == N * (N - 1) // 2
    assert info["equal"]


@pytest.mark.parametrize("N", [2, 3])
def test_rhat_is_comodule_morphism(N):
    mq = build("mq", N)
    assert check_comodule_morphism(rhat(N), N, mq)


def _frt_entries(N):
    """The entries of R U - U R, with U_(ij),(kl) = u_ik u_jl."""
    R = rhat(N)
    pairs = [(i, j) for i in range(1, N + 1) for j in range(1, N + 1)]
    out = []
    for r, (i, j) in enumerate(pairs):
        for c, (k, l) in enumerate(pairs):
            x = NcPoly()
            for m, (a, b) in enumerate(pairs):
                if not R[r][m].is_zero:
                    x = x + NcPoly.monomial((u(a, k), u(b, l)), R[r][m])
                if not R[m][c].is_zero:
                    x = x - NcPoly.monomial((u(i, a), u(j, b)), R[m][c])
            out.append(x)
    return out


@pytest.mark.parametrize("N", [2, 3])
def test_mq_relations_span_the_frt_entries(N):
    # the relation-kill lemmas of hopf.verify_hopf rest on this: the mq
    # relations and the entries of R U - U R span the same space
    rels = build("mq", N).relations
    frt = _frt_entries(N)
    words = sorted({w for p in rels + frt for w in p.terms})

    def rows(polys):
        return [[p.coeff(w) for w in words] for p in polys]

    assert rank(rows(rels)) == len(rels) == N * N * (N * N - 1) // 2
    assert rank(rows(frt)) == rank(rows(frt + rels)) == len(rels)


def test_flip_is_not_comodule_morphism():
    mq = build("mq", 2)
    assert not check_comodule_morphism(flip_operator(2), 2, mq)


# -- r-form -----------------------------------------------------------------


def test_rform_generator_values_n2():
    ev = RFormEvaluator(2)
    t = ev.ctx.t
    qv = ev.ctx.q
    assert ev.eval_words((u(1, 1),), (u(1, 1),)) == t * qv
    assert ev.eval_words((u(1, 1),), (u(2, 2),)) == t
    assert ev.eval_words((u(2, 1),), (u(1, 2),)) == t * (qv - qv ** (-1))
    assert ev.eval_words((u(1, 2),), (u(2, 1),)) == ZERO
    assert ev.eval_words((u(1, 2),), (u(1, 2),)) == ZERO


def test_rform_unit_values():
    ev = RFormEvaluator(2)
    assert ev.eval_words((), ()) == ONE
    assert ev.eval_words((), (u(1, 1),)) == ONE
    assert ev.eval_words((), (u(1, 2),)) == ZERO


def test_rform_split_consistency():
    # both splitting orders must agree on mixed products
    ev = RFormEvaluator(2)
    gens = [u(i, j) for i in range(1, 3) for j in range(1, 3)]
    from qsphere.hopf import delta_word

    for a1 in gens[:2]:
        for a2 in gens:
            for b1 in gens:
                for b2 in gens[:2]:
                    left = ev.eval_words((a1, a2), (b1, b2))
                    # re-derive via the right-split rule applied first
                    val = ZERO
                    for (x1, x2), c in delta_word((a1, a2), ev.P).terms.items():
                        val = val + c * ev.eval_words(x1, (b2,)) * ev.eval_words(x2, (b1,))
                    assert left == val


def _reference_eval_words(ev, a, b, memo):
    """The recursive r-form evaluation that ``eval_words`` replaced: one
    Python call per split, so its depth grows with the word length."""
    from qsphere.hopf import delta_word

    key = (a, b)
    if key in memo:
        return memo[key]
    if not a:
        val = ev._eps_word(b)
    elif not b:
        val = ev._eps_word(a)
    elif len(a) == 1 and len(b) == 1:
        val = ev._table[(a[0], b[0])]
    elif len(a) > 1:
        val = ZERO
        for (b1, b2), c in delta_word(b, ev.P).terms.items():
            val = val + c * _reference_eval_words(ev, a[:1], b1, memo) * _reference_eval_words(
                ev, a[1:], b2, memo
            )
    else:
        val = ZERO
        for (a1, a2), c in delta_word(a, ev.P).terms.items():
            val = val + c * _reference_eval_words(ev, a1, b[1:], memo) * _reference_eval_words(
                ev, a2, b[:1], memo
            )
    memo[key] = val
    return val


def test_eval_words_matches_recursive_oracle():
    ev = RFormEvaluator(2)
    memo = {}
    t = ev.ctx.t
    u11 = (u(1, 1),)
    for n in range(1, 31):
        for a, b in ((u11 * n, u11), (u11, u11 * n)):
            got = ev.eval_words(a, b)
            assert got == _reference_eval_words(ev, a, b, memo) == t ** (-n), (n, a, b)
    # mixed words of length up to 3 on both sides, from fresh memos
    ev = RFormEvaluator(2)
    memo = {}
    gens = [u(i, j) for i in range(1, 3) for j in range(1, 3)]
    rng = random.Random(1)
    for _ in range(40):
        a = tuple(rng.choice(gens) for _ in range(rng.randint(0, 3)))
        b = tuple(rng.choice(gens) for _ in range(rng.randint(0, 3)))
        assert ev.eval_words(a, b) == _reference_eval_words(ev, a, b, memo), (a, b)
    # at N = 3, left words of 2-4 letters against right words of 2-4
    # letters, where the left split walks the right word
    ev = RFormEvaluator(3)
    memo = {}
    gens = [u(i, j) for i in range(1, 4) for j in range(1, 4)]
    rng = random.Random(3)
    nonzero = 0
    for _ in range(40):
        a = tuple(rng.choice(gens) for _ in range(rng.randint(2, 4)))
        b = tuple(rng.choice(gens) for _ in range(rng.randint(2, 4)))
        want = _reference_eval_words(ev, a, b, memo)
        assert ev.eval_words(a, b) == want, (a, b)
        nonzero += not want.is_zero
    assert nonzero == 2
    # pairs with values of several terms, such as -t^15+2*t^9-2*t^-3+t^-9
    for a, b in (
        ((u(3, 1), u(2, 1), u(3, 2)), (u(1, 3), u(1, 1), u(1, 3))),
        ((u(3, 1), u(3, 1)), (u(1, 3), u(3, 3), u(1, 3), u(3, 3))),
        ((u(3, 1), u(2, 1), u(2, 1)), (u(1, 3), u(1, 2), u(1, 2))),
        ((u(3, 1), u(3, 1)), (u(1, 1), u(1, 3), u(2, 2), u(1, 3))),
    ):
        want = _reference_eval_words(ev, a, b, memo)
        assert ev.eval_words(a, b) == want, (a, b)
        assert sum(c != 0 for c in want.num) == 4


def test_sigma_matrix_matches_scaled_braiding():
    for N in (2, 3):
        ev = RFormEvaluator(N)
        assert ev.sigma_matrix() == sigma(N, ev.ctx)


def test_cqt_n2():
    stats = check_cqt(2)
    assert stats["generator_pairs"] == 16
    assert stats["sigma_entrywise"]


def test_eval_bar_memo_matches_fresh_antipode():
    from qsphere.hopf import antipode

    ev = RFormEvaluator(2)
    ref = RFormEvaluator(2)
    t = ev.ctx.t
    gens = [u(i, j) for i in range(1, 3) for j in range(1, 3)]
    rng = random.Random(0)
    pairs = [((a,), (b,)) for a in gens for b in gens]
    pairs += [
        (tuple(rng.choice(gens) for _ in range(2)), tuple(rng.choice(gens) for _ in range(2)))
        for _ in range(20)
    ]
    for wa, wb in pairs:
        for ca, cb in ((ONE, ONE), (t, t ** (-2) + ONE)):
            a, b = NcPoly.monomial(wa, ca), NcPoly.monomial(wb, cb)
            want = ref.eval(antipode(a, ref.P), b)
            assert ev.eval_bar(a, b) == want
    assert len(ev._bar_memo) == len(set(pairs))
    # a polynomial argument takes the unmemoised path
    a = NcPoly.gen(u(1, 1)) + NcPoly.gen(u(2, 1), t)
    b = NcPoly.gen(u(1, 2))
    assert ev.eval_bar(a, b) == ref.eval(antipode(a, ref.P), b)


@pytest.mark.parametrize("N, pairs", [(2, 56), (3, 666)])
def test_rform_kills_suq_relations(N, pairs):
    # r(rel, g) = r(g, rel) = 0 for every relation and generator: with the
    # coproduct relation kills this makes r well defined on suq, so it may
    # be evaluated on any representative, e.g. an mq-reduced S(w)
    ev = RFormEvaluator(N)
    assert 2 * len(ev.P.relations) * len(ev.P.generators) == pairs
    assert _relation_kills_failing(ev) == []


def _double_entry(entry):
    """A table mutation: the entry doubled, or t where the table holds 0."""

    def mutate(ev):
        old = ev._table[entry]
        ev._table[entry] = ev.ctx.t if old.is_zero else old + old

    return mutate


@pytest.mark.parametrize(
    "entry, broken", [((u(1, 1), u(1, 1)), 4), ((u(1, 2), u(2, 1)), 12)]
)
def test_rform_relation_kills_catch_a_broken_table(entry, broken):
    # a generator value that breaks an FRT relation: the diagonal entry
    # doubled, or t where the table holds 0
    ev = RFormEvaluator(2)
    _double_entry(entry)(ev)
    assert len(_relation_kills_failing(ev)) == broken


def _reference_commutation_samples(N, sample=20, seed=0):
    """The commutation law on seeded degree-2 word pairs: what ``check_cqt``
    sampled before it proved the law from generators and relation kills."""
    ev = rmatrix.RFormEvaluator(N)
    gens = [u(i, j) for i in range(1, N + 1) for j in range(1, N + 1)]
    rng = random.Random(seed)
    failing = []
    for _ in range(sample):
        wa = tuple(rng.choice(gens) for _ in range(2))
        wb = tuple(rng.choice(gens) for _ in range(2))
        if not _commutation_holds(ev, wa, wb):
            failing.append((wa, wb))
    return failing


@pytest.mark.parametrize("N", [2, 3])
def test_proved_commutation_law_holds_on_degree2_samples(N):
    stats = check_cqt(N)
    assert stats["relation_kills"] == {2: 56, 3: 666}[N]
    assert stats["hopf_hypotheses"]["antipode_checked"]
    assert "degree2_samples" not in stats
    assert _reference_commutation_samples(N) == []
    assert _reference_commutation_samples(N, seed=1) == []


def _antipode_u12_doubled(ev):
    maps = copy.copy(ev.P.structure)
    maps.antipode = {**maps.antipode, u(1, 2): maps.antipode[u(1, 2)].scale(Scalar.from_int(2))}
    ev.P.structure = maps


@pytest.mark.parametrize(
    "mutate, axiom",
    [
        (_double_entry((u(1, 1), u(1, 1))), "rform-kills-relations"),
        (_double_entry((u(1, 2), u(2, 1))), "rform-kills-relations"),
        (_double_entry((u(2, 1), u(1, 2))), "commutation-law"),
        (_antipode_u12_doubled, "antipode-kills-relations"),
    ],
    ids=["u11-u11-doubled", "u12-u21-set-to-t", "u21-u12-doubled", "antipode-u12-doubled"],
)
def test_check_cqt_catches_a_broken_hypothesis(monkeypatch, mutate, axiom):
    # the two FRT-breaking table entries fail the relation kills (H2), the
    # doubled q - q^-1 entry kills every relation and fails only the
    # commutation law, and a doubled S(u12) fails the Hopf hypotheses (H1)
    make = rmatrix.RFormEvaluator

    def mutated(N):
        ev = make(N)
        mutate(ev)
        return ev

    monkeypatch.setattr(rmatrix, "RFormEvaluator", mutated)
    with pytest.raises(AxiomFails) as exc:
        check_cqt(2)
    assert exc.value.axiom == axiom
    # the sampled degree-2 law sees the commutation-law mutation too
    if axiom == "commutation-law":
        assert _reference_commutation_samples(2) != []


def test_eigenspace_orthogonality():
    assert check_eigenspace_orthogonality(2, Fraction(1, 3))
    assert check_eigenspace_orthogonality(3, 2)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9))
def test_hecke_numeric(num, den):
    # the minimal polynomial identity survives any positive evaluation
    q0 = Fraction(num, den)
    R = [[x.eval_at(q0) for x in row] for row in rhat(2)]
    n = 4
    lhs = [
        [
            sum(
                (R[i][k] - (q0 if i == k else 0))
                * (R[k][j] + (1 / q0 if k == j else 0))
                for k in range(n)
            )
            for j in range(n)
        ]
        for i in range(n)
    ]
    assert all(lhs[i][j] == 0 for i in range(n) for j in range(n))

"""Hopf axioms, coactions, the morphism builder and the invariant form."""

import copy

import pytest

from qsphere import hopf
from qsphere.errors import (
    AxiomFails,
    HypothesisFails,
    Inconsistent,
    MissingStructureMaps,
    StarViolation,
)
from qsphere.freealg import DINV, NcPoly, TensorPoly, u, word_name, z, zs
from qsphere.hopf import (
    Morphism,
    _expand_delta_leg,
    antipode,
    build_coaction,
    build_u_morphism,
    check_form_preservation,
    check_grouplike,
    check_intertwine,
    coproduct,
    counit,
    delta_word,
    embed_sphere,
    invariant_forms,
    star_laws,
    tensor_equal,
    tensor_zero,
    verify_hopf,
)
from qsphere.presentations import (
    Presentation,
    build,
    build_free_matrix,
    build_torus,
    invariant_form_matrix,
    quantum_determinant,
)
from qsphere.rewrite import Rule, RewriteSystem
from qsphere.scalars import ONE, QPARAM, ZERO, Scalar

q = QPARAM


# -- structure maps on generators -------------------------------------------


def test_coproduct_of_matrix_entry():
    P = build("mq", 2)
    want = TensorPoly()
    want._iadd_term(((u(1, 1),), (u(1, 1),)), ONE)
    want._iadd_term(((u(1, 2),), (u(2, 1),)), ONE)
    assert coproduct(NcPoly.gen(u(1, 1)), P) == want


def test_counit_on_words():
    P = build("mq", 2)
    assert counit(NcPoly.monomial((u(1, 1), u(2, 2))), P) == ONE
    assert counit(NcPoly.gen(u(1, 2)), P) == ZERO


def test_antipode_inverts_on_suq2():
    P = build("suq", 2)
    # S(u^1_1) u^1_1 + S(u^1_2) u^2_1 = 1
    S = P.structure.antipode
    acc = S[u(1, 1)] * NcPoly.gen(u(1, 1)) + S[u(1, 2)] * NcPoly.gen(u(2, 1))
    assert P.equals(acc, NcPoly.unit())


def test_sphere_has_no_structure_maps():
    with pytest.raises(MissingStructureMaps):
        coproduct(NcPoly.gen(z(1)), build("sphere", 2))


def test_mq_has_no_antipode():
    with pytest.raises(MissingStructureMaps):
        antipode(NcPoly.gen(u(1, 1)), build("mq", 2))


@pytest.mark.parametrize("name", ["mq", "sphere"])
def test_invariant_forms_need_an_antipode(name):
    with pytest.raises(MissingStructureMaps):
        invariant_forms(2, build(name, 2))


# -- axioms -----------------------------------------------------------------


def _reference_verify_hopf(P, degree_bound):
    """The laws on every basis word up to ``degree_bound``, after the same
    relation kills: the check ``verify_hopf`` replaced, kept as its oracle."""
    maps = P.structure
    legs3 = (P, P, P)

    for r in P.relations:
        if not tensor_zero(coproduct(r, P).terms, (P, P)):
            raise AxiomFails("delta-kills-relations", repr(r), coproduct(r, P))
        if not counit(r, P).is_zero:
            raise AxiomFails("epsilon-kills-relations", repr(r), counit(r, P))
        if maps.antipode is not None and not P.is_zero_elem(antipode(r, P)):
            raise AxiomFails("antipode-kills-relations", repr(r), antipode(r, P))

    graded = P.system.enumerate_basis(degree_bound)
    checked = 0
    for level in graded:
        for w in level:
            dw = delta_word(w, P)
            left = _expand_delta_leg(dw, P, 0)
            right = _expand_delta_leg(dw, P, 1)
            if not tensor_equal(left, right, legs3):
                raise AxiomFails("coassociativity", word_name(w))
            wp = NcPoly.monomial(w)
            ce_left = NcPoly()
            ce_right = NcPoly()
            for (w1, w2), c in dw.terms.items():
                ce_left = ce_left + NcPoly.monomial(w2, c * counit(NcPoly.monomial(w1), P))
                ce_right = ce_right + NcPoly.monomial(w1, c * counit(NcPoly.monomial(w2), P))
            if not P.equals(ce_left, wp) or not P.equals(ce_right, wp):
                raise AxiomFails("counit-law", word_name(w))
            if maps.antipode is not None:
                target = NcPoly.unit(counit(wp, P))
                m_s_id = NcPoly()
                m_id_s = NcPoly()
                for (w1, w2), c in dw.terms.items():
                    m_s_id = m_s_id + antipode(NcPoly.monomial(w1), P).scale(c) * NcPoly.monomial(w2)
                    m_id_s = m_id_s + NcPoly.monomial(w1, c) * antipode(NcPoly.monomial(w2), P)
                if not P.equals(m_s_id, target) or not P.equals(m_id_s, target):
                    raise AxiomFails("antipode-law", word_name(w))
            checked += 1
    return {
        "basis_words_checked": checked,
        "degree_bound": degree_bound,
        "relations_checked": len(P.relations),
        "antipode_checked": maps.antipode is not None,
    }


@pytest.mark.parametrize("name", ["mq", "suq", "uq"])
def test_verify_hopf_degree2(name):
    P = build(name, 2)
    stats = verify_hopf(P)
    assert stats["generators_checked"] == len(P.generators) > 0
    assert stats["antipode_checked"] == (name != "mq")


def test_det_grouplike():
    P = build("mq", 2)
    assert check_grouplike(quantum_determinant(2), P)
    assert not check_grouplike(NcPoly.gen(u(1, 2)), P)


def test_torus_hopf():
    verify_hopf(build_torus(2))


# N = 3 runs the oracle to degree 2 only: degree 3 takes about 20 s there
@pytest.mark.parametrize(
    "make, degree_bound",
    [
        (lambda: build("mq", 2), 3),
        (lambda: build("suq", 2), 3),
        (lambda: build("uq", 2), 3),
        (lambda: build("mq", 3), 2),
        (lambda: build("suq", 3), 2),
        (lambda: build("uq", 3), 2),
        (lambda: build_torus(2), 3),
    ],
    ids=["mq2", "suq2", "uq2", "mq3", "suq3", "uq3", "torus2"],
)
def test_verify_hopf_matches_basis_word_oracle(make, degree_bound):
    P = make()
    stats = verify_hopf(P)
    ref = _reference_verify_hopf(P, degree_bound)
    assert ref["basis_words_checked"] > stats["generators_checked"] == len(P.generators)
    for key in ("relations_checked", "antipode_checked"):
        assert stats[key] == ref[key]


# -- axioms that fail -------------------------------------------------------


def _mutate(P, delta=None, epsilon=None, antipode=None):
    """P with some generator values of its structure maps replaced."""
    maps = copy.copy(P.structure)
    maps.delta = {**maps.delta, **(delta or {})}
    maps.epsilon = {**maps.epsilon, **(epsilon or {})}
    if maps.antipode is not None:
        maps.antipode = {**maps.antipode, **(antipode or {})}
    P.structure = maps
    return P


def _entries(P):
    return [g for g in P.generators if g != DINV]


def _eps_u12_one(P):
    return _mutate(P, epsilon={u(1, 2): ONE})


def _delta_u11_grouplike(P):
    return _mutate(P, delta={u(1, 1): TensorPoly.monomial((u(1, 1),), (u(1, 1),))})


def _antipode_u12_doubled(P):
    S = P.structure.antipode
    return _mutate(P, antipode={u(1, 2): S[u(1, 2)].scale(Scalar.from_int(2))})


def _antipode_dinv_doubled(P):
    # S(dinv) = 2 D: a dinv image other than D is multiplied out, not
    # applied as a level shift
    return _mutate(P, antipode={DINV: P.det.scale(Scalar.from_int(2))})


def _delta_doubled_left(P):
    two = Scalar.from_int(2)
    return _mutate(P, delta={g: TensorPoly.monomial((g,), (), two) for g in _entries(P)})


def _eps_zero(P):
    return _mutate(P, epsilon={g: ZERO for g in P.generators})


def _antipode_conjugated(P):
    # S o phi with phi(u^i_j) = 2^(i-j) u^i_j, an automorphism fixing D:
    # it kills every relation and breaks only the antipode law
    S = P.structure.antipode
    two = Scalar.from_int(2)
    return _mutate(P, antipode={g: S[g].scale(two ** (g[1] - g[2])) for g in _entries(P)})


BROKEN_TABLES = [
        ("mq", 2, _eps_u12_one, "epsilon-kills-relations"),
        ("suq", 2, _eps_u12_one, "epsilon-kills-relations"),
        ("uq", 2, _eps_u12_one, "epsilon-kills-relations"),
        ("mq", 2, _delta_u11_grouplike, "delta-kills-relations"),
        ("suq", 2, _delta_u11_grouplike, "delta-kills-relations"),
        ("uq", 2, _delta_u11_grouplike, "delta-kills-relations"),
        ("suq", 2, _antipode_u12_doubled, "antipode-kills-relations"),
        ("uq", 2, _antipode_u12_doubled, "antipode-kills-relations"),
        ("uq", 2, _antipode_dinv_doubled, "antipode-kills-relations"),
        ("uq", 3, _antipode_dinv_doubled, "antipode-kills-relations"),
        ("mq", 2, _delta_doubled_left, "coassociativity"),
        ("mq", 3, _delta_doubled_left, "coassociativity"),
        ("mq", 2, _eps_zero, "counit-law"),
        ("mq", 3, _eps_zero, "counit-law"),
        ("suq", 2, _antipode_conjugated, "antipode-law"),
        ("uq", 2, _antipode_conjugated, "antipode-law"),
        ("suq", 3, _antipode_conjugated, "antipode-law"),
]


@pytest.mark.parametrize(
    "name, N, mutate, axiom", BROKEN_TABLES, ids=lambda x: getattr(x, "__name__", x),
)
def test_broken_structure_map_fails_both_checks(name, N, mutate, axiom):
    with pytest.raises(AxiomFails) as exc:
        verify_hopf(mutate(build(name, N)))
    assert exc.value.axiom == axiom
    with pytest.raises(AxiomFails) as exc:
        _reference_verify_hopf(mutate(build(name, N)), 2)
    assert exc.value.axiom == axiom


# -- relation kills proved by lemma ------------------------------------------


def _loops_only(monkeypatch):
    """Every relation kill decided by its loop, as before the lemmas."""
    monkeypatch.setattr(hopf, "_kill_lemmas", lambda P, laws_hold: (set(), []))
    monkeypatch.setattr(hopf, "_star_lemma", lambda P: None)


def _spy_on_maps(monkeypatch):
    """Record every argument given to Delta, S and the antimultiplicative
    extension (S and star) from now on."""
    seen = []
    for name in ("coproduct", "_free_coproduct", "antipode"):
        fn = getattr(hopf, name)
        monkeypatch.setattr(
            hopf, name, lambda a, P, fn=fn: (seen.append(a), fn(a, P))[1]
        )
    extend = Presentation.anti_extend
    monkeypatch.setattr(
        Presentation, "anti_extend",
        lambda self, a, table: (seen.append(a), extend(self, a, table))[1],
    )
    return seen


def _with_changed_relation(P):
    """A copy of P whose first rule u21 u11 -> q^-1 u11 u21 also subtracts
    the relation of u12 u11: another polynomial, the same ideal."""
    first, *rest = P.system.rules
    assert first.lhs == (u(2, 1), u(1, 1))
    other = NcPoly.monomial((u(1, 2), u(1, 1))) - NcPoly.monomial((u(1, 1), u(1, 2)), q ** (-1))
    P2 = copy.copy(P)
    P2.system = RewriteSystem(P.system.order, [Rule(first.lhs, first.rhs + other)] + rest)
    return P2


@pytest.mark.parametrize("name", ["mq", "suq", "uq"])
@pytest.mark.parametrize("N", [2, 3])
def test_lemmas_and_loops_give_the_same_verdicts(monkeypatch, name, N):
    fast = verify_hopf(build(name, N))
    fast_star = star_laws(build(name, N))
    with monkeypatch.context() as m:
        _loops_only(m)
        slow = verify_hopf(build(name, N))
        slow_star = star_laws(build(name, N))
    assert (fast["relation_kills"], slow["relation_kills"]) == ("lemma", "loop")
    for key in ("generators_checked", "relations_checked", "antipode_checked"):
        assert fast[key] == slow[key]
    assert (fast_star["closure"], fast_star["involution"]) == (True, True)
    assert (slow_star["closure"], slow_star["involution"]) == (True, True)
    assert fast_star["relation_kills"] == ("loop" if name == "mq" else "lemma")


@pytest.mark.parametrize(
    "name, N, mutate, axiom", BROKEN_TABLES, ids=lambda x: getattr(x, "__name__", x),
)
def test_broken_tables_fail_alike_with_and_without_lemmas(monkeypatch, name, N, mutate, axiom):
    with pytest.raises(AxiomFails) as fast:
        verify_hopf(mutate(build(name, N)))
    with monkeypatch.context() as m:
        _loops_only(m)
        with pytest.raises(AxiomFails) as slow:
            verify_hopf(mutate(build(name, N)))
    assert fast.value.axiom == slow.value.axiom == axiom
    assert fast.value.witness == slow.value.witness
    assert fast.value.residual == slow.value.residual


@pytest.mark.parametrize("name", ["suq", "uq"])
def test_standard_presentations_map_no_relation(monkeypatch, name):
    P = build(name, 3)
    relations = set(P.relations)
    seen = _spy_on_maps(monkeypatch)
    assert verify_hopf(P)["relation_kills"] == "lemma"
    assert star_laws(P)["relation_kills"] == "lemma"
    assert seen and not any(a in relations for a in seen)


@pytest.mark.parametrize("name", ["mq", "suq", "uq"])
def test_changed_relation_takes_the_loops(monkeypatch, name):
    P = _with_changed_relation(build(name, 3))
    relations = set(P.relations)
    assert relations != set(build(name, 3).relations)
    seen = _spy_on_maps(monkeypatch)
    report = verify_hopf(P)
    assert (report["relation_kills"], report["proved_by_lemma"]) == ("loop", [])
    if P.star is not None:
        laws = star_laws(P)
        assert (laws["closure"], laws["involution"], laws["relation_kills"]) == (True, True, "loop")
    assert any(a in relations for a in seen)


@pytest.mark.parametrize(
    "factor, axiom",
    [
        # S o phi, phi(u^i_j) = 2^(i-j) u^i_j: kills the relations, breaks the law
        (lambda i, j: Scalar.from_int(2) ** (i - j), "antipode-law"),
        # S(u12) doubled: breaks both, and the kills come first
        (lambda i, j: Scalar.from_int(2 if (i, j) == (0, 1) else 1), "antipode-kills-relations"),
    ],
    ids=["conjugated", "u12-doubled"],
)
def test_hypotheses_catch_a_construction_broken_at_its_source(monkeypatch, factor, axiom):
    # a presentation and its reference construction broken alike pass the
    # scope check, so only the hypotheses of the lemmas can catch them
    from qsphere import presentations

    cofactors = presentations.antipode_matrix
    monkeypatch.setattr(
        presentations, "antipode_matrix",
        lambda N, variant: [
            [x.scale(factor(i, j)) for j, x in enumerate(row)]
            for i, row in enumerate(cofactors(N, variant))
        ],
    )
    for name in ("suq", "uq"):
        P = build(name, 2)
        assert all(presentations.matches_construction(P).values())
        with pytest.raises(AxiomFails) as exc:
            verify_hopf(P)
        assert exc.value.axiom == axiom
        assert star_laws(P)["relation_kills"] == "loop"


def test_det_hypothesis_catches_a_wrong_determinant(monkeypatch):
    # D with its diagonal term doubled, in P and in the reference: not
    # group-like, so Delta takes the loop and fails there
    from qsphere import presentations

    det = presentations.quantum_determinant

    def doubled(N):
        return det(N) + NcPoly.monomial(tuple(u(r, r) for r in range(1, N + 1)))

    monkeypatch.setattr(presentations, "quantum_determinant", doubled)
    monkeypatch.setattr(hopf, "quantum_determinant", doubled)
    P = build("suq", 2)
    assert all(presentations.matches_construction(P).values())
    assert not hopf.det_fact(P, "grouplike")
    with pytest.raises(AxiomFails) as exc:
        verify_hopf(P)
    assert exc.value.axiom == "delta-kills-relations"


@pytest.mark.parametrize("name", ["suq", "uq"])
def test_star_lemma_needs_the_transpose_to_keep_the_ideal(monkeypatch, name):
    # u12 = 0 added to the construction: still a Hopf ideal, but the
    # transpose sends u12 to u21, outside it, and star(u12) = -q^-1 u21
    from qsphere import presentations

    rules = presentations._mq_rules
    monkeypatch.setattr(
        presentations, "_mq_rules", lambda N: rules(N) + [Rule((u(1, 2),), NcPoly())]
    )
    P = build(name, 2)
    assert verify_hopf(P)["relation_kills"] == "lemma"
    laws = star_laws(P)
    assert (laws["closure"], laws["relation_kills"]) == (False, "loop")


def test_verify_hopf_on_suq4_never_builds_det_squared():
    P = build("suq", 4)
    report = verify_hopf(P)
    assert report["relation_kills"] == "lemma"
    assert "det-grouplike-in-mq" in report["hypotheses"]
    assert len(P._det_pows) <= 2


def test_verify_hopf_memo_follows_replaced_tables():
    P = build("suq", 2)
    assert verify_hopf(P)["relation_kills"] == "lemma"
    _antipode_u12_doubled(P)
    with pytest.raises(AxiomFails) as exc:
        verify_hopf(P)
    assert exc.value.axiom == "antipode-kills-relations"


# -- the exact zero test on tensors -----------------------------------------


def _tensor(x: NcPoly, other, pos):
    """The word-tuple dict of x tensored with the word ``other``; x on leg pos."""
    return {
        (w, other) if pos == 0 else (other, w): c for w, c in x.terms.items()
    }


def _uq2_hidden_zero(P):
    """A uq(2) element that is zero, though its normal form is not: one
    unresolved ambiguity of the non-confluent system."""
    x = P.system.check_confluence().unresolved[0].difference
    assert not P.nf(x).is_zero and any(DINV in w for w in x.terms)
    return x


def test_tensor_zero_after_quotient_step():
    P = build("suq", 3)
    one = NcPoly.unit()
    x = P.nf(NcPoly.gen(u(2, 1)) * (quantum_determinant(3) - one))
    assert not x.is_zero  # plain rewriting does not see this zero
    assert tensor_zero(_tensor(x, (u(1, 1),), 0), (P, P))
    assert tensor_zero(_tensor(x, (u(1, 1),), 1), (P, P))


@pytest.mark.parametrize("pos", [0, 1])
def test_tensor_zero_after_clearing_dinv(pos):
    P = build("uq", 2)
    x = _uq2_hidden_zero(P)
    assert tensor_zero(_tensor(x, (u(1, 1),), pos), (P, P))
    # a sum over several words on the other leg is grouped per word
    d = _tensor(x, (u(1, 2), DINV), pos)
    d.update(_tensor(x.scale(q), (u(2, 1),), pos))
    assert tensor_zero(d, (P, P))
    # y = y2 in uq(2), only y2 carries dinv, and the words on the other leg
    # are equal but not identical: cancelling needs one map for both groups
    y = NcPoly.gen(u(2, 2))
    y2 = y - x.scale(q)
    assert any(DINV in w for w in P.nf(y2).terms)
    d = _tensor(y, (u(2, 1), u(1, 1)), pos)
    for key, c in _tensor(y2, (u(1, 1), u(2, 1)), pos).items():
        d[key] = -c * q ** (-1)
    assert tensor_zero(d, (P, P))


def test_tensor_zero_rejects_nonzero():
    P = build("uq", 2)
    x = _uq2_hidden_zero(P) + NcPoly.gen(u(1, 2))
    assert not tensor_zero(_tensor(x, (u(1, 1),), 0), (P, P))
    assert not tensor_zero(_tensor(x, (u(1, 1),), 1), (P, P))
    Q = build("suq", 3)
    assert not tensor_zero({((u(2, 1),), (u(1, 1),)): ONE}, (Q, Q))


def test_tensor_equal_beyond_free_dicts():
    P = build("uq", 2)
    # dinv D (x) u^1_1 and 1 (x) u^1_1: different free dicts, equal in uq(2)
    d1 = _tensor(NcPoly.gen(DINV) * quantum_determinant(2), (u(1, 1),), 0)
    d2 = {((), (u(1, 1),)): ONE}
    assert d1 != d2
    assert tensor_equal(d1, d2, (P, P))
    assert not tensor_equal(d1, {((), (u(1, 2),)): ONE}, (P, P))


# -- coactions --------------------------------------------------------------


@pytest.mark.parametrize("name", ["deltaR", "rho_u"])
def test_coactions_verify(name):
    rho = build_coaction(name, 2)
    mat = rho.matrix()
    # image of z_i is sum_j z_j (x) u^j_i
    assert mat[0][0] == NcPoly.gen(u(1, 1))
    assert mat[1][0] == NcPoly.gen(u(2, 1))


def test_coaction_n3():
    build_coaction("deltaR", 3)


def test_coaction_bad_name():
    with pytest.raises(ValueError):
        build_coaction("nope", 2)


# -- morphism builder -------------------------------------------------------


def test_morphism_identity_preset():
    Q = build("uq", 2)
    qmat = [[NcPoly.gen(u(i + 1, j + 1)) for j in range(2)] for i in range(2)]
    psi = build_u_morphism(Q, qmat)
    for g in psi.images:
        if g != DINV:
            assert psi.images[g] == NcPoly.gen(g)
    assert Q.equals(psi.images[DINV], NcPoly.gen(DINV))


@pytest.mark.parametrize("N", [2, 3])
def test_morphism_identity_prints_dinv(monkeypatch, N):
    # the printed image of dinv is the normal form of the free expansion
    # of S(D); the normal form of the factor-by-factor reduced S(D) has 21
    # terms on uq 3.  Verification is stubbed out to look at the image alone.
    monkeypatch.setattr(Morphism, "verify", lambda self: True)
    Q = build("uq", N)
    qmat = [[NcPoly.gen(u(i + 1, j + 1)) for j in range(N)] for i in range(N)]
    assert build_u_morphism(Q, qmat).images[DINV] == NcPoly.gen(DINV)


def test_morphism_torus_preset():
    Q = build_torus(2)
    qmat = [
        [NcPoly.gen(("T", i + 1)) if i == j else NcPoly() for j in range(2)]
        for i in range(2)
    ]
    psi = build_u_morphism(Q, qmat)
    assert psi.apply(NcPoly.gen(u(1, 1))) == NcPoly.gen(("T", 1))
    # dinv goes to the inverse of T1 T2
    prod = psi.images[DINV] * NcPoly.monomial((("T", 1), ("T", 2)))
    assert Q.equals(prod, NcPoly.unit())


def test_morphism_free_fails_at_frt():
    Q = build_free_matrix(2)
    qmat = [[NcPoly.gen(("a", i + 1, j + 1)) for j in range(2)] for i in range(2)]
    with pytest.raises(HypothesisFails) as exc:
        build_u_morphism(Q, qmat)
    assert exc.value.which == "ii"


def test_intertwine_identity():
    rho_u = build_coaction("rho_u", 2)
    rho = rho_u
    Q = rho_u.coeff
    qmat = [[NcPoly.gen(u(i + 1, j + 1)) for j in range(2)] for i in range(2)]
    psi = build_u_morphism(Q, qmat)
    assert check_intertwine(psi, rho_u, rho)


@pytest.mark.parametrize("N", [2, 3])
def test_star_steps_by_construction_match_the_loops(monkeypatch, N):
    maps = [embed_sphere(N), build_coaction("deltaR", N), build_coaction("rho_u", N)]
    assert all(m.report["star_step"] == "lemma" for m in maps)
    monkeypatch.setattr(hopf, "_star_step_by_construction", lambda *args: None)
    for m in maps:
        assert m.verify()["star_step"] == "loop"


def test_star_step_needs_both_hypotheses():
    rho = build_coaction("deltaR", 2)
    B, H = rho.source, rho.coeff
    free_star = lambda t: t.star(B.star, H.star)  # noqa: E731
    step = hopf._star_step_by_construction
    assert step(B, rho.images, rho._free_apply, free_star, (H,))
    # the image of star z_i is not the star of the image of z_i
    doubled = lambda t: free_star(t).scale(Scalar.from_int(2))  # noqa: E731
    assert step(B, rho.images, rho._free_apply, doubled, (H,)) is None
    # a coefficient star that is not an involution
    H_bad = copy.copy(H)
    H_bad.star = {**H.star, u(1, 1): H.star[u(1, 1)].scale(Scalar.from_int(2))}
    assert step(B, rho.images, rho._free_apply, free_star, (H_bad,)) is None


@pytest.mark.parametrize("name", ["deltaR", "rho_u"])
def test_coaction_star_step_falls_back_on_a_broken_star(name):
    H = build({"deltaR": "suq", "rho_u": "uq"}[name], 2)
    H.star = {**H.star, u(1, 2): H.star[u(1, 2)].scale(Scalar.from_int(2))}
    with pytest.raises(StarViolation):
        build_coaction(name, 2, coeff=H)


@pytest.mark.parametrize("name,N", [("deltaR", 2), ("rho_u", 2), ("rho_u", 3)])
def test_coaction_star_legs_match_free_expansion(name, N):
    # Coaction.verify stars each leg reduced after each factor; TensorPoly.star
    # is the free expansion
    rho = build_coaction(name, N)
    B, H = rho.source, rho.coeff
    for g in rho.images:
        img = rho.apply(NcPoly.gen(g))
        reduced = img.map_legs(
            lambda a: B.anti_extend(a, B.star), lambda h: H.anti_extend(h, H.star)
        )
        assert tensor_zero((reduced - img.star(B.star, H.star)).terms, (B, H)), g


# -- invariant form ---------------------------------------------------------


@pytest.mark.parametrize("N", [1, 2, 3])
def test_invariant_form_closed_forms(N):
    F, H = invariant_forms(N)
    assert F == invariant_form_matrix(N)
    c = q ** (2 * N) / sum((q ** (2 * m) for m in range(1, N + 1)), start=ZERO)
    for i in range(N):
        for j in range(N):
            assert H[i][j] == (c if i == j else ZERO)


def _bidegree(word, N):
    """The torus bidegree of a word: u^a_b counts (e_a; e_b), dinv -(1; 1)."""
    row, col = [0] * N, [0] * N
    for g in word:
        if g == DINV:
            row = [x - 1 for x in row]
            col = [x - 1 for x in col]
        else:
            row[g[1] - 1] += 1
            col[g[2] - 1] += 1
    return tuple(row), tuple(col)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_torus_bigrading_facts(N):
    # the graded solve of hopf._invariance_solution rests on these: the mq
    # rules are homogeneous, D has bidegree (1; 1) and S(u^i_k) has
    # bidegree (-e_k; -e_i), on suq up to (1; 1)
    for r in build("mq", N).system.rules:
        assert len({_bidegree(w, N) for w in (r.lhs, *r.rhs.terms)}) == 1, r
    ones = (1,) * N
    assert {_bidegree(w, N) for w in quantum_determinant(N).terms} == {(ones, ones)}

    def e(a, shift):
        return tuple(shift - (b == a) for b in range(1, N + 1))

    for name, shift in (("uq", 0), ("suq", 1)):
        S = build(name, N).structure.antipode
        for i in range(1, N + 1):
            for k in range(1, N + 1):
                degs = {_bidegree(w, N) for w in S[u(i, k)].terms}
                assert degs == {(e(k, shift), e(i, shift))}, (name, i, k)


@pytest.mark.parametrize("variant", ["z_zstar", "zstar_z"])
@pytest.mark.parametrize("name", ["uq", "suq"])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_graded_invariance_solve_matches_full_solve(N, name, variant):
    P = build(name, N)
    X, graded = hopf._solve_invariance(N, P, variant, True)
    Y, full = hopf._solve_invariance(N, P, variant, False)
    assert X == Y
    assert (graded["unknowns"], graded["products"]) == (N, N ** 3)
    assert (full["unknowns"], full["products"]) == (N * N, N ** 4)
    assert graded["rows"] <= full["rows"]


def test_invariance_solve_off_construction_is_full(monkeypatch):
    # S(u^1_1) scaled by q^2 keeps every bidegree, so both solves still
    # see the system as it is: it has only the zero solution
    P = build("uq", 3)
    _mutate(P, antipode={u(1, 1): P.structure.antipode[u(1, 1)].scale(q ** 2)})
    for variant in ("z_zstar", "zstar_z"):
        for graded in (True, False):
            with pytest.raises(Inconsistent):
                hopf._solve_invariance(3, P, variant, graded)
    seen = []
    solve = hopf._solve_invariance
    monkeypatch.setattr(
        hopf, "_solve_invariance", lambda *a: (seen.append(a[3]), solve(*a))[1]
    )
    with pytest.raises(Inconsistent):
        invariant_forms(3, P)
    assert seen == [False]


def test_form_preserved_by_coaction():
    rho = build_coaction("deltaR", 2)
    H = invariant_forms(2)[1]
    assert check_form_preservation(rho, H)
    # scaling preserves the invariance equation; a perturbed matrix fails
    bad = [[H[i][j] + (ONE if (i, j) == (0, 1) else ZERO) for j in range(2)]
           for i in range(2)]
    assert not check_form_preservation(rho, bad)


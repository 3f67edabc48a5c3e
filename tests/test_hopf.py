"""Hopf axioms, coactions, the morphism builder and the invariant form."""

import pytest

from qsphere.errors import HypothesisFails, MissingStructureMaps
from qsphere.freealg import DINV, NcPoly, TensorPoly, u, z, zs
from qsphere.hopf import (
    antipode,
    build_coaction,
    build_u_morphism,
    check_form_preservation,
    check_grouplike,
    check_intertwine,
    coproduct,
    counit,
    solve_invariant_form,
    tensor_equal,
    tensor_zero,
    verify_hopf,
)
from qsphere.presentations import (
    build,
    build_free_matrix,
    build_torus,
    invariant_form_matrix,
    quantum_determinant,
)
from qsphere.scalars import DeformationContext, ONE, ZERO

ctx = DeformationContext.standard()
q = ctx.q


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


# -- axioms -----------------------------------------------------------------


@pytest.mark.parametrize("name", ["mq", "suq", "uq"])
def test_verify_hopf_degree2(name):
    P = build(name, 2)
    stats = verify_hopf(P, 2)
    assert stats["basis_words_checked"] > 0
    assert stats["antipode_checked"] == (name != "mq")


def test_det_grouplike():
    P = build("mq", 2)
    assert check_grouplike(quantum_determinant(2), P)
    assert not check_grouplike(NcPoly.gen(u(1, 2)), P)


def test_torus_hopf():
    verify_hopf(build_torus(2), 2)


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


# -- invariant form ---------------------------------------------------------


@pytest.mark.parametrize("N", [1, 2, 3])
def test_invariant_form_closed_forms(N):
    F = solve_invariant_form(N, "z_zstar")
    assert F == invariant_form_matrix(N, ctx)
    H = solve_invariant_form(N, "zstar_z")
    c = q ** (2 * N) / sum((q ** (2 * m) for m in range(1, N + 1)), start=ZERO)
    for i in range(N):
        for j in range(N):
            assert H[i][j] == (c if i == j else ZERO)


def test_form_preserved_by_coaction():
    rho = build_coaction("deltaR", 2)
    H = solve_invariant_form(2, "zstar_z")
    assert check_form_preservation(rho, H)
    # scaling preserves the invariance equation; a perturbed matrix fails
    bad = [[H[i][j] + (ONE if (i, j) == (0, 1) else ZERO) for j in range(2)]
           for i in range(2)]
    assert not check_form_preservation(rho, bad)


def test_invariant_form_bad_variant():
    with pytest.raises(ValueError):
        solve_invariant_form(2, "nope")

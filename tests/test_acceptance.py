"""Acceptance suite: one test and one summary line per headline capability.

Each test re-derives its expected values from first principles (closed-form
counts, explicit matrices, independent recursions) rather than trusting the
code under test, then prints a single pass line.  A failing criterion shows
up as an ordinary pytest failure.
"""

from itertools import product
from math import comb

from qsphere.freealg import NcPoly, TensorPoly, u, z, zs
from qsphere.hopf import (
    Coaction,
    build_coaction,
    build_u_morphism,
    check_grouplike,
    check_intertwine,
    check_matrix_identities,
    counit,
    embed_sphere,
    invariant_forms,
    verify_hopf,
)
from qsphere.errors import HypothesisFails
from qsphere.linalg import identity, mat_mul
from qsphere.presentations import (
    build,
    build_free_matrix,
    build_torus,
    check_central,
    quantum_determinant,
)
from qsphere.rmatrix import check_cqt, check_hecke, mult_kernel, rhat, RFormEvaluator
from qsphere.scalars import ONE, QPARAM, ZERO
from qsphere.spectrum import d_eigenvalue, spectrum_with_multiplicities
from spectrum_oracles import bigraded_dim_check

import pytest

q = QPARAM


def _ok(name, detail):
    print(f"[PASS] {name}: {detail}")


def test_01_sphere_confluence_and_basis():
    for N in (2, 3):
        P = build("sphere", N)
        assert P.system.check_confluence().confluent
        graded = P.system.enumerate_basis(4)
        for d in range(5):
            want = sum(
                1
                for a in product(range(d + 1), repeat=N)
                for b in product(range(d + 1), repeat=N)
                if sum(a) + sum(b) == d and not (a[N - 1] and b[N - 1])
            )
            assert len(graded[d]) == want
    _ok("sphere-confluence-basis", "N=2,3 confluent; dims match counts to degree 4")


def test_02_mq_pbw_basis():
    for N in (2, 3):
        P = build("mq", N)
        assert P.system.check_confluence().confluent
        graded = P.system.enumerate_basis(4)
        for d in range(5):
            assert len(graded[d]) == comb(d + N * N - 1, N * N - 1)
    _ok("mq-pbw-basis", "N=2,3 confluent with ordered-monomial dimensions")


def test_03_hecke():
    for N in (2, 3, 4):
        assert check_hecke(N)
    _ok("hecke-identity", "(R-q)(R+1/q) = 0 exactly for N=2,3,4")


def test_04_multiplication_kernel():
    for N in (2, 3, 4):
        info = mult_kernel(build("sphere", N))
        assert info["dim_kernel"] == N * (N - 1) // 2
        assert info["equal"]
    _ok("multiplication-kernel", "ker mu = im(R-q), dim N(N-1)/2, N=2,3,4")


def test_05_quantum_determinant():
    for N in (2, 3):
        P = build("mq", N)
        det = quantum_determinant(N)
        assert check_central(det, P)
        assert check_grouplike(det, P)
        assert counit(det, P) == ONE
    _ok("quantum-determinant", "central, group-like, counit 1 for N=2,3")


def test_06_matrix_identities():
    for name in ("suq", "uq"):
        for N in (2, 3):
            report = check_matrix_identities(build(name, N))
            assert all(report.values())
            if name == "uq":
                assert "E-relation-left" in report
    _ok("matrix-identities", "antipode/star/E-relation identities, suq+uq, N=2,3")


def test_07_hopf_axioms():
    for name in ("suq", "uq"):
        P = build(name, 2)
        stats = verify_hopf(P)
        assert stats["generators_checked"] == len(P.generators)
        assert stats["antipode_checked"]
    _ok("hopf-axioms", "coassociativity/counit/antipode laws in every degree, suq(2)+uq(2)")


def test_08_embedding_and_coactions():
    for N in (2, 3):
        embed_sphere(N)  # verifies internally, raises on any residual
        build_coaction("deltaR", N)
        build_coaction("rho_u", N)
    _ok("embedding-coactions", "sphere embedding and both coactions exact, N=2,3")


def test_09_cqt_structure():
    stats = check_cqt(build("suq", 2))
    assert stats["decided"][-1] == {"fact": "reality", "by": "star-lemma",
                                    "hypotheses": ["star-laws", "reality-on-generators"]}
    # the braiding from the r-form is t*R; divided by t it is R, and it is
    # exactly symmetric (q is real, so symmetric is hermitian)
    M = RFormEvaluator(build("suq", 2)).sigma_matrix()
    assert M == rhat(2)
    assert M == [list(r) for r in zip(*M)]
    _ok("cqt-structure", "r-form axioms on suq(2); sigma = t*R; hermitian exactly")


def test_10_invariant_form():
    for N in (1, 2, 3, 4):
        P = build("uq", N)
        S = P.structure.antipode
        norm = sum((q ** (2 * i) for i in range(N)), start=ZERO)
        F = [
            [(q ** (2 * i)) / norm if i == j else ZERO for j in range(N)]
            for i in range(N)
        ]
        c = q ** (2 * N) / sum((q ** (2 * m) for m in range(1, N + 1)), start=ZERO)
        H = [[c if i == j else ZERO for j in range(N)] for i in range(N)]
        # direct invariance identities, independent of the linear solver
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                accF = NcPoly()
                accH = NcPoly()
                for k in range(1, N + 1):
                    accF = accF + (NcPoly.gen(u(k, i)) * S[u(j, k)]).scale(F[k - 1][k - 1])
                    accH = accH + (S[u(i, k)] * NcPoly.gen(u(k, j))).scale(H[k - 1][k - 1])
                assert P.equals(accF, NcPoly.unit(F[i - 1][j - 1]) if i == j else NcPoly())
                assert P.equals(accH, NcPoly.unit(H[i - 1][j - 1]) if i == j else NcPoly())
        # and the solver recovers exactly these matrices
        assert invariant_forms(N) == (F, H)
    _ok("invariant-form", "closed-form F and H verified and uniquely solved, N=1..4")


def test_11_morphism_builder():
    for N in (2, 3):
        Q = build("uq", N)
        qmat = [[NcPoly.gen(u(i + 1, j + 1)) for j in range(N)] for i in range(N)]
        psi = build_u_morphism(Q, qmat)
        rho_u = build_coaction("rho_u", N)
        assert check_intertwine(psi, rho_u, rho_u)
    T = build_torus(2)
    tmat = [
        [NcPoly.gen(("T", i + 1)) if i == j else NcPoly() for j in range(2)]
        for i in range(2)
    ]
    psi_t = build_u_morphism(T, tmat)
    sphere2 = build("sphere", 2)
    torus_images = {}
    for i in (1, 2):
        torus_images[z(i)] = TensorPoly.monomial((z(i),), (("T", i),))
        torus_images[zs(i)] = TensorPoly.monomial((zs(i),), (("Ts", i),))
    rho_t = Coaction(sphere2, T, torus_images)
    rho_t.verify()
    rho_u2 = build_coaction("rho_u", 2)
    assert check_intertwine(psi_t, rho_u2, rho_t)
    F = build_free_matrix(2)
    fmat = [[NcPoly.gen(("a", i + 1, j + 1)) for j in range(2)] for i in range(2)]
    with pytest.raises(HypothesisFails) as exc:
        build_u_morphism(F, fmat)
    assert exc.value.which == "ii"
    _ok("morphism-builder", "identity/torus presets intertwine; free preset fails at (ii)")


def test_12_dirac_spectrum():
    for n in range(0, 7):
        for k in range(0, 7 - n):
            want = -k if n == 0 else n + k
            assert d_eigenvalue(n, k) == want
    out = spectrum_with_multiplicities(3, 2)
    mult = {e["eigenvalue"]: e["multiplicity"] for e in out["spectrum"]}
    assert mult[-1] == 3 and mult[1] == 3 and mult[2] == 14
    bi = bigraded_dim_check(3, 1, 1)
    assert bi["rank"] == 9 and bi["predicted"] == 9 and bi["equal"]
    _ok("dirac-spectrum", "eigenvalue ledger; N=3 multiplicities 3/3/14; bidegree (1,1) rank 9")

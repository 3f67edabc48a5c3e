"""Coalgebra structure maps, coactions, morphisms and the invariant form.

The coproduct, counit and antipode of a presentation are stored on the
generators and extended (anti)multiplicatively here.  The Hopf axioms are
verified by relation-kill checks plus the laws on each generator, which
proves them in every degree (see ``verify_hopf``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    AxiomFails,
    HypothesisFails,
    Inconsistent,
    MissingStructureMaps,
    RelationViolation,
    SolutionNotUnique,
    StarViolation,
)
from .freealg import DINV, NcPoly, TensorPoly, u, word_name, z, zs
from .linalg import nullspace
from .presentations import (
    Presentation,
    build,
    quantum_determinant,
)
from .scalars import DeformationContext, ONE, ZERO, Scalar


@dataclass
class StructureMaps:
    delta: dict  # generator -> TensorPoly
    epsilon: dict  # generator -> Scalar
    antipode: dict | None  # generator -> NcPoly; None for plain bialgebras


# ---------------------------------------------------------------------------
# structure-map extensions
# ---------------------------------------------------------------------------


def _require_structure(P: Presentation) -> StructureMaps:
    if P.structure is None:
        raise MissingStructureMaps(f"{P.name}({P.N}) has no structure maps")
    return P.structure


def delta_word(word, P: Presentation) -> TensorPoly:
    """Coproduct of a single word in the free algebra (legs not normalized)."""
    maps = _require_structure(P)
    out = TensorPoly.unit()
    for g in word:
        out = out * maps.delta[g]
    return out


def coproduct(a: NcPoly, P: Presentation) -> TensorPoly:
    """Multiplicative extension of the generator coproducts, leg-normalized."""
    out = TensorPoly()
    for w, c in a.terms.items():
        piece = delta_word(w, P).scale(c)
        for k, c2 in piece.terms.items():
            out._iadd_term(k, c2)
    return out.map_legs(P.reduce, P.reduce)


def counit(a: NcPoly, P: Presentation) -> Scalar:
    maps = _require_structure(P)
    total = ZERO
    for w, c in a.terms.items():
        val = c
        for g in w:
            val = val * maps.epsilon[g]
            if val.is_zero:
                break
        total = total + val
    return total


def _antipode_table(P: Presentation) -> dict:
    maps = _require_structure(P)
    if maps.antipode is None:
        raise MissingStructureMaps(f"{P.name}({P.N}) has no antipode")
    return maps.antipode


def antipode(a: NcPoly, P: Presentation) -> NcPoly:
    """S(a), reduced after each factor (``Presentation.anti_extend``): a
    polynomial congruent to S(a), not its normal form."""
    return P.anti_extend(a, _antipode_table(P))


# ---------------------------------------------------------------------------
# triple tensors (for coassociativity); keys are word triples
# ---------------------------------------------------------------------------


def _triple_add(d, key, c):
    cur = d.get(key)
    s = c if cur is None else cur + c
    if s.is_zero:
        d.pop(key, None)
    else:
        d[key] = s


def _expand_delta_leg(t: TensorPoly, P: Presentation, leg: int) -> dict:
    """Apply the coproduct to one leg of a TensorPoly, giving a triple dict."""
    out = {}
    for (w1, w2), c in t.terms.items():
        inner = delta_word(w1 if leg == 0 else w2, P)
        for (a, b), c2 in inner.terms.items():
            key = (a, b, w2) if leg == 0 else (w1, a, b)
            _triple_add(out, key, c * c2)
    return out


def tensor_zero(d: dict, legs) -> bool:
    """Exact zero test of a word-tuple dict with legs in the given algebras.

    Leg by leg, the keys are grouped by their words on the other legs and
    each group is sent through that leg's ``zero_test_images``; the tensor
    product of maps injective on the algebras is injective on their tensor
    product, so the tensor vanishes exactly when nothing is left.
    """
    for i, P in enumerate(legs):
        if not d:
            break
        groups = {}
        for key, c in d.items():
            rest = key[:i] + key[i + 1 :]
            groups.setdefault(rest, NcPoly())._iadd_term(key[i], c)
        d = {}
        for rest, img in zip(groups, P.zero_test_images(groups.values())):
            for w, c in img.terms.items():
                d[rest[:i] + (w,) + rest[i:]] = c
    return not d


def tensor_equal(d1: dict, d2: dict, legs) -> bool:
    """Exact equality of word-tuple dicts with legs in the given algebras."""
    diff = dict(d1)
    for key, c in d2.items():
        _triple_add(diff, key, -c)
    return tensor_zero(diff, legs)


# ---------------------------------------------------------------------------
# Hopf axiom verification
# ---------------------------------------------------------------------------


def check_grouplike(x: NcPoly, P: Presentation) -> bool:
    """Delta(x) = x (x) x and epsilon(x) = 1, decided by the zero test."""
    dx = coproduct(x, P)
    xx = TensorPoly.of(P.reduce(x), P.reduce(x))
    return tensor_equal(dx.terms, xx.terms, (P, P)) and counit(x, P) == ONE


def verify_hopf(P: Presentation) -> dict:
    """Coassociativity, counit and antipode laws in every degree.  Raises
    AxiomFails with a witness on failure.

    Once Delta, epsilon and S kill every relation they are algebra (anti)
    homomorphisms on the quotient, so each side of coassociativity and of
    the counit laws is an algebra map, fixed by its values on generators.
    If m(S (x) id) Delta = epsilon holds on a and b, it holds on ab:
    sum S(b1) S(a1) a2 b2 = epsilon(a) epsilon(b); likewise m(id (x) S) Delta.
    So the laws on each generator prove them everywhere.
    """
    maps = _require_structure(P)

    for r in P.relations:
        if not tensor_zero(coproduct(r, P).terms, (P, P)):
            raise AxiomFails("delta-kills-relations", repr(r), coproduct(r, P))
        if not counit(r, P).is_zero:
            raise AxiomFails("epsilon-kills-relations", repr(r), counit(r, P))
        if maps.antipode is not None and not P.is_zero_elem(antipode(r, P)):
            raise AxiomFails("antipode-kills-relations", repr(r), antipode(r, P))

    for w in [(g,) for g in P.generators]:
        dw = delta_word(w, P)
        left = _expand_delta_leg(dw, P, 0)
        right = _expand_delta_leg(dw, P, 1)
        if not tensor_equal(left, right, (P, P, P)):
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
    return {
        "generators_checked": len(P.generators),
        "relations_checked": len(P.relations),
        "antipode_checked": maps.antipode is not None,
    }


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------


@dataclass
class Morphism:
    source: Presentation
    target: Presentation
    images: dict  # generator -> NcPoly in target

    def apply(self, a: NcPoly) -> NcPoly:
        out = NcPoly()
        for w, c in a.terms.items():
            img = NcPoly.unit(c)
            for g in w:
                img = img * self.images[g]
            for w2, c2 in img.terms.items():
                out._iadd_term(w2, c2)
        return self.target.reduce(out)

    def verify(self):
        """Check relations map to zero, and star-compatibility when defined."""
        for rel in self.source.relations:
            res = self.apply(rel)
            if not self.target.is_zero_elem(res):
                raise RelationViolation(repr(rel), res)
        if self.source.star is not None and self.target.star is not None:
            for g in self.images:
                lhs = self.apply(self.source.star[g])
                rhs = self.target.anti_extend(self.images[g], self.target.star)
                if not self.target.equals(lhs, rhs):
                    raise StarViolation(f"star breaks at {word_name((g,))}")
        return True


# ---------------------------------------------------------------------------
# coactions
# ---------------------------------------------------------------------------


@dataclass
class Coaction:
    source: Presentation  # B
    coeff: Presentation  # H
    images: dict  # generator of B -> TensorPoly with legs (B, H)

    def apply(self, a: NcPoly) -> TensorPoly:
        out = TensorPoly()
        for w, c in a.terms.items():
            img = TensorPoly.unit(c)
            for g in w:
                img = img * self.images[g]
            for k, c2 in img.terms.items():
                out._iadd_term(k, c2)
        return out.map_legs(self.source.reduce, self.coeff.reduce)

    def matrix(self):
        """qmat with qmat[j][i] = coefficient of z_j in the image of z_i."""
        N = self.source.N
        mat = [[NcPoly() for _ in range(N)] for _ in range(N)]
        for i in range(1, N + 1):
            for (wb, wh), c in self.images[z(i)].terms.items():
                assert len(wb) == 1 and wb[0][0] == "z"
                j = wb[0][1]
                mat[j - 1][i - 1] = mat[j - 1][i - 1] + NcPoly.monomial(wh, c)
        return mat

    def verify(self):
        B, H = self.source, self.coeff
        for rel in B.relations:
            res = self.apply(rel)
            if not tensor_zero(res.terms, (B, H)):
                raise RelationViolation(repr(rel), res)
        # coassociativity and counit on generators
        legs3 = (B, H, H)
        for g in self.images:
            img = self.apply(NcPoly.gen(g))
            left = {}
            for (wb, wh), c in img.terms.items():
                inner = TensorPoly.unit()
                for gb in wb:
                    inner = inner * self.images[gb]
                for (wb2, wh2), c2 in inner.terms.items():
                    _triple_add(left, (wb2, wh2, wh), c * c2)
            right = _expand_delta_leg(img, H, 1)
            if not tensor_equal(left, right, legs3):
                raise AxiomFails("coaction-coassociativity", word_name((g,)))
            back = NcPoly()
            for (wb, wh), c in img.terms.items():
                back = back + NcPoly.monomial(wb, c * counit(NcPoly.monomial(wh), H))
            if not B.equals(back, NcPoly.gen(g)):
                raise AxiomFails("coaction-counit", word_name((g,)))
        # star-compatibility on generators
        if B.star is not None and H.star is not None:
            for g in self.images:
                lhs = self.apply(B.star[g])
                rhs = self.apply(NcPoly.gen(g)).map_legs(
                    lambda a: B.anti_extend(a, B.star),
                    lambda h: H.anti_extend(h, H.star),
                )
                if not tensor_equal(lhs.terms, rhs.terms, (B, H)):
                    raise StarViolation(f"coaction star breaks at {word_name((g,))}")
        return True


def build_coaction(name: str, N: int, ctx: DeformationContext | None = None) -> Coaction:
    """The sphere coactions: coefficient leg in suq(N) (deltaR) or uq(N) (rho_u)."""
    if N < 2:
        raise ValueError("coactions need N >= 2")
    ctx = ctx or DeformationContext.standard()
    sphere = build("sphere", N, ctx)
    if name == "deltaR":
        H = build("suq", N, ctx)
    elif name == "rho_u":
        H = build("uq", N, ctx)
    else:
        raise ValueError(f"unknown coaction {name!r}")
    S = H.structure.antipode
    images = {}
    for i in range(1, N + 1):
        ti = TensorPoly()
        for j in range(1, N + 1):
            ti._iadd_term(((z(j),), (u(j, i),)), ONE)
        images[z(i)] = ti
        tsi = TensorPoly()
        for j in range(1, N + 1):
            piece = TensorPoly.of(NcPoly.gen(zs(j)), S[u(i, j)])
            for k, c in piece.terms.items():
                tsi._iadd_term(k, c)
        images[zs(i)] = tsi
    rho = Coaction(sphere, H, images)
    rho.verify()
    return rho


# ---------------------------------------------------------------------------
# the morphism builder (comodule-algebra coactions -> unitary-group morphism)
# ---------------------------------------------------------------------------


def build_u_morphism(Q: Presentation, qmat, N: int | None = None) -> Morphism:
    """Construct the unique star-morphism from uq(N) sending u^i_j to qmat[i][j].

    Checks, in order: (i) the comatrix coalgebra condition on qmat, (ii) the
    FRT relations among the entries, (iii) unitarity qmat qmat* = I.  Then
    the inverse determinant is sent to the antipode of the determinant image,
    every uq relation is verified to map to zero, and star-compatibility is
    verified.
    """
    N = N or len(qmat)
    ctx = Q.ctx
    # (i) comatrix condition
    for i in range(N):
        for j in range(N):
            want = TensorPoly()
            for k in range(N):
                piece = TensorPoly.of(qmat[i][k], qmat[k][j])
                for key, c in piece.terms.items():
                    want._iadd_term(key, c)
            got = coproduct(qmat[i][j], Q)
            if not tensor_equal(got.terms, want.terms, (Q, Q)):
                raise HypothesisFails("i", f"coproduct of entry ({i+1},{j+1})")
            eps = counit(qmat[i][j], Q)
            if eps != (ONE if i == j else ZERO):
                raise HypothesisFails("i", f"counit of entry ({i+1},{j+1})")
    # (ii) FRT relations
    mq = build("mq", N, ctx)
    subs = {u(i + 1, j + 1): qmat[i][j] for i in range(N) for j in range(N)}
    tmp = Morphism(mq, Q, subs)
    for rel in mq.relations:
        if not Q.is_zero_elem(tmp.apply(rel)):
            raise HypothesisFails("ii", repr(rel))
    # (iii) unitarity
    for i in range(N):
        for j in range(N):
            acc = NcPoly()
            for k in range(N):
                acc = acc + qmat[i][k] * qmat[j][k].star(Q.star)
            want = NcPoly.unit() if i == j else NcPoly()
            if not Q.equals(acc, want):
                raise HypothesisFails("iii", f"(q q*)_{i+1}{j+1}")
    # construct the morphism
    uq = build("uq", N, ctx)
    det_image = tmp.apply(quantum_determinant(N, ctx))
    images = dict(subs)
    # the printed image of dinv is the normal form of the free expansion of
    # S(det image): ``star`` with the antipode table is that expansion, as
    # both are antimultiplicative and fix scalars.  A reduced antipode is
    # not canonical, so its normal form can differ (21 terms on uq 3).
    images[DINV] = Q.nf(det_image.star(_antipode_table(Q)))
    psi = Morphism(uq, Q, images)
    psi.verify()
    return psi


def check_intertwine(psi: Morphism, rho_u: Coaction, rho: Coaction) -> bool:
    """(id (x) psi) rho_u = rho on the sphere generators."""
    B = rho.source
    H = rho.coeff
    for g in rho_u.images:
        pushed = rho_u.apply(NcPoly.gen(g)).map_legs(B.reduce, psi.apply)
        if not tensor_equal(pushed.terms, rho.apply(NcPoly.gen(g)).terms, (B, H)):
            return False
    return True


# ---------------------------------------------------------------------------
# the invariant form
# ---------------------------------------------------------------------------


def _invariance_solution(N: int, P: Presentation, variant: str):
    """Solve the invariance linear system over the scalar field.

    Unknowns X_{kl}; equations, per (i,j), compared word by word after
    ``P.zero_test_images``:
      zstar_z:  sum_{k,l} X_{kl} S(u^i_k) u^l_j = X_{ij} 1
      z_zstar:  sum_{k,l} X_{kl} u^k_i S(u^j_l) = X_{ij} 1
    """
    S = P.structure.antipode
    unknowns = [(k, l) for k in range(1, N + 1) for l in range(1, N + 1)]
    col = {kl: idx for idx, kl in enumerate(unknowns)}
    rows = []
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if variant == "zstar_z":
                polys = [S[u(i, k)] * NcPoly.gen(u(l, j)) for k, l in unknowns]
            else:
                polys = [NcPoly.gen(u(k, i)) * S[u(j, l)] for k, l in unknowns]
            *images, unit_side = P.zero_test_images(polys + [NcPoly.unit()])
            words = set(unit_side.terms)
            for p in images:
                words.update(p.terms)
            for w in sorted(words):
                row = [p.coeff(w) for p in images]
                cu = unit_side.coeff(w)
                if not cu.is_zero:
                    row[col[(i, j)]] = row[col[(i, j)]] - cu
                if any(not x.is_zero for x in row):
                    rows.append(row)
    if rows:
        basis = nullspace(rows)
    else:
        # no constraints at all: every matrix is invariant
        basis = [
            [ONE if k == c else ZERO for k in range(len(unknowns))]
            for c in range(len(unknowns))
        ]
    if len(basis) == 0:
        raise Inconsistent("invariance system has only the zero solution")
    if len(basis) > 1:
        raise SolutionNotUnique(f"solution space has dimension {len(basis)}")
    v = basis[0]
    return [[v[col[(k, l)]] for l in range(1, N + 1)] for k in range(1, N + 1)]


def _trace_normalized_form(N: int, P: Presentation):
    """The z_zstar solution F, normalized to trace 1 (the unit relation of
    the sphere)."""
    F = _invariance_solution(N, P, "z_zstar")
    tr = ZERO
    for k in range(N):
        tr = tr + F[k][k]
    if tr.is_zero:
        raise Inconsistent("trace of the z_zstar solution vanishes")
    return [[x / tr for x in row] for row in F]


def invariant_forms(N: int, ctx: DeformationContext | None = None,
                    P: Presentation | None = None):
    """Both invariant forms (F, H), each invariance system solved once.

    H is normalized through the rewriting link between the two variants:
    the corner entries agree, H_NN = F_NN.
    """
    P = P or build("uq", N, ctx)
    F = _trace_normalized_form(N, P)
    H = _invariance_solution(N, P, "zstar_z")
    corner = H[N - 1][N - 1]
    if corner.is_zero:
        raise Inconsistent("corner entry of the zstar_z solution vanishes")
    scale = F[N - 1][N - 1] / corner
    return F, [[x * scale for x in row] for row in H]


def solve_invariant_form(
    N: int,
    variant: str,
    ctx: DeformationContext | None = None,
    P: Presentation | None = None,
):
    """The matrix of the Haar-induced inner product on the span of the
    generators, as the unique normalized solution of the invariance system.

    ``z_zstar`` returns the matrix F with F_{ij} ~ h(z_i z*_j), normalized to
    trace 1.  ``zstar_z`` returns H with H_{ij} ~ h(z*_i z_j), normalized as
    in ``invariant_forms``.
    """
    if variant not in ("zstar_z", "z_zstar"):
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "zstar_z":
        return invariant_forms(N, ctx, P)[1]
    return _trace_normalized_form(N, P or build("uq", N, ctx))


def check_form_preservation(rho: Coaction, hmat) -> bool:
    """Does the coaction preserve the sesquilinear form with matrix hmat?

    Verifies sum_{k,l} hmat_{kl} (q^k_i)* q^l_j = hmat_{ij} 1 in the
    coefficient algebra, with qmat read off the coaction.
    """
    H = rho.coeff
    qmat = rho.matrix()
    N = len(qmat)
    for i in range(N):
        for j in range(N):
            acc = NcPoly()
            for k in range(N):
                for l in range(N):
                    c = hmat[k][l]
                    if not c.is_zero:
                        acc = acc + (qmat[k][i].star(H.star) * qmat[l][j]).scale(c)
            want = NcPoly.unit(hmat[i][j]) if not hmat[i][j].is_zero else NcPoly()
            if not H.equals(acc, want):
                return False
    return True

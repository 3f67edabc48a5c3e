"""Coalgebra structure maps, star laws, morphisms, coactions and the
invariant form.

The coproduct, counit and antipode of a presentation are stored on the
generators and extended (anti)multiplicatively here.  The Hopf axioms are
verified by relation kills plus the laws on each generator, which proves
them in every degree (see ``verify_hopf``).  The quantum exterior algebra
proves D group-like (``det_grouplike``) and the quantum Laplace expansions
(``cofactor_expansions``), which D central, the antipode laws, the matrix
identities and the invariant-form systems read.  On the standard presentations
the kills of the coproduct, the antipode and the star are proved from
generator-level lemmas; elsewhere each relation is mapped and tested.
Each decision is kept as a ``record`` of the fact, the lemma or
certificate that proved it (or the loop) and the exact checks of its
hypotheses; a report lists the records it rests on, each fact once.

The three maps of ``coaction-eq20`` (the sphere embedding into suq, deltaR
into sphere (x) suq and rho_u into sphere (x) uq) are decided by four
lemmas where their hypotheses hold, each checked exactly at run time; the
loops stay as the fallback and the test oracle.  Write J for the ideal of
the target (I_B (x) F + F (x) I_H for a coaction with coefficients in H).

1. Relation kills on star orbits (``_relations_to_test``).  Where the
   star step holds by construction, phi star and star phi are
   antimultiplicative maps of the free source algebra that agree on
   generators modulo J, so phi(star r) = star phi(r) mod J.  Where also
   the source star maps the relations among themselves, as free
   polynomials, and the target star keeps J (``star_lemma``; on the sphere
   leg the permuted relations show it), phi kills star r whenever it kills
   r.  So only the first relation of each orbit {r, star r} is tested, in
   relation order, which meets the same first failure as the full loop.
2. Coaction laws from the Hopf axioms of H (``Coaction._laws_by_hopf``).
   With z_i -> sum_j z_j (x) u^j_i and z*_i -> sum_j z*_j (x) S(u^i_j),
   and Delta, epsilon the matrix tables, coassociativity on z_i is an
   equality of free tensors, and on z*_i it is
   Delta S(u^i_k) = sum_j S(u^j_k) (x) S(u^i_j), that is
   Delta S = (S (x) S) Delta^op; the counit law on z*_i is epsilon S =
   epsilon.  Both hold in every Hopf algebra (Kassel, Quantum Groups,
   III.3), so ``verify_hopf(H)`` proves the laws on generators.
3. deltaR from rho_u (``deltaR_from_rho_u``).  suq is the quotient of uq
   by D = 1.  Let pi be the quotient map (u -> u, dinv -> 1), a
   well-defined star map with (pi (x) pi) Delta = Delta pi and
   epsilon pi = epsilon on generators, hence everywhere, both sides being
   algebra maps.  Where deltaR = (id (x) pi) rho_u on generators, it is so
   everywhere.  Then deltaR kills the sphere's relations because rho_u
   does and pi maps the ideal of uq into that of suq;
   (deltaR (x) id) deltaR = (id (x) pi (x) pi)(rho_u (x) id) rho_u =
   (id (x) pi (x) pi)(id (x) Delta) rho_u = (id (x) Delta) deltaR;
   (id (x) epsilon) deltaR = (id (x) epsilon pi) rho_u = id; and
   deltaR star = (id (x) pi)(star (x) star) rho_u = (star (x) star) deltaR.
4. The embedding from deltaR (``embedding_from_deltaR``).  The point
   z = (1, 0, ..., 0) of the sphere, chi: z_1, z*_1 -> 1 and every other
   generator -> 0, kills the sphere's relations and has real values, so
   chi star = chi.  (chi (x) id) deltaR sends z_i to u^1_i and z*_i to
   S(u^i_1), as the embedding does.  It kills the sphere's relations, as
   chi kills I_B and deltaR maps I_B into I_B (x) F + F (x) I_suq, and
   (chi (x) id) deltaR star = (chi star (x) star) deltaR =
   star (chi (x) id) deltaR.
"""

from __future__ import annotations

from .errors import (
    AxiomFails,
    HypothesisFails,
    IdentityFails,
    Inconsistent,
    MissingStructureMaps,
    RelationViolation,
    SolutionNotUnique,
    StarViolation,
    UndefinedStar,
)
from .freealg import DINV, NcPoly, TensorPoly, u, word_name, z, zs
from .linalg import nullspace
from .presentations import (
    Presentation,
    StructureMaps,
    antipode_matrix,
    as_built,
    build,
    build_exterior,
    check_central,
    generator_matrix,
    identity_defect,
    invariant_form_matrix,
    matrix_mul,
    quantum_determinant,
)
from .scalars import ONE, QPARAM, ZERO, Scalar


# ---------------------------------------------------------------------------
# structure-map extensions
# ---------------------------------------------------------------------------


def _require_structure(P: Presentation) -> StructureMaps:
    if P.structure is None:
        raise MissingStructureMaps(f"{P.name}({P.N}) has no structure maps")
    return P.structure


def delta_word(word, P: Presentation) -> TensorPoly:
    """Coproduct of a single word in the free algebra (legs not normalized)."""
    return TensorPoly.extend(NcPoly.monomial(word), _require_structure(P).delta)


def _free_coproduct(a: NcPoly, P: Presentation) -> TensorPoly:
    """Multiplicative extension of the generator coproducts, legs as they
    come; ``tensor_zero`` decides it as it is."""
    return TensorPoly.extend(a, _require_structure(P).delta)


def coproduct(a: NcPoly, P: Presentation) -> TensorPoly:
    """Multiplicative extension of the generator coproducts, leg-normalized."""
    return _free_coproduct(a, P).map_legs(P.reduce, P.reduce)


def _evaluate(a: NcPoly, values: dict) -> Scalar:
    """The image of a under the character of the free algebra that sends
    each generator g to the scalar values[g]."""
    total = ZERO
    for w, c in a.terms.items():
        val = c
        for g in w:
            val = val * values[g]
            if val.is_zero:
                break
        total = total + val
    return total


def counit(a: NcPoly, P: Presentation) -> Scalar:
    return _evaluate(a, _require_structure(P).epsilon)


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
# records of how each fact was decided
# ---------------------------------------------------------------------------


def record(fact: str, by: str = "loop", hypotheses=None) -> dict:
    """How ``fact`` was decided: ``by`` the lemma or certificate named,
    whose hypotheses are the exact checks listed (a fact named there, or
    in ``by``, has its own record before this one), or, where
    ``hypotheses`` is None, by the loop."""
    if hypotheses is None:
        return {"fact": fact, "by": "loop", "hypotheses": []}
    return {"fact": fact, "by": by, "hypotheses": list(hypotheses)}


def _by_cofactors(fact: str, hypotheses) -> list:
    """The records of a fact read off ``cofactor_expansions`` under the
    given hypotheses, the certificate's first; or the fact's loop where
    ``hypotheses`` is None."""
    if hypotheses is None:
        return [record(fact)]
    return [record("cofactor-expansions", "exterior-algebra", _COFACTORS),
            record(fact, "cofactor-expansions", hypotheses)]


# ---------------------------------------------------------------------------
# Hopf axiom verification
# ---------------------------------------------------------------------------


def check_grouplike(x: NcPoly, P: Presentation) -> bool:
    """Delta(x) = x (x) x and epsilon(x) = 1, decided by the zero test on
    the free tensors (``tensor_zero`` is exact on any word tuples)."""
    dx = _free_coproduct(x, P)
    return tensor_equal(dx.terms, TensorPoly.of(x, x).terms, (P, P)) and counit(x, P) == ONE


_EXTERIOR = ["mq-as-built", "exterior-algebra-confluent", "coaction-kills-exterior-relations"]
_COFACTORS = [*_EXTERIOR, "top-image-is-det", "exterior-products", "row-coaction-on-minors",
              "column-coaction-kills-exterior-relations", "column-coaction-on-minors",
              "column-top-image-is-det"]


def det_grouplike(P: Presentation):
    """Is the quantum determinant D group-like in the mq of P (P itself on
    mq, its companion on suq and uq), and how was it decided: the pair of
    the verdict and the list of its one ``record``, by
    ``"exterior-algebra"`` with hypotheses 1-5 below or by the loop.
    Computed once per mq and its tables, and shared by
    ``det-central-rem36`` and the relation-kill lemmas.  The fact carries
    over from mq to suq and uq: they are quotients of mq (uq after
    adjoining the central dinv) by ideals that Delta respects.

    D group-like, Delta(D) = D (x) D and epsilon(D) = 1, is proved through
    the quantum exterior algebra L (``build_exterior``: x_i x_i = 0 and
    x_j x_i = -q x_i x_j for i < j) with delta(x_i) = sum_k u^i_k (x) x_k,
    where these hypotheses hold, each checked exactly:

    1. ``mq-as-built``: mq is as built (``as_built``), so its relations and
       Delta table are those of the construction and Delta is an algebra
       map of mq by the FRT lemma of ``verify_hopf``;
    2. ``exterior-algebra-confluent``: L's system is confluent
       (``check_confluence``), so its normal form is canonical and
       x_1 ... x_N, a normal word, is not 0 in L;
    3. ``coaction-kills-exterior-relations``: delta kills every relation of
       L modulo I_mq (x) L (``tensor_zero`` with legs mq and L), so it is
       an algebra map L -> mq (x) L;
    4. ``coaction-coassociative``: (Delta (x) id) delta = (id (x) delta)
       delta on each x_i, as free tensors;
    5. ``top-image-is-det``: delta(x_1 ... x_N) = D (x) x_1 ... x_N, with D
       compared as a free polynomial with ``quantum_determinant``.

    Hypotheses 1-3 and the image of x_1 ... x_N are computed once per mq
    (``_exterior``) and shared with ``cofactor_expansions``.  Both sides of
    4 are algebra maps L -> mq (x) mq (x) L, so they agree on all of L.  On
    w = x_1 ... x_N, by 5, the left side is Delta(D) (x) w and the right
    side D (x) D (x) w.  As w is not 0 (2), Delta(D) = D (x) D in
    mq (x) mq.  epsilon(D) = 1 is computed.  Where a hypothesis fails the
    coproduct of D, N! N^N terms, is zero-tested instead
    (``check_grouplike``), which is also the test oracle.
    """
    mq = P.aux if P.aux is not None else P

    def decide():
        D = quantum_determinant(mq.N)
        if _exterior_proves_grouplike(mq, D):
            hypotheses = [*_EXTERIOR, "coaction-coassociative", "top-image-is-det"]
            return counit(D, mq) == ONE, [record("det-grouplike", "exterior-algebra", hypotheses)]
        return check_grouplike(D, mq), [record("det-grouplike")]

    return mq.memo("det-grouplike", decide)


def _exterior_proves_grouplike(mq: Presentation, D: NcPoly) -> bool:
    """Do hypotheses 1-5 of ``det_grouplike`` hold, with D in place of the
    quantum determinant?"""
    ext = _exterior(mq)
    if ext is None:
        return False
    for g in ext.L.generators:
        left, right = {}, {}
        for (a, (h,)), c in ext.row[g].terms.items():
            for (a1, a2), c1 in mq.structure.delta[a[0]].terms.items():
                _triple_add(left, (a1, a2, (h,)), c * c1)
            for (b, xk), c2 in ext.row[h].terms.items():
                _triple_add(right, (a, b, xk), c * c2)
        if left != right:
            return False
    return ext.top_image == TensorPoly.of(D, NcPoly.monomial(ext.top)).terms


class _Exterior:
    """The quantum exterior algebra L of mq's N (``build_exterior``), its
    row coaction delta(x_i) = sum_k u^i_k (x) x_k, and the image
    delta(x_1 ... x_N) once ``_exterior`` has checked hypotheses 1-3 of
    ``det_grouplike``."""

    def __init__(self, L: Presentation):
        self.L = L
        self.top = tuple(L.generators)
        self.row = self.coaction(column=False)
        self._products = {}  # (normal word w, generator h) -> terms of nf(w h)
        self.top_image = None  # set by ``_exterior``

    def coaction(self, column: bool) -> dict:
        """x_i -> sum_k u^i_k (x) x_k, or with ``column`` the column
        coaction x_i -> sum_k u^k_i (x) x_k."""
        N, x = self.L.N, self.L.generators
        return {
            x[i - 1]: TensorPoly({
                ((u(k, i) if column else u(i, k),), (x[k - 1],)): ONE
                for k in range(1, N + 1)
            })
            for i in range(1, N + 1)
        }

    def kills_relations(self, delta: dict, mq: Presentation) -> bool:
        """Does delta kill every relation of L modulo I_mq (x) L?"""
        return all(
            tensor_zero(TensorPoly.extend(r, delta).terms, (mq, self.L)) for r in self.L.relations
        )

    def image(self, delta: dict, word) -> dict:
        """delta(word) for a word of L, as a dict (mq word, L word) ->
        scalar: the mq leg free, the L leg reduced after each factor, so a
        repeated x_k drops at once and x_1 ... x_N has N! terms, not N^N."""
        products = self._products
        image = {((), ()): ONE}
        for g in word:
            step = {}
            for (a, w), c in image.items():
                for (b, (h,)), c1 in delta[g].terms.items():
                    nf = products.get((w, h))
                    if nf is None:
                        nf = products[w, h] = self.L.nf(NcPoly.monomial(w + (h,))).terms
                    for w2, c2 in nf.items():
                        _triple_add(step, (a + b, w2), c * c1 * c2)
            image = step
        return image


def _exterior(mq: Presentation):
    """The ``_Exterior`` of mq where hypotheses 1-3 of ``det_grouplike``
    hold and x_1 ... x_N is a normal word of L, else None; memoised on
    mq."""

    def build():
        if not as_built(mq):
            return None
        ext = _Exterior(build_exterior(mq.N))
        L, top = ext.L, NcPoly.monomial(ext.top)
        if not L.system.check_confluence().confluent or L.nf(top) != top:
            return None
        if not ext.kills_relations(ext.row, mq):
            return None
        ext.top_image = ext.image(ext.row, ext.top)
        return ext

    return mq.memo("exterior-algebra", build)


def cofactor_expansions(P: Presentation):
    """The quantum Laplace expansions in the mq of P, proved through the
    exterior algebra: the cofactor matrix A = ``antipode_matrix(N, "sl")``
    (A_ij is S(u^i_j) on suq) where they are proved, else None.  Computed
    once per mq and shared by D central (``det_central``), the antipode
    laws on generators (``verify_hopf``), ``check_matrix_identities`` and
    both invariant-form systems (``_invariance_solution``).  The four
    identities, for all i, j, with D the quantum determinant:

      (R)   sum_k u_ik A_kj = delta_ij D
      (Rq)  sum_k q^(-2k) A_ki u_jk = delta_ij q^(-2i) D
      (C)   sum_k A_ik u_kj = delta_ij D
      (Cq)  sum_k q^(2k) u_ki A_jk = delta_ij q^(2j) D

    In L write y_j = x_1 ... (x_j left out) ... x_N and top = x_1 ... x_N.
    Hypotheses, each checked exactly and named as in its record: those of
    ``_exterior`` and delta(top) = D (x) top, shared with
    ``det_grouplike``; x_i y_j = delta_ij (-q)^(j-1) top and
    y_j x_i = delta_ij (-q)^(N-j) top in L (``exterior-products``);
    delta(y_j) = sum_l (-q)^(j-l) A_lj (x) y_l as free tensors
    (``row-coaction-on-minors``); the column coaction
    delta'(x_i) = sum_k u_ki (x) x_k kills L's relations by ``tensor_zero``
    (``column-coaction-kills-exterior-relations``); in mq, by the zero
    test, the coefficient of y_l in delta'(y_j) is (-q)^(l-j) A_jl
    (``column-coaction-on-minors``) and delta'(top) = D' (x) top with
    D' = D (``column-top-image-is-det``).

    Both coactions are algebra maps L -> mq (x) L, and top is a basis word
    of L.  Applying delta to x_i y_j gives sum_k u_ik (-q)^(j-k) A_kj
    (-q)^(k-1) = delta_ij (-q)^(j-1) D, which is (R), and to y_j x_i, (Rq)
    after the swap of i and j.  Applying delta' to y_j x_i gives (C) and to
    x_i y_j, (Cq).  Where a hypothesis fails every consumer keeps its own
    loop, which is also its test oracle.  A consumer's records
    (``_by_cofactors``) list the certificate's, by ``"exterior-algebra"``.
    """
    mq = P.aux if P.aux is not None else P
    return mq.memo("cofactor-expansions", lambda: _cofactors_by_exterior(mq))


def _cofactors_by_exterior(mq: Presentation):
    ext = _exterior(mq)
    if ext is None:
        return None
    N, L = mq.N, ext.L
    x, top = L.generators, NcPoly.monomial(ext.top)
    D = quantum_determinant(N)
    if ext.top_image != TensorPoly.of(D, top).terms:
        return None
    sign = [(-QPARAM) ** e for e in range(-N, N + 1)]  # sign[N + e] = (-q)^e
    y = [tuple(g for g in x if g != xj) for xj in x]
    for i in range(N):
        for j in range(N):
            xy = top.scale(sign[N + j]) if i == j else NcPoly()
            yx = top.scale(sign[2 * N - 1 - j]) if i == j else NcPoly()
            if L.nf(NcPoly.monomial((x[i],) + y[j])) != xy:
                return None
            if L.nf(NcPoly.monomial(y[j] + (x[i],))) != yx:
                return None
    A = antipode_matrix(N, "sl")
    for j in range(N):
        want = {
            (w, y[l]): c * sign[N + j - l]
            for l in range(N) for w, c in A[l][j].terms.items()
        }
        if ext.image(ext.row, y[j]) != want:
            return None
    column = ext.coaction(column=True)
    if not ext.kills_relations(column, mq):
        return None
    differences = []
    for j in range(N):
        minors = {yl: NcPoly() for yl in y}
        for (a, w), c in ext.image(column, y[j]).items():
            if w not in minors:
                return None
            minors[w]._iadd_term(a, c)
        differences += [minors[y[l]] - A[j][l].scale(sign[N + l - j]) for l in range(N)]
    d_column = NcPoly()
    for (a, w), c in ext.image(column, ext.top).items():
        if w != ext.top:
            return None
        d_column._iadd_term(a, c)
    differences.append(d_column - D)
    if not all(p.is_zero for p in mq.zero_test_images(differences)):
        return None
    return A


def _cofactor_scope(P: Presentation):
    """The cofactor matrix A of ``cofactor_expansions`` where P is suq or uq
    as built (so D = 1 on suq, and dinv is central with dinv D = D dinv = 1
    on uq), with the determinant D and the antipode table S(u^i_j) = A_ij
    on suq, dinv A_ij on uq, as free polynomials, and the expansions hold
    in its mq; else None.  Memoised on P."""

    def scope():
        if P.aux is None or not as_built(P) or P.det != quantum_determinant(P.N):
            return None
        A = cofactor_expansions(P)
        if A is None:
            return None
        factor = NcPoly.gen(DINV) if P.name == "uq" else NcPoly.unit()
        S = P.structure.antipode
        N = P.N
        if any(S[u(i + 1, j + 1)] != factor * A[i][j] for i in range(N) for j in range(N)):
            return None
        return A

    return P.memo("cofactor-scope", scope)


def det_central(P: Presentation, x: NcPoly):
    """Is x central in the mq of P, and how was it decided: the pair of the
    verdict and its records.  Where x is the quantum determinant D, as a
    free polynomial, and ``cofactor_expansions`` holds, (R) and (C) say
    u A = A u = D I, so D u = (u A) u = u (A u) = u D entrywise, matrix
    multiplication being associative over any ring; D commutes with every
    generator.  Elsewhere x g - g x is zero-tested for each generator g
    (``check_central``), which is also the test oracle.  Not memoised, as
    the verdict depends on x."""
    mq = P.aux if P.aux is not None else P
    if x == quantum_determinant(mq.N) and cofactor_expansions(mq) is not None:
        return True, _by_cofactors("det-central", ["x-is-quantum-determinant"])
    return check_central(x, mq), _by_cofactors("det-central", None)


def _generator_law_failure(P: Presentation, by_cofactors: bool):
    """The first (axiom, witness) at which coassociativity, the counit law or
    the antipode law (both sides) fails on a generator, or None.  With
    ``by_cofactors`` (``_cofactor_scope`` holds) the antipode law on each
    u^i_j is not computed: m(S (x) id) Delta(u^i_j) = (S(u) u)_ij and
    m(id (x) S) Delta(u^i_j) = (u S(u))_ij, which are delta_ij by (C) and
    (R) of ``cofactor_expansions`` (times dinv on uq, central with
    dinv D = 1; D = 1 on suq), and epsilon(u^i_j) = delta_ij as built."""
    maps = P.structure
    for w in [(g,) for g in P.generators]:
        dw = delta_word(w, P)
        left = _expand_delta_leg(dw, P, 0)
        right = _expand_delta_leg(dw, P, 1)
        if not tensor_equal(left, right, (P, P, P)):
            return "coassociativity", word_name(w)
        wp = NcPoly.monomial(w)
        ce_left = NcPoly()
        ce_right = NcPoly()
        for (w1, w2), c in dw.terms.items():
            ce_left = ce_left + NcPoly.monomial(w2, c * counit(NcPoly.monomial(w1), P))
            ce_right = ce_right + NcPoly.monomial(w1, c * counit(NcPoly.monomial(w2), P))
        if not P.equals(ce_left, wp) or not P.equals(ce_right, wp):
            return "counit-law", word_name(w)
        if maps.antipode is not None and not (by_cofactors and w[0][0] == "u"):
            target = NcPoly.unit(counit(wp, P))
            m_s_id = NcPoly()
            m_id_s = NcPoly()
            for (w1, w2), c in dw.terms.items():
                m_s_id = m_s_id + antipode(NcPoly.monomial(w1), P).scale(c) * NcPoly.monomial(w2)
                m_id_s = m_id_s + NcPoly.monomial(w1, c) * antipode(NcPoly.monomial(w2), P)
            if not P.equals(m_s_id, target) or not P.equals(m_id_s, target):
                return "antipode-law", word_name(w)
    return None


def _kill_lemmas(P: Presentation, laws_hold: bool) -> set:
    """The maps among Delta and S whose relation kills follow from the
    lemmas of ``verify_hopf``."""
    if not as_built(P) or (P.det is not None and not det_grouplike(P)[0]):
        return set()
    return {"delta", "antipode"} if P.structure.antipode is not None and laws_hold else {"delta"}


def verify_hopf(P: Presentation) -> dict:
    """Coassociativity, counit and antipode laws in every degree.  Raises
    AxiomFails with a witness on failure.

    Once Delta, epsilon and S kill every relation they are algebra (anti)
    homomorphisms on the quotient, so each side of coassociativity and of
    the counit laws is an algebra map, fixed by its values on generators.
    If m(S (x) id) Delta = epsilon holds on a and b, it holds on ab:
    sum S(b1) S(a1) a2 b2 = epsilon(a) epsilon(b); likewise m(id (x) S) Delta.
    So the laws on each generator prove them everywhere.

    epsilon of a relation is a scalar and is always computed.  On mq, suq
    and uq as ``build`` makes them (``as_built``) the kills of Delta and S
    are proved instead of computed.  Write F for the free algebra, I for
    the ideal of the relations, I_mq for that of the FRT relations, u for
    the generator matrix and U = u_1 u_2, the matrix with entries
    U_(ij),(kl) = u_ik u_jl.  The FRT relations span the entries of
    X = R U - U R, for R the braiding matrix (rmatrix.rhat).

    * Delta, given the matrix coproduct table: Delta(U) = U (x). U, the
      matrix product with entries tensored, so Delta(X) = X (x). U +
      U (x). X lies in I (x) F + F (x) I.  D is group-like in mq, that is
      Delta(D) = D (x) D mod I_mq (x) F + F (x) I_mq (``det_grouplike``).
      Then Delta(D - 1) = (D - 1) (x) D + 1 (x) (D - 1) on suq.  On uq dinv is
      group-like, so Delta(dinv D - 1) = (dinv D - 1) (x) dinv D +
      1 (x) (dinv D - 1), likewise for D dinv - 1, and Delta(dinv g - g dinv)
      = sum (dinv g1 - g1 dinv) (x) dinv g2 + g1 dinv (x) (dinv g2 - g2 dinv).
    * S, given also the epsilon table and the antipode law on generators,
      on both sides.  That law does not need S(I) in I, and by the
      induction above it holds mod I on every word of F.  On the matrix
      v = S(u) it says u v = v u = 1 mod I, so U has the inverse
      V = v_2 v_1 and R V = V R mod I.  S is antimultiplicative and
      S(U) = V entrywise, so S(X) = R V - V R lies in I.  Hence S(I_mq) lies
      in I, and m(S (x) id) applied to Delta(D) = D (x) D gives
      S(D) D = 1 = D S(D) mod I.  On suq D = 1, so S(D - 1) = S(D) D - 1.
      On uq the law on dinv and dinv D = 1 give S(dinv) = S(dinv) dinv D = D,
      so S(dinv D - 1) = S(D) D - 1, S(D dinv - 1) = D S(D) - 1, and
      S(dinv g - g dinv) = S(g) D - D S(g).  That lies in I because D is
      central in uq by uq's own relations: dinv is central and
      dinv D = D dinv = 1, so D g = D g dinv D = D dinv g D = g D.  What D
      does in mq is not used.  D central in mq is a standing assumption of
      the zero test on suq and uq, which ``det-central-rem36`` decides; it
      is not a step of this proof.

    A presentation that ``build`` did not make, even one with parts equal
    to the construction's, is out of that scope.  There, and where a
    hypothesis fails, a map keeps the loop over the relations.  A proved
    map cannot fail that loop, so skipping it leaves the first failing
    relation, axiom and witness as the full loop has them.  The laws on
    generators are computed first, as S needs them, and reported after the
    kills.  The antipode law on each u^i_j is not computed where
    ``_cofactor_scope`` holds: it is (C) and (R) of
    ``cofactor_expansions``.

    The report's ``decided`` ends with the record of ``hopf-axioms``, by
    ``"frt-lemma"`` where the kills are proved, else by the loop; before it
    come the records it names (``det-grouplike``) and, where there is an
    antipode, that of ``antipode-laws-on-generators``.  A passing verdict
    is memoised on P (``Presentation.memo``).
    """
    return dict(P.memo("hopf-axioms", lambda: _verify_hopf(P)))


def _verify_hopf(P: Presentation) -> dict:
    maps = _require_structure(P)
    by_cofactors = maps.antipode is not None and _cofactor_scope(P) is not None
    law_failure = _generator_law_failure(P, by_cofactors)
    proved = _kill_lemmas(P, law_failure is None)

    for r in P.relations:
        if "delta" not in proved and not tensor_zero(_free_coproduct(r, P).terms, (P, P)):
            raise AxiomFails("delta-kills-relations", repr(r), coproduct(r, P))
        if not counit(r, P).is_zero:
            raise AxiomFails("epsilon-kills-relations", repr(r), counit(r, P))
        if (
            maps.antipode is not None
            and "antipode" not in proved
            and not P.is_zero_elem(antipode(r, P))
        ):
            raise AxiomFails("antipode-kills-relations", repr(r), antipode(r, P))
    if law_failure is not None:
        raise AxiomFails(*law_failure)

    decided, hypotheses = [], None
    if maps.antipode is not None:
        decided = _by_cofactors("antipode-laws-on-generators",
                                ["cofactor-scope"] if by_cofactors else None)
    if proved == ({"delta"} if maps.antipode is None else {"delta", "antipode"}):
        hypotheses = ["relations-as-built", "delta-is-matrix-coproduct"]
        if P.det is not None:
            hypotheses.append("det-grouplike")
            decided = det_grouplike(P)[1] + decided
        if maps.antipode is not None:
            hypotheses += ["epsilon-antipode-as-built", "antipode-laws-on-generators"]
    return {
        "generators_checked": len(P.generators),
        "relations_checked": len(P.relations),
        "antipode_checked": maps.antipode is not None,
        "decided": [*decided, record("hopf-axioms", "frt-lemma", hypotheses)],
    }


def _transpose(g):
    """tau: u^i_j -> u^j_i, fixing every other generator."""
    return u(g[2], g[1]) if g[0] == "u" else g


def _transposed(a: NcPoly) -> NcPoly:
    """tau extended multiplicatively (an algebra map, not an anti one)."""
    return NcPoly({tuple(_transpose(g) for g in w): c for w, c in a.terms.items()})


def star_lemma(P: Presentation):
    """The records under which the star kills every relation of P and is an
    involution, those of ``verify_hopf`` and then ``star-laws`` by
    ``"star-lemma"``, or None when P is out of scope or a hypothesis fails.

    Let tau be the transpose u^i_j -> u^j_i, with dinv -> dinv, extended
    multiplicatively.  Checked: the Hopf axioms (``verify_hopf``); star =
    S o tau on the generator tables; tau(r) vanishes for every relation r;
    (tau (x) tau) Delta = Delta^op tau and epsilon tau = epsilon on the
    tables.  Both star and S o tau are antimultiplicative, fix scalars (q
    is real) and agree on generators, so star = S tau on F and
    star(I) = S(tau(I)), which lies in S(I), inside I.  tau is an algebra
    automorphism and a coalgebra anti-automorphism of A = F/I, so tau S tau
    is an antipode of A^cop; S is then bijective with inverse tau S tau
    (Kassel, Quantum Groups, III.3), and star star = S tau S tau = id.
    The answer is memoised on P.
    """
    return P.memo("star-laws", lambda: _star_lemma(P))


def _star_lemma(P: Presentation):
    if P.star is None or P.structure is None or P.structure.antipode is None:
        return None
    if not as_built(P):
        return None
    maps = P.structure
    for g in P.generators:
        t = _transpose(g)
        if P.star[g] != maps.antipode[t] or maps.epsilon[g] != maps.epsilon[t]:
            return None
        flipped = {
            (tuple(map(_transpose, b)), tuple(map(_transpose, a))): c
            for (a, b), c in maps.delta[g].terms.items()
        }
        if flipped != maps.delta[t].terms:
            return None
    if not all(P.is_zero_elem(_transposed(r)) for r in P.relations):
        return None
    try:
        report = verify_hopf(P)
    except AxiomFails:
        return None
    hypotheses = ["hopf-axioms", "star-is-antipode-of-transpose", "transpose-kills-relations",
                  "transpose-flips-coproduct"]
    return [*report["decided"], record("star-laws", "star-lemma", hypotheses)]


def _star_involution(P: Presentation) -> bool:
    """g** = g for every generator of P, which has a star: proved by
    ``star_lemma`` where its hypotheses hold, else by the zero test on each
    generator."""
    return star_lemma(P) is not None or all(
        P.equals(P.anti_extend(P.star[g], P.star), NcPoly.gen(g))
        for g in P.generators
    )


def star_laws(P: Presentation) -> dict:
    """Closure (the star of every relation is zero) and involution of the
    star, both proved by ``star_lemma`` where its hypotheses hold, else
    decided by the zero test on each relation and generator, with the
    records of how."""
    decided = star_lemma(P)
    if decided is not None:
        return {"closure": True, "involution": True, "decided": decided}
    return {
        "closure": P.star is None
        or all(P.is_zero_elem(P.anti_extend(r, P.star)) for r in P.relations),
        "involution": P.star is None or _star_involution(P),
        "decided": [record("star-laws")],
    }


# ---------------------------------------------------------------------------
# matrix identities
# ---------------------------------------------------------------------------


def check_matrix_identities(P: Presentation) -> dict:
    """Entrywise identities certifying the antipode and star tables, with
    the records of how they were decided (``decided``).

    For suq and uq: S(u) u = u S(u) = I and u u* = u* u = I.  For uq also the
    scaled-conjugate identity E ubar E^-1 u^t = u^t E ubar E^-1 = I with
    E = diag(1, q^2, ..., q^(2(N-1))) / (q^(N-1) [N]_q).

    They follow from ``cofactor_expansions`` where ``_cofactor_scope``
    holds, u* equals S(u) entry for entry as free polynomials (the star is
    S o tau on the tables) and, on uq, E_i / E_k = q^(2(i-k)) on
    ``invariant_form_matrix``: S(u) u and u S(u) are (C) and (R) (times the
    central dinv on uq), the star products are the same products, and
    entry (i, j) of the E-relations is sum_k q^(2(i-k)) S(u^k_i) u^j_k, which
    is (Rq), and sum_k q^(2(k-j)) u^k_i S(u^j_k), which is (Cq).

    Elsewhere each distinct matrix product is formed and zero-tested once;
    where u* equals S(u) the ``u*ustar`` and ``ustar*u`` entries report the
    verdicts of ``u*S(u)`` and ``S(u)*u``, and where the two matrices
    differ the star products are computed.  These loops are also the test
    oracle.  The hypotheses of the first way are named ``cofactor-scope``,
    ``star-is-antipode-table`` and, on uq, ``form-ratios``.
    """
    if P.name not in ("suq", "uq"):
        raise ValueError("matrix identities apply to suq and uq only")
    N = P.N
    U = generator_matrix(P)
    S = [[P.structure.antipode[u(i, j)] for j in range(1, N + 1)] for i in range(1, N + 1)]
    # u* = conjugate transpose: entry (i,j) is (u^j_i)*
    Ustar = [[P.star[u(j, i)] for j in range(1, N + 1)] for i in range(1, N + 1)]
    if Ustar == S:
        Ustar = S  # one matrix, so each of its products is decided once
    products = [
        ("S(u)*u", S, U),
        ("u*S(u)", U, S),
        ("u*ustar", U, Ustar),
        ("ustar*u", Ustar, U),
    ]
    ratios_hold, hypotheses = True, ["cofactor-scope", "star-is-antipode-table"]
    if P.name == "uq":
        E = invariant_form_matrix(N)
        # (E ubar E^-1)_{ik} = (E_i / E_k) (u^i_k)*; normalization cancels
        ratio = [[E[i][i] / E[k][k] for k in range(N)] for i in range(N)]
        ratios_hold = all(ratio[i][k] == QPARAM ** (2 * (i - k))
                          for i in range(N) for k in range(N))
        scaled = [[P.star[u(i + 1, k + 1)].scale(ratio[i][k]) for k in range(N)]
                  for i in range(N)]
        ut = [[NcPoly.gen(u(j + 1, i + 1)) for j in range(N)] for i in range(N)]
        products += [("E-relation-left", scaled, ut), ("E-relation-right", ut, scaled)]
        hypotheses.append("form-ratios")
    by_cofactors = Ustar is S and ratios_hold and _cofactor_scope(P) is not None
    report = {}
    decided = set()
    for label, A, B in products:
        if not by_cofactors and (id(A), id(B)) not in decided:
            bad = identity_defect(matrix_mul(A, B, P), P)
            if bad is not None:
                raise IdentityFails((label, bad[0]), bad[1])
            decided.add((id(A), id(B)))
        report[label] = True
    report["decided"] = _by_cofactors("matrix-identities", hypotheses if by_cofactors else None)
    return report


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------


def _star_pairs(star: dict):
    """The pairs (g, h), g first in table order, of generators the star
    swaps (star g = h, star h = g; h = g allowed), or None unless the table
    sends every generator to a generator that it sends back."""
    pairs, seen = [], set()
    for g, img in star.items():
        if len(img.terms) != 1:
            return None
        ((w, c),) = img.terms.items()
        if len(w) != 1 or not c.is_one or star.get(w[0]) != NcPoly.gen(g):
            return None
        if g not in seen:
            pairs.append((g, w[0]))
            seen.update((g, w[0]))
    return pairs


def _star_step_by_construction(source, images, free_image, free_star, targets):
    """The hypotheses under which a map phi with the given generator images
    commutes with the stars, or None when one fails (check each generator).

    The source star swaps generators in pairs (g, h), so star star = id on
    the free source algebra.  Checked: phi(star g) = star phi(g) as an
    equality in the free algebra, for g the first of each pair, and the
    star of each target algebra is an involution (``_star_involution``).
    Then phi(star h) = phi(g) and star phi(h) = star phi(star g) =
    star star phi(g), which is phi(g) because star star is multiplicative and
    the identity on the target generators.
    """
    pairs = _star_pairs(source.star)
    if pairs is None:
        return None
    for g, _ in pairs:
        if free_image(source.star[g]) != free_star(images[g]):
            return None
    if not all(_star_involution(T) for T in targets):
        return None
    return ["source-star-swaps-generators", "star-commutes-in-free-algebra",
            "target-star-involution"]


def _star_orbit_firsts(P: Presentation):
    """The relations of P that come first, in relation order, in their orbit
    under the star, or None unless the star maps the set of relations into
    itself as free polynomials.  Memoised on P."""

    def compute():
        rels = P.relations
        index = {r: k for k, r in enumerate(rels)}
        firsts = []
        for k, r in enumerate(rels):
            try:
                j = index.get(r.star(P.star))
            except UndefinedStar:
                return None
            if j is None:
                return None
            if j >= k:
                firsts.append(r)
        return firsts

    return P.memo("source-star-permutes-relations", compute)


def _relations_to_test(source: Presentation, star_hyps, targets):
    """The source relations whose kills a map must test, with the
    hypotheses under which the others follow (lemma 1 of the module):
    the star step holds by construction (``star_hyps``); the source star
    maps the relations among themselves (``_star_orbit_firsts``), which
    also shows that it keeps the source ideal; the star of each target
    algebra keeps its ideal (``star_lemma``).  A relation that is not first
    in its orbit is star r' for the earlier r' of the orbit (star star = id
    on the free source algebra), so its kill follows from that of r'.
    Otherwise every relation, with no hypotheses.
    """
    if star_hyps is not None:
        firsts = _star_orbit_firsts(source)
        if firsts is not None and all(star_lemma(T) is not None for T in targets):
            return firsts, ["source-star-permutes-relations", "target-star-closure"]
    return source.relations, []


def _map_report(name, stars, star_hyps, kill_hyps):
    """The records of a map's star step, where both algebras have a star,
    and of its relation kills, which rest on the star step where only the
    first relation of each star orbit is tested."""
    step, kills = f"{name}-star-step", f"{name}-relation-kills"
    decided = [record(step, "construction", star_hyps)] if stars else []
    return decided + [record(kills, "star-orbits", [step, *kill_hyps] if kill_hyps else None)]


class Morphism:
    """An algebra map from ``source`` to ``target``, given on generators;
    ``name`` begins the facts of its records."""

    name = "morphism"

    def __init__(self, source: Presentation, target: Presentation, images: dict):
        self.source = source
        self.target = target
        self.images = images  # generator -> NcPoly in target
        self.report = None  # set by verify

    def _free_apply(self, a: NcPoly) -> NcPoly:
        return NcPoly.extend(a, self.images)

    def apply(self, a: NcPoly) -> NcPoly:
        return self.target.reduce(self._free_apply(a))

    def verify(self) -> list:
        """Check relations map to zero, and star-compatibility when defined.
        Returns, and keeps as ``report``, the records of how each was
        decided: the star step by ``"construction"``
        (``_star_step_by_construction``) or by the loop, the relation kills
        on ``"star-orbits"`` (lemma 1 of the module) or by the loop.  The
        star step's hypotheses are checked first, as the orbits need them;
        failures come in the loop's order.

        A relation whose free image is 0, or is itself a relation of the
        target as a free polynomial, is killed without the zero test; the
        target's relations are kept as a set (``Presentation.memo``).  Every
        kill of uq -> suq (u -> u, dinv -> 1) is of this kind.  Likewise the
        star step of a generator whose image of the star and star of the
        image agree as free polynomials needs no zero test; for uq -> suq
        only dinv (D against 1) does."""
        A, B = self.source, self.target
        stars = A.star is not None and B.star is not None
        star_hyps = None
        if stars:
            star_hyps = _star_step_by_construction(
                A, self.images, self._free_apply, lambda b: b.star(B.star), (B,)
            )
        relations, kill_hyps = _relations_to_test(A, star_hyps, (B,))
        target_relations = B.memo("relation-set", lambda: set(B.relations))
        for rel in relations:
            img = self._free_apply(rel)
            if img.is_zero or img in target_relations:
                continue
            if not B.is_zero_elem(img):
                raise RelationViolation(repr(rel), self.apply(rel))
        if stars and star_hyps is None:
            for g in self.images:
                if self._free_apply(A.star[g]) == self.images[g].star(B.star):
                    continue
                lhs = self.apply(A.star[g])
                rhs = B.anti_extend(self.images[g], B.star)
                if not B.equals(lhs, rhs):
                    raise StarViolation(f"star breaks at {word_name((g,))}")
        self.report = _map_report(self.name, stars, star_hyps, kill_hyps)
        return self.report


# ---------------------------------------------------------------------------
# coactions
# ---------------------------------------------------------------------------


def _coaction_images(N: int, H: Presentation) -> dict:
    """z_i -> sum_j z_j (x) u^j_i and z*_i -> sum_j z*_j (x) S(u^i_j), with
    S the antipode table of H."""
    S = _antipode_table(H)
    images = {}
    for i in range(1, N + 1):
        ti = TensorPoly()
        for j in range(1, N + 1):
            ti._iadd_term(((z(j),), (u(j, i),)), ONE)
        images[z(i)] = ti
        tsi = TensorPoly()
        for j in range(1, N + 1):
            for k, c in TensorPoly.of(NcPoly.gen(zs(j)), S[u(i, j)]).terms.items():
                tsi._iadd_term(k, c)
        images[zs(i)] = tsi
    return images


class Coaction:
    """A coaction of ``coeff`` (H) on ``source`` (B), given on generators;
    ``name`` begins the facts of its records."""

    name = "coaction"

    def __init__(self, source: Presentation, coeff: Presentation, images: dict):
        self.source = source  # B
        self.coeff = coeff  # H
        self.images = images  # generator of B -> TensorPoly with legs (B, H)
        self.report = None  # set by verify

    def _free_apply(self, a: NcPoly) -> TensorPoly:
        return TensorPoly.extend(a, self.images)

    def apply(self, a: NcPoly) -> TensorPoly:
        return self._free_apply(a).map_legs(self.source.reduce, self.coeff.reduce)

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

    def _laws_by_hopf(self):
        """The hypotheses under which coassociativity and the counit law
        hold on the generators (lemma 2 of the module), or None: H is as
        ``build`` makes it (``as_built``), so Delta and epsilon are the
        matrix tables; the Hopf axioms hold on H (``verify_hopf``); the
        images are ``_coaction_images`` of H.
        """
        H = self.coeff
        if not as_built(H) or H.structure.antipode is None:
            return None
        if self.images != _coaction_images(H.N, H):
            return None
        try:
            verify_hopf(H)
        except AxiomFails:
            return None
        return ["coefficients-as-built", "images-as-built", "coefficient-hopf-axioms"]

    def _check_laws(self):
        """Coassociativity and the counit law on each generator, by the
        zero test; raises AxiomFails at the first generator that breaks."""
        B, H = self.source, self.coeff
        legs3 = (B, H, H)
        for g in self.images:
            img = self.apply(NcPoly.gen(g))
            left = {}
            for (wb, wh), c in img.terms.items():
                inner = self._free_apply(NcPoly.monomial(wb, c))
                for (wb2, wh2), c2 in inner.terms.items():
                    _triple_add(left, (wb2, wh2, wh), c2)
            right = _expand_delta_leg(img, H, 1)
            if not tensor_equal(left, right, legs3):
                raise AxiomFails("coaction-coassociativity", word_name((g,)))
            back = NcPoly()
            for (wb, wh), c in img.terms.items():
                back = back + NcPoly.monomial(wb, c * counit(NcPoly.monomial(wh), H))
            if not B.equals(back, NcPoly.gen(g)):
                raise AxiomFails("coaction-counit", word_name((g,)))

    def verify(self) -> list:
        """Relation kills, coassociativity and counit on generators, and
        star-compatibility when both stars are defined.  Returns, and keeps
        as ``report``, the records of how each was decided: those of
        ``Morphism.verify``, then the laws from the Hopf axioms of H
        (lemma 2 of the module, ``"hopf-algebra-laws"``) or by the loop.
        Failures come in the loops' order: kills, laws, star step."""
        B, H = self.source, self.coeff
        stars = B.star is not None and H.star is not None
        star_hyps = None
        if stars:
            star_hyps = _star_step_by_construction(
                B, self.images, self._free_apply,
                lambda t: t.star(B.star, H.star), (H,),
            )
        relations, kill_hyps = _relations_to_test(B, star_hyps, (H,))
        for rel in relations:
            if not tensor_zero(self._free_apply(rel).terms, (B, H)):
                raise RelationViolation(repr(rel), self.apply(rel))
        law_hyps = self._laws_by_hopf()
        if law_hyps is None:
            self._check_laws()
        if stars and star_hyps is None:
            for g in self.images:
                lhs = self.apply(B.star[g])
                rhs = self.apply(NcPoly.gen(g)).map_legs(
                    lambda a: B.anti_extend(a, B.star),
                    lambda h: H.anti_extend(h, H.star),
                )
                if not tensor_equal(lhs.terms, rhs.terms, (B, H)):
                    raise StarViolation(f"coaction star breaks at {word_name((g,))}")
        laws = record(f"{self.name}-coaction-laws", "hopf-algebra-laws", law_hyps)
        self.report = _map_report(self.name, stars, star_hyps, kill_hyps) + [laws]
        return self.report


def embed_sphere(
    N: int,
    *,
    sphere: Presentation | None = None,
    target: Presentation | None = None,
):
    """The embedding of the sphere into suq(N): z_i -> u^1_i, z*_i -> S(u^i_1).
    ``sphere`` and ``target``, if given, are used instead of new builds."""
    if N < 2:
        raise ValueError("embedding needs N >= 2")
    sphere = sphere or build("sphere", N)
    target = target or build("suq", N)
    phi = Morphism(sphere, target, _embedding_images(N, target))
    phi.name = "embedding"
    phi.verify()
    return phi


def _embedding_images(N: int, target: Presentation) -> dict:
    """z_i -> u^1_i and z*_i -> S(u^i_1), with S the antipode table of the
    target."""
    S = _antipode_table(target)
    images = {}
    for i in range(1, N + 1):
        images[z(i)] = NcPoly.gen(u(1, i))
        images[zs(i)] = S[u(i, 1)]
    return images


def build_coaction(
    name: str,
    N: int,
    *,
    sphere: Presentation | None = None,
    coeff: Presentation | None = None,
) -> Coaction:
    """The sphere coactions: coefficient leg in suq(N) (deltaR) or uq(N)
    (rho_u).  ``sphere`` and ``coeff``, if given, are used instead of new
    builds, so that checks on several maps share their memoised verdicts."""
    if N < 2:
        raise ValueError("coactions need N >= 2")
    algebras = {"deltaR": "suq", "rho_u": "uq"}
    if name not in algebras:
        raise ValueError(f"unknown coaction {name!r}")
    sphere = sphere or build("sphere", N)
    H = coeff or build(algebras[name], N)
    rho = Coaction(sphere, H, _coaction_images(N, H))
    rho.name = name
    rho.verify()
    return rho


def _respects_coalgebra(pi: Morphism):
    """The first (law, generator), in the order of pi's images, at which
    (pi (x) pi) Delta(g) = Delta(pi g) (law ``"coproduct"``) or
    epsilon(pi g) = epsilon(g) (law ``"counit"``) fails, or None when both
    hold on every generator g of pi's source."""
    A, B = pi.source, pi.target
    maps = _require_structure(A)
    for g, img in pi.images.items():
        if not tensor_equal(
            _free_coproduct(img, B).terms,
            maps.delta[g].map_legs(pi._free_apply, pi._free_apply).terms,
            (B, B),
        ):
            return "coproduct", g
        if counit(img, B) != maps.epsilon[g]:
            return "counit", g
    return None


def deltaR_from_rho_u(rho_u: Coaction, suq: Presentation) -> Coaction | None:
    """deltaR as (id (x) pi) rho_u for pi: uq -> suq, u^i_j -> u^i_j,
    dinv -> 1, with its report (one record, by ``"push-forward"``, naming
    the facts of rho_u's), or None when a hypothesis fails (then verify
    deltaR on its own, ``build_coaction``).  ``rho_u`` must be verified.
    Checked (lemma 3 of the module): pi is a well-defined star map
    (``Morphism.verify``); it respects Delta and epsilon on generators
    (``_respects_coalgebra``); the images of deltaR are those of rho_u
    with pi applied to the coefficient leg, as free tensors.
    """
    if rho_u.report is None:
        raise ValueError("rho_u must be verified first")
    uq = rho_u.coeff
    pi = Morphism(uq, suq, {
        g: NcPoly.unit() if g == DINV else NcPoly.gen(g) for g in uq.generators
    })
    try:
        pi.verify()
    except (RelationViolation, StarViolation):
        return None
    if _respects_coalgebra(pi) is not None:
        return None
    delta_r = Coaction(rho_u.source, suq, _coaction_images(suq.N, suq))
    pushed = {g: t.map_legs(lambda a: a, pi._free_apply) for g, t in rho_u.images.items()}
    if pushed != delta_r.images:
        return None
    delta_r.report = [record("deltaR", "push-forward", [
        *(r["fact"] for r in rho_u.report), "quotient-map-star-morphism",
        "quotient-map-hopf-on-generators", "images-pushed-forward"])]
    return delta_r


def embedding_from_deltaR(delta_r: Coaction) -> Morphism | None:
    """The sphere embedding as (chi (x) id) deltaR, for chi the point
    z = (1, 0, ..., 0) of the sphere, with its report (one record, by
    ``"point-evaluation"``, naming the facts of deltaR's), or None when a
    hypothesis fails (then verify the embedding on its own,
    ``embed_sphere``).  ``delta_r`` must be verified.  Checked (lemma 4 of
    the module): chi kills every relation of the sphere; chi(star g) =
    chi(g) on generators; the images of the embedding are those of deltaR
    with chi applied to the sphere leg, as free polynomials.
    """
    if delta_r.report is None:
        raise ValueError("deltaR must be verified first")
    B, H = delta_r.source, delta_r.coeff
    point = {g: ONE if g in (z(1), zs(1)) else ZERO for g in B.generators}
    if any(not _evaluate(r, point).is_zero for r in B.relations):
        return None
    if B.star is None or any(_evaluate(B.star[g], point) != point[g] for g in B.generators):
        return None
    phi = Morphism(B, H, _embedding_images(B.N, H))
    pushed = {}
    for g, t in delta_r.images.items():
        pushed[g] = NcPoly()
        for (wb, wh), c in t.terms.items():
            pushed[g]._iadd_term(wh, c * _evaluate(NcPoly.monomial(wb), point))
    if pushed != phi.images:
        return None
    phi.report = [record("embedding", "point-evaluation", [
        *(r["fact"] for r in delta_r.report), "point-is-star-character",
        "images-pushed-forward"])]
    return phi


# ---------------------------------------------------------------------------
# the morphism builder (comodule-algebra coactions -> unitary-group morphism)
# ---------------------------------------------------------------------------


def build_u_morphism(Q: Presentation, qmat) -> Morphism:
    """Construct the unique star-morphism from uq(N), N = len(qmat), sending
    u^i_j to qmat[i][j].

    The map u -> qmat from mq to Q is checked, in order, for the three
    hypotheses, each by the code that decides it elsewhere: (i) the
    comatrix coalgebra condition Delta(q^i_j) = sum_k q^i_k (x) q^k_j and
    epsilon(q^i_j) = delta_ij (``_respects_coalgebra``, as mq's tables are
    the matrix coproduct and counit); (ii) the FRT relations among the
    entries (``Morphism.verify``); (iii) unitarity q q* = I
    (``matrix_mul`` and ``identity_defect``).  Then the inverse
    determinant is sent to the antipode of the determinant image, every uq
    relation is verified to map to zero, and star-compatibility is
    verified.
    """
    N = len(qmat)
    mq = build("mq", N)
    tmp = Morphism(mq, Q, {u(i + 1, j + 1): qmat[i][j] for i in range(N) for j in range(N)})
    failure = _respects_coalgebra(tmp)
    if failure is not None:
        law, (_, i, j) = failure
        raise HypothesisFails("i", f"{law} of entry ({i},{j})")
    try:
        tmp.verify()
    except RelationViolation as exc:
        raise HypothesisFails("ii", exc.relation) from None
    qstar = [[qmat[j][i].star(Q.star) for j in range(N)] for i in range(N)]
    bad = identity_defect(matrix_mul(qmat, qstar, Q), Q)
    if bad is not None:
        (i, j), _ = bad
        raise HypothesisFails("iii", f"(q q*)_{i}{j}")
    # construct the morphism
    uq = build("uq", N, aux=mq)
    det_image = tmp.apply(quantum_determinant(N))
    images = dict(tmp.images)
    # the printed image of dinv is the normal form of the free expansion of
    # S(det image); a reduced antipode is not canonical, so its normal form
    # can differ (21 terms on uq 3)
    images[DINV] = Q.nf(NcPoly.extend(det_image, _antipode_table(Q), reverse=True))
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
    """Solve one invariance linear system over the scalar field; returns
    the solution matrix X, the size of the system solved and the records
    of how, for the fact ``invariance-<variant>``.

    Unknowns X_{kl}; equations, per (i,j), compared word by word after
    ``P.zero_test_images``:
      zstar_z:  sum_{k,l} X_{kl} S(u^i_k) u^l_j = X_{ij} 1
      z_zstar:  sum_{k,l} X_{kl} u^k_i S(u^j_l) = X_{ij} 1

    Where ``_cofactor_scope`` holds and the u^a_b are independent, the
    solution is read off ``cofactor_expansions`` and no system is formed
    (``_invariance_by_cofactors``).  Elsewhere the full system is solved;
    it is also the test oracle.
    """
    if _cofactor_scope(P) is not None and _generators_independent(P):
        return _invariance_by_cofactors(N, variant)
    return _solve_invariance(N, P, variant)


def _generators_independent(P: Presentation) -> bool:
    """Are the u^a_b linearly independent in P?  They are where the exact
    zero test sends each of them to itself, as one injective linear map."""
    gens = [NcPoly.gen(g) for g in P.generators if g[0] == "u"]
    return P.zero_test_images(gens) == gens


def _invariance_by_cofactors(N: int, variant: str):
    """The solution of one invariance system where ``_cofactor_scope`` holds
    and the u^a_b are independent in P, in the normalization of
    ``nullspace`` (1 at X_NN, the last unknown in the support), with the
    system report of ``_solve_invariance`` (no products, no rows).

    By (C) and (R) of ``cofactor_expansions``, S(u) is a two-sided inverse
    of u in P.  So zstar_z, S(u) X u = X, says X u = u X.  Comparing the
    coefficients of the independent u^a_b in sum_l X_il u^l_j =
    sum_k u^i_k X_kj gives X_ia = 0 for a != i and X_ii = X_jj: X = c I.
    With E = diag(q^2, ..., q^(2N)), (Cq) and (Rq) say that
    V = E S(u)^t E^-1 is a two-sided inverse of u^t.  So z_zstar,
    u^t X S(u)^t = X, says u^t Y = Y u^t for Y = X E^-1, hence Y = c I and
    X = c E.  Both solution spaces are one-dimensional.
    """
    if variant == "zstar_z":
        diagonal = [ONE] * N
    else:
        diagonal = [QPARAM ** (2 * (k - N)) for k in range(1, N + 1)]
    X = [[diagonal[k] if k == l else ZERO for l in range(N)] for k in range(N)]
    system = {"unknowns": N * N, "products": 0, "rows": 0}
    hypotheses = ["cofactor-scope", "generators-independent"]
    return X, system, _by_cofactors(f"invariance-{variant}", hypotheses)


def _solve_invariance(N: int, P: Presentation, variant: str):
    S = _antipode_table(P)
    idx = range(1, N + 1)
    unknowns = [(k, l) for k in idx for l in idx]
    col = {kl: c for c, kl in enumerate(unknowns)}
    rows = []
    for i in idx:
        for j in idx:
            if variant == "zstar_z":
                polys = [S[u(i, k)] * NcPoly.gen(u(l, j)) for k, l in unknowns]
            else:
                polys = [NcPoly.gen(u(k, i)) * S[u(j, l)] for k, l in unknowns]
            target = col[(i, j)]
            *images, unit_side = P.zero_test_images(polys + [NcPoly.unit()])
            words = set(unit_side.terms)
            for p in images:
                words.update(p.terms)
            for w in sorted(words):
                row = [p.coeff(w) for p in images]
                cu = unit_side.coeff(w)
                if not cu.is_zero:
                    row[target] = row[target] - cu
                if any(not x.is_zero for x in row):
                    rows.append(row)
    if rows:
        basis = nullspace(rows)
    else:
        # no constraints at all: every choice of the unknowns solves it
        basis = [
            [ONE if k == c else ZERO for k in range(len(unknowns))]
            for c in range(len(unknowns))
        ]
    if len(basis) == 0:
        raise Inconsistent("invariance system has only the zero solution")
    if len(basis) > 1:
        raise SolutionNotUnique(f"solution space has dimension {len(basis)}")
    v = basis[0]
    X = [[v[col[(k, l)]] for l in idx] for k in idx]
    system = {"unknowns": len(unknowns), "products": N * N * len(unknowns), "rows": len(rows)}
    return X, system, [record(f"invariance-{variant}")]


def solve_invariant_forms(N: int, P: Presentation | None = None) -> dict:
    """The matrices of the Haar-induced inner products on the span of the
    generators, as the unique normalized solutions F and H of the two
    invariance systems, each solved once (``_invariance_solution``), with
    each system's unknowns, products and equation rows (``systems``) and
    the records of how each was solved (``decided``).  P, by default
    uq(N), must have this N; another raises ValueError.

    F, with F_{ij} ~ h(z_i z*_j), is normalized to trace 1 (the unit
    relation of the sphere).  H, with H_{ij} ~ h(z*_i z_j), is normalized
    through the rewriting link between the two variants: the corner entries
    agree, H_NN = F_NN.
    """
    P = P or build("uq", N)
    if P.N != N:
        raise ValueError(f"{P.name} has N = {P.N}, not {N}")
    F, sys_f, decided_f = _invariance_solution(N, P, "z_zstar")
    tr = ZERO
    for k in range(N):
        tr = tr + F[k][k]
    if tr.is_zero:
        raise Inconsistent("trace of the z_zstar solution vanishes")
    F = [[x / tr for x in row] for row in F]
    H, sys_h, decided_h = _invariance_solution(N, P, "zstar_z")
    corner = H[N - 1][N - 1]
    if corner.is_zero:
        raise Inconsistent("corner entry of the zstar_z solution vanishes")
    scale = F[N - 1][N - 1] / corner
    H = [[x * scale for x in row] for row in H]
    return {"F": F, "H": H, "systems": {"z_zstar": sys_f, "zstar_z": sys_h},
            "decided": decided_f + [r for r in decided_h if r not in decided_f]}


def invariant_forms(N: int, P: Presentation | None = None):
    """The pair (F, H) of ``solve_invariant_forms``."""
    out = solve_invariant_forms(N, P)
    return out["F"], out["H"]


def check_form_preservation(rho: Coaction, hmat) -> bool:
    """Does the coaction preserve the sesquilinear form with matrix hmat?

    Verifies q* hmat q = hmat 1 entrywise in the coefficient algebra, that
    is sum_{k,l} hmat_{kl} (q^k_i)* q^l_j = hmat_{ij} 1, with qmat read off
    the coaction and the products formed by ``matrix_mul``.
    """
    H = rho.coeff
    qmat = rho.matrix()
    N = len(qmat)
    qstar = [[qmat[k][i].star(H.star) for k in range(N)] for i in range(N)]
    h = [[NcPoly.unit(c) for c in row] for row in hmat]
    form = matrix_mul(matrix_mul(qstar, h, H), qmat, H)
    return all(H.equals(form[i][j], h[i][j]) for i in range(N) for j in range(N))

"""Coalgebra structure maps, star laws, morphisms, coactions and the
invariant form.

The coproduct, counit and antipode of a presentation are stored on the
generators and extended (anti)multiplicatively here.  The Hopf axioms are
verified by relation kills plus the laws on each generator, which proves
them in every degree (see ``verify_hopf``).  On the standard presentations
the kills of the coproduct, the antipode and the star are proved from
generator-level lemmas; elsewhere each relation is mapped and tested.
There too the torus bigrading leaves only the diagonal block of the
invariant-form systems to solve (``_invariance_solution``).
"""

from __future__ import annotations

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
    StructureMaps,
    build,
    check_central,
    matches_construction,
    quantum_determinant,
)
from .scalars import ONE, ZERO, Scalar


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
    """Delta(x) = x (x) x and epsilon(x) = 1, decided by the zero test on
    the free tensors (``tensor_zero`` is exact on any word tuples)."""
    dx = _free_coproduct(x, P)
    return tensor_equal(dx.terms, TensorPoly.of(x, x).terms, (P, P)) and counit(x, P) == ONE


def det_fact(P: Presentation, fact: str) -> bool:
    """A fact about the quantum determinant D in the mq of P (P itself on mq,
    its companion on suq and uq): ``"grouplike"`` (``check_grouplike``) or
    ``"central"``.  Each is computed once per mq presentation and its
    tables, and shared by ``det-central-rem36`` and the relation-kill
    lemmas.  Both carry over from mq to suq and uq: they are quotients of
    mq (uq after adjoining the central dinv) by ideals that Delta respects.
    """
    mq = P.aux if P.aux is not None else P
    checks = {"grouplike": check_grouplike, "central": check_central}
    if fact not in checks:
        raise ValueError(f"unknown determinant fact {fact!r}")
    return mq.memo(
        ("det", fact), lambda: checks[fact](quantum_determinant(mq.N), mq)
    )


def _generator_law_failure(P: Presentation):
    """The first (axiom, witness) at which coassociativity, the counit law or
    the antipode law (both sides) fails on a generator, or None."""
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
        if maps.antipode is not None:
            target = NcPoly.unit(counit(wp, P))
            m_s_id = NcPoly()
            m_id_s = NcPoly()
            for (w1, w2), c in dw.terms.items():
                m_s_id = m_s_id + antipode(NcPoly.monomial(w1), P).scale(c) * NcPoly.monomial(w2)
                m_id_s = m_id_s + NcPoly.monomial(w1, c) * antipode(NcPoly.monomial(w2), P)
            if not P.equals(m_s_id, target) or not P.equals(m_id_s, target):
                return "antipode-law", word_name(w)
    return None


def _kill_lemmas(P: Presentation, laws_hold: bool):
    """The maps among Delta and S whose relation kills follow from the
    lemmas of ``verify_hopf``, and the hypotheses checked for them."""
    same = matches_construction(P)
    proved, hypotheses = set(), []
    if not (same and same["relations"] and same["det"] and same["companion"]):
        return proved, hypotheses
    hypotheses.append("relations-as-built")
    has_det = P.det is not None
    if same["delta"] and (not has_det or det_fact(P, "grouplike")):
        proved.add("delta")
        hypotheses.append("delta-is-matrix-coproduct")
        if has_det:
            hypotheses.append("det-grouplike-in-mq")
    if (
        "delta" in proved
        and P.structure.antipode is not None
        and laws_hold
        and same["epsilon"]
        and same["antipode"]
        and (DINV not in P.generators or det_fact(P, "central"))
    ):
        proved.add("antipode")
        hypotheses += ["epsilon-antipode-as-built", "antipode-laws-on-generators"]
        if DINV in P.generators:
            hypotheses.append("det-central-in-mq")
    return proved, hypotheses


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
    and uq as ``build`` makes them (``matches_construction``) the kills of
    Delta and S are proved instead of computed.  Write F for the free
    algebra, I for the ideal of the relations, I_mq for that of the FRT
    relations, u for the generator matrix and U = u_1 u_2, the matrix with
    entries U_(ij),(kl) = u_ik u_jl.  The FRT relations span the entries of
    X = R U - U R, for R the braiding matrix (rmatrix.rhat).

    * Delta, given the matrix coproduct table: Delta(U) = U (x). U, the
      matrix product with entries tensored, so Delta(X) = X (x). U +
      U (x). X lies in I (x) F + F (x) I.  D is group-like in mq, that is
      Delta(D) = D (x) D mod I_mq (x) F + F (x) I_mq (``det_fact``).  Then
      Delta(D - 1) = (D - 1) (x) D + 1 (x) (D - 1) on suq.  On uq dinv is
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
      S(dinv g - g dinv) = S(g) D - D S(g) vanishes as D is central in mq.

    A map whose hypotheses fail, on a presentation out of that scope, keeps
    the loop over the relations.  A proved map cannot fail that loop, so
    skipping it leaves the first failing relation, axiom and witness as the
    full loop has them.  The laws on generators are computed first, as S
    needs them, and reported after the kills.  A passing verdict is
    memoised on P (``Presentation.memo``).
    """
    return dict(P.memo("hopf", lambda: _verify_hopf(P)))


def _verify_hopf(P: Presentation) -> dict:
    maps = _require_structure(P)
    law_failure = _generator_law_failure(P)
    proved, hypotheses = _kill_lemmas(P, law_failure is None)

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

    needed = {"delta"} if maps.antipode is None else {"delta", "antipode"}
    return {
        "generators_checked": len(P.generators),
        "relations_checked": len(P.relations),
        "antipode_checked": maps.antipode is not None,
        "relation_kills": "lemma" if needed <= proved else "loop",
        "proved_by_lemma": sorted(proved),
        "hypotheses": hypotheses,
    }


def _transpose(g):
    """tau: u^i_j -> u^j_i, fixing every other generator."""
    return u(g[2], g[1]) if g[0] == "u" else g


def _transposed(a: NcPoly) -> NcPoly:
    """tau extended multiplicatively (an algebra map, not an anti one)."""
    return NcPoly({tuple(_transpose(g) for g in w): c for w, c in a.terms.items()})


def star_lemma(P: Presentation):
    """The hypotheses under which the star kills every relation of P and is
    an involution, or None when P is out of scope or one of them fails.

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
    return P.memo("star", lambda: _star_lemma(P))


def _star_lemma(P: Presentation):
    if P.star is None or P.structure is None or P.structure.antipode is None:
        return None
    same = matches_construction(P)
    if not same or not all(same.values()):
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
    return report["hypotheses"] + [
        "hopf-axioms",
        "star-is-antipode-of-transpose",
        "transpose-kills-relations",
        "transpose-flips-coproduct",
    ]


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
    decided by the zero test on each relation and generator; says whether
    the relation kills came from the lemma or the loops."""
    hyps = star_lemma(P)
    if hyps is not None:
        return {"closure": True, "involution": True,
                "relation_kills": "lemma", "hypotheses": hyps}
    return {
        "closure": P.star is None
        or all(P.is_zero_elem(P.anti_extend(r, P.star)) for r in P.relations),
        "involution": P.star is None or _star_involution(P),
        "relation_kills": "loop",
        "hypotheses": [],
    }


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


class Morphism:
    """An algebra map from ``source`` to ``target``, given on generators."""

    def __init__(self, source: Presentation, target: Presentation, images: dict):
        self.source = source
        self.target = target
        self.images = images  # generator -> NcPoly in target
        self.report = None  # set by verify

    def _free_apply(self, a: NcPoly) -> NcPoly:
        return NcPoly.extend(a, self.images)

    def apply(self, a: NcPoly) -> NcPoly:
        return self.target.reduce(self._free_apply(a))

    def verify(self) -> dict:
        """Check relations map to zero, and star-compatibility when defined.
        Returns, and keeps as ``report``, how the star step was decided."""
        for rel in self.source.relations:
            if not self.target.is_zero_elem(self._free_apply(rel)):
                raise RelationViolation(repr(rel), self.apply(rel))
        report = {"relation_kills": "loop", "star_step": None}
        A, B = self.source, self.target
        if A.star is not None and B.star is not None:
            hyps = _star_step_by_construction(
                A, self.images, self._free_apply, lambda b: b.star(B.star), (B,)
            )
            if hyps is None:
                for g in self.images:
                    lhs = self.apply(A.star[g])
                    rhs = B.anti_extend(self.images[g], B.star)
                    if not B.equals(lhs, rhs):
                        raise StarViolation(f"star breaks at {word_name((g,))}")
            report["star_step"] = "loop" if hyps is None else "lemma"
            report["hypotheses"] = hyps or []
        self.report = report
        return report


# ---------------------------------------------------------------------------
# coactions
# ---------------------------------------------------------------------------


class Coaction:
    """A coaction of ``coeff`` (H) on ``source`` (B), given on generators."""

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

    def verify(self) -> dict:
        """Relation kills, coassociativity and counit on generators, and
        star-compatibility when both stars are defined.  Returns, and keeps
        as ``report``, how the star step was decided."""
        B, H = self.source, self.coeff
        for rel in B.relations:
            if not tensor_zero(self._free_apply(rel).terms, (B, H)):
                raise RelationViolation(repr(rel), self.apply(rel))
        # coassociativity and counit on generators
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
        report = {"relation_kills": "loop", "star_step": None}
        if B.star is not None and H.star is not None:
            hyps = _star_step_by_construction(
                B, self.images, self._free_apply,
                lambda t: t.star(B.star, H.star), (H,),
            )
            if hyps is None:
                for g in self.images:
                    lhs = self.apply(B.star[g])
                    rhs = self.apply(NcPoly.gen(g)).map_legs(
                        lambda a: B.anti_extend(a, B.star),
                        lambda h: H.anti_extend(h, H.star),
                    )
                    if not tensor_equal(lhs.terms, rhs.terms, (B, H)):
                        raise StarViolation(f"coaction star breaks at {word_name((g,))}")
            report["star_step"] = "loop" if hyps is None else "lemma"
            report["hypotheses"] = hyps or []
        self.report = report
        return report


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
    images = {}
    for i in range(1, N + 1):
        images[z(i)] = NcPoly.gen(u(1, i))
        images[zs(i)] = target.structure.antipode[u(i, 1)]
    phi = Morphism(sphere, target, images)
    phi.verify()
    return phi


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
    mq = build("mq", N)
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
    uq = build("uq", N)
    det_image = tmp.apply(quantum_determinant(N))
    images = dict(subs)
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
    the solution matrix X and the size of the system solved.

    Unknowns X_{kl}; equations, per (i,j), compared word by word after
    ``P.zero_test_images``:
      zstar_z:  sum_{k,l} X_{kl} S(u^i_k) u^l_j = X_{ij} 1
      z_zstar:  sum_{k,l} X_{kl} u^k_i S(u^j_l) = X_{ij} 1

    On suq and uq as ``build`` makes them (``matches_construction`` holds
    in full) only the diagonal unknowns are solved for.  Give u^a_b
    the bidegree (e_a; e_b) in Z^N x Z^N and dinv the bidegree -(1; 1),
    with 1 = (1, ..., 1).  The argument rests on four facts, each pinned by
    a test at N = 2, 3, 4 rather than checked at run time:

    * the mq rules are homogeneous, so the mq normal form and ``reduce``
      (which moves the central dinv letters aside) keep bidegrees;
    * D is homogeneous of bidegree (1; 1), so the clearing step of the
      zero test, core dinv^k -> core D^(M - k), shifts every word of one
      call by the same M (1; 1) on uq.  On suq D = 1 and the shift
      (M - len // N) (1; 1) varies, so there bidegrees count modulo (1; 1);
    * the antipode entry S(u^i_k) has bidegree (-e_k; -e_i) (modulo (1; 1)
      on suq, whose cofactors carry no dinv);
    * 1 is not zero in P: its image under the exact zero test is D^M, a
      nonzero mq normal form.

    So the images of parts of different bidegree share no words, and an
    equation holds exactly when it holds in each bidegree.  In equation
    (i, j) of zstar_z the term in X_kl has bidegree (e_l - e_k; e_j - e_i)
    and the unit term bidegree 0; in z_zstar, u^k_i S(u^j_l) has bidegree
    (e_k - e_l; e_i - e_j).  Neither is 0, even modulo (1; 1), unless
    k = l and i = j.  For i != j the unit term is alone in bidegree 0, so
    X_ij = 0.  With the off-diagonal unknowns zero the system is
    sum_k x_k S(u^i_k) u^k_j = delta_ij x_i for all (i, j) (likewise for
    z_zstar), which is the full system restricted to diagonal matrices.
    The two have isomorphic solution spaces, so ``Inconsistent`` and
    ``SolutionNotUnique`` are raised in the same cases.  ``nullspace``
    scales the solution to 1 at the last unknown in its support, the same
    diagonal unknown in both column orders, so it is the same matrix.  The
    reduced system takes N^3 products instead of N^4 (64 and 256 at
    N = 4).  Elsewhere the full system is solved; it is also the test
    oracle.
    """
    return _solve_invariance(N, P, variant, _as_built(P))


def _as_built(P: Presentation) -> bool:
    """Does ``matches_construction`` hold in full on P?  Memoised on P."""

    def compute():
        same = matches_construction(P)
        return bool(same) and all(same.values())

    return P.memo(("as-built",), compute)


def _solve_invariance(N: int, P: Presentation, variant: str, graded: bool):
    S = _antipode_table(P)
    idx = range(1, N + 1)
    if graded:
        unknowns = [(k, k) for k in idx]
    else:
        unknowns = [(k, l) for k in idx for l in idx]
    col = {kl: c for c, kl in enumerate(unknowns)}
    rows = []
    for i in idx:
        for j in idx:
            if variant == "zstar_z":
                polys = [S[u(i, k)] * NcPoly.gen(u(l, j)) for k, l in unknowns]
            else:
                polys = [NcPoly.gen(u(k, i)) * S[u(j, l)] for k, l in unknowns]
            # the unit term X_ij 1, absent where X_ij is known to be 0
            target = col.get((i, j))
            if target is not None:
                polys.append(NcPoly.unit())
            images = P.zero_test_images(polys)
            unit_side = images.pop() if target is not None else NcPoly()
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
    X = [[v[col[(k, l)]] if (k, l) in col else ZERO for l in idx] for k in idx]
    system = {
        "solve": "graded" if graded else "full",
        "unknowns": len(unknowns),
        "products": N * N * len(unknowns),
        "rows": len(rows),
    }
    return X, system


def solve_invariant_forms(N: int, P: Presentation | None = None) -> dict:
    """The matrices of the Haar-induced inner products on the span of the
    generators, as the unique normalized solutions F and H of the two
    invariance systems, each solved once, with the way they were solved:
    ``solve`` is ``"graded"`` or ``"full"`` (``_invariance_solution``) and
    ``systems`` gives each system's unknowns, products and equation rows.

    F, with F_{ij} ~ h(z_i z*_j), is normalized to trace 1 (the unit
    relation of the sphere).  H, with H_{ij} ~ h(z*_i z_j), is normalized
    through the rewriting link between the two variants: the corner entries
    agree, H_NN = F_NN.
    """
    P = P or build("uq", N)
    F, sys_f = _invariance_solution(N, P, "z_zstar")
    tr = ZERO
    for k in range(N):
        tr = tr + F[k][k]
    if tr.is_zero:
        raise Inconsistent("trace of the z_zstar solution vanishes")
    F = [[x / tr for x in row] for row in F]
    H, sys_h = _invariance_solution(N, P, "zstar_z")
    corner = H[N - 1][N - 1]
    if corner.is_zero:
        raise Inconsistent("corner entry of the zstar_z solution vanishes")
    scale = F[N - 1][N - 1] / corner
    H = [[x * scale for x in row] for row in H]
    systems = {"z_zstar": sys_f, "zstar_z": sys_h}
    solve = sys_f.pop("solve")
    sys_h.pop("solve")
    return {"F": F, "H": H, "solve": solve, "systems": systems}


def invariant_forms(N: int, P: Presentation | None = None):
    """The pair (F, H) of ``solve_invariant_forms``."""
    out = solve_invariant_forms(N, P)
    return out["F"], out["H"]


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

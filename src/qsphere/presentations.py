"""Constructors for the concrete q-deformed coordinate algebras.

``build`` produces the quantum matrix space ``mq``, the special unitary
group ``suq``, the unitary group ``uq`` (inverse determinant adjoined as the
generator ``dinv``) and the odd sphere ``sphere``, each as a rewriting system
with the orientation that makes all right-hand sides strictly smaller, plus
star maps and coalgebra structure-map tables (``StructureMaps``) where the
algebra carries them.  Here too are the quantum determinant and the exact
zero test; ``hopf`` extends the tables and decides the laws they obey.
"""

from __future__ import annotations

from itertools import permutations

from .freealg import DINV, NcPoly, TensorPoly, u, z, zs
from .rewrite import MonomialOrder, Rule, RewriteSystem
from .scalars import ONE, QPARAM, ZERO, qnum


class _Fixed:
    """Attributes named in ``_fixed`` are set in ``__init__`` and never
    again, so everything computed from them stays true of the object."""

    _fixed = ()

    def __setattr__(self, attr, value):
        if attr in self._fixed:
            kind = type(self).__name__
            raise AttributeError(f"the {attr} of a {kind} is fixed when it is made: "
                                 f"construct a new {kind}")
        super().__setattr__(attr, value)


class StructureMaps(_Fixed):
    """Coproduct, counit and antipode tables on the generators, fixed when
    the maps are made."""

    _fixed = ("delta", "epsilon", "antipode")

    def __init__(self, delta: dict, epsilon: dict, antipode: dict | None):
        vars(self).update(
            delta=delta,  # generator -> TensorPoly
            epsilon=epsilon,  # generator -> Scalar
            antipode=antipode,  # generator -> NcPoly; None for plain bialgebras
        )


class Presentation(_Fixed):
    """A finitely presented algebra: its rewriting system, star table,
    structure maps and, on suq and uq, the confluent companion mq and the
    determinant D.  The parts and the name and N are fixed when the
    presentation is made, so a verdict on it is computed once (``memo``);
    a presentation with other parts is a new ``Presentation``, which
    ``build`` did not make (``as_built``).  Edit no table in place."""

    _fixed = ("name", "N", "system", "star", "structure", "aux", "det")

    def __init__(
        self,
        name: str,
        N: int,
        system: RewriteSystem,
        star: dict | None = None,
        structure: StructureMaps | None = None,
        aux: "Presentation | None" = None,  # confluent companion (mq)
        det: NcPoly | None = None,  # the central determinant element
    ):
        vars(self).update(
            name=name, N=N, system=system, star=star, structure=structure, aux=aux, det=det,
        )
        self._memo = {}
        self._built = False  # set by ``build`` (``as_built``)

    def memo(self, key, compute):
        """compute(), computed once for this presentation."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @property
    def generators(self):
        return self.system.order.precedence

    @property
    def relations(self):
        """Defining relations as polynomials that vanish in the algebra."""
        return [NcPoly.monomial(r.lhs) - r.rhs for r in self.system.rules]

    def nf(self, a: NcPoly) -> NcPoly:
        return self.system.normal_form(a)

    def reduce(self, a: NcPoly) -> NcPoly:
        """A polynomial congruent to ``a`` in the algebra, computed with a
        confluent system only.

        Without an mq companion (mq, sphere) this is the normal form.  On
        suq it is the mq normal form.  On uq each word loses its dinv
        letters, which are central, its core takes the mq normal form and
        dinv^k is appended again.  Since mq is confluent,
        reduce(reduce(x) y) = reduce(x y) as polynomials, so products may be
        reduced factor by factor.  On suq and uq the result is not a
        canonical form of the element: only the zero test decides.
        """
        if self.aux is None:
            return self.nf(a)
        if DINV not in self.system.order.rank:
            return self.aux.nf(a)
        by_count = {}
        for w, c in a.terms.items():
            core = tuple(g for g in w if g != DINV)
            by_count.setdefault(len(w) - len(core), NcPoly())._iadd_term(core, c)
        out = NcPoly()
        for k, p in by_count.items():
            tail = (DINV,) * k
            for w, c in self.aux.nf(p).terms.items():
                out.terms[w + tail] = c
        return out

    def anti_extend(self, a: NcPoly, table: dict) -> NcPoly:
        """Antimultiplicative extension of a generator table (the antipode
        or the star), with ``reduce`` applied after each factor.

        Reducing factor by factor gives the same polynomial as expanding
        first, because ``reduce`` works in a confluent system.  The result
        is congruent to the image of ``a``, not its normal form: compare it
        through the zero test.  Both maps fix scalars (real rational
        functions of the real parameter).  ``NcPoly.star`` is the free
        expansion.

        On uq both maps send dinv to the determinant D (degree N, N! terms),
        which is never multiplied out.  When the table sends dinv to D, the
        dinv letters of a word are counted and skipped, and D^m is applied
        to the reduced image of the rest as a level shift
        (``_times_det_power``).  This is exact: D is central, so where its
        factors sit does not matter, and dinv D = 1.  Any other dinv image
        (a broken table) is multiplied out like every other generator.
        """
        shift = self.det is not None and table.get(DINV) == self.det
        out = NcPoly()
        for w, c in a.terms.items():
            img = NcPoly.unit(c)
            m = 0
            for g in reversed(w):
                if shift and g == DINV:
                    m += 1
                else:
                    img = self.reduce(img * table[g])
            if m:
                img = self._times_det_power(img, m)
            for w2, c2 in img.terms.items():
                out._iadd_term(w2, c2)
        return out

    def _times_det_power(self, p: NcPoly, m: int) -> NcPoly:
        """The level shift by m of a reduced p: a word at level k >= m
        (``_level``) becomes its core followed by k - m dinv letters, any
        other word the mq normal form of core D^(m - k) (``clear_word``).

        On uq the level of core dinv^k is k, and the result is a reduced
        polynomial congruent to p D^m (dinv D = 1); ``anti_extend`` applies
        D^m this way.  With m the largest level of the words (the zero
        test) every top-level word keeps its core, which ``reduce`` left
        mq-normal, and every other word is cleared into mq, on uq and suq
        alike: that is the clearing step of ``zero_test_images``."""
        out = NcPoly()
        pows = None  # looked up at the first word to clear
        for w, c in p.terms.items():
            core, k = self._level(w)
            if k >= m:
                out._iadd_term(core + (DINV,) * (k - m), c)
            else:
                pows = pows or self.det_powers()
                for w2, c2 in self.clear_word(w, m, pows).terms.items():
                    out._iadd_term(w2, c * c2)
        return out

    # -- exact zero testing
    #
    # ``zero_test_images`` is the one exact zero test: a linear map from
    # the free algebra to a space spanned by independent words, under which
    # an element vanishes in the algebra exactly when its image is zero.
    # For the confluent mq and sphere the map is the normal form.  The
    # rewriting systems of suq and uq (determinant set to 1, resp. inverse
    # determinant adjoined) are not confluent and are not used here: the
    # map starts from ``reduce``, which works in the confluent companion
    # mq, and follows it by a clearing step in mq.  The determinant D is
    # central, homogeneous of degree N and not a zero divisor in mq (mq is
    # a domain).  Each reduced word w gets a level g(w); with M the largest
    # level in the call, w is sent to core(w) D^(M - g(w)) in mq:
    #
    #   uq = mq[D^-1]: w = core dinv^k and g(w) = k.  sum_k A_k dinv^k
    #   vanishes iff sum_k A_k D^(M-k) vanishes in mq.
    #
    #   suq = mq / (D - 1): core(w) = w and g(w) = len(w) // N.  Since
    #   D = 1 in suq the image is congruent to a, and each degree class mod
    #   N lands in one degree, where the image of (D - 1) b telescopes to 0.
    #
    # Both are exact on any free polynomial, not only on normal forms.
    # The suq level must not be used on uq, where it sends 1 - D to 0.

    def det_powers(self) -> list:
        """D^0, D^1, ... in mq as far as ``clear_word`` has needed them,
        kept in the memo of this presentation (``memo``)."""
        return self.memo(("det", "powers"), lambda: [NcPoly.unit()])

    def _level(self, word):
        """The mq core of a reduced word and its level g."""
        if DINV in self.system.order.rank:
            return dinv_split(word)
        return word, len(word) // self.N

    def clear_word(self, word, M: int, pows: list) -> NcPoly:
        """Image core(W) * D^(M - g(W)) of a reduced word W in the companion
        algebra mq, for M at least its level g(W); pows is ``det_powers``,
        extended here as far as needed."""
        core, k = self._level(word)
        while len(pows) <= M - k:
            pows.append(self.aux.nf(pows[-1] * self.det))
        return self.aux.nf(NcPoly.monomial(core) * pows[M - k])

    def zero_test_images(self, polys) -> list:
        """Images of the given polynomials under one linear map that is
        injective on the algebra: each is zero exactly when its polynomial
        vanishes in the algebra."""
        images = [self.reduce(a) for a in polys]
        if self.det is None:
            return images
        M = max((self._level(w)[1] for p in images for w in p.terms), default=0)
        if M:  # with M = 0 every reduced word is already mq-normal
            images = [self._times_det_power(p, M) for p in images]
        return images

    def is_zero_elem(self, a: NcPoly) -> bool:
        return self.zero_test_images([a])[0].is_zero

    def equals(self, a: NcPoly, b: NcPoly) -> bool:
        return self.is_zero_elem(a - b)


def dinv_split(word):
    """Split a word into its part before the trailing dinv letters and their
    count.  On a reduced uq word (see ``Presentation.reduce``) every dinv
    trails, so the part before is the mq-normal core."""
    k = 0
    while k < len(word) and word[len(word) - 1 - k] == DINV:
        k += 1
    return word[: len(word) - k], k


# ---------------------------------------------------------------------------
# quantum determinant and antipode cofactor tables
# ---------------------------------------------------------------------------


def _inversions(pi) -> int:
    return sum(
        1
        for a in range(len(pi))
        for b in range(a + 1, len(pi))
        if pi[a] > pi[b]
    )


def quantum_determinant(N: int) -> NcPoly:
    """Sum over permutations of (-q)^inversions times u^1_{pi(1)}..u^N_{pi(N)}."""
    det = NcPoly()
    for pi in permutations(range(1, N + 1)):
        word = tuple(u(r, pi[r - 1]) for r in range(1, N + 1))
        det._iadd_term(word, (-QPARAM) ** _inversions(pi))
    return det


def antipode_matrix(N: int, variant: str):
    """N x N table of antipode images of the generators (quantum cofactors).

    Entry (i, j) is the image of u^i_j: the signed quantum minor obtained by
    deleting row j and column i, with sign (-q)^(i-j); the ``gl`` variant
    carries an extra left factor dinv.
    """
    table = [[None] * N for _ in range(N)]
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            rows = [k for k in range(1, N + 1) if k != j]
            cols = [l for l in range(1, N + 1) if l != i]
            entry = NcPoly()
            for pi in permutations(range(N - 1)):
                word = tuple(
                    u(rows[m], cols[pi[m]]) for m in range(N - 1)
                )
                if variant == "gl":
                    word = (DINV,) + word
                entry._iadd_term(word, (-QPARAM) ** (_inversions(pi) + i - j))
            table[i - 1][j - 1] = entry
    return table


# ---------------------------------------------------------------------------
# rule sets
# ---------------------------------------------------------------------------


def _mq_rules(N):
    qi = QPARAM ** (-1)
    qq = QPARAM - qi
    rules = []
    for k in range(1, N + 1):
        for i in range(1, N + 1):
            for j in range(i + 1, N + 1):
                rules.append(
                    Rule((u(j, k), u(i, k)), NcPoly.monomial((u(i, k), u(j, k)), qi))
                )
    for k in range(1, N + 1):
        for i in range(1, N + 1):
            for j in range(i + 1, N + 1):
                rules.append(
                    Rule((u(k, j), u(k, i)), NcPoly.monomial((u(k, i), u(k, j)), qi))
                )
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            for k in range(1, N + 1):
                for l in range(k + 1, N + 1):
                    rules.append(
                        Rule((u(j, k), u(i, l)), NcPoly.monomial((u(i, l), u(j, k))))
                    )
                    rhs = NcPoly.monomial((u(i, k), u(j, l))) - NcPoly.monomial(
                        (u(j, k), u(i, l)), qq
                    )
                    rules.append(Rule((u(j, l), u(i, k)), rhs))
    return rules


def _sphere_rules(N):
    qi = QPARAM ** (-1)
    hop = qi * (QPARAM - qi)
    rules = []
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            rules.append(Rule((z(j), z(i)), NcPoly.monomial((z(i), z(j)), qi)))
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            rules.append(Rule((zs(i), zs(j)), NcPoly.monomial((zs(j), zs(i)), qi)))
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if i != j:
                rules.append(Rule((zs(j), z(i)), NcPoly.monomial((z(i), zs(j)), qi)))
    for i in range(1, N + 1):
        rhs = NcPoly.monomial((z(i), zs(i)))
        for k in range(i + 1, N + 1):
            rhs = rhs + NcPoly.monomial((z(k), zs(k)), hop)
        rules.append(Rule((zs(i), z(i)), rhs))
    rhs = NcPoly.unit()
    for i in range(1, N):
        rhs = rhs - NcPoly.monomial((z(i), zs(i)))
    rules.append(Rule((z(N), zs(N)), rhs))
    return rules


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build(
    name: str,
    N: int,
    *,
    aux: Presentation | None = None,
) -> Presentation:
    """Build one of the named presentations: mq, suq, uq, sphere.  On suq
    and uq, ``aux``, if given, is the mq companion instead of a new build,
    so that presentations sharing it share its memoised verdicts; it must
    be an mq of the same N.  A result on mq, suq or uq is marked as made
    here (``as_built``)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if aux is not None and (aux.name, aux.N) != ("mq", N):
        raise ValueError(f"the companion must be mq({N}), not {aux.name}({aux.N})")

    if name == "sphere":
        prec = [z(i) for i in range(1, N + 1)] + [zs(i) for i in range(N, 0, -1)]
        order = MonomialOrder(prec)
        system = RewriteSystem(order, _sphere_rules(N))
        star = {}
        for i in range(1, N + 1):
            star[z(i)] = NcPoly.gen(zs(i))
            star[zs(i)] = NcPoly.gen(z(i))
        return Presentation("sphere", N, system, star=star)

    if name not in ("mq", "suq", "uq"):
        raise ValueError(f"unknown presentation {name!r}")
    rules, star, structure, det = _standard_construction(name, N)
    prec = [u(i, j) for i in range(1, N + 1) for j in range(1, N + 1)]
    if name == "uq":
        prec.append(DINV)
    system = RewriteSystem(MonomialOrder(prec), rules)
    aux = None if name == "mq" else aux or build("mq", N)
    P = Presentation(
        name, N, system, star=star, structure=structure, aux=aux, det=det,
    )
    P._built = True
    return P


def _standard_construction(name, N):
    """Rules, star table, structure maps and determinant of mq, suq or uq."""
    rules = _mq_rules(N)
    delta = _matrix_delta(N)
    epsilon = _matrix_epsilon(N)
    if name == "mq":
        return rules, None, StructureMaps(delta, epsilon, None), None
    det = quantum_determinant(N)
    # the leading word of D and its coefficient
    lead = tuple(u(r, N + 1 - r) for r in range(1, N + 1))
    c = (-QPARAM) ** (N * (N - 1) // 2)
    rest = det - NcPoly.monomial(lead, c)
    cinv = c.inverse()
    if name == "suq":
        # D = 1 oriented at the leading word of D
        rules.append(Rule(lead, (NcPoly.unit() - rest).scale(cinv)))
    else:
        if N > 1:
            # dinv is central; for N = 1 the unit rules below already say so
            for i in range(1, N + 1):
                for j in range(1, N + 1):
                    rules.append(Rule((DINV, u(i, j)), NcPoly.monomial((u(i, j), DINV))))
        # t * D_q = 1 oriented at the leading word of t * D_q
        rules.append(Rule((DINV,) + lead, (NcPoly.unit() - NcPoly.gen(DINV) * rest).scale(cinv)))
        # D_q * t = 1
        rules.append(Rule(lead + (DINV,), (NcPoly.unit() - rest * NcPoly.gen(DINV)).scale(cinv)))
        delta[DINV] = TensorPoly.monomial((DINV,), (DINV,))
        epsilon[DINV] = ONE
    table = antipode_matrix(N, "sl" if name == "suq" else "gl")
    star = {u(i, j): table[j - 1][i - 1] for i in range(1, N + 1) for j in range(1, N + 1)}
    antipode = {u(i, j): table[i - 1][j - 1] for i in range(1, N + 1) for j in range(1, N + 1)}
    if name == "uq":
        star[DINV] = det
        antipode[DINV] = det
    return rules, star, StructureMaps(delta, epsilon, antipode), det


def as_built(P: Presentation) -> bool:
    """Did ``build`` make P for mq, suq or uq, and on suq and uq also its
    companion?  Its parts are then those of the construction, as parts are
    fixed when a presentation is made.  The lemmas of ``hopf`` apply only
    where this holds; a presentation constructed any other way, and the
    sphere, takes the loops."""
    return P._built and (P.aux is None or as_built(P.aux))


def _matrix_delta(N):
    delta = {}
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            t = TensorPoly()
            for k in range(1, N + 1):
                t._iadd_term(((u(i, k),), (u(k, j),)), ONE)
            delta[u(i, j)] = t
    return delta


def _matrix_epsilon(N):
    return {
        u(i, j): (ONE if i == j else ZERO)
        for i in range(1, N + 1)
        for j in range(1, N + 1)
    }


# ---------------------------------------------------------------------------
# element matrices and identity checks
# ---------------------------------------------------------------------------


def generator_matrix(P: Presentation):
    N = P.N
    return [[NcPoly.gen(u(i, j)) for j in range(1, N + 1)] for i in range(1, N + 1)]


def matrix_mul(A, B, P: Presentation):
    N = len(A)
    out = [[NcPoly() for _ in range(N)] for _ in range(N)]
    for i in range(N):
        for j in range(N):
            acc = NcPoly()
            for k in range(N):
                acc = acc + A[i][k] * B[k][j]
            out[i][j] = P.reduce(acc)
    return out


def identity_defect(M, P: Presentation):
    """The first entry (i, j), 1-based in row order, at which the matrix M
    differs from the identity in P, with its residual; None if M = I."""
    for i, row in enumerate(M):
        for j, entry in enumerate(row):
            want = NcPoly.unit() if i == j else NcPoly()
            if not P.equals(entry, want):
                return (i + 1, j + 1), entry - want
    return None


def check_central(x: NcPoly, P: Presentation) -> bool:
    for g in P.generators:
        gp = NcPoly.gen(g)
        if not P.is_zero_elem(x * gp - gp * x):
            return False
    return True


def invariant_form_matrix(N: int):
    """The diagonal scalar matrix diag(1, q^2, ..., q^(2(N-1))) / (q^(N-1) [N]_q)."""
    norm = (QPARAM ** (N - 1)) * qnum(N)
    return [
        [
            (QPARAM ** (2 * i)) / norm if i == j else ZERO
            for j in range(N)
        ]
        for i in range(N)
    ]


# ---------------------------------------------------------------------------
# auxiliary presentations: the quantum exterior algebra and the morphism
# builder presets
# ---------------------------------------------------------------------------


def build_exterior(N: int) -> Presentation:
    """The quantum exterior algebra on x_1, ..., x_N: x_i x_i = 0 and
    x_j x_i = -q x_i x_j for i < j, oriented towards increasing indices.
    x_i -> sum_k u^i_k (x) x_k makes it an mq-comodule algebra, through
    which ``hopf.det_grouplike`` proves D group-like."""
    x = [("x", i) for i in range(1, N + 1)]
    rules = [Rule((g, g), NcPoly()) for g in x]
    for i in range(N):
        for j in range(i + 1, N):
            rules.append(Rule((x[j], x[i]), NcPoly.monomial((x[i], x[j]), -QPARAM)))
    return Presentation("exterior", N, RewriteSystem(MonomialOrder(x), rules))


def build_torus(N: int) -> Presentation:
    """Laurent Hopf star-algebra on N commuting unitaries T_1..T_N."""
    # T_i adjacent to its inverse so sorting makes cancellations visible
    prec = []
    for i in range(1, N + 1):
        prec.append(("T", i))
        prec.append(("Ts", i))
    order = MonomialOrder(prec)
    rank = {g: k for k, g in enumerate(prec)}
    rules = []
    for a in prec:
        for b in prec:
            if rank[a] < rank[b]:
                if a[1] == b[1]:
                    rules.append(Rule((b, a), NcPoly.unit()))
                    rules.append(Rule((a, b), NcPoly.unit()))
                else:
                    rules.append(Rule((b, a), NcPoly.monomial((a, b))))
    system = RewriteSystem(order, rules)
    star = {}
    delta = {}
    epsilon = {}
    antipode = {}
    for i in range(1, N + 1):
        t, ts = ("T", i), ("Ts", i)
        star[t] = NcPoly.gen(ts)
        star[ts] = NcPoly.gen(t)
        delta[t] = TensorPoly.monomial((t,), (t,))
        delta[ts] = TensorPoly.monomial((ts,), (ts,))
        epsilon[t] = ONE
        epsilon[ts] = ONE
        antipode[t] = NcPoly.gen(ts)
        antipode[ts] = NcPoly.gen(t)
    structure = StructureMaps(delta=delta, epsilon=epsilon, antipode=antipode)
    return Presentation("torus", N, system, star=star, structure=structure)


def build_free_matrix(N: int) -> Presentation:
    """Free star-algebra on N^2 symbols with matrix-style coalgebra maps.

    Satisfies the comatrix condition by construction but no FRT relation;
    used as the failing preset of the morphism builder.
    """
    A = [("a", i, j) for i in range(1, N + 1) for j in range(1, N + 1)]
    As = [("as", i, j) for i in range(1, N + 1) for j in range(1, N + 1)]
    order = MonomialOrder(A + As)
    system = RewriteSystem(order, [])
    star = {}
    delta = {}
    epsilon = {}
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            a, astar = ("a", i, j), ("as", i, j)
            star[a] = NcPoly.gen(astar)
            star[astar] = NcPoly.gen(a)
            t = TensorPoly()
            ts = TensorPoly()
            for k in range(1, N + 1):
                t._iadd_term(((("a", i, k),), (("a", k, j),)), ONE)
                ts._iadd_term(((("as", i, k),), (("as", k, j),)), ONE)
            delta[a] = t
            delta[astar] = ts
            epsilon[a] = ONE if i == j else ZERO
            epsilon[astar] = ONE if i == j else ZERO
    structure = StructureMaps(delta=delta, epsilon=epsilon, antipode=None)
    return Presentation("free", N, system, star=star, structure=structure)

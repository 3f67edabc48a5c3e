"""The braiding operator on the fundamental comodule and the r-form calculus.

The operator acts on V (x) V with basis e_i (x) e_j, indexed in row-major
order.  Index convention: the matrix entry R[(i,j)][(m,n)] is the coefficient
of e_i (x) e_j in the image of e_m (x) e_n (upper indices = output).  The
entries are q^{delta_ij} delta_in delta_jm + (q - q^-1) delta_im delta_jn
for i < j, all other entries zero.
"""

from __future__ import annotations

from .errors import AxiomFails
from .freealg import NcPoly, u, z
from .hopf import (
    _transpose,
    _triple_add,
    antipode,
    counit,
    delta_word,
    record,
    star_lemma,
    verify_hopf,
)
from .linalg import (
    identity,
    is_zero_matrix,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_add,
    nullspace,
    rank,
    same_column_space,
    transpose,
    zeros,
)
from .presentations import Presentation
from .scalars import ONE, QPARAM, ZERO, Scalar


def _pair_index(N):
    pairs = [(i, j) for i in range(1, N + 1) for j in range(1, N + 1)]
    return pairs, {p: k for k, p in enumerate(pairs)}


def rhat(N: int):
    """Exact matrix of the braiding operator on V (x) V."""
    qq = QPARAM - QPARAM ** (-1)
    pairs, idx = _pair_index(N)
    M = zeros(N * N, N * N)
    for (m, n) in pairs:
        col = idx[(m, n)]
        for (i, j) in pairs:
            entry = ZERO
            if i == n and j == m:
                entry = entry + (QPARAM if i == j else ONE)
            if i == m and j == n and j > i:
                entry = entry + qq
            if not entry.is_zero:
                M[idx[(i, j)]][col] = entry
    return M


def rhat_inverse(N: int):
    """Inverse braiding, from the Hecke identity: R^-1 = R - (q - q^-1) I."""
    return mat_sub(rhat(N), mat_scale(identity(N * N), QPARAM - QPARAM ** (-1)))


def check_hecke(N: int) -> bool:
    """(R - q I)(R + q^-1 I) = 0 exactly."""
    R = rhat(N)
    I = identity(N * N)
    prod = mat_mul(
        mat_sub(R, mat_scale(I, QPARAM)),
        mat_add(R, mat_scale(I, QPARAM ** (-1))),
    )
    return is_zero_matrix(prod)


def eigenprojections(N: int):
    """(P_plus, P_minus) onto the q and -1/q eigenspaces of the braiding."""
    R = rhat(N)
    I = identity(N * N)
    denom = (QPARAM + QPARAM ** (-1)).inverse()
    p_plus = mat_scale(mat_add(R, mat_scale(I, QPARAM ** (-1))), denom)
    p_minus = mat_scale(mat_sub(mat_scale(I, QPARAM), R), denom)
    return p_plus, p_minus


def mult_kernel(sphere: Presentation):
    """Kernel of multiplication V (x) V -> sphere algebra, versus the image
    of (R - q I); returns bases and the verdict of subspace equality."""
    N = sphere.N
    pairs, idx = _pair_index(N)
    # coefficient matrix of the normal forms of all products z_i z_j
    words = set()
    nfs = {}
    for (i, j) in pairs:
        p = sphere.nf(NcPoly.monomial((z(i), z(j))))
        nfs[(i, j)] = p
        words.update(p.terms)
    words = sorted(words)
    A = [[nfs[p].coeff(w) for p in pairs] for w in words]
    kernel = nullspace(A) if A else [
        [ONE if k == c else ZERO for k in range(N * N)] for c in range(N * N)
    ]
    shifted = mat_sub(rhat(N), mat_scale(identity(N * N), QPARAM))
    image_cols = [col for col in transpose(shifted) if any(not x.is_zero for x in col)]
    kernel_mat = transpose(kernel) if kernel else [[] for _ in range(N * N)]
    image_mat = transpose(image_cols) if image_cols else [[] for _ in range(N * N)]
    equal = same_column_space(kernel_mat, image_mat)
    return {
        "kernel_basis": kernel,
        "image_basis": image_cols,
        "dim_kernel": len(kernel),
        "dim_image": rank(shifted),
        "equal": equal,
    }


# ---------------------------------------------------------------------------
# the universal r-form
# ---------------------------------------------------------------------------


class RFormEvaluator:
    """Evaluator of the universal r-form on a special unitary presentation
    P (``suq``), computed in the coefficient field Q(q) of P.

    The r-form takes values in Q(t), t^N = q^-1, with generator values
    r(u^i_j (x) u^k_l) = t * R[(k,i)][(j,l)].  The left argument splits
    through r(ab, c) = r(a, c_1) r(b, c_2), the right through
    r(a, bc) = r(a_1, c) r(a_2, b); unit cases give the counit.  So every
    term of r(a, b) on two words is a product of table values over the
    |a|-by-|b| grid of letter pairs, and r(a, b) = t^(|a||b|) r_q(a, b),
    where r_q is split the same way from the table R alone.  ``eval_words``
    computes r_q, on an explicit stack.

    On polynomials ``eval`` and ``eval_bar`` return a t-value: a dict
    {k: x_k}, 0 <= k < N, of nonzero x_k in Q(q), standing for
    sum_k t^k x_k.  Q(t) is free over Q(q) with basis 1, t, ..., t^(N-1),
    so a t-value is zero exactly when it is empty, and two are equal exactly
    when they are equal as dicts.  ``in_t`` writes one as a scalar in the
    variable t, for printing.
    """

    def __init__(self, P: Presentation):
        if P.name != "suq":
            raise ValueError(f"the r-form is evaluated on suq, not on {P.name}")
        N = self.N = P.N
        self.P = P
        pairs, idx = _pair_index(N)
        self._idx = idx
        R = rhat(N)
        self._table = {
            (u(i, j), u(k, l)): R[idx[(k, i)]][idx[(j, l)]]
            for i, j in pairs
            for k, l in pairs
        }
        self._q_inv = QPARAM.inverse()
        self._memo = {}
        self._bar_memo = {}  # (wa, wb) -> r(S(wa), wb) as a t-value

    def _eps_word(self, w) -> Scalar:
        return counit(NcPoly.monomial(w), self.P)

    def _add_power(self, out: dict, e: int, x: Scalar):
        """Add t^e x to the t-value out: t^e = q^-(e // N) t^(e % N)."""
        k, rho = divmod(e, self.N)
        _triple_add(out, rho, x * self._q_inv ** k if k else x)

    def _tmul(self, x: dict, y: dict, out: dict | None = None) -> dict:
        """Add the product of two t-values to out (a new t-value by default)
        and return it."""
        out = {} if out is None else out
        for i, a in x.items():
            for j, b in y.items():
                self._add_power(out, i + j, a * b)
        return out

    def in_t(self, value: dict) -> Scalar:
        """A t-value as one scalar in the variable t, with q = t^-N."""
        t = Scalar.variable()
        q = t ** (-self.N)
        total = ZERO
        for k, x in value.items():
            total = total + t ** k * x.compose(q)
        return total

    def _split(self, a, b):
        """r_q(a, b) as a scalar (unit and generator cases), or as a list of
        terms (c, k) with r_q(a, b) = sum c r_q(k) over word pairs k shorter
        than (a, b) in total length; terms with c = 0 are left out.

        The coproduct of a generator is a sum of letter pairs (the matrix
        coproduct).  With a one letter: r(a, h rest) = sum r(a_1, rest)
        r(a_2, h), each r(a_2, h) read from the table.  With a = g rest
        longer: r(g rest, b) = sum r(g, b_1) r(rest, b_2), and b is walked
        letter by letter instead of expanding its coproduct.  By the right
        rule, r(g, y_1 ... y_m) pairs y_1 with the last leg of the m-fold
        coproduct of g, y_2 with the one before it, and so on.  So each step
        splits the current leg x of g, pairs x_2 with the left leg y of the
        next letter of b, appends that letter's right leg to b_2 and keeps
        x_1; the last letter pairs with x itself.  A path ends as soon as a
        table value is 0, and the generator table is sparse.
        """
        if not a:
            return self._eps_word(b)
        if not b:
            return self._eps_word(a)
        table = self._table
        delta = self.P.structure.delta
        if len(a) == 1:
            if len(b) == 1:
                return table[(a[0], b[0])]
            h, rest = b[0], b[1:]
            out = []
            for ((x1,), (x2,)), c in delta[a[0]].terms.items():
                v = table[(x2, h)]
                if not v.is_zero:
                    out.append((c * v, ((x1,), rest)))
            return out
        paths = {(a[0], ()): ONE}  # (current leg of g, b_2 so far) -> coefficient
        last = len(b) - 1
        for n, h in enumerate(b):
            step = {}
            for (x, b2), c in paths.items():
                for ((y,), (w,)), cy in delta[h].terms.items():
                    if n == last:
                        v = table[(x, y)]
                        if not v.is_zero:
                            _triple_add(step, (None, b2 + (w,)), c * cy * v)
                        continue
                    for ((x1,), (x2,)), cx in delta[x].terms.items():
                        v = table[(x2, y)]
                        if not v.is_zero:
                            _triple_add(step, (x1, b2 + (w,)), c * cy * cx * v)
            paths = step
        rest = a[1:]
        return [(c, (rest, b2)) for (_, b2), c in paths.items()]

    def eval_words(self, a, b) -> Scalar:
        """r_q(a, b) on two words, memoised on the pair.  The splitting runs
        on an explicit stack, so the word length is not bounded by the
        recursion limit."""
        memo = self._memo
        hit = memo.get((a, b))
        if hit is not None:
            return hit
        stack = [((a, b), None)]
        while stack:
            key, split = stack.pop()
            if split is None:
                if key in memo:
                    continue
                split = self._split(*key)
                if not isinstance(split, list):
                    memo[key] = split
                    continue
            todo = [k for _, k in split if k not in memo]
            if todo:
                stack.append((key, split))
                stack.extend((k, None) for k in todo)
            else:
                val = ZERO
                for c, k in split:
                    val = val + c * memo[k]
                memo[key] = val
        return memo[(a, b)]

    def eval(self, a: NcPoly, b: NcPoly) -> dict:
        """r(a, b) as a t-value: each word pair adds t^(|wa||wb|) r_q."""
        out = {}
        for wa, ca in a.terms.items():
            for wb, cb in b.terms.items():
                r = self.eval_words(wa, wb)
                if not r.is_zero:
                    self._add_power(out, len(wa) * len(wb), ca * cb * r)
        return out

    def eval_bar(self, a: NcPoly, b: NcPoly) -> dict:
        """Convolution inverse, realized as r composed with (S (x) id), as a
        t-value.  On two monomials it is memoised on their word pair."""
        if len(a.terms) != 1 or len(b.terms) != 1:
            return self.eval(antipode(a, self.P), b)
        (wa, ca), = a.terms.items()
        (wb, cb), = b.terms.items()
        key = (wa, wb)
        val = self._bar_memo.get(key)
        if val is None:
            val = self.eval(antipode(NcPoly.monomial(wa), self.P), NcPoly.monomial(wb))
            self._bar_memo[key] = val
        c = ca * cb
        return {k: c * x for k, x in val.items()}

    def sigma_matrix(self):
        """The induced braiding on V (x) V computed FROM the r-form, divided
        by t: sigma(e_i (x) e_j) = sum_{k,l} r_q(u^k_i (x) u^l_j) e_l (x) e_k."""
        pairs = list(self._idx)  # the basis order of rhat
        return [[self._table[(u(k, i), u(l, j))] for i, j in pairs] for l, k in pairs]


def _relation_kills_failing(ev: RFormEvaluator):
    """Pairs (relation, generator), on either side, on which r is not 0."""
    gens = [NcPoly.gen(g) for g in ev.P.generators]
    bad = []
    for rel in ev.P.relations:
        for g in gens:
            if ev.eval(rel, g):
                bad.append((rel, g))
            if ev.eval(g, rel):
                bad.append((g, rel))
    return bad


def _commutation_holds(ev: RFormEvaluator, wa, wb) -> bool:
    """The commutation law b a = r(a_1, b_1) a_2 b_2 rbar(a_3, b_3) on two
    words, decided in the algebra: the right side is sum_k t^k c_k with c_k
    in the algebra over Q(q), so the law says c_0 = b a and c_k = 0 for
    k > 0."""
    P = ev.P
    mono = NcPoly.monomial
    rhs = {}  # k -> c_k
    for (a1, arest), ca in delta_word(wa, P).terms.items():
        for (b1, brest), cb in delta_word(wb, P).terms.items():
            r1 = ev.eval(mono(a1, ca * cb), mono(b1))
            if not r1:
                continue
            for (a2, a3), c2 in delta_word(arest, P).terms.items():
                for (b2, b3), d2 in delta_word(brest, P).terms.items():
                    r3 = ev.eval_bar(mono(a3, c2 * d2), mono(b3))
                    for k, x in ev._tmul(r1, r3).items():
                        rhs.setdefault(k, NcPoly())._iadd_term(a2 + b2, x)
    rhs[0] = rhs.get(0, NcPoly()) - mono(wb) * mono(wa)
    return all(img.is_zero for img in P.zero_test_images(list(rhs.values())))


def _check_reality(ev: RFormEvaluator, gens, star_is_s_tau: bool) -> dict:
    """Reality r(a, b) = r(b*, a*) on generator pairs, decided from the
    generator values as r(a, b) = r(tau b, tau a) where ``star_is_s_tau``
    (``check_cqt``), else, or where that table identity fails, by pairing
    the cofactors b* and a*.  Returns the record of how; raises AxiomFails
    at the first pair on which the loop fails."""
    mono = NcPoly.monomial
    if star_is_s_tau and all(
        ev.eval(mono((a,)), mono((b,)))
        == ev.eval(mono((_transpose(b),)), mono((_transpose(a),)))
        for a in gens
        for b in gens
    ):
        return record("reality-on-generators", "braiding-table", ["star-laws", "table-symmetric"])
    star = ev.P.star
    for a in gens:
        for b in gens:
            if ev.eval(mono((a,)), mono((b,))) != ev.eval(star[b], star[a]):
                raise AxiomFails("reality", (a, b))
    return record("reality-on-generators")


def check_cqt(P: Presentation) -> dict:
    """Prove the coquasitriangularity axioms of the r-form on the suq
    presentation P, and check its reality.

    Every value is computed in Q(q), the coefficient field of P, as a
    t-value (``RFormEvaluator``), so no second presentation over Q(t) is
    built.  Q(t) is free over Q(q) with basis 1, t, ..., t^(N-1), so an
    identity over Q(t) holds exactly when it holds in each coordinate.  So
    r(D - 1, g) = 0 reads q^-1 r_q(D, g) = eps(g), and as S(u^i_j) is a
    cofactor of degree N - 1, each value of rbar on generators carries
    t t^(N-1) = q^-1.

    Hypotheses, checked on A = F/I (F free, I the ideal of the relations):
      (H1) ``verify_hopf(P)``: Delta, epsilon and S kill the relations, and
           the Hopf laws hold on generators, so A is a Hopf algebra and
           Delta(I) lies in I (x) F + F (x) I.  The verdict is memoised on
           P, so a ``hopf-axioms`` check of the same run computes it once.
      (H2) r(rel, g) = r(g, rel) = 0 for every relation and generator.
    The evaluator defines r on F (x) F by the two splitting rules, which
    agree there: both give r(x_1 ... x_n, y_1 ... y_m) as the sum, over the
    coproduct legs of all letters, of the products of table values over the
    n-by-m grid of letter pairs.  So r is a skew pairing on F.

    r descends to a skew pairing on A.  Suppose r(I, w) = 0 for all words w
    of length at most n.  Delta(rel) lies in I (x) F + F (x) I, so in
    r(rel, w h) = sum r(rel_1, h) r(rel_2, w) each term has rel_1 in I,
    where r(., h) = 0, or rel_2 in I, where r(., w) = 0.  Here r(I, h) = 0
    by H2, since r(x rel' y, h) = sum r(x, h_1) r(rel', h_2) r(y, h_3) and
    the coproduct of a generator has generator legs.  The same split of
    x rel y carries this from the relations to I, and r(rel, 1) = eps(rel)
    = 0 starts the induction.  The mirror argument gives r(F, I) = 0.

    Convolution inverse: on a Hopf algebra rbar = r o (S (x) id) inverts r,
    so it is not checked.  By the left splitting rule and the antipode law,
    sum r(a_1, b_1) r(S a_2, b_2) = r(a_1 S(a_2), b) = eps(a) eps(b), and
    sum r(S a_1, b_1) r(a_2, b_2) = r(S(a_1) a_2, b) = eps(a) eps(b) the
    same way.  Both need only H1 and r descending to A; the law on
    generator pairs is a test oracle.

    Commutation law b a = r(a_1, b_1) a_2 b_2 rbar(a_3, b_3), checked on
    generator pairs.  It extends in b for every generator a: with
    r(a, bc) = r(a_1, c) r(a_2, b) and rbar(a, bc) = rbar(a_1, b)
    rbar(a_2, c), b c a = b (c a) expands to the law for (a, bc) by the law
    for (a, c) and then for (a_i, b), the legs a_i being generators; for
    b = 1 the law is the counit law.  It then extends in a, for every word
    b: with r(xy, b) = r(x, b_1) r(y, b_2) and rbar(xy, b) = rbar(y, b_1)
    rbar(x, b_2), b x y expands by the law for (x, b) and then for
    (y, b_2).  So the law holds on all of A.

    Reality r(a, b) = r(b*, a*) (the values are real functions of the real
    q) is checked on generator pairs.  It extends to all of A when
    ``hopf.star_lemma(P)`` holds.  Then star = S tau is well defined on A,
    and Delta S = (S (x) S) Delta^op with (tau (x) tau) Delta = Delta^op tau
    gives Delta(c*) = c_1* (x) c_2*.  First the right word, for a generator
    a, by induction on its length: r((xy)*, a*) = r(y* x*, a*) =
    sum r(y*, a_1*) r(x*, a_2*) = sum r(a_1, y) r(a_2, x) = r(a, xy), the
    legs a_i being generators.  Then the left word, for every word c:
    r(c*, (ab)*) = r(c*, b* a*) = sum r(c_1*, a*) r(c_2*, b*) =
    sum r(a, c_1) r(b, c_2) = r(ab, c).  The unit cases are
    eps(c*) = eps(c), from eps tau = eps.  Where it holds the report has
    a record of ``reality`` by ``"star-lemma"``.

    Where the star lemma holds, reality on generator pairs needs no
    cofactor (``_check_reality``).  S is bijective there, with S^-1 the
    antipode of A^cop, so sum S^-1(b_2) b_1 = eps(b), and by the right
    splitting rule sum r(a_1, b_1) r(a_2, S^-1 b_2) = r(a, S^-1(b_2) b_1) =
    eps(a) eps(b).  So r(a, S^-1 b) is a right convolution inverse of r and
    equals the two-sided inverse rbar(a, b) = r(S a, b), that is
    r(S a, S b) = r(a, b) on A.  With b* = S(tau b) on A,
    r(b*, a*) = r(S tau b, S tau a) = r(tau b, tau a), a generator value:
    for a = u^i_j and b = u^k_l the identity reads t R[(k,i)][(j,l)] =
    t R[(j,l)][(k,i)], so it holds exactly when R is symmetric, as it is by
    construction.  Where that table identity fails the cofactor loop
    decides; it is also the test oracle.  The record of
    ``reality-on-generators`` says which.

    The report's ``decided`` lists the records of ``verify_hopf``, of the
    star lemma where it holds, and of reality.
    """
    ev = RFormEvaluator(P)
    N = P.N
    gens = [u(i, j) for i in range(1, N + 1) for j in range(1, N + 1)]

    hopf_report = verify_hopf(P)
    bad = _relation_kills_failing(ev)
    if bad:
        raise AxiomFails("rform-kills-relations", repr(bad[0]))
    kills = 2 * len(P.relations) * len(P.generators)

    for a in gens:
        for b in gens:
            if not _commutation_holds(ev, (a,), (b,)):
                raise AxiomFails("commutation-law", (a, b))

    star = star_lemma(P)
    decided = [*(star or hopf_report["decided"]), _check_reality(ev, gens, star is not None)]
    if star is not None:
        decided.append(record("reality", "star-lemma", ["star-laws", "reality-on-generators"]))
    return {"generator_pairs": len(gens) ** 2, "kill_pairs": kills, "decided": decided}

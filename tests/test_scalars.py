"""The exact coefficient field and the deformation parameter."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qsphere.errors import PoleAtPoint
from qsphere.scalars import ONE, QPARAM, ZERO, Scalar, qnum

q = QPARAM


def _rand_scalar(num, den):
    if not any(den):
        den = den + [1]
    return Scalar(tuple(num), tuple(den))


small_ints = st.integers(min_value=-5, max_value=5)
polys = st.lists(small_ints, min_size=0, max_size=4)
scalars = st.builds(_rand_scalar, polys, polys)
nonzero_scalars = scalars.filter(lambda s: not s.is_zero)


class TestCanonicalForm:
    def test_zero_representation(self):
        assert Scalar((0,), (3,)) == ZERO
        assert ZERO.num == () and ZERO.den == (1,)

    def test_gcd_reduced(self):
        # (v^2 - 1) / (v - 1) = v + 1
        s = Scalar((-1, 0, 1), (-1, 1))
        assert s == Scalar((1, 1))

    def test_content_reduced(self):
        assert Scalar((2, 4), (2,)) == Scalar((1, 2))

    def test_denominator_sign(self):
        s = Scalar((1,), (-1, -1))
        assert s.den[-1] > 0

    def test_equal_iff_identical(self):
        a = (q ** 2 - ONE) / (q + ONE)
        b = q - ONE
        assert a == b
        assert hash(a) == hash(b)


class TestArithmetic:
    def test_field_identities(self):
        s = (q ** 3 - q) / (q ** 2 + ONE)
        assert s + ZERO == s
        assert s * ONE == s
        assert s - s == ZERO
        assert s / s == ONE

    def test_negative_powers(self):
        assert q ** (-1) * q == ONE
        assert q ** (-3) == (q ** 3).inverse()

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO

    @given(scalars, scalars, scalars)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(nonzero_scalars)
    def test_multiplicative_inverse(self, a):
        assert a * a.inverse() == ONE

    @given(scalars, scalars)
    def test_subtraction(self, a, b):
        assert (a - b) + b == a


class TestEvaluation:
    def test_eval_exact(self):
        s = (q ** 2 - ONE) / (q + ONE)
        assert s.eval_at(Fraction(1, 2)) == Fraction(-1, 2)

    def test_pole(self):
        s = ONE / (q - ONE)
        with pytest.raises(PoleAtPoint):
            s.eval_at(1)

    @given(scalars)
    def test_eval_is_homomorphism(self, a):
        b = q + ONE
        try:
            lhs = (a * b).eval_at(Fraction(1, 3))
        except PoleAtPoint:
            return
        assert lhs == a.eval_at(Fraction(1, 3)) * b.eval_at(Fraction(1, 3))

    def test_compose_substitutes_a_power(self):
        # rform prints an r-form value in t by substituting q = t^-N
        t = Scalar.variable()
        assert (q ** 2 - ONE).compose(t ** -2) == t ** -4 - ONE
        s = (q ** 2 + ONE) / (q - ONE)
        assert s.compose(t ** -3) == (t ** -6 + ONE) / (t ** -3 - ONE)
        assert s.compose(t ** -3).eval_at(2) == s.eval_at(Fraction(1, 8))


class TestDeformationParameter:
    def test_q_is_the_base_variable(self):
        assert QPARAM == Scalar.variable()

    def test_qnum(self):
        assert qnum(1) == ONE
        assert qnum(2) == q + q ** (-1)
        assert qnum(3) == q ** 2 + ONE + q ** (-2)


# ---------------------------------------------------------------------------
# oracle: the general-denominator canonicalisation, kept as the reference for
# the Laurent representation (Fraction Euclid gcd, exact division, content
# and sign, on plain num/den coefficient tuples)
# ---------------------------------------------------------------------------


def _ref_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _ref_pgcd(a, b):
    fa = [Fraction(x) for x in a]
    fb = [Fraction(x) for x in b]
    while fb:
        while len(fa) >= len(fb) and any(fa):
            k = len(fa) - len(fb)
            f = fa[-1] / fb[-1]
            for i, y in enumerate(fb):
                fa[i + k] -= f * y
            while fa and fa[-1] == 0:
                fa.pop()
        fa, fb = fb, fa
    lcm = 1
    for x in fa:
        lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    g = _ref_trim([int(x * lcm) for x in fa])
    c = gcd(*g) * (1 if g[-1] > 0 else -1)
    return tuple(x // c for x in g)


def _ref_divexact(a, b):
    out = [0] * (len(a) - len(b) + 1)
    rem = list(a)
    for k in range(len(out) - 1, -1, -1):
        c, r = divmod(rem[k + len(b) - 1], b[-1])
        assert r == 0
        out[k] = c
        for i, y in enumerate(b):
            rem[i + k] -= c * y
    assert not any(rem)
    return _ref_trim(out)


def _ref_canon(num, den):
    """Lowest-terms (num, den) in Z[v]: coprime with content, den[-1] > 0."""
    num, den = _ref_trim(num), _ref_trim(den)
    if not num:
        return (), (1,)
    g = _ref_pgcd(num, den)
    num, den = _ref_divexact(num, g), _ref_divexact(den, g)
    c = gcd(*num, *den) * (1 if den[-1] > 0 else -1)
    return tuple(x // c for x in num), tuple(x // c for x in den)


def _ref_eval(num, den, v0):
    """Value of the lowest-terms fraction at v0, or "pole" where den vanishes."""
    ev = lambda p: sum((c * v0 ** i for i, c in enumerate(p)), Fraction(0))
    d = ev(den)
    return "pole" if d == 0 else ev(num) / d


def _ref_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _ref_add(a, b):
    n = max(len(a), len(b))
    return tuple(x + y for x, y in zip(a + (0,) * (n - len(a)), b + (0,) * (n - len(b))))


def _ref_neg(a):
    return tuple(-x for x in a)


nonzero_ints = st.integers(min_value=-6, max_value=6).filter(bool)
monomials = st.builds(
    lambda k, c: (0,) * k + (c,), st.integers(min_value=0, max_value=4), nonzero_ints
)
general = st.lists(st.integers(min_value=-4, max_value=4), min_size=2, max_size=5).filter(
    lambda p: any(p[1:])
)
numerators = st.one_of(st.just(()), monomials, general)
# constant, monomial c*v^k and general denominators, some with low zeros
denominators = st.one_of(
    st.builds(lambda c: (c,), nonzero_ints),
    monomials,
    st.builds(lambda k, p: (0,) * k + tuple(p), st.integers(0, 2), general),
)
fractions_ = st.tuples(numerators, denominators)
points = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


class TestAgainstGeneralForm:
    @settings(max_examples=200)
    @given(fractions_)
    def test_num_den_are_lowest_terms(self, nd):
        s = Scalar(*nd)
        assert (s.num, s.den) == _ref_canon(*nd)
        assert Scalar(s.num, s.den) == s

    @settings(max_examples=200)
    @given(fractions_, fractions_, st.integers(min_value=-3, max_value=3))
    def test_ops_match_reference(self, x, y, k):
        a, b = Scalar(*x), Scalar(*y)
        (an, ad), (bn, bd) = _ref_canon(*x), _ref_canon(*y)
        cross = _ref_mul(an, bd), _ref_mul(bn, ad)
        s = a + b
        assert (s.num, s.den) == _ref_canon(_ref_add(*cross), _ref_mul(ad, bd))
        s = a - b
        assert (s.num, s.den) == _ref_canon(
            _ref_add(cross[0], _ref_neg(cross[1])), _ref_mul(ad, bd)
        )
        s = a * b
        assert (s.num, s.den) == _ref_canon(_ref_mul(an, bn), _ref_mul(ad, bd))
        if bn:
            s = a / b
            assert (s.num, s.den) == _ref_canon(_ref_mul(an, bd), _ref_mul(ad, bn))
        if an or k >= 0:
            base = (an, ad) if k >= 0 else (ad, an)
            pn, pd = (1,), (1,)
            for _ in range(abs(k)):
                pn, pd = _ref_mul(pn, base[0]), _ref_mul(pd, base[1])
            s = a ** k
            assert (s.num, s.den) == _ref_canon(pn, pd)

    @settings(max_examples=200)
    @given(fractions_, fractions_, points, st.integers(min_value=-3, max_value=3))
    def test_ops_commute_with_eval(self, x, y, v0, k):
        a, b = Scalar(*x), Scalar(*y)
        va, vb = _ref_eval(*_ref_canon(*x), v0), _ref_eval(*_ref_canon(*y), v0)
        if va == "pole" or vb == "pole":
            return
        assert (a + b).eval_at(v0) == va + vb
        assert (a - b).eval_at(v0) == va - vb
        assert (a * b).eval_at(v0) == va * vb
        if vb:
            assert (a / b).eval_at(v0) == va / vb
        if va or k >= 0:
            assert (a ** k).eval_at(v0) == va ** k

    @settings(max_examples=200)
    @given(fractions_, st.one_of(points, st.just(Fraction(0))))
    def test_poles_where_the_lowest_terms_den_vanishes(self, nd, v0):
        want = _ref_eval(*_ref_canon(*nd), v0)
        s = Scalar(*nd)
        if want == "pole":
            with pytest.raises(PoleAtPoint):
                s.eval_at(v0)
        else:
            assert s.eval_at(v0) == want

    def test_pole_at_zero_from_a_negative_valuation(self):
        with pytest.raises(PoleAtPoint):
            (q ** (-2) * (q + ONE)).eval_at(0)
        assert (q ** 2 * (q + ONE)).eval_at(0) == 0

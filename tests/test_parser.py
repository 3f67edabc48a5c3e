"""The expression language: parsing, rendering, round-trips."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qsphere.errors import ExprSyntaxError, IndexOutOfRange, QsphereError, UnknownGenerator
from qsphere.freealg import DINV, EMPTY, NcPoly, u, z, zs
from qsphere.parser import _int_text, _Parser, _text_int, parse_expr, render, render_scalar
from qsphere.presentations import build
from qsphere.scalars import ONE, QPARAM, Scalar, qnum

sphere = build("sphere", 2)
uq = build("uq", 2)
q = QPARAM


def test_parse_generators():
    assert parse_expr("z[1]", sphere) == NcPoly.gen(z(1))
    assert parse_expr("zs[2]", sphere) == NcPoly.gen(zs(2))
    assert parse_expr("u[1,2]", uq) == NcPoly.gen(u(1, 2))
    assert parse_expr("dinv", uq) == NcPoly.gen(DINV)


def test_parse_arithmetic():
    got = parse_expr("q*z[1]*z[2] - z[2]*z[1]", sphere)
    want = NcPoly.monomial((z(1), z(2)), q) - NcPoly.monomial((z(2), z(1)))
    assert got == want


def test_caret_binds_tighter_than_star():
    assert parse_expr("q^2*z[1]", sphere) == NcPoly.gen(z(1), q ** 2)
    assert parse_expr("z[1]^2", sphere) == NcPoly.monomial((z(1), z(1)))


def test_negative_exponent_scalars_only():
    assert parse_expr("q^-1", sphere) == NcPoly.monomial(EMPTY, q ** (-1))
    with pytest.raises(ExprSyntaxError):
        parse_expr("z[1]^-1", sphere)


@pytest.mark.parametrize(
    "base",
    ["z[1]", "q^2*z[1]*zs[2]", "-3*z[2]", "q", "2",
     "z[1]+q*zs[1]", "z[1]*z[2]-2*q^-1*zs[2]+1"],
)
def test_power_is_the_repeated_product(base):
    # a one-term base is raised in one step, a longer one by multiplying
    a = parse_expr(base, sphere)
    want = NcPoly.unit()
    for e in range(6):
        assert parse_expr(f"({base})^{e}", sphere) == want, e
        want = want * a


def test_deep_word_parses_and_reduces():
    # z[2]^k*z[1] -> q^-k z[1]*z[2]^k: a power of one word is built
    # directly and the rewrite chain is edited in place, both linear in k
    k = 12000
    a = parse_expr(f"z[2]^{k}*z[1]", sphere)
    assert a == NcPoly.monomial((z(2),) * k + (z(1),))
    nf = build("sphere", 2).nf(a)
    assert list(nf.terms.items()) == [((z(1),) + (z(2),) * k, q ** (-k))]


class _RecursiveParser(_Parser):
    """The recursive descent that ``_Parser.parse`` replaced: one Python
    call per nesting level.  Kept as the oracle of the explicit stack."""

    def parse(self):
        out = self._expr()
        kind, _, at = self._peek()
        if kind != "end":
            raise ExprSyntaxError(at, "end of input")
        return out

    def _expr(self):
        negate = self._accept("-")
        out = self._term()
        if negate:
            out = -out
        while True:
            if self._accept("+"):
                out = out + self._term()
            elif self._accept("-"):
                out = out - self._term()
            else:
                return out

    def _term(self):
        out = self._factor()
        while True:
            if self._accept("*"):
                out = out * self._factor()
            elif self._accept("/"):
                _, _, at = self._peek()
                div = self._factor()
                c = div.terms.get(EMPTY)
                if len(div.terms) != 1 or c is None:
                    raise ExprSyntaxError(at, "scalar divisor")
                out = out.scale(c.inverse())
            else:
                return out

    def _factor(self):
        kind, val, at = self._next()
        if kind == "sym" and val == "(":
            a = self._expr()
            self._expect(")")
        else:
            a = self._atom(kind, val, at)
        return self._power(a)


def _outcome(parser_cls, src):
    try:
        return ("ok", parser_cls(src, sphere).parse())
    except QsphereError as exc:
        return (type(exc).__name__, str(exc))


_PIECES = ["z[1]", "zs[2]", "q", "2", "0", "(", "(", ")", ")", "+", "-", "*", "/",
           "^", "2", "^-1", "w[1]", "z[3]", "[", "$"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=14))
def test_parse_matches_recursive_oracle(pieces):
    # same polynomial, or the same error at the same position
    src = " ".join(pieces)
    assert _outcome(_Parser, src) == _outcome(_RecursiveParser, src)


@pytest.mark.parametrize("src", [
    "-(z[1] - z[2])*(q+1)^2/(2*q) + ((zs[2]))^3 - -1",
    "((z[1]+q)*(zs[2]-1))^2/3",
    "z[1]/(q-q)", "z[1]/(z[2])", "(z[1]", "z[1])", "(z[1]]", "()", "(-)",
    "(q)^-2*(z[1])^-1", "2^", "z[1]*-z[2]",
])
def test_parse_matches_recursive_oracle_on_examples(src):
    assert _outcome(_Parser, src) == _outcome(_RecursiveParser, src)


def test_deep_parentheses_parse():
    # nesting is held on an explicit stack, not in Python frames
    n = 20000
    assert parse_expr("(" * n + "z[1]" + ")" * n, sphere) == NcPoly.gen(z(1))
    got = parse_expr("-(" * n + "z[1]*(q+z[2])" + ")^1" * n, sphere)
    assert got == NcPoly.gen(z(1), q) + NcPoly.monomial((z(1), z(2)))
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("(" * n + "z[1]", sphere)
    assert (exc.value.position, exc.value.expected) == (n + 4, ")")


def test_unary_minus_and_parens():
    got = parse_expr("-(z[1] - z[2])", sphere)
    assert got == NcPoly.gen(z(2)) - NcPoly.gen(z(1))


def test_scalar_division():
    assert parse_expr("z[1]/2", sphere) == NcPoly.gen(z(1), ONE / Scalar.from_int(2))
    with pytest.raises(ExprSyntaxError):
        parse_expr("z[1]/z[2]", sphere)


def test_unknown_generator():
    with pytest.raises(UnknownGenerator, match=r"^w is not a generator of sphere\(2\)$"):
        parse_expr("w[1]", sphere)
    with pytest.raises(UnknownGenerator, match=r"^dinv is not a generator of sphere\(2\)$"):
        parse_expr("dinv", sphere)
    with pytest.raises(UnknownGenerator):
        parse_expr("t", sphere)


def test_index_out_of_range():
    with pytest.raises(IndexOutOfRange) as exc:
        parse_expr("z[3]", sphere)
    assert "N = 2" in str(exc.value)


def test_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("z[1] +", sphere)
    assert exc.value.position == 6
    with pytest.raises(ExprSyntaxError):
        parse_expr("z[1] $", sphere)


# -- rendering --------------------------------------------------------------


def test_render_contracts():
    assert render(NcPoly.zero()) == "0"
    assert render(NcPoly.unit()) == "1"
    assert render(NcPoly.monomial((z(1), z(2)), q ** (-1))) == "q^-1*z[1]*z[2]"


def test_render_scalar():
    assert render_scalar(q ** 2 - ONE) == "q^2-1"
    assert render_scalar((q - ONE) / (q + ONE)) == "(q-1)/(q+1)"
    assert render_scalar(ONE / (q ** 2)) == "q^-2"
    assert render_scalar(q - q, var="t") == "0"


def test_render_in_other_variable():
    assert render(NcPoly.unit(q ** 2), var="t") == "t^2"


words = st.lists(st.sampled_from([z(1), z(2), zs(1), zs(2)]), max_size=3).map(tuple)
coeffs = st.builds(
    lambda n, d, e: (Scalar.from_int(n) / Scalar.from_int(d)) * q ** e,
    st.integers(-6, 6).filter(bool),
    st.integers(1, 4),
    st.integers(-3, 3),
)


@st.composite
def polys(draw):
    p = NcPoly()
    for _ in range(draw(st.integers(0, 4))):
        p._iadd_term(draw(words), draw(coeffs))
    return p


@settings(max_examples=60)
@given(polys())
def test_round_trip(p):
    assert parse_expr(render(p), sphere) == p


# -- the integer renderer against the Fraction one -------------------------


def _fraction_poly_terms(coeffs, shift, scale, var):
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[e]) * scale
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        c = abs(c)
        exp = e + shift
        if exp == 0:
            body = str(c)
        else:
            qpart = var if exp == 1 else f"{var}^{exp}"
            body = qpart if c == 1 else f"{c}*{qpart}"
        parts.append((sign, body))
    return parts


def _fraction_join(parts):
    head_sign, head = parts[0]
    out = ("-" if head_sign == "-" else "") + head
    for sign, body in parts[1:]:
        out += sign + body
    return out


def _fraction_render_scalar(s, var="q"):
    """The renderer before coefficients were formatted with integers: every
    coefficient of num/den, padded to plain polynomials, goes through
    ``Fraction``.  Kept as the oracle of ``render_scalar``."""
    if s.is_zero:
        return "0"
    num, den = s.num, s.den
    nz = [i for i, c in enumerate(den) if c]
    if len(nz) == 1:
        k = nz[0]
        return _fraction_join(_fraction_poly_terms(num, -k, Fraction(1, den[k]), var))
    num_s = _fraction_join(_fraction_poly_terms(num, 0, Fraction(1), var))
    den_s = _fraction_join(_fraction_poly_terms(den, 0, Fraction(1), var))
    return f"({num_s})/({den_s})"


def _multi_term(text):
    depth = 0
    for i, c in enumerate(text):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif depth == 0 and i > 0 and c in "+-" and text[i - 1] != "^":
            return True
    return False


def _fraction_render(a, var="q"):
    """``render`` as it was, with each coefficient rendered up to three
    times through the Fraction renderer.  Kept as the oracle of ``render``."""
    from qsphere.freealg import gen_name

    if a.is_zero:
        return "0"
    parts = []
    for w in sorted(a.terms, key=lambda w: (len(w), w)):
        c = a.terms[w]
        cs = _fraction_render_scalar(c, var)
        sign = "+"
        if cs.startswith("-") and not _multi_term(cs):
            sign = "-"
            cs = _fraction_render_scalar(-c, var)
        word_s = "*".join(gen_name(g) for g in w)
        if not w:
            text = f"({cs})" if _multi_term(cs) else cs
        elif cs == "1":
            text = word_s
        else:
            if _multi_term(cs) or cs.startswith("-"):
                cs = f"({cs})"
            text = f"{cs}*{word_s}"
        parts.append((sign, text))
    return _fraction_join(parts)


def _random_scalar(rng):
    """Laurent polynomials with negative valuations, zero gaps and integer
    denominators, and now and then a true denominator such as [N]_q."""
    cf = [rng.choice([0, 0, 1, -1, 2, -3, 12, -35, 10**30 + 1])
          for _ in range(rng.randint(1, 5))]
    if not any(cf):
        cf[-1] = 1
    s = Scalar(tuple(cf)) * QPARAM ** rng.randint(-8, 8)
    s = s / Scalar.from_int(rng.choice([1, 1, 2, 3, 4, 6, 12, 35, 10**25]))
    kind = rng.random()
    if kind < 0.15:
        s = s / qnum(rng.randint(2, 4))
    elif kind < 0.25:
        s = s / (QPARAM ** 2 + Scalar.from_int(rng.choice([1, -3, 5])))
    return s


def test_render_scalar_matches_the_fraction_renderer():
    rng = random.Random("render")
    for _ in range(4000):
        s = _random_scalar(rng)
        for var in ("q", "t"):
            assert render_scalar(s, var) == _fraction_render_scalar(s, var), s
            assert render_scalar(-s, var) == _fraction_render_scalar(-s, var), s


def test_render_matches_the_fraction_renderer():
    rng = random.Random("render-poly")
    gens = [z(1), z(2), zs(1), zs(2)]
    for _ in range(600):
        p = NcPoly()
        for _ in range(rng.randint(0, 5)):
            w = tuple(rng.choice(gens) for _ in range(rng.randint(0, 3)))
            p._iadd_term(w, _random_scalar(rng))
        assert render(p) == _fraction_render(p)
        assert parse_expr(render(p), sphere) == p


def _digits_value(digits):
    value = 0
    for d in digits:
        value = value * 10 + ord(d) - ord("0")
    return value


def test_integers_of_any_size_convert_both_ways():
    # past CPython's default limit of 4,300 digits on int <-> str; the
    # halves of 10^5000 + 7 keep the zeros between them
    for n in (0, 7, -7, 10**599, 10**600 - 1, 2**1990, 2**1991, 10**600,
              -(10**600), 10**5000 + 7, 3**20000, -(2**40000) + 1):
        text = _int_text(n)
        digits = text.lstrip("-")
        assert digits == "0" or not digits.startswith("0")
        assert (-1 if text.startswith("-") else 1) * _digits_value(digits) == n
        assert (-1 if n < 0 else 1) * _text_int(digits) == n

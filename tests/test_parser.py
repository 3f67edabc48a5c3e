"""The expression language: parsing, rendering, round-trips."""

import pytest
from hypothesis import given, settings, strategies as st

from qsphere.errors import ExprSyntaxError, IndexOutOfRange, QsphereError, UnknownGenerator
from qsphere.freealg import DINV, EMPTY, NcPoly, u, z, zs
from qsphere.parser import _Parser, parse_expr, render, render_scalar
from qsphere.presentations import build
from qsphere.scalars import ONE, QPARAM, Scalar

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

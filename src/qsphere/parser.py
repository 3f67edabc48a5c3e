"""Text expression language for noncommutative polynomials.

Grammar::

    expr   := ["-"] term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*     # "/" only by scalars
    factor := atom ("^" int)?
    atom   := int | "q" | gen | "(" expr ")"
    gen    := name "[" int ("," int)? "]" | "dinv"

"^" binds tighter than "*"; whitespace is insignificant.  ``zs[i]`` is the
ASCII spelling of the starred generator.  Coefficients lie in Q(q), so q is
the only scalar name (``rform`` prints in t, which does not parse).
``render`` produces a string that parses back to the identical polynomial.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ExprSyntaxError, IndexOutOfRange, UnknownGenerator
from .freealg import DINV, EMPTY, NcPoly, gen_name
from .scalars import QPARAM, Scalar

_SYMBOLS = ("+", "-", "*", "/", "^", "(", ")", "[", "]", ",")


def _tokenize(src: str):
    toks = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
        elif c in _SYMBOLS:
            toks.append(("sym", c, i))
            i += 1
        elif c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            toks.append(("int", int(src[i:j]), i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(("name", src[i:j], i))
            i = j
        else:
            raise ExprSyntaxError(i, "token")
    toks.append(("end", None, n))
    return toks


class _Expr:
    """An expression being parsed: the sum of its finished terms and the
    product of the finished factors of its current term."""

    __slots__ = ("negate", "total", "sign", "term", "op", "at")

    def __init__(self, negate: bool):
        self.negate = negate  # a leading "-" negates the first term
        self.total = None
        self.sign = 1  # the operator before the current term
        self.term = None
        self.op = None  # "*" or "/" before the next factor
        self.at = None  # where a divisor starts

    def add_factor(self, a: NcPoly):
        if self.term is None:
            self.term = a
        elif self.op == "*":
            self.term = self.term * a
        else:
            c = a.terms.get(EMPTY)
            if len(a.terms) != 1 or c is None:
                raise ExprSyntaxError(self.at, "scalar divisor")
            self.term = self.term.scale(c.inverse())

    def add_term(self):
        t, self.term = self.term, None
        if self.total is None:
            self.total = -t if self.negate else t
        elif self.sign > 0:
            self.total = self.total + t
        else:
            self.total = self.total - t


class _Parser:
    def __init__(self, src: str, P):
        self.toks = _tokenize(src)
        self.pos = 0
        self.P = P
        # dinv is spelled by name only; its internal family is not a name
        self.families = {g[0] for g in P.generators if g != DINV}

    def _peek(self):
        return self.toks[self.pos]

    def _next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def _expect(self, sym: str):
        kind, val, at = self._next()
        if kind != "sym" or val != sym:
            raise ExprSyntaxError(at, sym)

    def _accept(self, sym: str) -> bool:
        kind, val, _ = self._peek()
        if kind == "sym" and val == sym:
            self.pos += 1
            return True
        return False

    def parse(self) -> NcPoly:
        """The grammar above, with each open parenthesis pushing the state of
        the enclosing expression on an explicit stack, so the nesting depth
        is not bounded by the recursion limit."""
        outer = []
        f = _Expr(self._accept("-"))
        while True:
            kind, val, at = self._next()
            if kind == "sym" and val == "(":
                outer.append(f)
                f = _Expr(self._accept("-"))
                continue
            a = self._atom(kind, val, at)
            while True:
                f.add_factor(self._power(a))
                if self._accept("*"):
                    f.op = "*"
                elif self._accept("/"):
                    f.op, f.at = "/", self._peek()[2]
                else:
                    f.add_term()
                    if self._accept("+"):
                        f.sign = 1
                    elif self._accept("-"):
                        f.sign = -1
                    elif outer:
                        # the closed expression is the next atom of the
                        # enclosing one
                        self._expect(")")
                        a, f = f.total, outer.pop()
                        continue
                    else:
                        kind, _, at = self._peek()
                        if kind != "end":
                            raise ExprSyntaxError(at, "end of input")
                        return f.total
                break

    def _power(self, a: NcPoly) -> NcPoly:
        if self._accept("^"):
            e = self._int(signed=True)
            if len(a.terms) == 1:
                # (c w)^e = c^e w^e in one step; only a scalar takes e < 0
                ((w, c),) = a.terms.items()
                if e >= 0 or w == EMPTY:
                    return NcPoly.monomial(w * e, c**e)
            if e < 0:
                raise ExprSyntaxError(self.toks[self.pos - 1][2], "nonnegative exponent")
            out = NcPoly.unit()
            for _ in range(e):
                out = out * a
            return out
        return a

    def _int(self, signed=False) -> int:
        sign = 1
        if signed and self._accept("-"):
            sign = -1
        kind, val, at = self._next()
        if kind != "int":
            raise ExprSyntaxError(at, "integer")
        return sign * val

    def _atom(self, kind, val, at) -> NcPoly:
        """An atom other than a parenthesised expression."""
        if kind == "int":
            return NcPoly.monomial(EMPTY, Scalar.from_int(val))
        if kind == "name":
            return self._named(val, at)
        raise ExprSyntaxError(at, "atom")

    def _named(self, name: str, at: int) -> NcPoly:
        if name == "q":
            return NcPoly.monomial(EMPTY, QPARAM)
        if name == "dinv" and DINV in self.P.generators:
            return NcPoly.gen(DINV)
        if name not in self.families:
            raise UnknownGenerator(f"{name} is not a generator of {self.P.name}({self.P.N})")
        self._expect("[")
        i = self._int()
        if self._accept(","):
            j = self._int()
            g = (name, i, j)
        else:
            g = (name, i)
        self._expect("]")
        if g not in self.P.generators:
            raise IndexOutOfRange(f"{gen_name(g)} not a generator (N = {self.P.N})")
        return NcPoly.gen(g)


def parse_expr(src: str, P) -> NcPoly:
    """Parse a polynomial over the generators of P (canonical, unreduced)."""
    return _Parser(src, P).parse()


def _poly_terms(coeffs, shift: int, scale: Fraction, var: str):
    """Render an integer-coefficient polynomial, exponents shifted, as a
    list of (sign, text) term pairs in descending exponent order."""
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


def _join(parts) -> str:
    head_sign, head = parts[0]
    out = ("-" if head_sign == "-" else "") + head
    for sign, body in parts[1:]:
        out += sign + body
    return out


def render_scalar(s: Scalar, var: str = "q") -> str:
    if s.is_zero:
        return "0"
    num, den = s.num, s.den
    nz = [i for i, c in enumerate(den) if c]
    if len(nz) == 1:
        k = nz[0]
        return _join(_poly_terms(num, -k, Fraction(1, den[k]), var))
    num_s = _join(_poly_terms(num, 0, Fraction(1), var))
    den_s = _join(_poly_terms(den, 0, Fraction(1), var))
    return f"({num_s})/({den_s})"


def _multi_term(text: str) -> bool:
    """Does the rendered scalar have a top-level + or - past its head?
    A "-" immediately after "^" is an exponent sign, not a term break."""
    depth = 0
    for i, c in enumerate(text):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif depth == 0 and i > 0 and c in "+-" and text[i - 1] != "^":
            return True
    return False


def render(a: NcPoly, var: str = "q") -> str:
    """Deterministic text form; parse_expr(render(a)) == a."""
    if a.is_zero:
        return "0"
    parts = []
    for w in sorted(a.terms, key=lambda w: (len(w), w)):
        c = a.terms[w]
        cs = render_scalar(c, var)
        sign = "+"
        if cs.startswith("-") and not _multi_term(cs):
            sign = "-"
            cs = render_scalar(-c, var)
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
    return _join(parts)

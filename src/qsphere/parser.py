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

from math import gcd

from .errors import ExprSyntaxError, IndexOutOfRange, UnknownGenerator
from .freealg import DINV, EMPTY, NcPoly, gen_name
from .scalars import QPARAM, Scalar

_SYMBOLS = ("+", "-", "*", "/", "^", "(", ")", "[", "]", ",")

# CPython refuses int <-> str conversions past a configurable number of
# digits (4,300 by default, never less than 640).  Integers longer than
# these bounds are converted in halves, so that any integer renders and
# parses whatever the limit.
_SAFE_DIGITS = 600
_SAFE_BITS = 1990  # 2^1990 < 10^600


def _int_text(n: int) -> str:
    """Decimal text of an integer of any size."""
    if n.bit_length() <= _SAFE_BITS:
        return str(n)
    if n < 0:
        return "-" + _int_text(-n)
    k = n.bit_length() * 3 // 20  # about half of its decimal digits
    hi, lo = divmod(n, 10**k)
    return _int_text(hi) + _int_text(lo).zfill(k)


def _text_int(digits: str) -> int:
    """The integer of a string of decimal digits of any length."""
    if len(digits) <= _SAFE_DIGITS:
        return int(digits)
    k = len(digits) // 2
    return _text_int(digits[:-k]) * 10**k + _text_int(digits[-k:])


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
            digits = src[i:j]
            toks.append(("int", int(digits) if j - i <= _SAFE_DIGITS else _text_int(digits), i))
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
        self.total = NcPoly()
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
        """Add the current term to the total in place."""
        t, self.term = self.term, None
        add = self.total._iadd_term
        if self.negate or self.sign < 0:
            self.negate = False
            for w, c in t.terms.items():
                add(w, -c)
        else:
            for w, c in t.terms.items():
                add(w, c)


class _Parser:
    def __init__(self, src: str, P):
        self.toks = _tokenize(src)
        self.pos = 0
        self.P = P
        self.generators = set(P.generators)
        # dinv is spelled by name only; its internal family is not a name
        self.families = {g[0] for g in self.generators if g != DINV}

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
        if name == "dinv" and DINV in self.generators:
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
        if g not in self.generators:
            raise IndexOutOfRange(f"{gen_name(g)} not a generator (N = {self.P.N})")
        return NcPoly.gen(g)


def parse_expr(src: str, P) -> NcPoly:
    """Parse a polynomial over the generators of P (canonical, unreduced)."""
    return _Parser(src, P).parse()


def _poly_terms(coeffs, val: int, d: int, var: str):
    """Render v^val * (integer-coefficient polynomial) / d, d a positive
    integer, as a list of (sign, text) term pairs in descending exponent
    order; each coefficient in lowest terms."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        n = coeffs[i]
        if not n:
            continue
        sign = "-" if n < 0 else "+"
        n = abs(n)
        g = gcd(n, d)
        n, den = n // g, d // g
        c = _int_text(n) if den == 1 else f"{_int_text(n)}/{_int_text(den)}"
        exp = i + val
        if exp == 0:
            body = c
        else:
            qpart = var if exp == 1 else f"{var}^{exp}"
            body = qpart if c == "1" else f"{c}*{qpart}"
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
    if len(s.dn) == 1:
        return _join(_poly_terms(s.cf, s.val, s.dn[0], var))
    num_s = _join(_poly_terms(s.cf, max(s.val, 0), 1, var))
    den_s = _join(_poly_terms(s.dn, max(-s.val, 0), 1, var))
    return f"({num_s})/({den_s})"


def render(a: NcPoly, var: str = "q") -> str:
    """Deterministic text form; parse_expr(render(a)) == a."""
    if a.is_zero:
        return "0"
    names = {g: gen_name(g) for g in set().union(*a.terms)}
    parts = []
    for w in sorted(a.terms, key=lambda w: (len(w), w)):
        c = a.terms[w]
        # a one-term coefficient carries its own sign; a sum of terms or a
        # fraction of polynomials is one factor with sign "+"
        sign, multi = "+", False
        if len(c.dn) == 1:
            terms = _poly_terms(c.cf, c.val, c.dn[0], var)
            if len(terms) == 1:
                sign, cs = terms[0]
            else:
                cs, multi = _join(terms), True
        else:
            cs = render_scalar(c, var)
        if not w:
            text = f"({cs})" if multi else cs
        elif cs == "1":
            text = "*".join(map(names.__getitem__, w))
        else:
            if multi:
                cs = f"({cs})"
            text = cs + "*" + "*".join(map(names.__getitem__, w))
        parts.append((sign, text))
    return _join(parts)

"""Exact arithmetic in Q(v), the field of rational functions in one variable.

All coefficients in the package live here.  The deformation parameter q is
bound to the base variable v directly (q := v), or, when the root t with
t^N = q^{-1} is needed, via the re-based binding q := v^{-N}, t := v.  Either
way the coefficient domain stays a plain rational-function field in one
variable with arbitrary-precision integer coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _int_gcd

from .errors import PoleAtPoint

# ---------------------------------------------------------------------------
# integer-coefficient univariate polynomials as coefficient tuples, low to high
# ---------------------------------------------------------------------------

PZERO = ()
PONE = (1,)


def _trim(c):
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return _trim(out)


def _pneg(a):
    return tuple(-x for x in a)


def _pmul(a, b):
    if not a or not b:
        return PZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _pcontent(a):
    c = 0
    for x in a:
        c = _int_gcd(c, x)
    return c


def _pdiv_int(a, k):
    return tuple(x // k for x in a)


def _pgcd(a, b):
    """Primitive gcd in Z[v] with positive leading coefficient."""
    if not a:
        g = b
    elif not b:
        g = a
    else:
        fa = [Fraction(x) for x in a]
        fb = [Fraction(x) for x in b]
        while fb:
            # fa mod fb
            while len(fa) >= len(fb) and any(fa):
                k = len(fa) - len(fb)
                f = fa[-1] / fb[-1]
                for i, y in enumerate(fb):
                    fa[i + k] -= f * y
                while fa and fa[-1] == 0:
                    fa.pop()
            fa, fb = fb, fa
        den_lcm = 1
        for x in fa:
            den_lcm = den_lcm * x.denominator // _int_gcd(den_lcm, x.denominator)
        g = _trim([int(x * den_lcm) for x in fa])
    if not g:
        return PZERO
    c = _pcontent(g)
    if g[-1] < 0:
        c = -c
    return _pdiv_int(g, c)


def _pdivexact(a, b):
    """Exact division in Z[v]; caller guarantees divisibility."""
    if not a:
        return PZERO
    out = [0] * (len(a) - len(b) + 1)
    rem = list(a)
    for k in range(len(out) - 1, -1, -1):
        coef = rem[k + len(b) - 1]
        assert coef % b[-1] == 0
        c = coef // b[-1]
        out[k] = c
        if c:
            for i, y in enumerate(b):
                rem[i + k] -= c * y
    assert not any(rem)
    return _trim(out)


def _peval(a, x0: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x0 + c
    return acc


# ---------------------------------------------------------------------------
# the field element
# ---------------------------------------------------------------------------


class Scalar:
    """A rational function num/den in Z[v], kept in canonical form.

    Canonical form: gcd(num, den) = 1 (including integer content), den has
    positive leading coefficient, zero is 0/1.  Equal field elements therefore
    have identical representations, so ``==`` and ``hash`` are structural.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=PONE, _canonical=False):
        if not _canonical:
            num, den = _canon(num, den)
        self.num = num
        self.den = den
        self._hash = None

    # -- constructors

    @staticmethod
    def from_int(n: int) -> "Scalar":
        return Scalar((n,) if n else PZERO, PONE, _canonical=True)

    @staticmethod
    def variable() -> "Scalar":
        return Scalar((0, 1), PONE, _canonical=True)

    # -- predicates

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_one(self) -> bool:
        return self.num == PONE and self.den == PONE

    # -- arithmetic

    def __add__(self, other):
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.den == other.den:
            return Scalar(_padd(self.num, other.num), self.den)
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        return Scalar(num, _pmul(self.den, other.den))

    def __neg__(self):
        return Scalar(_pneg(self.num), self.den, _canonical=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero or other.is_zero:
            return ZERO
        return Scalar(_pmul(self.num, other.num), _pmul(self.den, other.den))

    def __truediv__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("division by the zero scalar")
        if self.is_zero:
            return ZERO
        return Scalar(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def inverse(self) -> "Scalar":
        return ONE / self

    def __pow__(self, n: int) -> "Scalar":
        if n == 0:
            return ONE
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- structural equality

    def __eq__(self, other):
        return (
            isinstance(other, Scalar)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __repr__(self):
        return f"Scalar({self.num!r}, {self.den!r})"

    # -- evaluation and substitution

    def eval_at(self, v0) -> Fraction:
        """Exact value at v = v0; raises PoleAtPoint when den(v0) = 0."""
        v0 = Fraction(v0)
        d = _peval(self.den, v0)
        if d == 0:
            raise PoleAtPoint(f"denominator vanishes at {v0}")
        return _peval(self.num, v0) / d

    def compose(self, val: "Scalar") -> "Scalar":
        """Substitute v -> val (a field homomorphism where defined)."""
        num = _scalar_horner(self.num, val)
        den = _scalar_horner(self.den, val)
        if den.is_zero:
            raise ZeroDivisionError("substitution makes the denominator zero")
        return num / den


def _scalar_horner(poly, val: Scalar) -> Scalar:
    acc = ZERO
    for c in reversed(poly):
        acc = acc * val + Scalar.from_int(c)
    return acc


def _canon(num, den):
    num = _trim(num)
    den = _trim(den)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return PZERO, PONE
    g = _pgcd(num, den)
    if g != PONE:
        num = _pdivexact(num, g)
        den = _pdivexact(den, g)
    cn, cd = _pcontent(num), _pcontent(den)
    c = _int_gcd(cn, cd)
    if den[-1] < 0:
        c = -c
    if c != 1:
        num = _pdiv_int(num, c)
        den = _pdiv_int(den, c)
    return num, den


ZERO = Scalar.from_int(0)
ONE = Scalar.from_int(1)


# ---------------------------------------------------------------------------
# parameter bindings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeformationContext:
    """Binding of the deformation parameters to the base variable v.

    Either q := v (plain context, ``t`` unavailable), or q := v^{-N} with
    t := v when the N-th root t of q^{-1} is needed.
    """

    var_name: str  # display name of the base variable: "q" or "t"
    q: Scalar
    t: Scalar | None = None
    root_degree: int | None = None  # N with t^N = q^{-1}, t-contexts only

    @staticmethod
    def standard() -> "DeformationContext":
        return DeformationContext("q", Scalar.variable())

    @staticmethod
    def with_root(N: int) -> "DeformationContext":
        v = Scalar.variable()
        return DeformationContext("t", v ** (-N), v, N)

    def rebase(self, s: Scalar) -> "Scalar":
        """Map a scalar written in the plain q-context into this context."""
        return s.compose(self.q)

    def qnum(self, n: int) -> Scalar:
        """The symmetric q-integer (q^n - q^-n)/(q - q^-1)."""
        q = self.q
        return (q ** n - q ** (-n)) / (q - q ** (-1))

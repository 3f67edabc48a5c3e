"""Exact arithmetic in Q(v), the field of rational functions in one variable.

All coefficients in the package live here.  The deformation parameter q is
the base variable v itself, the constant ``QPARAM``, so the coefficient
domain is a plain rational-function field in one variable with
arbitrary-precision integer coefficients.  The r-form, whose values lie in
Q(t) with t^N = q^-1, is computed in Q(q) as well
(``rmatrix.RFormEvaluator``); only ``rform`` prints its values in t,
through ``Scalar.compose``.

Almost every coefficient the algebras produce is a Laurent polynomial, so an
element is stored as v^val * cf(v) / dn(v) with cf(0) and dn(0) nonzero.
Laurent elements have a constant dn and are normalised by one integer gcd;
the polynomial gcd runs only for true denominators such as [N]_q.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

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


def _pmul(a, b):
    """Product of polynomials with nonzero leading coefficients."""
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        c = a[0]
        return b if c == 1 else tuple(c * y for y in b)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return tuple(out)


def _pgcd(a, b):
    """Primitive gcd in Z[v] of nonzero a and b, positive leading coefficient."""
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
        den_lcm = den_lcm * x.denominator // gcd(den_lcm, x.denominator)
    g = _trim([int(x * den_lcm) for x in fa])
    c = gcd(*g)
    if g[-1] < 0:
        c = -c
    return tuple(x // c for x in g)


def _pdivexact(a, b):
    """Exact division in Z[v]; caller guarantees divisibility."""
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
    """A rational function v^val * cf / dn over Z, kept in canonical form.

    Canonical form: cf(0) != 0 != dn(0), gcd(cf, dn) = 1 (including integer
    content), dn has positive leading coefficient, zero is (0, (), (1,)).
    Equal field elements therefore have identical representations, so
    ``==`` and ``hash`` are structural.  ``num`` and ``den`` give the same
    element as one lowest-terms fraction of polynomials in v.
    """

    __slots__ = ("val", "cf", "dn", "_hash")

    def __init__(self, num, den=PONE):
        num = _trim(num)
        den = _trim(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            s = ZERO
        else:
            lo_n = next(i for i, x in enumerate(num) if x)
            lo_d = next(i for i, x in enumerate(den) if x)
            s = _make(lo_n - lo_d, num[lo_n:], den[lo_d:])
        self.val, self.cf, self.dn = s.val, s.cf, s.dn
        self._hash = None

    # -- constructors

    @staticmethod
    def from_int(n: int) -> "Scalar":
        return _new(0, (n,), PONE) if n else ZERO

    @staticmethod
    def variable() -> "Scalar":
        return _new(1, PONE, PONE)

    @staticmethod
    def monomial(c: int, e: int) -> "Scalar":
        """c * v^e for a nonzero integer c."""
        return _new(e, (c,), PONE)

    # -- the lowest-terms fraction num/den in Z[v]

    @property
    def num(self):
        return (0,) * self.val + self.cf if self.val > 0 else self.cf

    @property
    def den(self):
        return (0,) * -self.val + self.dn if self.val < 0 else self.dn

    # -- predicates

    @property
    def is_zero(self) -> bool:
        return not self.cf

    @property
    def is_one(self) -> bool:
        return self.val == 0 and self.cf == PONE and self.dn == PONE

    # -- arithmetic

    def __add__(self, other):
        if not self.cf:
            return other
        if not other.cf:
            return self
        a, b, da, db = self.cf, other.cf, self.dn, other.dn
        if da == db:
            dn = da
        elif len(da) == 1 and len(db) == 1:
            # both Laurent: bring them over the lcm of the two integers
            x, y = da[0], db[0]
            g = gcd(x, y)
            dn = (x // g * y,)
            a, b = _pmul((y // g,), a), _pmul((x // g,), b)
        else:
            dn = _pmul(da, db)
            a, b = _pmul(a, db), _pmul(b, da)
        va, vb = self.val, other.val
        if va > vb:
            va, vb, a, b = vb, va, b, a
        shift = vb - va
        out = list(a)
        top = shift + len(b)
        if top > len(out):
            out.extend([0] * (top - len(out)))
        for i, y in enumerate(b, shift):
            out[i] += y
        while out and not out[-1]:
            out.pop()
        if not out:
            return ZERO
        lo = 0
        while not out[lo]:
            lo += 1
        return _make(va + lo, tuple(out[lo:]), dn)

    def __neg__(self):
        return _new(self.val, tuple(-x for x in self.cf), self.dn)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.cf or not other.cf:
            return ZERO
        if self.dn == PONE and other.dn == PONE:
            # Laurent times Laurent: cf(0) of the product is a product of
            # nonzero integers and dn = 1, so the triple is already canonical
            return _new(self.val + other.val, _pmul(self.cf, other.cf), PONE)
        return _make(
            self.val + other.val, _pmul(self.cf, other.cf), _pmul(self.dn, other.dn)
        )

    def __truediv__(self, other):
        if not other.cf:
            raise ZeroDivisionError("division by the zero scalar")
        if not self.cf:
            return ZERO
        return _make(
            self.val - other.val, _pmul(self.cf, other.dn), _pmul(self.dn, other.cf)
        )

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
            and self.val == other.val
            and self.cf == other.cf
            and self.dn == other.dn
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.val, self.cf, self.dn))
        return self._hash

    def __repr__(self):
        return f"Scalar({self.num!r}, {self.den!r})"

    # -- evaluation and substitution

    def eval_at(self, v0) -> Fraction:
        """Exact value at v = v0; raises PoleAtPoint when den(v0) = 0.

        No command calls it: it is the tests' evaluation oracle, a ring map
        at points against which the arithmetic and the braiding are checked
        numerically."""
        v0 = Fraction(v0)
        d = _peval(self.dn, v0)
        if d == 0 or (self.val < 0 and v0 == 0):
            raise PoleAtPoint(f"denominator vanishes at {v0}")
        return v0 ** self.val * _peval(self.cf, v0) / d

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


def _new(val, cf, dn) -> Scalar:
    """A Scalar from a triple already in canonical form."""
    s = object.__new__(Scalar)
    s.val = val
    s.cf = cf
    s.dn = dn
    s._hash = None
    return s


def _make(val, num, den) -> Scalar:
    """Canonical v^val * num / den; num and den are nonzero polynomials whose
    constant and leading coefficients are nonzero."""
    if len(den) == 1:
        # Laurent: no polynomial gcd, one integer gcd of the contents
        d = den[0]
        if d < 0:
            d = -d
            num = tuple(-x for x in num)
        if d != 1:
            g = gcd(d, *num)
            if g != 1:
                d //= g
                num = tuple(x // g for x in num)
        return _new(val, num, (d,) if d != 1 else PONE)
    g = _pgcd(num, den)
    if g != PONE:
        num = _pdivexact(num, g)
        den = _pdivexact(den, g)
    c = gcd(*num, *den)
    if den[-1] < 0:
        c = -c
    if c != 1:
        num = tuple(x // c for x in num)
        den = tuple(x // c for x in den)
    return _new(val, num, den)


ZERO = _new(0, PZERO, PONE)
ONE = _new(0, PONE, PONE)


# The deformation parameter q is the base variable v.
QPARAM = Scalar.variable()


def qnum(n: int) -> Scalar:
    """The symmetric q-integer (q^n - q^-n)/(q - q^-1)."""
    return (QPARAM ** n - QPARAM ** (-n)) / (QPARAM - QPARAM ** (-1))

"""Words and noncommutative polynomials over a generator alphabet.

Generators are plain tuples: ``('u', i, j)`` for matrix entries, ``('z', i)``
and ``('zs', i)`` for sphere coordinates and their adjoints, ``('d',)`` for
the adjoined inverse determinant, and ad-hoc families like ``('T', i)`` for
auxiliary algebras.  A word is a tuple of generators; the empty word is the
algebra unit.
"""

from __future__ import annotations

from .errors import UndefinedStar
from .scalars import ONE, ZERO, Scalar

EMPTY = ()


def u(i: int, j: int):
    return ("u", i, j)


def z(i: int):
    return ("z", i)


def zs(i: int):
    return ("zs", i)


DINV = ("d",)


def gen_name(g) -> str:
    fam = g[0]
    if fam == "d":
        return "dinv"
    return f"{fam}[{','.join(str(i) for i in g[1:])}]"


def word_name(w) -> str:
    return "1" if not w else "*".join(gen_name(g) for g in w)


class LinearSum:
    """Finite formal sum of scalar-weighted keys, zero coefficients dropped:
    the linear structure that ``NcPoly`` (keys are words) and ``TensorPoly``
    (keys are word pairs) share.  Each subclass supplies its product and
    ``unit``."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def extend(cls, a: "NcPoly", table: dict, reverse: bool = False):
        """Image of ``a`` under the map of the free algebra that sends each
        generator g to table[g], an element of ``cls``, and fixes scalars.
        The images of a word's letters are multiplied in order, or in
        reverse order for an antimultiplicative map (``reverse``).  Nothing
        is reduced: the result lives in the free algebra."""
        out = cls()
        for w, c in a.terms.items():
            img = cls.unit(c)
            for g in reversed(w) if reverse else w:
                img = img * table[g]
            for k, c2 in img.terms.items():
                out._iadd_term(k, c2)
        return out

    def _iadd_term(self, key, coeff):
        cur = self.terms.get(key)
        if cur is None:
            if not coeff.is_zero:
                self.terms[key] = coeff
        else:
            s = cur + coeff
            if s.is_zero:
                del self.terms[key]
            else:
                self.terms[key] = s

    def __add__(self, other):
        out = type(self)(self.terms)
        for k, c in other.terms.items():
            out._iadd_term(k, c)
        return out

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        out = type(self)(self.terms)
        for k, c in other.terms.items():
            out._iadd_term(k, -c)
        return out

    def scale(self, coeff: Scalar):
        if coeff.is_zero:
            return type(self)()
        return type(self)({k: c * coeff for k, c in self.terms.items()})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms


class NcPoly(LinearSum):
    """Finite formal sum of scalar-weighted words."""

    __slots__ = ()

    @staticmethod
    def unit(coeff: Scalar = ONE) -> "NcPoly":
        return NcPoly.monomial(EMPTY, coeff)

    @staticmethod
    def monomial(word, coeff: Scalar = ONE) -> "NcPoly":
        p = NcPoly()
        if not coeff.is_zero:
            p.terms[tuple(word)] = coeff
        return p

    @staticmethod
    def gen(g, coeff: Scalar = ONE) -> "NcPoly":
        return NcPoly.monomial((g,), coeff)

    def __mul__(self, other: "NcPoly") -> "NcPoly":
        out = NcPoly()
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                out._iadd_term(w1 + w2, c1 * c2)
        return out

    # -- inspection

    def degree(self) -> int:
        """Maximal word length; -1 for the zero polynomial."""
        return max((len(w) for w in self.terms), default=-1)

    def coeff(self, word) -> Scalar:
        return self.terms.get(tuple(word), ZERO)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "NcPoly(0)"
        parts = [f"{c!r}*{word_name(w)}" for w, c in sorted(self.terms.items())]
        return "NcPoly(" + " + ".join(parts) + ")"

    def star(self, star_map: dict) -> "NcPoly":
        """Antimultiplicative extension of the generator star map.

        Scalars are real rational functions of the real parameter, so the
        coefficient conjugation is the identity.
        """
        try:
            return NcPoly.extend(self, star_map, reverse=True)
        except KeyError as exc:
            raise UndefinedStar(f"no star image for {gen_name(exc.args[0])}") from None


class TensorPoly(LinearSum):
    """Finite formal sum of scalar-weighted word pairs (elements of A tensor H).

    The product is the plain componentwise one; no braiding is involved
    because coproducts and coactions land in genuine tensor products.
    """

    __slots__ = ()

    @staticmethod
    def unit(coeff: Scalar = ONE) -> "TensorPoly":
        return TensorPoly.monomial(EMPTY, EMPTY, coeff)

    @staticmethod
    def monomial(w1, w2, coeff: Scalar = ONE) -> "TensorPoly":
        t = TensorPoly()
        if not coeff.is_zero:
            t.terms[(tuple(w1), tuple(w2))] = coeff
        return t

    @staticmethod
    def of(a: NcPoly, b: NcPoly) -> "TensorPoly":
        out = TensorPoly()
        for w1, c1 in a.terms.items():
            for w2, c2 in b.terms.items():
                out._iadd_term((w1, w2), c1 * c2)
        return out

    def __mul__(self, other: "TensorPoly") -> "TensorPoly":
        out = TensorPoly()
        for (a1, h1), c1 in self.terms.items():
            for (a2, h2), c2 in other.terms.items():
                out._iadd_term((a1 + a2, h1 + h2), c1 * c2)
        return out

    def star(self, star_left: dict, star_right: dict) -> "TensorPoly":
        """Componentwise star on both legs."""
        return self.map_legs(lambda a: a.star(star_left), lambda h: h.star(star_right))

    def map_legs(self, f_left, f_right) -> "TensorPoly":
        """Apply NcPoly -> NcPoly maps to each leg and recollect."""
        out = TensorPoly()
        for (w1, w2), c in self.terms.items():
            left = f_left(NcPoly.monomial(w1))
            right = f_right(NcPoly.monomial(w2))
            piece = TensorPoly.of(left, right).scale(c)
            for k, c2 in piece.terms.items():
                out._iadd_term(k, c2)
        return out

    def __repr__(self):
        if not self.terms:
            return "TensorPoly(0)"
        parts = [
            f"{c!r}*({word_name(w1)} (x) {word_name(w2)})"
            for (w1, w2), c in sorted(self.terms.items())
        ]
        return "TensorPoly(" + " + ".join(parts) + ")"

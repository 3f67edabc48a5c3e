"""Noncommutative polynomials, tensors, and star maps."""

import random

import pytest
from hypothesis import given, strategies as st

from qsphere.errors import UndefinedStar
from qsphere.freealg import EMPTY, NcPoly, TensorPoly, gen_name, u, word_name, z, zs
from qsphere.presentations import build
from qsphere.scalars import ONE, Scalar

GENS = [z(1), z(2), zs(1), zs(2)]
coeffs = st.integers(min_value=-4, max_value=4).map(Scalar.from_int)
words = st.lists(st.sampled_from(GENS), max_size=4).map(tuple)


@st.composite
def ncpolys(draw):
    p = NcPoly()
    for _ in range(draw(st.integers(0, 4))):
        p._iadd_term(draw(words), draw(coeffs))
    return p


def test_names():
    assert gen_name(u(1, 2)) == "u[1,2]"
    assert gen_name(zs(3)) == "zs[3]"
    assert word_name(EMPTY) == "1"
    assert word_name((z(1), zs(2))) == "z[1]*zs[2]"


def test_zero_coefficients_dropped():
    p = NcPoly.gen(z(1)) - NcPoly.gen(z(1))
    assert p.is_zero and p.terms == {}


def test_unit_and_degree():
    assert NcPoly.unit().degree() == 0
    assert NcPoly.zero().degree() == -1
    assert (NcPoly.gen(z(1)) * NcPoly.gen(z(2))).degree() == 2


@given(ncpolys(), ncpolys(), ncpolys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a


def test_noncommutative():
    a, b = NcPoly.gen(z(1)), NcPoly.gen(z(2))
    assert a * b != b * a


STAR = {z(1): NcPoly.gen(zs(1)), z(2): NcPoly.gen(zs(2)),
        zs(1): NcPoly.gen(z(1)), zs(2): NcPoly.gen(z(2))}


def test_star_antimultiplicative():
    a = NcPoly.monomial((z(1), z(2)))
    assert a.star(STAR) == NcPoly.monomial((zs(2), zs(1)))


@given(ncpolys(), ncpolys())
def test_star_reverses_products(a, b):
    assert (a * b).star(STAR) == b.star(STAR) * a.star(STAR)


@given(ncpolys())
def test_star_involution(a):
    assert a.star(STAR).star(STAR) == a


def test_star_undefined():
    with pytest.raises(UndefinedStar):
        NcPoly.gen(u(1, 1)).star(STAR)


def test_tensor_componentwise_product():
    t1 = TensorPoly.of(NcPoly.gen(z(1)), NcPoly.gen(zs(1)))
    t2 = TensorPoly.of(NcPoly.gen(z(2)), NcPoly.gen(zs(2)))
    prod = t1 * t2
    assert prod.terms == {((z(1), z(2)), (zs(1), zs(2))): ONE}


def test_tensor_map_legs():
    t = TensorPoly.of(NcPoly.gen(z(1)), NcPoly.gen(z(2)))
    out = t.map_legs(lambda p: p.scale(Scalar.from_int(2)), lambda p: p)
    assert out == TensorPoly.of(NcPoly.gen(z(1), Scalar.from_int(2)), NcPoly.gen(z(2)))


# -- extension of generator tables ------------------------------------------


def _random_poly(rng, gens):
    p = NcPoly()
    for _ in range(rng.randint(1, 3)):
        word = tuple(rng.choice(gens) for _ in range(rng.randint(0, 3)))
        p._iadd_term(word, Scalar.from_int(rng.randint(-3, 3)))
    return p


def _tables():
    sphere, mq = build("sphere", 2), build("mq", 2)
    return [
        pytest.param(NcPoly, sphere.star, list(sphere.star), id="sphere-star"),
        pytest.param(TensorPoly, mq.structure.delta, list(mq.structure.delta), id="mq-coproduct"),
    ]


@pytest.mark.parametrize("cls,table,gens", _tables())
def test_extend_is_multiplicative_or_antimultiplicative(cls, table, gens):
    rng = random.Random(1808)
    for _ in range(20):
        a, b = _random_poly(rng, gens), _random_poly(rng, gens)
        assert cls.extend(a * b, table) == cls.extend(a, table) * cls.extend(b, table)
        assert cls.extend(a * b, table, reverse=True) == (
            cls.extend(b, table, reverse=True) * cls.extend(a, table, reverse=True)
        )


@pytest.mark.parametrize("cls,table,gens", _tables())
def test_extend_sends_generators_to_their_images_and_fixes_scalars(cls, table, gens):
    for g in gens:
        for reverse in (False, True):
            assert cls.extend(NcPoly.gen(g), table, reverse) == table[g]
    c = Scalar.from_int(5)
    assert cls.extend(NcPoly.unit(c), table) == cls.unit(c)
    assert cls.extend(NcPoly(), table) == cls.zero()

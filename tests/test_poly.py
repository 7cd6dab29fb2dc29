import math

import pytest
from hypothesis import given, settings, strategies as st

from oracle import SparsePoly, infinity_valuation, monomial_valuation, reduce_to_monomial_basis
from zptower.gf import field
from zptower._slab import Monomial, PolyError

F2 = field(2)
F3 = field(3)


def x(ctx, n, c=1):
    return SparsePoly.x_power(ctx, n, c)


def test_arith_examples():
    y1 = SparsePoly.variable(F2, 1)
    assert x(F2, 3) * y1 == SparsePoly(F2, 1, {Monomial(3, (1,)): F2.one()})
    assert (x(F2, 1) + y1) ** 2 == x(F2, 2).at_level(1) + y1 * y1
    assert (x(F3, 1) + 1) ** 3 == x(F3, 3) + SparsePoly.constant(F3, 1)


def test_reduce_examples():
    y1 = SparsePoly.variable(F2, 1)
    f1 = x(F2, 3)
    assert reduce_to_monomial_basis(y1 * y1, [f1]) == y1 + f1.at_level(1)
    want = f1.at_level(1) * y1 + y1 + f1.at_level(1)
    got = reduce_to_monomial_basis(y1 ** 3, [f1])
    assert got == want
    assert reduce_to_monomial_basis(got, [f1]) == got  # idempotent


def test_reduce_needs_layers():
    y2 = SparsePoly.variable(F2, 2)
    with pytest.raises(PolyError):
        reduce_to_monomial_basis(y2 * y2, [x(F2, 3)])


def test_reduce_agrees_with_point_evaluation(rng):
    # independent oracle: both sides agree at every point of the curve over GF(8)
    from conftest import curve_points, evaluate, random_poly
    f1 = x(F2, 3)
    big = field(2, 3)
    pts = curve_points([f1], big)
    assert pts
    for _ in range(10):
        f = random_poly(F2, 1, rng, nterms=4, maxdeg=5, reduced=False)
        red = reduce_to_monomial_basis(f, [f1])
        assert red.is_reduced()
        for pt in pts:
            assert evaluate(f, big, pt) == evaluate(red, big, pt)


def test_valuation_examples():
    assert infinity_valuation(x(F2, 3).at_level(1), 2, (3,), 1) == -6
    f = x(F2, 8).at_level(1) + (x(F2, 5) + x(F2, 3)) * SparsePoly.variable(F2, 1)
    assert infinity_valuation(f, 2, (5,), 1) == -16
    assert infinity_valuation(SparsePoly.constant(F2, 1), 2, (5,), 1) == 0
    assert infinity_valuation(SparsePoly.zero(F2), 2, (5,), 1) == math.inf


def test_valuation_requires_reduced():
    y1 = SparsePoly.variable(F2, 1)
    with pytest.raises(PolyError):
        infinity_valuation(y1 * y1, 2, (3,), 1)


def test_valuation_additive_on_x_polys(rng):
    from conftest import random_poly
    for _ in range(25):
        f = random_poly(F3, 0, rng)
        g = random_poly(F3, 0, rng)
        if f.is_zero() or g.is_zero():
            continue
        assert (infinity_valuation(f * g, 3, (7,), 1)
                == infinity_valuation(f, 3, (7,), 1) + infinity_valuation(g, 3, (7,), 1))


@given(st.integers(0, 30), st.integers(0, 2), st.integers(0, 2),
       st.integers(0, 30), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=80, deadline=None)
def test_distinct_valuations_of_reduced_monomials(n1, a1, b1, n2, a2, b2):
    m1, m2 = Monomial(n1, (a1, b1)), Monomial(n2, (a2, b2))
    if m1 != m2:
        assert monomial_valuation(3, (5, 37), m1, 2) != monomial_valuation(3, (5, 37), m2, 2)


def test_pow_and_level_mixing():
    y1 = SparsePoly.variable(F3, 1)
    y2 = SparsePoly.variable(F3, 2)
    prod = (y1 + 1) * (y2 + x(F3, 2))
    assert prod.level == 2
    assert prod.coefficient(Monomial(0, (1, 1))).is_one()
    assert (y1 ** 0) == SparsePoly.constant(F3, 1, 1)


def test_render_and_y_coefficients():
    y1 = SparsePoly.variable(F3, 1)
    f = x(F3, 2, 2) * y1 + SparsePoly.constant(F3, 1, 1)
    assert "y1" in f.render()
    parts = f.y_coefficients(1)
    assert parts[1] == x(F3, 2, 2).at_level(1)
    assert parts[0] == SparsePoly.constant(F3, 1, 1)

"""Cross-checks of the dense kernel against the sparse reference in oracle.py."""

import pytest

from conftest import random_poly
from oracle import (from_sparse, infinity_valuation, layers as sparse_layers, monomial_valuation,
                    poly_pth_power, reduce_to_monomial_basis, to_sparse)
from zptower._slab import Slab, code_of, mul as slab_mul, pth_power, v_apply
from zptower.gf import field
from zptower.tower import TowerSpec, TowerState


@pytest.fixture(params=[(2, 1), (3, 1), (2, 2)], ids=["p2", "p3", "gf4"])
def towerenv(request):
    p, k = request.param
    ctx = field(p, k)
    if p == 2:
        spec = TowerSpec.make(ctx, [(0, 1, 5), (0, 1, 3)])
    else:
        spec = TowerSpec.make(ctx, [(0, 1, 7), (0, 2, 5)])
    state = TowerState(spec)
    state.build_to(3 if p == 2 else 2)
    return ctx, state


def test_roundtrip(towerenv, rng):
    ctx, state = towerenv
    for lvl in range(state.level + 1):
        f = random_poly(ctx, lvl, rng)
        assert to_sparse(from_sparse(f)) == f


def test_mul_matches_sparse(towerenv, rng):
    ctx, state = towerenv
    layers = sparse_layers(state)
    for lvl in (1, state.level):
        for _ in range(6):
            f = random_poly(ctx, lvl, rng, nterms=4, maxdeg=5)
            g = random_poly(ctx, lvl, rng, nterms=4, maxdeg=5)
            want = reduce_to_monomial_basis(f * g, layers[:lvl])
            got = slab_mul(from_sparse(f), from_sparse(g), state)
            assert to_sparse(got) == want


def test_pth_power_matches_sparse(towerenv, rng):
    ctx, state = towerenv
    layers = sparse_layers(state)
    for lvl in (1, 2):
        for _ in range(5):
            f = random_poly(ctx, lvl, rng, nterms=3, maxdeg=4)
            want = reduce_to_monomial_basis(poly_pth_power(f), layers[:lvl])
            got = pth_power(from_sparse(f), state)
            assert to_sparse(got) == want


def test_add_scale_shift(towerenv, rng):
    ctx, state = towerenv
    f = random_poly(ctx, 1, rng)
    g = random_poly(ctx, 1, rng)
    assert to_sparse(from_sparse(f) + from_sparse(g)) == f + g
    assert to_sparse(from_sparse(f) - from_sparse(g)) == f - g
    c = ctx.random_element(rng)
    assert to_sparse(from_sparse(f).scale(c)) == f * c


def test_frobenius_on_coefficients(rng):
    ctx = field(2, 3)
    f = random_poly(ctx, 0, rng)
    got = to_sparse(from_sparse(f).frobenius())
    assert got == f.map_coefficients(lambda c: c.frobenius())


def test_pole_data_matches_valuation(towerenv, rng):
    ctx, state = towerenv
    p, d, n = ctx.p, state.ram.d[:state.level], state.level
    for _ in range(8):
        f = random_poly(ctx, n, rng)
        if f.is_zero():
            continue
        pd = from_sparse(f).pole_data(d, n)
        assert pd[0] == -infinity_valuation(f, p, d, n)
        lead = min(f.terms, key=lambda m: monomial_valuation(p, d, m, n))
        assert pd[1:] == (code_of(p, lead.a), lead.nu, f.terms[lead].coeffs)
    assert Slab.zeros(ctx, 1).pole_data(d, 1) is None


def test_v_apply_linear_over_pth_powers(towerenv, rng):
    # V(h^p * w) = h * V(w), the defining semilinearity, via the dense path
    ctx, state = towerenv
    n = state.level
    tables = _tables(state, n)
    layers = sparse_layers(state)
    w = random_poly(ctx, n, rng, nterms=3, maxdeg=3)
    h = random_poly(ctx, n, rng, nterms=2, maxdeg=2)
    hp = reduce_to_monomial_basis(poly_pth_power(h), layers)
    prod = reduce_to_monomial_basis(hp * w, layers)
    lhs = v_apply(from_sparse(prod), tables)
    rhs = slab_mul(from_sparse(h), v_apply(from_sparse(w), tables), state)
    assert to_sparse(lhs) == to_sparse(rhs)


def _tables(state, n):
    from zptower.cartier import CartierTables
    t = state.tables or CartierTables(state)
    return t.table(n)

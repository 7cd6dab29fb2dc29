"""Cross-checks of the dense kernel against the sparse reference implementation."""

import pytest

from conftest import random_poly
from zptower._slab import Slab, mul as slab_mul, pth_power, v_apply
from zptower.gf import field
from zptower.poly import reduce_to_monomial_basis
from zptower.tower import TowerSpec, TowerState
from zptower.witt import poly_pth_power


@pytest.fixture(params=[(2, 1), (3, 1), (2, 2)], ids=["p2", "p3", "gf4"])
def chainenv(request):
    p, k = request.param
    ctx = field(p, k)
    if p == 2:
        spec = TowerSpec.make(ctx, [(0, 1, 5), (0, 1, 3)])
    else:
        spec = TowerSpec.make(ctx, [(0, 1, 7), (0, 2, 5)])
    state = TowerState(spec)
    state.build_to(3 if p == 2 else 2)
    return ctx, state


def test_roundtrip(chainenv, rng):
    ctx, state = chainenv
    for lvl in range(state.level + 1):
        f = random_poly(ctx, lvl, rng)
        assert Slab.from_sparse(f).to_sparse() == f


def test_mul_matches_sparse(chainenv, rng):
    ctx, state = chainenv
    layers = [state.layer(m) for m in range(1, state.level + 1)]
    for lvl in (1, state.level):
        for _ in range(6):
            f = random_poly(ctx, lvl, rng, nterms=4, maxdeg=5)
            g = random_poly(ctx, lvl, rng, nterms=4, maxdeg=5)
            want = reduce_to_monomial_basis(f * g, layers[:lvl])
            got = slab_mul(Slab.from_sparse(f), Slab.from_sparse(g), state.chain)
            assert got.to_sparse() == want


def test_pth_power_matches_sparse(chainenv, rng):
    ctx, state = chainenv
    layers = [state.layer(m) for m in range(1, state.level + 1)]
    for lvl in (1, 2):
        for _ in range(5):
            f = random_poly(ctx, lvl, rng, nterms=3, maxdeg=4)
            want = reduce_to_monomial_basis(poly_pth_power(f), layers[:lvl])
            got = pth_power(Slab.from_sparse(f), state.chain)
            assert got.to_sparse() == want


def test_add_scale_shift(chainenv, rng):
    ctx, state = chainenv
    f = random_poly(ctx, 1, rng)
    g = random_poly(ctx, 1, rng)
    assert (Slab.from_sparse(f) + Slab.from_sparse(g)).to_sparse() == f + g
    assert (Slab.from_sparse(f) - Slab.from_sparse(g)).to_sparse() == f - g
    c = ctx.random_element(rng)
    assert Slab.from_sparse(f).scale(c).to_sparse() == f * c


def test_frobenius_on_coefficients(rng):
    ctx = field(2, 3)
    f = random_poly(ctx, 0, rng)
    got = Slab.from_sparse(f).frobenius().to_sparse()
    assert got == f.map_coefficients(lambda c: c.frobenius())


def test_pole_data_matches_valuation(chainenv, rng):
    ctx, state = chainenv
    profile = state.profile()
    from zptower.poly import infinity_valuation
    for _ in range(8):
        f = random_poly(ctx, state.level, rng)
        if f.is_zero():
            continue
        pd = Slab.from_sparse(f).pole_data(profile, state.level)
        assert pd[0] == -infinity_valuation(f, profile, state.level)
    assert Slab.zeros(ctx, 1).pole_data(profile, 1) is None


def test_v_apply_linear_over_pth_powers(chainenv, rng):
    # V(h^p * w) = h * V(w), the defining semilinearity, via the dense path
    ctx, state = chainenv
    n = state.level
    tables = _tables(state, n)
    layers = [state.layer(m) for m in range(1, n + 1)]
    w = random_poly(ctx, n, rng, nterms=3, maxdeg=3)
    h = random_poly(ctx, n, rng, nterms=2, maxdeg=2)
    hp = reduce_to_monomial_basis(poly_pth_power(h), layers)
    prod = reduce_to_monomial_basis(hp * w, layers)
    lhs = v_apply(Slab.from_sparse(prod), tables)
    rhs = slab_mul(Slab.from_sparse(h), v_apply(Slab.from_sparse(w), tables), state.chain)
    assert lhs.to_sparse() == rhs.to_sparse()


def _tables(state, n):
    from zptower.cartier import CartierTables
    t = state.tables or CartierTables(state)
    return t.table(n)

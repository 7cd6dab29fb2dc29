"""Cross-checks of the dense kernel against the sparse reference in oracle.py."""

import inspect

import numpy as np
import pytest

from conftest import random_poly
from oracle import (SparsePoly, digits_of, from_sparse, gen, layers as sparse_layers,
                    poly_pth_power, random_element, reduce_to_monomial_basis, to_sparse)
from zptower import _slab
from zptower._slab import (Monomial, PolyError, Slab, code_of, mul as slab_mul, v_apply,
                           v_entries, ymul)
from zptower.gf import InternalConsistencyError, check_float_exact, field
from zptower.tower import TowerSpec, TowerState


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
            got = slab_mul(from_sparse(f), from_sparse(g), state.layers)
            assert to_sparse(got) == want


def test_pth_power_matches_sparse(towerenv):
    # TowerState.pth_power: (y^a)^p, the memo's own slab, times x^(p nu) is z^p
    # for every monomial z = x^nu y^a with nu <= 3 at every built level
    ctx, state = towerenv
    layers = sparse_layers(state)
    p = ctx.p
    for lvl in range(state.level + 1):
        for code in range(p ** lvl):
            a = digits_of(p, code, lvl)
            got = state.pth_power(a)
            assert got is state.pth_power(a) and got.level <= lvl
            for nu in range(4):
                z = Monomial(nu, a)
                want = reduce_to_monomial_basis(
                    poly_pth_power(SparsePoly(ctx, lvl, {z: ctx.one()})), layers[:lvl])
                zp = Slab.zeros(ctx, lvl, p * nu + got.arr.shape[2])
                zp.arr[:got.arr.shape[0], :, p * nu:] = got.arr
                assert to_sparse(zp) == want, z


def test_add_scale_shift(towerenv, rng):
    ctx, state = towerenv
    f = random_poly(ctx, 1, rng)
    g = random_poly(ctx, 1, rng)
    assert to_sparse(from_sparse(f) + from_sparse(g)) == f + g
    assert to_sparse(from_sparse(f) - from_sparse(g)) == f - g
    c = random_element(ctx, rng)
    assert to_sparse(from_sparse(f).scale(c)) == f * c


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
    entries = v_entries(tables)
    lhs = v_apply([from_sparse(prod)], entries, [0])[0]
    rhs = slab_mul(from_sparse(h), v_apply([from_sparse(w)], entries, [0])[0], state.layers)
    assert to_sparse(lhs) == to_sparse(rhs)


def _tables(state, n):
    from zptower.cartier import CartierTables
    t = state.tables or CartierTables(state)
    return t.table(n)


def _xpoly(ctx, block, twist=False):
    """The level-0 SparsePoly of a (k, L) coefficient block, with sigma^-1
    applied to every coefficient if twist."""
    def coeff(n):
        c = ctx.elem(block[:, n])
        return c.frobenius_inverse() if twist else c
    return SparsePoly(ctx, 0, {Monomial(n, ()): coeff(n) for n in range(block.shape[1])})


@pytest.mark.parametrize("chunk", [None, 40], ids=["default-chunk", "tiny-chunk"])
@pytest.mark.parametrize("p,k", [(3, 1), (2, 2), (3, 2), (2, 3)])
def test_xconv_matches_sparse_products(p, k, chunk, rng, monkeypatch):
    # sum_e a[e][t] * h[e, g] into rows[t, g] against term-by-term products: entries
    # of unequal x-lengths, zero rows and blocks, targets shared between rows; a
    # tiny chunk forces every split (entries, blocks, x-ranges).  The a[e] go in
    # as the GF(p) matrices of c -> a c, and then of c -> a sigma^-1(c), V's
    # twisted products
    if chunk is not None:
        monkeypatch.setattr(_slab, "_CONV_CHUNK", chunk)
    ctx = field(p, k)
    E, T, G, Lh = 3, 4, 5, 7
    a = [rng.integers(0, p, size=(T, k, L)) for L in (6, 1, 4)]
    a[0][1] = 0
    h = rng.integers(0, p, size=(E, G, k, Lh))
    h[1, 2] = 0
    rows = (np.arange(G) + rng.integers(0, 6, size=(T, 1))) % 6  # distinct along each row
    for twist, expand in ((False, ctx.mul_matrices), (True, ctx.semilinear_blocks)):
        into = np.zeros((6, k, 6 + Lh - 1), dtype=np.int64)
        _slab._xconv([expand(x) for x in a], h, rows, into, p)
        want = [SparsePoly.zero(ctx) for _ in range(6)]
        for e in range(E):
            for t in range(T):
                for g in range(G):
                    want[rows[t, g]] = (want[rows[t, g]] + _xpoly(ctx, a[e][t])
                                        * _xpoly(ctx, h[e, g], twist))
        for r in range(6):
            assert _xpoly(ctx, into[r] % p) == want[r], (twist, r)


def test_xconv_refuses_a_repeated_target():
    # two blocks of one row into one target would be added only once
    into = np.zeros((2, 1, 3), dtype=np.int64)
    with pytest.raises(InternalConsistencyError):
        _slab._xconv([np.ones((1, 1, 1, 2))], np.ones((1, 2, 1, 2)), np.array([[1, 1]]), into, 3)


def test_slab_knows_no_field_polynomial():
    # GF(p^k) reaches the kernel only as GF(p) matrices from gf: no _slab code
    # folds products modulo the field polynomial or twists by sigma^-1 itself
    source = inspect.getsource(_slab)
    assert ".fold(" not in source and "inv_frob" not in source


def test_xconv_exactness_bound():
    # a sum of inner products of residues below p is exact in float32 while
    # inner * (p-1)^2 < 2^24 and in float64 while it is below 2^53
    for p in (3, 13):
        sq = (p - 1) ** 2
        top32, top64 = -(-(1 << 24) // sq) - 1, -(-(1 << 53) // sq) - 1  # the largest inner
        assert check_float_exact(1, p) is check_float_exact(top32, p) is np.float32
        assert check_float_exact(top32 + 1, p) is check_float_exact(top64, p) is np.float64
        with pytest.raises(InternalConsistencyError):
            check_float_exact(top64 + 1, p)
    assert check_float_exact((1 << 22) - 1, 3) is np.float32
    assert check_float_exact(116508, 13) is np.float32


@pytest.fixture(params=[(3, 1), (2, 2), (3, 2), (2, 3)], ids=["p3", "gf4", "gf9", "gf8"])
def smalltower(request):
    p, k = request.param
    ctx = field(p, k)
    t = gen(ctx)
    terms = [(0, t, 7), (0, 1, 5)] if p == 3 else [(0, t, 7), (0, t * t + 1, 3)]
    state = TowerState(TowerSpec.make(ctx, terms))
    state.build_to(2)
    return ctx, state


@pytest.mark.parametrize("chunk", [None, 40], ids=["default-chunk", "tiny-chunk"])
def test_batched_mul_matches_sparse(smalltower, chunk, rng, monkeypatch):
    # products of random slabs of different levels and x-lengths, most y-codes
    # empty, and the zero slab, against the sparse reference
    if chunk is not None:
        monkeypatch.setattr(_slab, "_CONV_CHUNK", chunk)
    ctx, state = smalltower
    layers = sparse_layers(state)
    for la, lb, da, db in [(1, 2, 2, 9), (2, 2, 6, 3), (0, 2, 4, 5), (2, 1, 1, 8)]:
        for _ in range(3):
            f = random_poly(ctx, la, rng, nterms=3, maxdeg=da)
            g = random_poly(ctx, lb, rng, nterms=4, maxdeg=db)
            want = reduce_to_monomial_basis(f * g, layers[:max(la, lb)])
            got = slab_mul(from_sparse(f), from_sparse(g), state.layers)
            assert got.level == max(la, lb) and to_sparse(got) == want
    zero = Slab.zeros(ctx, 2, 3)
    assert not slab_mul(zero, from_sparse(random_poly(ctx, 2, rng)), state.layers).arr.any()


def test_mul_by_x_power_is_a_shift(smalltower, rng):
    # x^nu commutes with the y-reduction: mul(x^nu y^a, F) = shift_nu(mul(y^a, F)),
    # which the Cartier tables use to form each product once for all nu0 < p
    ctx, state = smalltower
    p = ctx.p
    F = from_sparse(random_poly(ctx, 2, rng, nterms=6, maxdeg=6))
    for code in range(p ** 2):
        a = digits_of(p, code, 2)
        base = slab_mul(Slab.monomial(ctx, Monomial(0, a)), F, state.layers)
        for nu in range(1, 4):
            got = slab_mul(Slab.monomial(ctx, Monomial(nu, a)), F, state.layers)
            want = np.pad(base.arr, ((0, 0), (0, 0), (nu, 0)))
            assert np.array_equal(got.arr, want), (a, nu)


@pytest.mark.parametrize("chunk", [None, 40], ids=["default-chunk", "tiny-chunk"])
def test_batched_products_match_mul(smalltower, chunk, rng, monkeypatch):
    # y^low F for every y^low at level 2 and an F at each level 0..2, all in one
    # reduction, against one mul per product
    if chunk is not None:
        monkeypatch.setattr(_slab, "_CONV_CHUNK", chunk)
    ctx, state = smalltower
    p = ctx.p
    Fs = [from_sparse(random_poly(ctx, lvl, rng, nterms=5, maxdeg=7)) for lvl in (0, 1, 2)]
    codes = [code for code in range(p ** 2) for _ in Fs]
    fs = Fs * p ** 2
    got = ymul(codes, 2, fs, state.layers)
    assert len(got) == len(fs)
    for code, F, g in zip(codes, fs, got):
        want = slab_mul(Slab.monomial(ctx, Monomial(0, digits_of(p, code, 2))), F, state.layers)
        assert g.level == 2 and np.array_equal(g.arr, want.arr), code


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (13, 1), (3, 2)], ids=["p2", "p3", "p13", "gf9"])
def test_pair_products_are_sums_of_one_pair_products(p, k, rng):
    # mul_pairs against one mul per pair, summed per product index: factors at
    # levels 0..2, zero factors, an a shared by pairs of one index and of
    # others, an index that no pair has, random pairs, and no pairs at all
    ctx = field(p, k)
    terms = {(2, 1): [(0, 1, 5), (0, 1, 3)], (3, 1): [(0, 1, 7), (0, 2, 5)],
             (13, 1): [(0, 1, 2)], (3, 2): [(0, gen(ctx), 7), (0, 1, 5)]}[(p, k)]
    state = TowerState(TowerSpec.make(ctx, terms))
    state.build_to(2)
    slabs = [from_sparse(random_poly(ctx, lvl, rng, nterms=4, maxdeg=6), lvl)
             for lvl in (0, 1, 2, 2, 1)]
    slabs.append(Slab.zeros(ctx, 2, 3))
    a = slabs[1]
    pairs = [(a, slabs[2], 0), (a, slabs[3], 0), (slabs[4], slabs[0], 0), (a, slabs[5], 1),
             (slabs[5], slabs[2], 1), (a, slabs[4], 3), (slabs[2], slabs[2], 3)]
    pairs += [(slabs[i], slabs[j], [0, 1, 3][n])
              for i, j, n in rng.integers(0, [6, 6, 3], size=(10, 3))]
    got = _slab.mul_pairs(pairs, state.layers)
    want = [SparsePoly(ctx, 2, {}) for _ in range(4)]
    for x, y, i in pairs:
        want[i] = want[i] + to_sparse(slab_mul(x, y, state.layers)).at_level(2)
    assert len(got) == 4 and not got[2].arr.any()
    assert all(g.level == 2 and to_sparse(g) == w for g, w in zip(got, want))
    # a b + a (-b) cancels in the blocks that a multiplies
    minus = slabs[2].scale(-1)
    assert not _slab.mul_pairs([(a, slabs[2], 0), (a, minus, 0)], state.layers)[0].arr.any()
    assert _slab.mul_pairs([], state.layers) == []


def test_batches_are_the_longest_runs_within_the_budget(rng):
    # the one rule for budgeted batches (products here, strips in linalg)
    # against a loop: zero sizes join a run, an oversize item is a run alone
    def loop(sizes, budget):
        i = 0
        while i < len(sizes):
            j, total = i + 1, sizes[i]
            while j < len(sizes) and total + sizes[j] <= budget:
                total += sizes[j]
                j += 1
            yield i, j
            i = j
    for _ in range(300):
        sizes = rng.integers(0, 12, size=rng.integers(0, 30))
        budget = int(rng.integers(1, 20))
        want = list(loop(sizes.tolist(), budget))
        assert list(_slab.batches(sizes, budget)) == want
        assert list(_slab.batches(sizes.tolist(), budget)) == want


def test_products_reduce_in_batches_of_whole_indices(smalltower, rng, monkeypatch):
    # with a small _REDUCE_BATCH, mul_pairs and ymul run one _finish_reduce per
    # batch of consecutive whole product indices, the batches holding about
    # that many product elements, and return the slabs of the default budget
    ctx, state = smalltower
    slabs = [from_sparse(random_poly(ctx, lvl, rng, nterms=4, maxdeg=6), lvl)
             for lvl in (0, 1, 2, 2, 1)]
    pairs = [(slabs[i], slabs[j], int(n)) for i, j, n in rng.integers(0, [5, 5, 8], size=(24, 3))]
    codes = rng.integers(0, ctx.p ** 2, size=12).tolist()
    fs = [slabs[i] for i in rng.integers(0, 5, size=12)]
    want = _slab.mul_pairs(pairs, state.layers), ymul(codes, 2, fs, state.layers)
    pair_sizes = [sum(a.nonzero_codes().size * b.nonzero_codes().size * ctx.k
                      * (a.arr.shape[2] + b.arr.shape[2] - 1) for a, b, n in pairs if n == i)
                  for i in range(len(want[0]))]
    f_sizes = [f.arr.size for f in fs]
    budget = max(pair_sizes + f_sizes)
    calls = []
    real = _slab._finish_reduce

    def counted(*args):
        calls.append(args[-1])  # the batch's number of products
        return real(*args)
    monkeypatch.setattr(_slab, "_finish_reduce", counted)
    monkeypatch.setattr(_slab, "_REDUCE_BATCH", budget)
    got = _slab.mul_pairs(pairs, state.layers), ymul(codes, 2, fs, state.layers)
    spans = [j - i for sizes in (pair_sizes, f_sizes) for i, j in _slab.batches(sizes, budget)]
    assert calls == spans and len(calls) > 2, (calls, spans)
    for g, w in zip(got[0] + got[1], want[0] + want[1]):
        assert g.level == w.level and np.array_equal(g.arr, w.arr)
    # an index without pairs between two that each pass the budget is a batch
    # of its own, with no reduction, and its product is zero
    monkeypatch.setattr(_slab, "_REDUCE_BATCH", 1)
    x = slabs[1]
    gap = _slab.mul_pairs([(x, x, 0), (x, x, 2)], state.layers)
    assert calls[-2:] == [1, 1] and len(calls) == len(spans) + 2
    assert np.array_equal(gap[0].arr, gap[2].arr) and gap[0].arr.any() and not gap[1].arr.any()
    assert gap[1].level == gap[0].level


def test_slabs_hold_int8_residues(rng):
    # the constructor stores int8 and does not copy int8 input
    ctx = field(3)
    wide = rng.integers(0, 3, size=(3, 1, 4))
    assert Slab(ctx, 1, wide).arr.dtype == np.int8
    small = wide.astype(np.int8)
    assert Slab(ctx, 1, small).arr is small
    s = Slab(ctx, 1, small)
    for out in (s + s, s - s, s.scale(2), Slab.zeros(ctx, 2), s.at_level(2),
                Slab.monomial(ctx, Monomial(2, (1, 2)))):
        assert out.arr.dtype == np.int8


def test_product_index_must_fit_its_key_bits():
    # at level 10 the y-digits take 60 key bits, which leaves 3 for the product
    # index: 8 products fit, 9 do not, in ymul and in the pair form of mul alike
    ctx = field(2)
    one, x = Slab.monomial(ctx, Monomial(0, ())), Slab.monomial(ctx, Monomial(1, ()))
    y10, xy10 = (Slab.monomial(ctx, Monomial(nu, (0,) * 9 + (1,))) for nu in (0, 1))
    got = ymul([0] * 7 + [2 ** 9], 10, [x] * 8, [])
    assert all(np.array_equal(s.arr, x.at_level(10).arr) for s in got[:7])
    assert np.array_equal(got[7].arr, xy10.arr)
    with pytest.raises(InternalConsistencyError):
        ymul([0] * 9, 10, [x] * 9, [])
    got = _slab.mul_pairs([(y10, one if i < 7 else x, i) for i in range(8)], [])
    assert all(np.array_equal(s.arr, y10.arr) for s in got[:7])
    assert np.array_equal(got[7].arr, xy10.arr)
    with pytest.raises(InternalConsistencyError):
        _slab.mul_pairs([(y10, one, i) for i in range(9)], [])


def _sparse_v(f: SparsePoly, tables):
    """V(f dx) term by term from the table entries: c x^(p q + nu0) y^a dx goes
    to sigma^-1(c) x^q V(x^nu0 y^a dx)."""
    ctx, n = f.ctx, f.level
    out = SparsePoly(ctx, n, {})
    for m, c in f.terms.items():
        q, nu0 = divmod(m.nu, ctx.p)
        xq = SparsePoly(ctx, n, {Monomial(q, (0,) * n): c.frobenius_inverse()})
        out = out + xq * to_sparse(tables[(nu0, code_of(ctx.p, m.a))])
    return out


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (3, 2)], ids=["gf2", "gf3", "gf4", "gf9"])
def test_batched_v_apply_matches_single_forms(p, k, rng, monkeypatch):
    # forms of mixed x-lengths, a zero form and shifted forms in one call, with a
    # group budget that makes v_apply run several groups: each image equals the
    # form's own one-element call and the term-by-term reference on the tables
    ctx = field(p, k)
    t = gen(ctx)
    terms = [(0, t, 7), (0, 1, 5)] if p == 3 else [(0, t, 5), (0, 1, 3)]
    state = TowerState(TowerSpec.make(ctx, terms))
    state.build_to(2)
    tables = _tables(state, 2)
    forms = [from_sparse(random_poly(ctx, 2, rng, nterms=4, maxdeg=d), 2)
             for d in (1, 12, 4, 30, 7)]
    forms.insert(2, Slab.zeros(ctx, 2, 3))
    shifts = [0, 1, 2, p - 1, 0, 5]
    entries = v_entries(tables)
    single = [v_apply([f], entries, [s])[0] for f, s in zip(forms, shifts)]
    S, La = p ** 2, max(e.arr.shape[2] for e in tables.values())
    Q = max(-(-(f.arr.shape[2] + s) // p) for f, s in zip(forms, shifts))
    # room for two of the longest forms in a group
    monkeypatch.setattr(_slab, "_BATCH", 2 * (2 * p * S * k * Q + S * k * (La + Q - 1)))
    calls = []
    real = _slab._xconv

    def counted(*args):
        calls.append(args[1].shape[1])
        real(*args)
    monkeypatch.setattr(_slab, "_xconv", counted)
    batched = v_apply(forms, entries, shifts)
    assert 1 < len(calls) < len(forms) and max(calls) > 1, calls
    for f, s, got, one in zip(forms, shifts, batched, single):
        assert got.level == 2 and np.array_equal(got.arr, one.arr)
        shifted = SparsePoly(ctx, 2, {Monomial(m.nu + s, m.a): c
                                      for m, c in to_sparse(f).terms.items()})
        assert to_sparse(got) == _sparse_v(shifted, tables)
    assert not batched[2].arr.any()
    assert v_apply([], entries, []) == []
    with pytest.raises(PolyError):  # one call takes forms of one level
        v_apply([forms[0], Slab.zeros(ctx, 1)], entries, [0, 0])
    with pytest.raises(PolyError):  # and the table of that level
        v_apply([Slab.zeros(ctx, 1)], entries, [0])

import tracemalloc

import numpy as np
import pytest

from conftest import random_poly
from oracle import (SparsePoly, from_sparse, function_differential, layers as sparse_layers,
                    reduce_to_monomial_basis, to_sparse, trace)
from zptower._slab import Slab
from zptower.cartier import (CartierTables, cartier_apply, cartier_matrix, differential_basis,
                             is_regular, trace_map)
from zptower.cli import run_compute
from zptower.fixtures import SUITES
from zptower.gf import field
from zptower.linalg import kernel_dim, twisted_power_kernels
from zptower._slab import Monomial
from zptower.tower import TowerSpec, TowerState

F2, F3 = field(2), field(3)


def x(ctx, n, c=1):
    return SparsePoly.x_power(ctx, n, c)


def tower(ctx, terms, n):
    st = TowerState(TowerSpec.make(ctx, terms))
    st.build_to(n)
    return st


def test_base_cartier_examples():
    # level 0: V(sum a_i x^i dx) = sum sigma^-1(a_(pj-1)) x^(j-1) dx
    def v0(f):
        return to_sparse(cartier_apply(from_sparse(f), tower(f.ctx, [(0, 1, 3)], 0)))
    assert v0(SparsePoly.constant(F2, 1)).is_zero()
    assert v0(x(F2, 1)) == SparsePoly.constant(F2, 1)
    assert v0(x(F3, 2) + x(F3, 5)) == SparsePoly.constant(F3, 1) + x(F3, 1)
    t = field(2, 2).gen()
    assert v0(x(t.ctx, 3, t)) == x(t.ctx, 1, t.frobenius_inverse())


def test_basis_examples():
    st = tower(F2, [(0, 1, 7)], 2)
    assert differential_basis(st, 1) == [Monomial(0, (0,)), Monomial(1, (0,)), Monomial(2, (0,))]
    b2 = differential_basis(st, 2)
    assert len(b2) == 16
    by_a = {}
    for m in b2:
        by_a[m.a] = by_a.get(m.a, 0) + 1
    assert by_a == {(0, 0): 8, (1, 0): 5, (0, 1): 3}
    st3 = tower(F2, [(0, 1, 3)], 1)
    assert differential_basis(st3, 1) == [Monomial(0, (0,))]


def test_basis_cardinality_is_genus():
    for ctx, terms, n in [(F3, [(0, 1, 7)], 3), (F2, [(0, 1, 9), (0, 1, 5)], 4),
                          (field(5), [(0, 1, 4)], 2),
                          (field(2, 2), [(0, field(2, 2).gen(), 3)], 3)]:
        st = tower(ctx, terms, n)
        for m in range(1, n + 1):
            assert len(differential_basis(st, m)) == st.genus(m)


def test_precompute_table_examples():
    st = tower(F2, [(0, 1, 3)], 1)
    t1 = CartierTables(st).table(1)
    assert t1[(0, 0)].is_zero()                       # V(dx) = 0
    assert to_sparse(t1[(1, 1)]) == SparsePoly.variable(F2, 1)  # V(x y1 dx) = y1 dx
    st3 = tower(F3, [(0, 1, 7)], 1)
    assert CartierTables(st3).table(1)[(0, 0)].is_zero()


def test_matrix_examples():
    st3 = tower(F2, [(0, 1, 3)], 1)
    m = cartier_matrix(st3, 1)
    assert m.matrix.data.shape == (1, 1) and not m.matrix.data.any()
    assert kernel_dim(m.matrix) == 1
    st7 = tower(F2, [(0, 1, 7)], 1)
    assert kernel_dim(cartier_matrix(st7, 1).matrix) == 2
    st37 = tower(F3, [(0, 1, 7)], 1)
    m37 = cartier_matrix(st37, 1)
    assert m37.genus == 6 and kernel_dim(m37.matrix) == 4


def test_apply_on_basis_matches_matrix_columns(rng):
    # GF(p) column s*k + b holds the coordinates of V(t^b omega_s), k per basis element
    F4 = field(2, 2)
    for ctx, terms, n in [(F3, [(0, 1, 5), (0, 2, 2)], 2),
                          (F2, [(0, 1, 21), (0, 1, 19), (0, 1, 15)], 3),  # g = 217: 4 words
                          (F4, [(0, F4.gen(), 5), (0, 1, 3)], 3)]:
        st = tower(ctx, terms, n)
        cm = cartier_matrix(st, n)
        basis, k, data = cm.basis, ctx.k, cm.matrix.data
        for col in rng.choice(len(basis), size=min(12, len(basis)), replace=False):
            for b in range(k):
                t_b = [int(i == b) for i in range(k)]
                img = to_sparse(cartier_apply(Slab.monomial(ctx, basis[int(col)], t_b), st))
                vec = np.zeros((len(basis), k), dtype=np.int64)
                for mm, c in img.terms.items():
                    vec[basis.index(mm)] = c.coeffs
                assert (vec.ravel() == data[:, int(col) * k + b]).all()


def test_gf2_matrix_stays_packed():
    # At g = 885 an array with one int64 per GF(2) entry takes g^2 * 8 = 6.3 MB.
    # Packed, the matrix is g * ceil(g / 64) * 8 = 99 KB, and assembly, the two
    # products and the three ranks hold a few such arrays at a time, so 2 MB
    # is far below any one-entry-per-element array.
    suite = SUITES["p2d21"]
    st = tower(F2, suite["terms"], 4)
    CartierTables(st).ensure(4)
    tracemalloc.start()
    try:
        M = cartier_matrix(st, 4).matrix
        dims = twisted_power_kernels(M, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M.cols == 885 and dims == [suite["a"][r][3] for r in (1, 2, 3)]
    assert peak < 2_000_000, peak


def test_cartier_oracles(rng):
    # V(dh) = 0 and V(h^(p-1) dh) = dh for random functions (primary oracle)
    cases = [(F2, [(0, 1, 7)], 2), (F3, [(0, 1, 7)], 2),
             (field(2, 2), [(0, field(2, 2).gen(), 5), (0, 1, 3)], 2)]
    checked = 0
    for ctx, terms, n in cases:
        st = tower(ctx, terms, n)
        layers = sparse_layers(st)
        for _ in range(12):
            h = random_poly(ctx, n, rng, nterms=3, maxdeg=4)
            dh = function_differential(from_sparse(h), st)
            if dh.is_zero():
                continue
            assert cartier_apply(dh, st).is_zero()
            hpdh = reduce_to_monomial_basis(h ** (ctx.p - 1) * to_sparse(dh), layers)
            assert to_sparse(cartier_apply(from_sparse(hpdh), st)) == to_sparse(dh)
            checked += 1
    assert checked >= 25


def test_semilinearity(rng):
    st = tower(F3, [(0, 1, 7)], 2)
    def v(f):
        return to_sparse(cartier_apply(from_sparse(f, 2), st))
    w = random_poly(F3, 2, rng, nterms=4, maxdeg=4)
    c = F3.elem(2)
    assert v(w * c) == v(w) * c.frobenius_inverse()
    u = random_poly(F3, 2, rng, nterms=3, maxdeg=4)
    assert v(w + u) == v(w) + v(u)


def test_trace_examples():
    def tr(f):
        return to_sparse(trace_map(from_sparse(f, 1)))
    assert tr(SparsePoly.constant(F2, 1, 1) + SparsePoly.variable(F2, 1) * x(F2, 2)) == x(F2, 2)
    assert tr(SparsePoly.variable(F3, 1) ** 2) == SparsePoly.constant(F3, 2)
    assert tr(x(F2, 4)).is_zero()  # a pullback from the level below


def test_trace_commutes_with_cartier(rng):
    F4 = field(2, 2)
    for ctx, terms in [(F2, [(0, 1, 7)]), (F3, [(0, 1, 5), (0, 2, 2)]),
                       (F4, [(0, F4.gen(), 5), (0, 1, 3)])]:
        st = tower(ctx, terms, 3)
        basis = differential_basis(st, 3)
        for _ in range(8):
            picks = rng.choice(len(basis), size=min(5, len(basis)), replace=False)
            f = SparsePoly(ctx, 3, {basis[int(i)]: ctx.random_element(rng) for i in picks})
            w = from_sparse(f)
            assert to_sparse(trace_map(w)) == trace(f)
            lhs = trace_map(cartier_apply(w, st))
            rhs = cartier_apply(trace_map(w), st)
            assert to_sparse(lhs) == to_sparse(rhs)


def test_regularity_closure(rng):
    # V maps regular differentials to regular differentials, monomial by monomial
    st = tower(F3, [(0, 1, 7)], 2)
    basis = differential_basis(st, 2)
    for m in basis:
        assert is_regular(cartier_apply(Slab.monomial(F3, m), st), st)
    # x^numax y^a dx is regular and x^(numax+1) y^a dx is not
    numax = {m.a: m.nu for m in basis}  # nu ascends within each y-code
    for a, top in numax.items():
        assert is_regular(Slab.monomial(F3, Monomial(top, a)), st)
        assert not is_regular(Slab.monomial(F3, Monomial(top + 1, a)), st)


def test_table_cache_roundtrip(tmp_path):
    spec = TowerSpec.make(F3, [(0, 1, 5), (0, 2, 2)], name="c")
    st1 = TowerState(spec, cache_dir=tmp_path)
    m1 = cartier_matrix(st1, 2)
    assert (tmp_path / "cartier" / spec.spec_hash() / "tables_L2.txt").exists()
    st2 = TowerState(spec, cache_dir=tmp_path)
    m2 = cartier_matrix(st2, 2)
    assert (m1.matrix.data == m2.matrix.data).all()
    # version/key mismatch falls back to recomputation
    f = tmp_path / "cartier" / spec.spec_hash() / "tables_L1.txt"
    f.write_text('{"format_version": 99}\n')
    st3 = TowerState(spec, cache_dir=tmp_path)
    m3 = cartier_matrix(st3, 2)
    assert (m3.matrix.data == m1.matrix.data).all()


def _cuts(text):
    """Every line boundary short of the whole file, plus one cut mid-line."""
    ends = [i + 1 for i, ch in enumerate(text) if ch == "\n"]
    return [0] + ends[:-1] + [ends[len(ends) // 2] - 3]


@pytest.mark.parametrize("p,terms,m", [(3, [(0, 1, 5), (0, 2, 2)], 2),
                                       (2, [(0, 1, 5), (0, 1, 3)], 3)])
def test_truncated_table_cache_is_a_miss(tmp_path, p, terms, m):
    # a damaged table file is recomputed (and rewritten), never loaded short
    spec = TowerSpec.make(field(p), terms, name="t")
    want = CartierTables(TowerState(spec)).table(m)
    state = TowerState(spec, cache_dir=tmp_path)
    CartierTables(state).ensure(m)
    path = tmp_path / "cartier" / spec.spec_hash() / f"tables_L{m}.txt"
    text = path.read_text()
    for cut in _cuts(text):
        path.write_text(text[:cut])
        got = CartierTables(state).table(m)
        assert got.keys() == want.keys(), cut
        assert all(np.array_equal(got[key].arr, want[key].arr) for key in want), cut
        assert path.read_text() == text


def test_changed_digit_in_table_cache_is_a_miss(tmp_path):
    # one coefficient 1 -> 2 in the cached p3d7 level-2 table once gave a^(1) = 216
    spec = TowerSpec.make(F3, [(0, 1, 7)], name="p3d7")
    run_compute(spec, 2, data_dir=tmp_path)
    path = tmp_path / "cache" / "cartier" / spec.spec_hash() / "tables_L2.txt"
    lines = path.read_text().split("\n")
    i = next(i for i, line in enumerate(lines[1:], 1) if line.endswith(" 1") and line[0] != "K")
    lines[i] = lines[i][:-1] + "2"
    path.write_text("\n".join(lines))
    assert [r.a_r for r in run_compute(spec, 3, data_dir=tmp_path)] == [(4,), (25,), (214,)]


def test_twisted_kernels_extension_field():
    # exact a^(r) of GF(4), GF(9) and GF(8) towers, which pin the sigma^-1 twist
    F4, F8, F9 = field(2, 2), field(2, 3), field(3, 2)
    t4, t8, t9 = F4.gen(), F8.gen(), F9.gen()
    cases = [(F4, [(0, t4, 5), (0, 1, 3)], 2, [4, 6, 8, 10, 11, 11]),
             (F4, [(0, t4, 5), (0, 1, 3)], 4, [54, 86, 108, 123]),
             (F9, [(0, t9, 7), (0, 1, 5)], 2, [24, 36, 43, 49]),
             (F8, [(0, t8, 7), (0, t8 ** 2 + 1, 3)], 3, [19, 31, 38, 43, 47])]
    for F, terms, n, want in cases:
        st = tower(F, terms, n)
        assert twisted_power_kernels(cartier_matrix(st, n).matrix, len(want)) == want

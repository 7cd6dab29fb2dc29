import hashlib
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies

import zptower.cartier as cartier_mod
import zptower.witt as witt_mod
from conftest import random_poly, restrict, sealed
from oracle import (SparsePoly, bool_pattern_pivots, cartier_apply, cartier_coefficients,
                    differential_basis, from_sparse,
                    function_differential, gen, is_regular, layers as sparse_layers,
                    random_element, reduce_to_monomial_basis, to_sparse, trace, trace_map)
from zptower import _slab as slab_kernel
from zptower._slab import Slab
from zptower.cartier import TABLE_FORMAT_VERSION, CartierTables, _level_bytes, cartier_matrix
from zptower.cli import run_compute
from zptower.fixtures import SUITES
from zptower.gf import FieldCtx, InternalConsistencyError, field
import zptower.linalg as linalg
from zptower.linalg import _singleton_pivots, kernel_dim, twisted_power_kernels
from zptower._slab import Monomial
from zptower.tower import TowerSpec, TowerState
from zptower.witt import CACHE_FORMAT_VERSION, peel_polynomials, read_cache, write_cache

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
    t = gen(field(2, 2))
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
                          (field(2, 2), [(0, gen(field(2, 2)), 3)], 3)]:
        st = tower(ctx, terms, n)
        for m in range(1, n + 1):
            assert len(differential_basis(st, m)) == st.genus(m)


def test_precompute_table_examples():
    st = tower(F2, [(0, 1, 3)], 1)
    t1 = CartierTables(st).table(1)
    assert not t1[(0, 0)].arr.any()                   # V(dx) = 0
    assert to_sparse(t1[(1, 1)]) == SparsePoly.variable(F2, 1)  # V(x y1 dx) = y1 dx
    st3 = tower(F3, [(0, 1, 7)], 1)
    assert not CartierTables(st3).table(1)[(0, 0)].arr.any()


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
                          (F4, [(0, gen(F4), 5), (0, 1, 3)], 3)]:
        st = tower(ctx, terms, n)
        cm = cartier_matrix(st, n)
        basis, k, data = differential_basis(st, n), ctx.k, cm.matrix.data
        for col in rng.choice(len(basis), size=min(12, len(basis)), replace=False):
            for b in range(k):
                t_b = [int(i == b) for i in range(k)]
                img = to_sparse(cartier_apply(Slab.monomial(ctx, basis[int(col)]).scale(t_b), st))
                vec = np.zeros((len(basis), k), dtype=np.int64)
                for mm, c in img.terms.items():
                    vec[basis.index(mm)] = c.coeffs
                assert (vec.ravel() == data[:, int(col) * k + b]).all()


def test_gf2_matrix_has_no_array_per_entry():
    # At g = 885 the GF(2) matrix has g^2 = 783k entries: an array of one int64
    # each takes 6.3 MB, of one int32 each 3.1 MB.  The matrix is segments of
    # its tables' cells; the singleton pass and the packing of M for the
    # products read them in strips of about _STRIP entries; the products and
    # their ranks hold packed rows, at most g * ceil(g / 64) * 8 = 99 KB each,
    # a few at a time.  So 2 MB is below any array of int32 or wider per entry.
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


@pytest.fixture(scope="module")
def p3d7_level_4():
    st = tower(F3, SUITES["p3d7"]["terms"], 4)
    CartierTables(st).ensure(4)
    return st


def test_odd_p_matrix_stays_int8(p3d7_level_4):
    # At p3d7 level 4 (g = 5700, 0.9 % dense) an int8 array with one entry per
    # GF(3) element takes g^2 = 32.5 MB, and its 278k nonzeros as sparse
    # columns 3 bytes each.  The matrix holds only its tables' 23k nonzero
    # cells, 3 bytes each, as segments that its columns share; assembly's
    # int64 rows and the singleton pass's row cells and strip temporaries add
    # at most 13 bytes a cell, and only the leftover is dense: int8,
    # eliminated in place one float32 panel at a time, with a block and its
    # residues, within 16 bytes an entry of one panel of the leftover's rows
    # (test_elimination_holds_int8_and_one_panel).  The bound leaves less room
    # than sparse columns of the nonzeros, 3 bytes each, would take.
    st = p3d7_level_4
    cells = sum(np.count_nonzero(slab.arr) for slab in st.tables.table(4).values())
    tracemalloc.start()
    try:
        M = cartier_matrix(st, 4).matrix
        dims = twisted_power_kernels(M, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M.cols == 5700 and dims == [SUITES["p3d7"]["a"][1][3]]
    A = M._a
    nnz = int(np.diff(A.ptr)[A.seg].sum())
    assert A.val.dtype == np.int8 and A.idx.size == np.count_nonzero(A.val) <= cells < nnz // 10
    # no array of the matrix has an element per nonzero: per cell, segment or column
    assert max(a.size for a in A if isinstance(a, np.ndarray)) <= max(cells, A.seg.size + 1)
    _, rows, cols = _singleton_pivots(A)
    bound = 16 * cells + rows.size * cols.size + 16 * rows.size * linalg._PANEL
    assert peak < bound < peak + 3 * nnz, (peak, bound)  # no room for the expanded nonzeros


def test_singleton_pass_over_many_strips_holds_a_few_bytes_a_cell():
    # perfbench's p3d7-L4 tower at seed 1 (test_tower's LAYER_DIGESTS): its
    # level-4 matrix has 324,726 cells, 5 strips of _STRIP = 2^16.  The pass
    # holds _pattern's cells by row and pointers, 1.9 MB, and one strip's
    # temporaries at 16 bytes a cell, about 2.9 MB in all; at about 70 bytes a
    # cell and a second copy of the pointers it peaked at 7.9 MB
    st = tower(F3, [(0, 1, 7), (0, 1, 5), (0, 1, 2)], 4)
    CartierTables(st).ensure(4)
    A = cartier_matrix(st, 4).matrix._a
    assert A.idx.size > 4 * linalg._STRIP
    tracemalloc.start()
    try:
        prows, rows, cols = _singleton_pivots(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (prows.size, rows.size, cols.size) == (3085, 774, 736)
    assert linalg._rank_segs(A, 3)[0] == 3786
    assert peak < 4_500_000, peak


def test_gf2_factor_holds_one_strip_beside_its_words():
    # p2d21 level 5 (g = 3565): _factor packs M, 1.6 MB of words, a word of
    # columns at a time, up to 84k entries, read in strips of _STRIP.  Besides
    # the words it holds the block, its bits and a strip at about 9 bytes an
    # entry, 0.92 MB; at 46 bytes an entry that was 3.15 MB
    st = tower(F2, SUITES["p2d21"]["terms"], 5)
    CartierTables(st).ensure(5)
    M = cartier_matrix(st, 5).matrix
    tracemalloc.start()
    try:
        W = linalg._factor(M)._a
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M.cols == 3565 and W.shape == (3565, 56)
    everything = np.arange(M.cols)
    bits = np.unpackbits(W.view(np.uint8), axis=1, count=M.cols, bitorder="little")
    assert np.array_equal(bits, linalg._gather(M._a, everything, everything).view(np.uint8))
    assert peak - W.nbytes < 1_000_000, peak - W.nbytes


# -- Cartier matrices as shifted segments, against bool patterns and dense ---------

def segment_tower(name):
    return (F3, SUITES[name]["terms"]) if name == "p3d5" else _digest_tower(name)


@pytest.mark.parametrize("name,top", [("p3d7", 4), ("p3d5", 3), ("gf9", 3), ("p2d21", 5),
                                      ("gf4", 4)])
def test_cartier_singleton_pivots_match_bool_pattern(name, top, request):
    # the pivots of the segments' degrees, sums and row windows are those of
    # the matrix's bool pattern, over GF(2) and on GF(4) and GF(9) too, where
    # rows move by q k = 2 q
    if name == "p3d7":
        st = request.getfixturevalue("p3d7_level_4")
    else:
        st = tower(*segment_tower(name), top)
    for n in range(1, top + 1):
        A = cartier_matrix(st, n).matrix._a
        assert A.unit == st.field.k and (n == 1 or A.count.max() > 1)  # columns share segments
        nz = linalg._gather(A, np.arange(A.m), np.arange(A.seg.size)) != 0  # .data's pattern, in int8
        pattern, want = bool_pattern_pivots(nz)
        assert all(np.array_equal(a, b) for a, b in zip(_singleton_pivots(A), want)), n
        assert all(np.array_equal(a, b) for a, b in
                   zip(linalg._pattern(A)[:4], [pattern[i] for i in (1, 2, 4, 5)])), n


@pytest.mark.parametrize("name", ["p3d7", "p3d5", "gf9", "p2d21", "gf4"])
def test_cartier_segments_match_dense_recomputation(name):
    # .data and M @ M of the segment matrices, levels 1-3, against the matrix
    # assembled densely, column by column, from the tables
    F, terms = segment_tower(name)
    st = tower(F, terms, 3)
    for n in (1, 2, 3):
        M = cartier_matrix(st, n).matrix
        D = restrict(F, cartier_coefficients(st, n)).data
        assert np.array_equal(M.data, D), n
        assert np.array_equal((M @ M).data, D @ D % F.p), n


@pytest.mark.parametrize("ctx,terms", [(F3, [(0, 1, 7)]), (F2, [(0, 1, 21)])], ids=["p3", "p2"])
def test_table_entry_above_its_code_is_inconsistent(ctx, terms):
    # V never raises the y-code (a_n most significant), so M is block triangular
    st = tower(ctx, terms, 2)
    table = CartierTables(st).table(2)
    cartier_matrix(st, 2)
    bad = Slab.zeros(ctx, 2)
    bad.arr[ctx.p ** 2 - 1, 0, 0] = 1  # V(y-code 1) reaching the top y-code
    table[(0, 1)] = bad
    with pytest.raises(InternalConsistencyError, match="block-triangular"):
        cartier_matrix(st, 2)


def test_cartier_oracles(rng):
    # V(dh) = 0 and V(h^(p-1) dh) = dh for random functions (primary oracle)
    cases = [(F2, [(0, 1, 7)], 2), (F3, [(0, 1, 7)], 2),
             (field(2, 2), [(0, gen(field(2, 2)), 5), (0, 1, 3)], 2)]
    checked = 0
    for ctx, terms, n in cases:
        st = tower(ctx, terms, n)
        layers = sparse_layers(st)
        for _ in range(12):
            h = random_poly(ctx, n, rng, nterms=3, maxdeg=4)
            dh = function_differential(from_sparse(h), st)
            if not dh.arr.any():
                continue
            assert not cartier_apply(dh, st).arr.any()
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
                       (F4, [(0, gen(F4), 5), (0, 1, 3)])]:
        st = tower(ctx, terms, 3)
        basis = differential_basis(st, 3)
        for _ in range(8):
            picks = rng.choice(len(basis), size=min(5, len(basis)), replace=False)
            f = SparsePoly(ctx, 3, {basis[int(i)]: random_element(ctx, rng) for i in picks})
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


def _same_table(got, want):
    return got.keys() == want.keys() and all(np.array_equal(got[key].arr, want[key].arr)
                                             for key in want)


def test_table_cache_roundtrip(tmp_path):
    spec = TowerSpec.make(F3, [(0, 1, 5), (0, 2, 2)], name="c")
    st1 = TowerState(spec, cache_dir=tmp_path)
    m1 = cartier_matrix(st1, 2)
    assert (tmp_path / "cartier" / spec.spec_hash() / "tables_L2.bin").exists()
    st2 = TowerState(spec, cache_dir=tmp_path)
    m2 = cartier_matrix(st2, 2)
    assert (m1.matrix.data == m2.matrix.data).all()
    # version/key mismatch falls back to recomputation
    f = tmp_path / "cartier" / spec.spec_hash() / "tables_L1.bin"
    f.write_text('{"format_version": 99}\n')
    st3 = TowerState(spec, cache_dir=tmp_path)
    m3 = cartier_matrix(st3, 2)
    assert (m3.matrix.data == m1.matrix.data).all()


def _cuts(n):
    """Lengths short of n bytes: none, one, half and all but one."""
    return [0, 1, n // 2, n - 1]


@pytest.mark.parametrize("p,terms,m", [(3, [(0, 1, 5), (0, 2, 2)], 2),
                                       (2, [(0, 1, 5), (0, 1, 3)], 3)])
def test_truncated_table_cache_is_a_miss(tmp_path, p, terms, m):
    # a damaged table file is recomputed (and rewritten), never loaded short:
    # the file cut with its digest kept, its body cut under a fresh digest, and
    # its payload cut and compressed again
    spec = TowerSpec.make(field(p), terms, name="t")
    want = CartierTables(TowerState(spec)).table(m)
    state = TowerState(spec, cache_dir=tmp_path)
    tables = CartierTables(state).ensure(m)
    path, header = tables._cache_path(m), tables._header(m)
    data = path.read_bytes()
    body = data.partition(b"\n")[2]
    payload = zlib.decompress(body)
    for damaged in ([data[:cut] for cut in _cuts(len(data))]
                    + [sealed(header, body[:cut]) for cut in _cuts(len(body))]
                    + [sealed(header, zlib.compress(payload[:cut], 1)) for cut in _cuts(len(payload))]):
        path.write_bytes(damaged)
        assert tables._load_level(m) is None
        assert _same_table(CartierTables(state).table(m), want)
        assert path.read_bytes() == data


def test_changed_digit_in_table_cache_is_a_miss(tmp_path):
    # one residue 1 -> 2 in the cached p3d7 level-2 table, compressed again under
    # the old digest: the payload is well formed, so only the digest can catch it
    spec = TowerSpec.make(F3, [(0, 1, 7)], name="p3d7")
    run_compute(spec, 2, data_dir=tmp_path)
    path = tmp_path / "cache" / "cartier" / spec.spec_hash() / "tables_L2.bin"
    data = path.read_bytes()
    head, _, body = data.partition(b"\n")
    payload = bytearray(zlib.decompress(body))
    payload[payload.index(1, 4 * 3 ** 3)] = 2  # the first residue 1 past the widths
    path.write_bytes(head + b"\n" + zlib.compress(bytes(payload), 1))
    assert [r.a_r for r in run_compute(spec, 3, data_dir=tmp_path)] == [(4,), (25,), (214,)]
    assert path.read_bytes() == data


@pytest.mark.parametrize("defect", ["residue p", "residue -1", "width 0", "negative width",
                                    "untrimmed", "one byte short", "not zlib"])
def test_sealed_bad_table_cache_is_a_miss(tmp_path, defect):
    # each file carries a valid digest, so only the checks behind it can see the
    # defect; the table is recomputed and its file rewritten
    spec = TowerSpec.make(F3, SUITES["p3d7"]["terms"])
    state = TowerState(spec, cache_dir=tmp_path)
    tables = CartierTables(state).ensure(2)
    path, header = tables._cache_path(2), tables._header(2)
    data = path.read_bytes()
    want = tables.levels[2]
    bad = {key: Slab(slab.ctx, slab.level, slab.arr.copy()) for key, slab in want.items()}
    wide = max(sorted(bad), key=lambda key: bad[key].arr.shape[2])  # an entry with X > 1
    x = bad[wide].arr.shape[2]
    assert x > 1
    payload = _level_bytes(want)
    if defect == "residue p":
        bad[wide].arr[0, 0, 0] = 3
    elif defect == "residue -1":
        bad[wide].arr[0, 0, 0] = -1
    elif defect == "width 0":
        bad[wide].arr = bad[wide].arr[:, :, :0]
    elif defect == "untrimmed":
        bad[wide].arr = np.pad(bad[wide].arr, ((0, 0), (0, 0), (0, 1)))
    if defect in ("residue p", "residue -1", "width 0", "untrimmed"):
        payload = _level_bytes(bad)
    elif defect == "negative width":
        # X -> -1 with the bytes of X + 1 widths taken off the end: the byte count
        # matches the widths
        widths = np.frombuffer(payload, dtype="<i4", count=27).copy()
        widths[sorted(bad).index(wide)] = -1
        payload = widths.tobytes() + payload[4 * 27:-(x + 1) * 9]
    elif defect == "one byte short":
        payload = payload[:-1]
    if defect == "not zlib":
        path.write_bytes(sealed(header, b"not zlib data"))
    else:
        write_cache(path, header, payload)
    assert tables._load_level(2) is None
    assert _same_table(CartierTables(state).table(2), want)
    assert path.read_bytes() == data


def test_twisted_kernels_extension_field():
    # exact a^(r) of GF(4), GF(9) and GF(8) towers, which pin the sigma^-1 twist
    F4, F8, F9 = field(2, 2), field(2, 3), field(3, 2)
    t4, t8, t9 = gen(F4), gen(F8), gen(F9)
    cases = [(F4, [(0, t4, 5), (0, 1, 3)], 2, [4, 6, 8, 10, 11, 11]),
             (F4, [(0, t4, 5), (0, 1, 3)], 4, [54, 86, 108, 123]),
             (F9, [(0, t9, 7), (0, 1, 5)], 2, [24, 36, 43, 49]),
             (F8, [(0, t8, 7), (0, t8 ** 2 + 1, 3)], 3, [19, 31, 38, 43, 47])]
    for F, terms, n, want in cases:
        st = tower(F, terms, n)
        assert twisted_power_kernels(cartier_matrix(st, n).matrix, len(want)) == want


def table_digest(table):
    """sha256 over the nonzero (entry, y-code, x-power, coefficients) cells of one
    level's table: the definition of perfbench/rep.py's table_digest."""
    h = hashlib.sha256()
    for key in sorted(table):
        arr = table[key].arr
        codes, xs = np.nonzero(arr.any(axis=1))
        h.update(np.array(key, dtype="<i8").tobytes())
        h.update(np.int64(codes.size).astype("<i8").tobytes())
        h.update(codes.astype("<i8").tobytes() + xs.astype("<i8").tobytes())
        h.update(arr[codes, :, xs].astype("<i8").tobytes())
    return h.hexdigest()


# table digests of levels 1, 2, .. recorded with the per-code-pair np.convolve kernel
# that the batched x-convolution replaced (commit caa8c03)
TABLE_DIGESTS = {
    "p3d7": ["ed3558927b50c672d06866d93862457353bf5b1f217aec15fbf9132d13f6e382",
             "084d68197b7084bb3ae2d442bf7649c94d4e6611682eec6223d1c7fdc215a17a",
             "b54ec4884a52a469b1d43f8f2f6d3b327ce3b331d6041f5aa622ac376c0e5f3c",
             "624124c524b41c3445831358e73613715d6b1e863f160b441d0d95c7975c1a8e"],
    "p2d21": ["a25a3d496e13213ab9a9fff35ed7430f6450cea6b1ce73eb205c5f4a2289a676",
              "b32107b9aeb647c9d176a92ea023e1d5639b9a7b900b53d3c298b7314e1c1d65",
              "df6ded5e4a3285bb30e7e7b6376ec2f6ad93b3ae96756d5ece11dd8edc9103b8",
              "8bc06030362140e722e5361583b9c12adf433ede577b53861bbf35fc9cc46b65",
              "9eadf395eac31327681a49a966d73cbfa49f0399e497f6e7501ab70689a4b546"],
    "gf4": ["1e6bd2b307dc7587ee591771c711d4946630b8a7d456f00b63ec2bb5347bc18d",
            "8944ddc9c80ccd14528295dbea9aeb187d00e8f22153a7458ef93023f2f3f738",
            "dcb5822125a19a179ab76e1faf5bcca71af87e81ef349df86f797f21cc727bda",
            "9b6f5f634372971604d5a1fa2cd9bf8d48652b7abc8703fef3594c71d00d372c"],
    # GF(8): the one degree here whose field polynomial leaves two reduction
    # rows, t^3 and t^4; recorded at e547a90
    "gf8": ["5d372d85d7d5fae34b68d84efdc356cffd153a700d7033ce3585b1b6a1847130",
            "412b87dc006c21fcce559945c788d4f7c93e99e011919ccca74ab40e3e5113c7",
            "b7d2e929f69c51ece216026666567316669712f915c33de314a024e66efa5c01",
            "19e524daf7501449ccf56d216ebb66611be00b5019db7e45853b0dd15823a839"],
    "gf9": ["3ab6f7409ea48c09d586cc80d7f5729630dc9f388a926f78e0903a7144447ac4",
            "948ec3530f6d351211be324a52bec09078750843085aa5a19716459e07aee978",
            "d8b2c2d67b2af2bc7921d28055555c5c8f515b1881de66723e74012915007549"],
    # the largest prime the float guards allow: a product of two residues
    # overflows int8 (12 * 12 = 144); recorded at c99e4cf
    "gf13": ["95e028273a216f7bde74f5d7fda6984a0aa40187825339eba3d1fa5921a6d0e4",
             "f2d10d811e5abac8d8dcb98890db803eda552e96dfd56f416181bff1e9f30a95"],
}


def _digest_tower(name):
    F4, F8, F9 = field(2, 2), field(2, 3), field(3, 2)
    t8 = gen(F8)
    return {"p3d7": (F3, SUITES["p3d7"]["terms"]), "p2d21": (F2, SUITES["p2d21"]["terms"]),
            "gf4": (F4, [(0, gen(F4), 5), (0, 1, 3)]),
            "gf8": (F8, [(0, t8, 7), (0, t8 * t8 + 1, 3)]),
            "gf9": (F9, [(0, gen(F9), 7), (0, 1, 5)]), "gf13": (field(13), [(0, 1, 2)])}[name]


@pytest.mark.parametrize("name", sorted(TABLE_DIGESTS))
def test_table_digests_match_recorded(name):
    F, terms = _digest_tower(name)
    want = TABLE_DIGESTS[name]
    tables = CartierTables(tower(F, terms, len(want))).ensure(len(want))
    assert [table_digest(tables.levels[m]) for m in range(1, len(want) + 1)] == want


def test_table_digests_do_not_depend_on_the_chunk(monkeypatch):
    # a tiny _CONV_CHUNK splits every batched product of the table build
    monkeypatch.setattr(slab_kernel, "_CONV_CHUNK", 50)
    tables = CartierTables(tower(F3, SUITES["p3d7"]["terms"], 3)).ensure(3)
    assert [table_digest(tables.levels[m]) for m in (1, 2, 3)] == TABLE_DIGESTS["p3d7"][:3]


@pytest.mark.parametrize("F,terms", [(F3, SUITES["p3d7"]["terms"]),
                                     (F2, SUITES["p2d21"]["terms"]),
                                     (field(2, 2), [(0, gen(field(2, 2)), 5), (0, 1, 3)])],
                         ids=["p3d7", "p2d21", "gf4"])
def test_built_state_and_tables_hold_int8_slabs(F, terms):
    # every slab a built tower and its tables hold is int8 residues: the
    # layers, substitutions, y_j + f_j, cached powers and table entries
    st = tower(F, terms, 3)
    tables = CartierTables(st).ensure(3)
    slabs = {"layers": st.layers, "subs": st.subs, "plus_f": st._plus_f,
             "powers": list(st._powers.values()),
             "tables": [s for level in tables.levels for s in level.values()]}
    assert all(slabs.values())
    assert {name: {s.arr.dtype for s in group} for name, group in slabs.items()} == \
        {name: {np.dtype(np.int8)} for name in slabs}


def test_level_build_batches_its_convolutions(monkeypatch):
    # a level is built from grouped batches: p3d7 level 3 from level 2 makes one
    # ymul and one v_apply per digit sum of the level-2 lowcodes (ymul for sums
    # 1..4) and 16 _xconv calls, where one v_apply per form and one mul per
    # product made 113
    tables = CartierTables(tower(F3, SUITES["p3d7"]["terms"], 3)).ensure(2)
    calls, ymuls = [], []  # the monomials y^code of each ymul call
    real, real_ymul = slab_kernel._xconv, cartier_mod.ymul

    def counted(*args):
        calls.append(args[1].shape)
        real(*args)

    def counted_ymul(codes, *args):
        ymuls.append(sorted(set(codes)))
        return real_ymul(codes, *args)
    monkeypatch.setattr(slab_kernel, "_xconv", counted)
    monkeypatch.setattr(cartier_mod, "ymul", counted_ymul)
    tables.ensure(3)
    assert table_digest(tables.levels[3]) == TABLE_DIGESTS["p3d7"][2]
    assert ymuls == [[1, 3], [1, 3], [1], [1]], ymuls  # each by y_1 or y_2
    assert len(calls) <= 20, len(calls)


def test_gf9_table_build_expands_each_entry_once_per_level(monkeypatch):
    # v_apply's a-side is a level's table as GF(p) matrices, expanded once per
    # level (_slab.v_entries) and not once per v_apply call: GF(9) levels 1..3
    # expand the 3, 9 and 27 entries of levels 0..2 once each, where one
    # expansion per v_apply call made 165
    F, terms = _digest_tower("gf9")
    st = tower(F, terms, 3)
    calls = []
    real = FieldCtx.semilinear_blocks

    def counted(self, coeffs):
        calls.append(coeffs.shape)
        return real(self, coeffs)
    monkeypatch.setattr(FieldCtx, "semilinear_blocks", counted)
    tables = CartierTables(st).ensure(3)
    assert [table_digest(tables.levels[m]) for m in (1, 2, 3)] == TABLE_DIGESTS["gf9"]
    assert len(calls) == sum(len(tables.levels[m]) for m in range(3)) == 3 + 9 + 27, len(calls)


def test_p3_table_build_memory():
    # building p3d7's level-4 table from level 3 peaks at 3.13 MB, with a
    # generation of products, their cofactors and images alive, all as int8;
    # it peaked at 3.27 MB when each lowcode's products had their own
    # y-reduction in int64
    st = tower(F3, SUITES["p3d7"]["terms"], 4)
    tables = CartierTables(st).ensure(3)
    tracemalloc.start()
    try:
        tables.ensure(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table_digest(tables.levels[4]) == TABLE_DIGESTS["p3d7"][3]
    assert peak <= 3_268_753, peak


def test_table_build_memory():
    # _xconv keeps the temporaries alive together within _CONV_CHUNK = 2^16
    # elements, float32 where that is exact, so building p2d21's level-4 table
    # from level 3 peaks at about 0.71 MB (0.72 MB with single-form applies and
    # each float64 temporary within 2^16 elements); chunks of 2^17 elements give
    # about 0.88 MB.
    st = tower(F2, SUITES["p2d21"]["terms"], 4)
    tables = CartierTables(st).ensure(3)
    tracemalloc.start()
    try:
        tables.ensure(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table_digest(tables.levels[4]) == TABLE_DIGESTS["p2d21"][3]
    assert peak < 1_000_000, peak


@pytest.mark.parametrize("name,n", [("p3d7", 3), ("p2d21", 4), ("gf4", 3), ("gf9", 2)])
def test_table_cache_loads_what_was_built(tmp_path, monkeypatch, name, n):
    # a second state on the same cache loads every level without building one,
    # and writing a loaded table back gives its file's payload byte for byte
    F, terms = _digest_tower(name)
    spec = TowerSpec.make(F, terms)
    built = CartierTables(TowerState(spec, cache_dir=tmp_path)).ensure(n)

    def no_build(self, m):
        raise AssertionError(f"level {m} was built, not loaded")
    monkeypatch.setattr(CartierTables, "_build_level", no_build)
    loaded = CartierTables(TowerState(spec, cache_dir=tmp_path)).ensure(n)
    for m in range(1, n + 1):
        assert _same_table(loaded.levels[m], built.levels[m]), m
        # entries are int8 residues, the payload's own form, built or loaded
        assert all(slab.arr.flags.owndata and slab.arr.flags.writeable
                   and slab.arr.dtype == np.int8 for slab in loaded.levels[m].values())
        assert all(slab.arr.dtype == np.int8 for slab in built.levels[m].values())
        assert _level_bytes(loaded.levels[m]) == read_cache(built._cache_path(m), built._header(m))


@given(strategies.sampled_from(sorted(TABLE_DIGESTS)), strategies.integers(1, 2),
       strategies.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_written_tables_load_and_write_back_unchanged(tmp_path_factory, name, m, seed):
    # any trimmed table of residues loads as itself, and writing the loaded
    # table gives the same file
    F, terms = _digest_tower(name)
    tables = CartierTables(TowerState(TowerSpec.make(F, terms),
                                      cache_dir=tmp_path_factory.mktemp("cache")))
    rng = np.random.default_rng(seed)
    table = {}
    for nu0 in range(F.p):
        for code in range(F.p ** m):
            arr = rng.integers(0, F.p, size=(F.p ** m, F.k, int(rng.integers(1, 5))))
            arr[rng.integers(F.p ** m), rng.integers(F.k), -1] = rng.integers(1, F.p)
            table[(nu0, code)] = Slab(F, m, arr if rng.random() < 0.8 else arr[:, :, :1] * 0)
    tables.levels = [None] * m + [table]  # only level m is written and read
    tables._store_level(m)
    data = tables._cache_path(m).read_bytes()
    loaded = tables._load_level(m)
    assert loaded is not None and _same_table(loaded, table)
    tables.levels[m] = loaded
    tables._store_level(m)
    assert tables._cache_path(m).read_bytes() == data


# sha256 of the decompressed cache payloads of two small towers: a change of either
# layout must come with a new TABLE_FORMAT_VERSION or CACHE_FORMAT_VERSION
PAYLOAD_DIGESTS = {
    "p2d21 tables L2": "1a76dbe33f232c376c19d1389ce35309f7c003275631fd8b03097ba8576a98be",
    "peel p2 len3": "78de19081f4b0cc9539abf05fd22c8a3ca21e3cc05333fb3a02ed013c62a05d6",
}


def test_cache_payload_layouts_are_pinned(tmp_path, monkeypatch):
    assert (TABLE_FORMAT_VERSION, CACHE_FORMAT_VERSION) == (3, 3)
    state = TowerState(TowerSpec.make(F2, SUITES["p2d21"]["terms"]), cache_dir=tmp_path)
    tables = CartierTables(state).ensure(2)
    got = {"p2d21 tables L2": read_cache(tables._cache_path(2), tables._header(2))}
    monkeypatch.setattr(witt_mod, "_UNIVERSAL_MEM", {})
    peel_polynomials(2, 3, cache_dir=tmp_path)
    got["peel p2 len3"] = read_cache(tmp_path / "witt_peel_p2_len3.bin", witt_mod._cache_header(2, 3))
    assert {key: hashlib.sha256(data).hexdigest() for key, data in got.items()} == PAYLOAD_DIGESTS

import numpy as np
import pytest

from conftest import restrict, semilinear_image
from oracle import bool_pattern_pivots, kernel_basis, kernels_to_stabilization, random_element
from zptower.gf import InternalConsistencyError, check_float_exact, field, float_mod
import zptower.linalg as linalg
from zptower.linalg import (DenseMatrix, LinAlgError, _pattern, _rank_blocked, _row_basis,
                            _row_entries, _singleton_pivots, kernel_dim, rank,
                            twisted_power_kernels)

F2, F3 = field(2), field(3)


def naive_rank(A, p):
    A = A.astype(np.int64) % p
    r = 0
    rows, cols = A.shape
    for c in range(cols):
        nz = [i for i in range(r, rows) if A[i, c] % p]
        if not nz:
            continue
        A[[r, nz[0]]] = A[[nz[0], r]]
        A[r] = A[r] * pow(int(A[r, c]), p - 2, p) % p
        for i in range(rows):
            if i != r and A[i, c]:
                A[i] = (A[i] - A[i, c] * A[r]) % p
        r += 1
        if r == rows:
            break
    return r


def ext_naive(data, ctx):
    rows, cols = data.shape[:2]
    A = [[ctx.elem(tuple(int(x) for x in data[i, j])) for j in range(cols)]
         for i in range(rows)]
    r = 0
    for c in range(cols):
        nz = [i for i in range(r, rows) if not A[i][c].is_zero()]
        if not nz:
            continue
        A[r], A[nz[0]] = A[nz[0]], A[r]
        inv = A[r][c].inverse()
        A[r] = [v * inv for v in A[r]]
        for i in range(rows):
            if i != r and not A[i][c].is_zero():
                f = A[i][c]
                A[i] = [a - f * b for a, b in zip(A[i], A[r])]
        r += 1
        if r == rows:
            break
    return r


def test_construction_reduces_caller_data():
    assert DenseMatrix(F3, [[-1, 5]]).data.tolist() == [[2, 2]]
    with pytest.raises(LinAlgError):
        DenseMatrix(field(2, 2), np.zeros((2, 3), dtype=np.int64))  # not k x k blocks


@pytest.mark.parametrize("F", [F2, F3, field(13), field(3, 2)], ids=["GF2", "GF3", "GF13", "GF9"])
def test_data_is_an_int64_copy(F, rng):
    A = rng.integers(0, F.p, size=(4 * F.k, 6 * F.k))
    M = DenseMatrix(F, A)
    D = M.data
    assert D.dtype == np.int64 and (D == A).all()
    D += 1  # the copy is the caller's
    assert (M.data == A).all()


@pytest.mark.parametrize("p", [3, 13])
def test_odd_p_matrices_are_int8_residues(p, rng):
    F = field(p)
    A, B = rng.integers(-40, 40, size=(9, 70)), rng.integers(0, p, size=(70, 5))
    M, N = DenseMatrix(F, A), DenseMatrix(F, B)
    P = M @ N
    # one segment per column: int64 pointers, uint16 rows (at most 2^16 of them) and
    # int8 residues, nonzero only
    for X in (M, N, P, DenseMatrix(F, np.zeros((2, 3)))):
        assert (X._a.ptr.dtype, X._a.idx.dtype, X._a.val.dtype) == (np.int64, np.uint16, np.int8)
        assert X._a.val.all() and X._a.ptr[-1] == X._a.idx.size == np.count_nonzero(X.data)
    assert (M.data == A % p).all() and (P.data == (A % p) @ B % p).all()


def test_rank_not_multiple_of_k_is_inconsistent():
    # a GF(2) array of GF(2)-rank 1 is no GF(4)-semilinear map
    with pytest.raises(InternalConsistencyError):
        rank(DenseMatrix(field(2, 2), np.array([[1, 0], [0, 0]])))


def test_kernel_examples():
    assert kernel_dim(DenseMatrix(F3, np.zeros((4, 4)))) == 4
    assert kernel_dim(DenseMatrix(F3, np.eye(5, dtype=np.int64))) == 0
    assert kernel_dim(DenseMatrix(F3, np.array([[1, 2], [2, 1]]))) == 1


def test_twisted_examples():
    J = DenseMatrix(F2, np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
    assert twisted_power_kernels(J, 4) == [1, 2, 3, 3]
    # prime field: twisted product is the plain power
    rng = np.random.default_rng(0)
    M = DenseMatrix(F3, rng.integers(0, 3, size=(6, 6)))
    N = M @ M @ M
    assert twisted_power_kernels(M, 3)[2] == kernel_dim(N)
    with pytest.raises(LinAlgError):
        twisted_power_kernels(DenseMatrix(F2, np.zeros((2, 3))), 2)


def test_no_product_past_the_full_kernel_or_past_R(monkeypatch):
    J = DenseMatrix(F2, np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
    calls, real = [], linalg._matmul
    monkeypatch.setattr(linalg, "_matmul", lambda a, b, p: calls.append(p) or real(a, b, p))
    assert twisted_power_kernels(J, 6) == [1, 2, 3, 3, 3, 3]
    assert len(calls) == 2
    assert twisted_power_kernels(J, 0) == [] and len(calls) == 2


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_rank_matches_naive(p, rng):
    F = field(p)
    for trial in range(25):
        m = int(rng.integers(1, 120))
        n = int(rng.integers(1, 120))
        if trial % 2:
            r = int(rng.integers(1, min(m, n) + 1))
            A = (rng.integers(0, p, size=(m, r)) @ rng.integers(0, p, size=(r, n))) % p
        else:
            A = rng.integers(0, p, size=(m, n))
        got = rank(DenseMatrix(F, A))
        assert got == naive_rank(A.copy(), p)
        assert got + kernel_dim(DenseMatrix(F, A)) - (n - got) == got  # rank + nullity = cols


def test_rank_multi_panel(rng):
    # spans several 256-wide panels with deficiency
    A = (rng.integers(0, 3, size=(700, 300)) @ rng.integers(0, 3, size=(300, 650))) % 3
    assert rank(DenseMatrix(F3, A)) == naive_rank(A.copy(), 3)
    B = rng.integers(0, 2, size=(513, 700))
    assert rank(DenseMatrix(F2, B)) == naive_rank(B.copy(), 2)
    # the first column of the second sub-panel repeats column 5 and holds no
    # pivot; the columns on either side of it do
    C = rng.integers(0, 3, size=(90, 100))
    C[:, linalg._SUB] = C[:, 5]
    assert _rank_blocked(C.astype(np.int8), 3)[0] == naive_rank(C.copy(), 3) == 90


# GF(2) shapes around the packed words of products: no rows, no columns, one
# partial word, whole words and words plus a few columns
@pytest.mark.parametrize("shape", [(0, 0), (0, 70), (70, 0), (9, 1), (70, 63), (70, 64),
                                   (9, 65), (131, 130)])
def test_gf2_packed_shapes(shape, rng):
    m, n = shape
    for A in (rng.integers(0, 2, size=shape),
              rng.integers(0, 2, size=(m, 3)) @ rng.integers(0, 2, size=(3, n)) % 2):
        M = DenseMatrix(F2, A)
        assert (M.rows, M.cols) == shape and M.data.shape == shape
        assert (M.data == A).all()
        assert rank(M) == naive_rank(A.copy(), 2)
        P = M @ DenseMatrix(F2, np.eye(n, dtype=np.int64))  # packed factors and result
        assert (P.rows, P.cols) == shape and (P.data == A).all() and rank(P) == rank(M)
    Z = DenseMatrix(F2, np.zeros(shape))
    assert (Z.rows, Z.cols) == shape and Z.data.shape == shape
    assert not Z.data.any() and rank(Z) == 0


def test_gf2_packed_words_belong_to_products(monkeypatch, rng):
    # a GF(2) leftover of the singleton pass is eliminated dense, as at odd p:
    # with _packed raising, the rank and pivot rows of caller data that leaves
    # one still hold, and the power loop packs M once, for its products
    real = linalg._packed

    def refuse(*args):
        raise AssertionError("packed words outside a product")
    monkeypatch.setattr(linalg, "_packed", refuse)
    low = rng.integers(0, 2, size=(131, 3)) @ rng.integers(0, 2, size=(3, 130)) % 2
    for A in (rng.integers(0, 2, size=(70, 65)), low):
        M = DenseMatrix(F2, A)
        assert _singleton_pivots(M._a)[1].size  # the pass leaves a leftover
        assert rank(M) == naive_rank(A.copy(), 2)
        check_row_basis(M)
    calls = []
    monkeypatch.setattr(linalg, "_packed", lambda A, *rest: calls.append(A) or real(A, *rest))
    U = np.triu(rng.integers(0, 2, size=(40, 40)), 1)  # nilpotent, so r = 2..4 take products
    M = DenseMatrix(F2, U)
    want = [40 - naive_rank(np.linalg.matrix_power(U, r) % 2, 2) for r in range(1, 5)]
    assert twisted_power_kernels(M, 4) == want
    assert len(calls) == 1 and calls[0] is M._a


def test_kernel_basis(rng):
    M = DenseMatrix(F3, rng.integers(0, 3, size=(10, 14)))
    vecs = kernel_basis(M)
    assert len(vecs) == kernel_dim(M)
    for v in vecs:
        assert not ((M.data @ v) % 3).any()
    F4 = field(2, 2)
    M4 = restrict(F4, rng.integers(0, 2, size=(7, 9, 2)))
    vecs4 = kernel_basis(M4)
    assert len(vecs4) == 2 * kernel_dim(M4)
    for v in vecs4:
        assert not ((M4.data @ v) % 2).any()


def test_extension_field_rank(rng):
    F4 = field(2, 2)
    data = rng.integers(0, 2, size=(12, 9, 2))
    assert rank(restrict(F4, data)) == ext_naive(data, F4)


def test_matmul_composes_semilinear_maps(rng):
    # (A @ B) c = A sigma^-1(B sigma^-1(c)), checked with field arithmetic
    F4 = field(2, 2)
    a, b = rng.integers(0, 2, size=(5, 4, 2)), rng.integers(0, 2, size=(4, 3, 2))
    C = restrict(F4, a) @ restrict(F4, b)
    assert (C.rows, C.cols) == (5, 3)
    for _ in range(6):
        c = [random_element(F4, rng) for _ in range(3)]
        got = C.data @ np.array([e.coeffs for e in c]).ravel() % 2
        want = semilinear_image(F4, a, semilinear_image(F4, b, c))
        assert got.tolist() == [v for e in want for v in e.coeffs]


def test_odd_p_product_checks_float_exactness(monkeypatch):
    # an odd-p product runs the exactness guard that _slab's x-convolution runs
    def refuse(inner, p):
        raise InternalConsistencyError(f"inner dimension {inner} refused")
    monkeypatch.setattr(linalg, "check_float_exact", refuse)
    M = DenseMatrix(F3, np.eye(3, dtype=np.int64))
    with pytest.raises(InternalConsistencyError):
        M @ M


def test_twisted_power_uses_sigma_inverse():
    # M = [[t, 1], [t^2, t]] over GF(4): M^2 = 0, but M sigma^-1(M) = [[t^2, 1], [1, t]]
    # has rank 1, so the twisted kernels stay at 1 where the plain ones reach 2
    F4 = field(2, 2)
    t, t2 = (0, 1), (1, 1)
    M = restrict(F4, [[t, (1, 0)], [t2, t]])
    assert twisted_power_kernels(M, 3) == [1, 1, 1]


def test_kernel_filtration_properties(rng):
    for F, shape in [(F2, (12, 12)), (F3, (9, 9)), (field(2, 2), (7, 7))]:
        M = restrict(F, rng.integers(0, F.p, size=shape + (F.k,)))
        dims = twisted_power_kernels(M, 8)
        assert all(a <= b for a, b in zip(dims, dims[1:]))
        incs = [b - a for a, b in zip([0] + dims, dims)]
        assert all(a >= b for a, b in zip(incs, incs[1:]))


@pytest.mark.parametrize("seq", [[2, 1], [1, 3, 6]], ids=["decreasing", "convex"])
def test_twisted_kernel_invariants_checked(seq, monkeypatch):
    # the fake elimination reports kernel dimensions seq and every row as a pivot row
    fake = iter(seq)
    monkeypatch.setattr(linalg, "_row_basis",
                        lambda N: (N.cols - next(fake), np.arange(N.rows * N.ctx.k)))
    with pytest.raises(InternalConsistencyError):
        twisted_power_kernels(DenseMatrix(F3, np.zeros((8, 8))), len(seq))


def test_kernels_to_stabilization():
    J = DenseMatrix(F2, np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
    dims = kernels_to_stabilization(J)
    assert dims[-1] == dims[-2] == 3
    Z = DenseMatrix(F3, np.zeros((3, 3)))
    assert kernels_to_stabilization(Z)[-1] == 3
    P = DenseMatrix(F3, np.array([[0, 1], [2, 0]]))  # invertible: every power too
    assert kernels_to_stabilization(P) == [0, 0]


def test_empty_matrix():
    assert kernel_dim(DenseMatrix(F2, np.zeros((0, 0)))) == 0


# -- the zero-fill singleton pass in front of the dense kernels ---------------

def pattern_pivots(nz):
    """_singleton_pivots on the segments of a bool pattern."""
    return _singleton_pivots(DenseMatrix(F3, np.asarray(nz, dtype=np.int64))._a)


def random_shifted(rng, F, rows, cols, density):
    """A random rows x cols DenseMatrix.shifted over F (random_segments)."""
    return DenseMatrix.shifted(F, rows, cols, *random_segments(rng, F, rows, cols, density))


def random_segments(rng, F, rows, cols, density):
    """The arguments (segments, first, count, step) of a random rows x cols
    DenseMatrix.shifted over F: the GF(p) columns of each class mod P k, P
    random, go in runs, each run one segment of random cells (about `density`
    of the rows it may start at) moved down k rows per column."""
    k, P = F.k, int(rng.integers(1, 5))
    segments, first, count = [], [], []
    for c in range(min(P * k, cols * k)):
        js = np.arange(c, cols * k, P * k)
        while js.size:
            q = int(rng.integers(1, min(js.size, max(rows, 1)) + 1))
            r = np.flatnonzero(rng.random(rows * k - (q - 1) * k) < density)
            segments.append((r, rng.integers(1, F.p, size=r.size).astype(np.int8)))
            first.append(int(js[0]))
            count.append(q)
            js = js[q:]
    return segments, first, count, P * k


def segments_dense(F, rows, cols, segments, first, count, step):
    """The GF(p) matrix of DenseMatrix.shifted's arguments, cell by cell from
    their definition: column first[s] + t step is segment s moved down t k
    rows."""
    D = np.zeros((F.k * rows, F.k * cols), dtype=np.int64)
    for (r, v), f, q in zip(segments, first, count):
        for t in range(q):
            D[r + t * F.k, f + t * step] = v
    return D


# strips of the default size, of one entry and of seven entries
@pytest.mark.parametrize("strip", [linalg._STRIP, 1, 7])
@pytest.mark.parametrize("F", [F2, F3, field(2, 2), field(3, 2)], ids=["gf2", "gf3", "gf4", "gf9"])
def test_dense_reads_match_the_segment_definition(F, strip, rng, monkeypatch):
    # every dense read of segments is _gather, strip by strip: .data, and the
    # packed words of a random subset of rows and columns, unpacked, against
    # the matrix built here from the segments' definition, so an entry lost or
    # misplaced at a strip boundary shows
    monkeypatch.setattr(linalg, "_STRIP", strip)
    for _ in range(8):
        rows, cols = (int(v) for v in rng.integers(1, 60, size=2))
        args = random_segments(rng, F, rows, cols, float(rng.uniform(0.05, 0.5)))
        M, D = DenseMatrix.shifted(F, rows, cols, *args), segments_dense(F, rows, cols, *args)
        assert np.array_equal(M.data, D)
        r = rng.permutation(D.shape[0])[:int(rng.integers(0, D.shape[0] + 1))]
        c = rng.permutation(D.shape[1])[:int(rng.integers(0, D.shape[1] + 1))]
        words = linalg._packed(M._a, r, c)
        assert words.shape == (r.size, -(-c.size // 64))
        bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
        # the nonzero pattern, which over GF(2) is the matrix; padding bits are 0
        assert np.array_equal(bits[:, :c.size], D[r][:, c] != 0) and not bits[:, c.size:].any()


def check_pattern(M):
    """_pattern, the row entries of its cells by row, the column entries and
    _singleton_pivots of M's segments agree with the bool pattern of M.data."""
    A = M._a
    (ci, rdeg, rsum, cr, cdeg, csum), want = bool_pattern_pivots(M.data != 0)
    got = _pattern(A)
    assert all(np.array_equal(a, b) for a, b in zip(got[:4], (rdeg, rsum, cdeg, csum)))
    owner, cols = _row_entries(A, got[4], np.arange(A.m))
    order = np.lexsort((cols, owner))
    assert np.array_equal(owner[order], np.repeat(np.arange(A.m), rdeg))
    assert np.array_equal(cols[order], ci)
    lens, rows, pos = linalg._column_entries(A, np.arange(A.seg.size))
    j = np.repeat(np.arange(A.seg.size), lens)
    assert np.array_equal(rows[np.lexsort((rows, j))], cr)
    assert np.array_equal(A.val[pos], M.data.T[M.data.T != 0])  # column by column, rows ascending
    assert all(np.array_equal(a, b) for a, b in zip(_singleton_pivots(A), want))


# strips of the default size, of one cell and of seven cells
@pytest.mark.parametrize("strip", [linalg._STRIP, 1, 7])
@pytest.mark.parametrize("p", [2, 3, 13])
def test_streamed_pattern_matches_bool_pattern(p, strip, rng, monkeypatch):
    monkeypatch.setattr(linalg, "_STRIP", strip)
    shared = left = 0
    for F in (field(p), field(p, 2)):
        for _ in range(20):
            rows, cols = (int(v) for v in rng.integers(1, 40, size=2))
            M = random_shifted(rng, F, rows, cols, float(rng.uniform(0.02, 0.3)))
            shared += M._a.count.max() > 1  # columns that share a segment
            check_pattern(M)
            # the rank of segments with the leftover's: the GF(2) Cartier
            # matrices leave none, these often do; over GF(p^2) the random
            # segments need not be semilinear, so the GF(p) rank is checked
            _, lrows, lcols = _singleton_pivots(M._a)
            left += lrows.size > 0 and lcols.size > 0
            r, prows = linalg._rank_segs(M._a, p)
            D = M.data
            assert r == naive_rank(D, p) == naive_rank(D[prows], p) == np.unique(prows).size
            assert F.k > 1 or rank(M) == r
            # the same pattern from caller data: one segment per column
            A = sparse_entries(rng, F, (rows * F.k, cols * F.k), float(rng.uniform(0.02, 0.3)))
            A = A if F.k == 1 else A[..., 0]
            A[rng.random(A.shape[0]) < 0.2] = 0  # empty rows
            A[:, rng.random(A.shape[1]) < 0.2] = 0  # empty columns
            check_pattern(DenseMatrix(F, A))
        assert (M._a.idx.dtype, _pattern(M._a)[4][2].dtype) == (np.uint16,) * 2  # m, n <= 2^16
    assert shared > 20 and left > 5


# -- index widths: uint16 up to 2^16 lines, int32 past that ------------------

@pytest.mark.parametrize("m", [1 << 16, (1 << 16) + 1])
@pytest.mark.parametrize("tall", [True, False], ids=["rows", "cols"])
def test_index_width_boundary(m, tall, rng):
    # a GF(3) matrix with m rows (or columns) and a few entries, some on the
    # last line, whose index 2^16 would wrap to 0 in 16 bits
    A = np.zeros((m, 6), dtype=np.int64)
    A[rng.integers(0, m, size=12), rng.integers(0, 6, size=12)] = rng.integers(1, 3, size=12)
    A[m - 1, [1, 4]], A[m - 2, 4], A[0, 2] = [2, 1], 1, 1
    if not tall:
        A = A.T.copy()
    M = DenseMatrix(F3, A)
    width = np.uint16 if m <= 1 << 16 else np.int32
    Qs, _, cols = _pattern(M._a)[4]  # sparse rows: one segment per column
    assert Qs.tolist() == [1] and (M._a.idx.dtype, cols.dtype) == \
        ((width, np.uint16) if tall else (np.uint16, width))
    assert max(int(M._a.idx.max()), int(cols.max())) == m - 1
    assert np.array_equal(M.data, A)
    assert rank(M) == naive_rank(A.copy(), 3)
    check_pattern(M)
    # products with m rows, m columns and inner dimension m
    left, right = rng.integers(0, 3, size=(3, A.shape[0])), rng.integers(0, 3, size=(A.shape[1], 3))
    for P, want in [(DenseMatrix(F3, left) @ M, left @ A % 3),
                    (M @ DenseMatrix(F3, right), A @ right % 3)]:
        assert P._a.idx.dtype == linalg._ix(P._a.m) and np.array_equal(P.data, want)


def test_row_pointers_past_2_16_cells(rng):
    # 90000 nonzeros, one cell each: the row pointers of _pattern take int32
    M = DenseMatrix(F3, rng.integers(1, 3, size=(300, 300)))
    assert _pattern(M._a)[4][1].dtype == np.int32
    check_pattern(M)


def test_narrowing_an_out_of_range_index_raises():
    assert linalg._narrow(np.array([0, 65535]), 1 << 16).dtype == np.uint16
    assert linalg._narrow(np.array([65536]), (1 << 16) + 1).dtype == np.int32
    for bad, m in [([65536], 1 << 16), ([-1], 5), ([5], 5)]:
        with pytest.raises(InternalConsistencyError):
            linalg._narrow(np.array(bad), m)
    # the segment constructor narrows the rows it moves: row 65535 moved down
    # one is 65536
    one = [(np.array([65535]), np.array([1], dtype=np.int8))]
    with pytest.raises(InternalConsistencyError):
        DenseMatrix.shifted(F3, 1 << 16, 2, one, [0], [2], 1)
    assert DenseMatrix.shifted(F3, 1 << 16, 2, one * 2, [0, 1], [1, 1], 0).data[65535].tolist() == [1, 1]
    # and every column is made by exactly one segment
    for first, count in [([0], [1]), ([0, 1], [2, 1]), ([0, 2], [1, 1])]:
        with pytest.raises(InternalConsistencyError):
            DenseMatrix.shifted(F3, 1 << 16, 2, one * len(first), first, count, 1)


def check_rank(data, F):
    """rank agrees with the naive eliminations and leaves the matrix unchanged."""
    M = restrict(F, data.reshape(data.shape[:2] + (F.k,)))
    before = M.data.copy()
    got = rank(M)
    assert (M.data == before).all()
    assert got == (naive_rank(data.copy(), F.p) if F.k == 1 else ext_naive(data, F))
    return got


def sparse_entries(rng, F, shape, density):
    """Random matrix data over F with about `density` of its entries nonzero."""
    vals = rng.integers(0, F.p, size=shape + (F.k,))
    vals[..., 0] = np.where(vals.any(axis=-1), vals[..., 0], 1)  # every value nonzero
    mask = rng.random(shape) < density
    data = np.where(mask[..., None], vals, 0)
    return data[..., 0] if F.k == 1 else data


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (13, 1), (3, 2)])
def test_singleton_pass_matches_naive(p, k, rng):
    F = field(p, k)
    trials, top = (40, 40) if k == 1 else (12, 16)
    pivots = 0
    for _ in range(trials):
        m, n = (int(v) for v in rng.integers(2, top, size=2))
        A = sparse_entries(rng, F, (m, n), float(rng.uniform(0.05, 0.4)))
        # plant singleton columns and rows: clear all but one entry of each
        for c in rng.choice(n, size=int(rng.integers(0, n // 2 + 1)), replace=False):
            keep = int(rng.integers(m))
            A[np.arange(m) != keep, c] = 0
        for r in rng.choice(m, size=int(rng.integers(0, m // 2 + 1)), replace=False):
            keep = int(rng.integers(n))
            A[r, np.arange(n) != keep] = 0
        pivots += pattern_pivots(A.any(axis=-1) if k > 1 else A != 0)[0].size
        check_rank(A, F)
    assert pivots > trials  # the pass did the work, not only the dense kernel


@pytest.mark.parametrize("F", [F3, field(5), field(3, 2)], ids=["GF3", "GF5", "GF9"])
def test_singleton_pass_all_zero(F):
    for shape in [(1, 1), (4, 7), (9, 3)]:
        assert rank(DenseMatrix(F, np.zeros((F.k * shape[0], F.k * shape[1])))) == 0
        prows, rows, cols = pattern_pivots(np.zeros(shape, dtype=bool))
        assert prows.size == rows.size == cols.size == 0


def test_singleton_pass_resolves_everything(rng):
    # a permuted triangular matrix with a nonzero diagonal is all singleton pivots
    n = 60
    T = np.triu(rng.integers(0, 5, size=(n, n)), 1) + np.diag(rng.integers(1, 5, size=n))
    A = T[rng.permutation(n)][:, rng.permutation(n)]
    prows, rows, cols = pattern_pivots(A != 0)
    assert prows.size == n and rows.size == 0 and cols.size == 0
    assert check_rank(A, field(5)) == n


def test_singleton_columns_sharing_one_row(rng):
    # columns 0..4 are singletons in row 0; only one of them may pivot
    A = np.zeros((8, 12), dtype=np.int64)
    A[0, :5] = [1, 2, 1, 2, 1]
    A[1:, 5:] = rng.integers(0, 3, size=(7, 7))
    A[0, 8] = 2
    _, rows, cols = pattern_pivots(A != 0)
    assert 0 not in rows and not set(range(5)) & set(cols)
    assert check_rank(A, F3) == 1 + naive_rank(A[1:, 5:].copy(), 3)
    assert check_rank(A[:, :5], F3) == 1
    # the transpose: rows 0..4 are singletons in column 0, which has no other way out
    _, rows, cols = pattern_pivots((A != 0).T)
    assert 0 not in cols and not set(range(5)) & set(rows)
    assert check_rank(A.T.copy(), F3) == check_rank(A, F3)


def test_singleton_row_meets_singleton_column(rng):
    # entry (3, 2) is alone in its row and in its column
    A = rng.integers(1, 13, size=(7, 6))
    A[3, :] = 0
    A[:, 2] = 0
    A[3, 2] = 5
    assert check_rank(A, field(13)) == 1 + naive_rank(np.delete(np.delete(A, 3, 0), 2, 1), 13)
    one = np.array([[4]])
    assert pattern_pivots(one != 0)[0].size == 1 and check_rank(one, field(13)) == 1


@pytest.mark.parametrize("F", [F2, F3, field(13), field(2, 2), field(3, 2)],
                         ids=["GF2", "GF3", "GF13", "GF4", "GF9"])
def test_singleton_pass_thin_shapes(F, rng):
    for n in (1, 2, 9):
        for shape in [(1, n), (n, 1)]:
            A = sparse_entries(rng, F, shape, 0.5)
            check_rank(A, F)
            A = sparse_entries(rng, F, shape, 1.0)
            assert check_rank(A, F) == 1


def test_singleton_pass_on_cartier_matrix():
    from zptower.cartier import cartier_matrix
    from zptower.tower import TowerSpec, TowerState
    M = cartier_matrix(TowerState(TowerSpec.make(F3, [(0, 1, 7)])), 3).matrix
    prows, rows, cols = _singleton_pivots(M._a)
    assert prows.size > 0 and rows.size < M.rows and cols.size < M.cols
    before = M.data.copy()
    assert rank(M) == _rank_blocked(M.data, 3)[0] == M.cols - 214
    assert (M.data == before).all()


# -- GF(2) products on bit-packed rows ------------------------------------------

def check_gf2_product(A, B):
    C = DenseMatrix(F2, A) @ DenseMatrix(F2, B)
    assert C.data.shape == (A.shape[0], B.shape[1])
    assert (C.data == (A.astype(np.int64) @ B) % 2).all()


# inner dimensions around the 8-row groups and the 64-bit words; a short last
# group after full ones catches stale rows of the reused XOR table
@pytest.mark.parametrize("inner", [0, 1, 7, 8, 9, 63, 64, 65, 130, 257])
def test_gf2_product_matches_integer_product(inner, rng):
    for m, n in [(1, 1), (5, 70), (67, 3), (130, 129), (64, 200), (0, 65), (65, 0)]:
        a, b = rng.integers(0, 2, size=(m, inner)), rng.integers(0, 2, size=(inner, n))
        check_gf2_product(a, b)
        # b upper triangular, so its row groups start in ever later words, and
        # b with all-zero row groups
        check_gf2_product(a, np.triu(b, int(rng.integers(-9, 70))))
        b[np.arange(inner) // 8 % 3 == 1] = 0
        check_gf2_product(a, b)


@pytest.mark.parametrize("a,b", [(0, 0), (1, 1), (0, 1), (1, 0)])
def test_gf2_product_constant_matrices(a, b):
    for m, inner, n in [(3, 65, 130), (70, 9, 1), (64, 257, 64), (1, 8, 63)]:
        check_gf2_product(np.full((m, inner), a), np.full((inner, n), b))


def test_gf2_twisted_powers_match_integer_powers(rng):
    M = (rng.random((203, 203)) < 0.012).astype(np.int64)
    dims, P = [], M
    for _ in range(4):
        dims.append(kernel_dim(DenseMatrix(F2, P)))
        P = (P @ M) % 2
    assert dims[0] < dims[-1] < M.shape[0]  # the powers lose rank, so the products matter
    assert twisted_power_kernels(DenseMatrix(F2, M), 4) == dims


def test_odd_p_product_is_chunked(monkeypatch, rng):
    # With _GEMM_CHUNK = 2^16 the p3d7 level-3 product M @ M (g = 624) converts b
    # in column blocks and a in row chunks of at most 2^16 float32 elements
    # (256 KB); a float64 copy of the whole right factor alone would take 3.1 MB.
    import tracemalloc
    from zptower.cartier import cartier_matrix
    from zptower.fixtures import SUITES
    from zptower.tower import TowerSpec, TowerState
    state = TowerState(TowerSpec.make(F3, SUITES["p3d7"]["terms"]))
    M = cartier_matrix(state, 3).matrix
    monkeypatch.setattr(linalg, "_GEMM_CHUNK", 1 << 16)
    tracemalloc.start()
    try:
        P = M @ M
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    D = M.data
    assert np.array_equal(P.data, D @ D % 3)
    assert peak < 2_500_000, peak
    # dense factors (no zero rows to skip) and shapes that leave short last blocks
    for m, inner, n in [(70, 300, 5), (3, 257, 400), (0, 10, 4)]:
        a, b = rng.integers(0, 5, size=(m, inner)), rng.integers(0, 5, size=(inner, n))
        got = (DenseMatrix(field(5), a) @ DenseMatrix(field(5), b)).data
        assert np.array_equal(got, a @ b % 5)


# -- row bases: the pivot rows behind the twisted powers -----------------------

FIELDS = [F2, F3, field(2, 2), field(3, 2)]
FIELD_IDS = ["GF2", "GF3", "GF4", "GF9"]


def random_matrix(rng, F, m, n, density=1.0):
    """sparse_entries as (m, n, k) coefficient vectors, the input of restrict."""
    return sparse_entries(rng, F, (m, n), density).reshape(m, n, F.k)


def unit_triangular(rng, F, n, density):
    """An invertible upper triangular n x n matrix over F: ones on the diagonal."""
    data = random_matrix(rng, F, n, n, density) * np.triu(np.ones((n, n), dtype=int), 1)[..., None]
    data[np.arange(n), np.arange(n), 0] = 1
    return data


def check_row_basis(M):
    """_row_basis reports k * rank distinct rows, and they have that GF(p) rank."""
    rho, rows = _row_basis(M)
    k, p = M.ctx.k, M.ctx.p
    D = M.data
    assert rho * k == naive_rank(D.copy(), p)
    assert rows.size == len(set(rows.tolist())) == rho * k
    assert naive_rank(D[rows], p) == rho * k
    return rho


@pytest.mark.parametrize("F", FIELDS, ids=FIELD_IDS)
def test_row_basis_pivot_rows(F, rng):
    for shape in [(1, 9), (9, 1), (2, 40), (40, 2)]:  # thin
        check_row_basis(restrict(F, random_matrix(rng, F, *shape)))
        check_row_basis(restrict(F, random_matrix(rng, F, *shape, density=0.2)))
    assert check_row_basis(DenseMatrix(F, np.zeros((5 * F.k, 7 * F.k)))) == 0
    n = 30
    perm = rng.permutation(n), rng.permutation(n)
    # singleton pivots only: a permuted sparse triangular matrix
    T = restrict(F, unit_triangular(rng, F, n, 0.1)[perm[0]][:, perm[1]])
    assert check_row_basis(T) == n
    # full rank and dense: a product of a lower and an upper triangular matrix
    L = restrict(F, unit_triangular(rng, F, n, 1.0).transpose(1, 0, 2))
    U = restrict(F, unit_triangular(rng, F, n, 1.0))
    assert check_row_basis(L @ U) == n
    # rank deficient, dense and sparse
    for r, density in [(7, 1.0), (12, 0.3)]:
        A = restrict(F, random_matrix(rng, F, 45, r, density))
        B = restrict(F, random_matrix(rng, F, r, 38, density))
        assert check_row_basis(A @ B) <= r


@pytest.mark.parametrize("p", [3, 13])
def test_rank_blocked_pivot_rows_across_sub_panels(p, rng, monkeypatch):
    # narrow panels and sub-panels, so that boundaries fall between pivots and
    # next to dependent (pivot-free) columns
    for panel, sub in [(8, 3), (12, 4), (5, 5)]:
        monkeypatch.setattr(linalg, "_PANEL", panel)
        monkeypatch.setattr(linalg, "_SUB", sub)
        for _ in range(8):
            m, n, r = (int(v) for v in rng.integers(1, 40, size=3))
            A = rng.integers(0, p, size=(m, r)) @ rng.integers(0, p, size=(r, n)) % p
            for c in rng.choice(n, size=n // 3, replace=False):  # dependent columns
                A[:, c] = A[:, int(rng.integers(n))] * int(rng.integers(p)) % p
            got, rows = _rank_blocked(A.astype(np.int8), p)
            assert got == naive_rank(A.copy(), p)
            assert rows.size == len(set(rows.tolist())) == got
            assert naive_rank(A[rows], p) == got


def block_triangular(rng, F, sizes, density):
    """A block upper triangular matrix over F with diagonal blocks of the given
    sizes, each with at most one nonzero per column (like the Cartier
    matrices), and random entries above the blocks."""
    n = sum(sizes)
    block = np.repeat(np.arange(len(sizes)), sizes)
    data = random_matrix(rng, F, n, n, density) * (block[:, None] < block[None, :])[..., None]
    for c in range(n):
        rows = np.flatnonzero(block == block[c])
        if rng.random() < 0.7:
            data[rng.choice(rows), c] = random_matrix(rng, F, 1, 1)[0, 0]
    return data


@pytest.mark.parametrize("F", FIELDS, ids=FIELD_IDS)
def test_twisted_powers_match_full_powers(F, rng):
    for data in (block_triangular(rng, F, [9, 14, 6, 20, 11], 0.15),
                 random_matrix(rng, F, 60, 60, 0.03)):
        M = restrict(F, data)
        dims, P = [], M
        for _ in range(6):
            dims.append(kernel_dim(P))
            P = P @ M
        assert dims[0] < dims[-1]  # the powers lose rank, so the products matter
        assert twisted_power_kernels(M, 6) == dims


def test_gf2_product_and_rank_of_block_triangular_factors(rng):
    # row counts that are not multiples of 8 leave a short last group of 8
    # rows in the product's XOR tables and of 8 columns in the rank's, and
    # blocks starting past column 64 give both kernels groups whose first
    # live word is past 0
    for sizes in ([70, 45, 90, 13], [5, 66, 101, 3]):
        A, B = (block_triangular(rng, F2, sizes, 0.1)[..., 0] for _ in range(2))
        P = DenseMatrix(F2, A) @ DenseMatrix(F2, B)
        want = A.astype(np.int64) @ B % 2
        assert P._a.dtype == np.uint64  # packed words, so the rank is M4RI's
        assert (P.data == want).all()
        assert 0 < rank(P) == naive_rank(want.copy(), 2) < sum(sizes)
        check_row_basis(P)


@pytest.mark.parametrize("name,p,level", [("p2d21", 2, 4), ("p3d5", 3, 3)])
def test_powers_multiply_the_previous_row_basis(name, p, level, monkeypatch):
    # each product multiplies only the pivot rows of the previous power: as
    # many rows as its GF(p) rank
    from zptower.cartier import cartier_matrix
    from zptower.fixtures import SUITES
    from zptower.tower import TowerSpec, TowerState
    suite = SUITES[name]
    M = cartier_matrix(TowerState(TowerSpec.make(field(p), suite["terms"])), level).matrix
    rows, real = [], linalg._matmul
    monkeypatch.setattr(linalg, "_matmul", lambda a, b, p: rows.append(a.shape[0]) or real(a, b, p))
    dims = twisted_power_kernels(M, 3)
    assert dims == [suite["a"][r][level - 1] for r in (1, 2, 3)]
    assert rows == [M.cols - d for d in dims[:2]]


# -- an odd-p Cartier matrix far denser than the fixtures' ----------------------

@pytest.fixture(scope="module")
def dense_p3():
    # perfbench's p3d7 tower at seed 1: about 12 % dense at level 3, against
    # 0.9 % for the fixture tower
    from zptower.cartier import cartier_matrix
    from zptower.tower import TowerSpec, TowerState
    state = TowerState(TowerSpec.make(F3, [(0, 1, 7), (0, 1, 5), (0, 1, 2)]))
    M = cartier_matrix(state, 3).matrix
    return state, M, M.data


def test_dense_cartier_columns_match_cartier_apply(dense_p3):
    from oracle import cartier_apply, differential_basis, to_sparse
    from zptower._slab import Slab
    state, M, D = dense_p3
    basis = differential_basis(state, 3)
    assert D.shape == (len(basis), len(basis)) and np.count_nonzero(D) > 0.1 * D.size
    index = {mono: i for i, mono in enumerate(basis)}
    for col, mono in enumerate(basis):
        want = np.zeros(len(basis), dtype=np.int64)
        for term, c in to_sparse(cartier_apply(Slab.monomial(F3, mono), state)).terms.items():
            want[index[term]] = c.coeffs[0]
        assert np.array_equal(D[:, col], want), mono


def test_dense_cartier_powers_match_integer_powers(dense_p3):
    _, M, D = dense_p3
    dims, P = [], D
    for _ in range(4):
        dims.append(M.cols - naive_rank(P, 3))
        P = P @ D % 3
    assert dims[0] < dims[-1] < M.cols
    assert twisted_power_kernels(M, 4) == dims


def test_elimination_checks_float_exactness(monkeypatch, rng):
    # the dense elimination of the leftover runs the exactness guard of the products
    A = rng.integers(0, 3, size=(40, 40))
    M = DenseMatrix(F3, A)
    assert _singleton_pivots(M._a)[1].size and rank(M) == naive_rank(A, 3)

    def refuse(inner, p):
        raise InternalConsistencyError(f"inner dimension {inner} refused")
    monkeypatch.setattr(linalg, "check_float_exact", refuse)
    with pytest.raises(InternalConsistencyError):
        rank(M)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_float_mod_matches_integer_remainder(p, rng):
    # exact over -2^e + p <= x < 2^e, beyond every sum that check_float_exact
    # admits; _slab._xconv's largest sums, inner (p-1)^2 at the largest inner
    # of each float type, and those just below them are among the cases
    sq = (p - 1) ** 2
    for dt, top in [(np.float32, 1 << 24), (np.float64, 1 << 53)]:
        inner = -(-top // sq) - 1
        assert check_float_exact(inner, p) is dt  # the largest; see test_xconv_exactness_bound
        x = np.concatenate((rng.integers(p - top, top, size=5000), np.arange(-3 * p, 3 * p),
                            [top - 1, p - top, top - p], (top // p - np.arange(3)) * p,
                            (np.arange(3) - (top - p) // p) * p, inner * sq - np.arange(2 * p)))
        got = float_mod(x.astype(dt), p)
        assert got.dtype == dt and np.array_equal(got.astype(np.int64), x % p)


def test_elimination_holds_int8_and_one_panel(rng):
    # the leftover is eliminated in place, with no float64 copy (8 m n bytes):
    # its temporaries, the float32 panel or its multipliers, one block and the
    # block's int64 residues, stay below m n bytes plus 16 bytes an entry of
    # one m x _PANEL panel
    import tracemalloc
    m, n, k = 600, 1500, 500
    X = np.vstack((np.eye(k), rng.integers(0, 3, size=(m - k, k))))
    Y = np.hstack((np.eye(k), rng.integers(0, 3, size=(k, n - k))))
    A = (X @ Y % 3).astype(np.int8)[rng.permutation(m)][:, rng.permutation(n)]  # rank k
    tracemalloc.start()
    try:
        r, rows = _rank_blocked(A, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r == k and np.unique(rows).size == k
    bound = A.nbytes + 16 * m * linalg._PANEL
    assert peak < bound < 8 * m * n, (peak, bound)

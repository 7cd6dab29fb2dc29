import numpy as np
import pytest

from conftest import restrict, semilinear_image
from zptower.gf import InternalConsistencyError, field
from zptower.linalg import (DenseMatrix, LinAlgError, _rank_blocked, _singleton_pivots,
                            kernel_basis, kernel_dim, kernels_to_stabilization, rank,
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


def test_rank_not_multiple_of_k_is_inconsistent():
    # a GF(2) array of GF(2)-rank 1 is no GF(4)-semilinear map
    with pytest.raises(InternalConsistencyError):
        rank(DenseMatrix(field(2, 2), np.array([[1, 0], [0, 0]])))


def test_kernel_examples():
    assert kernel_dim(DenseMatrix.zeros(F3, 4, 4)) == 4
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
        twisted_power_kernels(DenseMatrix.zeros(F2, 2, 3), 2)


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


# packed GF(2) rows: no rows, no columns, one partial word, whole words and
# words plus a few columns
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
    Z = DenseMatrix.zeros(F2, m, n)
    assert (Z.rows, Z.cols) == shape and Z.data.shape == shape
    assert not Z.data.any() and rank(Z) == 0


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
        c = [F4.random_element(rng) for _ in range(3)]
        got = C.data @ np.array([e.coeffs for e in c]).ravel() % 2
        want = semilinear_image(F4, a, semilinear_image(F4, b, c))
        assert got.tolist() == [v for e in want for v in e.coeffs]


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
    import zptower.linalg as linalg
    fake = iter(seq)
    monkeypatch.setattr(linalg, "kernel_dim", lambda N: next(fake))
    with pytest.raises(InternalConsistencyError):
        twisted_power_kernels(DenseMatrix.zeros(F3, 8, 8), len(seq))


def test_kernels_to_stabilization():
    J = DenseMatrix(F2, np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
    dims = kernels_to_stabilization(J)
    assert dims[-1] == dims[-2] == 3
    Z = DenseMatrix.zeros(F3, 3, 3)
    assert kernels_to_stabilization(Z)[-1] == 3
    P = DenseMatrix(F3, np.array([[0, 1], [2, 0]]))  # invertible: every power too
    assert kernels_to_stabilization(P) == [0, 0]


def test_empty_matrix():
    assert kernel_dim(DenseMatrix.zeros(F2, 0, 0)) == 0


# -- the zero-fill singleton pass in front of the dense kernels ---------------

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
        pivots += _singleton_pivots(A.any(axis=-1) if k > 1 else A != 0)[0]
        check_rank(A, F)
    assert pivots > trials  # the pass did the work, not only the dense kernel


@pytest.mark.parametrize("F", [F3, field(5), field(3, 2)], ids=["GF3", "GF5", "GF9"])
def test_singleton_pass_all_zero(F):
    for shape in [(1, 1), (4, 7), (9, 3)]:
        assert rank(DenseMatrix.zeros(F, *shape)) == 0
        npiv, rows, cols = _singleton_pivots(np.zeros(shape, dtype=bool))
        assert npiv == 0 and rows.size == 0 and cols.size == 0


def test_singleton_pass_resolves_everything(rng):
    # a permuted triangular matrix with a nonzero diagonal is all singleton pivots
    n = 60
    T = np.triu(rng.integers(0, 5, size=(n, n)), 1) + np.diag(rng.integers(1, 5, size=n))
    A = T[rng.permutation(n)][:, rng.permutation(n)]
    npiv, rows, cols = _singleton_pivots(A != 0)
    assert npiv == n and rows.size == 0 and cols.size == 0
    assert check_rank(A, field(5)) == n


def test_singleton_columns_sharing_one_row(rng):
    # columns 0..4 are singletons in row 0; only one of them may pivot
    A = np.zeros((8, 12), dtype=np.int64)
    A[0, :5] = [1, 2, 1, 2, 1]
    A[1:, 5:] = rng.integers(0, 3, size=(7, 7))
    A[0, 8] = 2
    npiv, rows, cols = _singleton_pivots(A != 0)
    assert 0 not in rows and not set(range(5)) & set(cols)
    assert check_rank(A, F3) == 1 + naive_rank(A[1:, 5:].copy(), 3)
    assert check_rank(A[:, :5], F3) == 1
    # the transpose: rows 0..4 are singletons in column 0, which has no other way out
    npiv, rows, cols = _singleton_pivots((A != 0).T)
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
    assert _singleton_pivots(one != 0)[0] == 1 and check_rank(one, field(13)) == 1


@pytest.mark.parametrize("F", [F3, field(13), field(3, 2)], ids=["GF3", "GF13", "GF9"])
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
    npiv, rows, cols = _singleton_pivots(M.data != 0)
    assert npiv > 0 and rows.size < M.rows and cols.size < M.cols
    before = M.data.copy()
    assert rank(M) == _rank_blocked(M.data, 3) == M.cols - 214
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
        check_gf2_product(rng.integers(0, 2, size=(m, inner)),
                          rng.integers(0, 2, size=(inner, n)))


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

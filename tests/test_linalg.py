import numpy as np
import pytest

from zptower.gf import InternalConsistencyError, field
from zptower.linalg import (DenseMatrix, LinAlgError, kernel_basis, kernel_dim,
                            kernels_to_stabilization, rank, twisted_power_kernels)

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


def test_kernel_basis(rng):
    M = DenseMatrix(F3, rng.integers(0, 3, size=(10, 14)))
    vecs = kernel_basis(M)
    assert len(vecs) == kernel_dim(M)
    for v in vecs:
        assert not ((M.data @ v) % 3).any()
    F4 = field(2, 2)
    M4 = DenseMatrix(F4, rng.integers(0, 2, size=(7, 9, 2)))
    vecs4 = kernel_basis(M4)
    assert len(vecs4) == kernel_dim(M4)


def test_extension_field_rank(rng):
    F4 = field(2, 2)
    data = rng.integers(0, 2, size=(12, 9, 2))
    M = DenseMatrix(F4, data)

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

    assert rank(M) == ext_naive(data, F4)


def test_matmul_and_frobenius_entrywise(rng):
    F4 = field(2, 2)
    A = DenseMatrix(F4, rng.integers(0, 2, size=(5, 4, 2)))
    B = DenseMatrix(F4, rng.integers(0, 2, size=(4, 3, 2)))
    C = A @ B
    # spot-check one entry with field arithmetic
    i, j = 2, 1
    want = F4.zero()
    for t in range(4):
        a = F4.elem(tuple(int(v) for v in A.data[i, t]))
        b = F4.elem(tuple(int(v) for v in B.data[t, j]))
        want = want + a * b
    assert tuple(int(v) for v in C.data[i, j]) == want.coeffs
    Fr = A.frobenius_entrywise(1)
    a = F4.elem(tuple(int(v) for v in A.data[0, 0]))
    assert tuple(int(v) for v in Fr.data[0, 0]) == a.frobenius().coeffs


def test_kernel_filtration_properties(rng):
    for F, shape in [(F2, (12, 12)), (F3, (9, 9)), (field(2, 2), (7, 7, 2))]:
        M = DenseMatrix(F, rng.integers(0, F.p, size=shape))
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


def test_empty_matrix():
    assert kernel_dim(DenseMatrix.zeros(F2, 0, 0)) == 0

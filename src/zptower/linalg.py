"""Exact dense linear algebra over GF(p^k), done over GF(p).

Every matrix is stored as a GF(p) matrix, by restriction of scalars: over
GF(p^k) a g x g matrix M is held as the kg x kg GF(p) matrix of the
semilinear map c -> M sigma^-1(c), whose block (i, j) is the matrix of
c -> m_ij sigma^-1(c).  So `@` composes such maps (a twisted product is a plain
product), and as their kernels are GF(p^k)-subspaces, a GF(p^k) rank is the
GF(p) rank divided by k.

Over GF(2), GF(2^k) included, a matrix is packed rows of uint64 words, one bit
per entry, from assembly through every product and rank; products are
Four-Russians XOR tables and the rank is M4RI elimination (Albrecht-Bard-Hart,
ACM TOMS 37(1), 2010), with no floating point.  Reading `.data` unpacks a copy,
for small matrices only.

Over odd p a matrix is one int64 array of residues.  Its rank starts with a
zero-fill structured-pivot pass (LaMacchia-Odlyzko, CRYPTO '90) that looks
only at the nonzero pattern: it pivots on columns, then rows, with a single
live nonzero until none is left, so rank(A) = #pivots + rank of the leftover
submatrix.  Only that leftover is eliminated densely, by blocked Gaussian
elimination whose trailing updates run as float64 GEMMs (exact: every inner
product is below _PANEL * (p-1)^2, far inside the float64 integer range).
Odd-p products are float64 GEMMs too, exact while inner dimension * (p-1)^2
stays below 2^53.

Elimination mutates a private copy, so matrices are exclusively owned while
being reduced; callers may parallelize over independent matrices.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

import numpy as np

from .gf import FieldCtx, InternalConsistencyError

_PANEL = 256
_GEMM_CHUNK = 4_000_000  # float64 temp elements per matmul row chunk


class LinAlgError(ValueError):
    pass


class DenseMatrix:
    """rows x cols matrix over a FieldCtx, held as the (k rows) x (k cols) GF(p)
    matrix of c -> M sigma^-1(c): over GF(2) as packed rows (_gf2_pack), one
    bit per entry, otherwise as int64 residues in [0, p)."""

    __slots__ = ("ctx", "_a", "_ncols")

    def __init__(self, ctx: FieldCtx, data: np.ndarray):
        data = np.asarray(data, dtype=np.int64)
        if data.ndim != 2 or data.shape[0] % ctx.k or data.shape[1] % ctx.k:
            raise LinAlgError(f"expected a 2-d array with sides divisible by k={ctx.k}")
        self.ctx, self._ncols = ctx, data.shape[1]
        self._a = _gf2_pack(data % 2) if ctx.p == 2 else data % ctx.p

    @classmethod
    def _wrap(cls, ctx: FieldCtx, a: np.ndarray, ncols: int) -> "DenseMatrix":
        """A matrix on reduced residues (odd p) or on packed rows with ncols GF(2)
        columns (p = 2), without copying them."""
        M = cls.__new__(cls)
        M.ctx, M._a, M._ncols = ctx, a, ncols
        return M

    @classmethod
    def zeros(cls, ctx: FieldCtx, rows: int, cols: int) -> "DenseMatrix":
        m, n = ctx.k * rows, ctx.k * cols
        if ctx.p == 2:
            return cls._wrap(ctx, np.zeros((m, -(-n // 64)), dtype=np.uint64), n)
        return cls._wrap(ctx, np.zeros((m, n), dtype=np.int64), n)

    @property
    def data(self) -> np.ndarray:
        """The GF(p) matrix as int64 residues; over GF(2) an unpacked copy, made on
        every read (small matrices only)."""
        if self.ctx.p != 2:
            return self._a
        return np.unpackbits(self._a.view(np.uint8), axis=1, count=self._ncols,
                             bitorder="little").astype(np.int64)

    def set_column(self, j: int, rows: np.ndarray, values: np.ndarray) -> None:
        """Write the nonzero residues `values` into the zero entries (rows, j) of
        the GF(p) matrix; rows are distinct."""
        if self.ctx.p == 2:
            self._a[rows, j >> 6] |= np.uint64(1 << (j & 63))
        else:
            self._a[rows, j] = values

    @property
    def rows(self) -> int:
        return self._a.shape[0] // self.ctx.k

    @property
    def cols(self) -> int:
        return self._ncols // self.ctx.k

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __matmul__(self, other: "DenseMatrix") -> "DenseMatrix":
        """The composition c -> self sigma^-1(other sigma^-1(c))."""
        if self.ctx != other.ctx or self.cols != other.rows:
            raise LinAlgError("matmul shape/field mismatch")
        return DenseMatrix._wrap(self.ctx, _matmul(self._a, other._a, self.ctx.p),
                                 other._ncols)


def _matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p: packed XOR products for p = 2, float64 GEMMs on residue
    arrays otherwise."""
    if p == 2:
        return _matmul_gf2(a, b)
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.int64)
    bf = b.astype(np.float64)
    # row-chunked so the float64 temporaries stay modest
    chunk = max(1, _GEMM_CHUNK // max(b.shape[1], 1))
    for r0 in range(0, a.shape[0], chunk):
        blk = a[r0:r0 + chunk].astype(np.float64) @ bf
        out[r0:r0 + chunk] = blk.astype(np.int64) % p
    return out


def _matmul_gf2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over GF(2) for packed rows (_gf2_pack), b with one row per column
    of a, by the method of Four Russians (Albrecht-Bard-Hart, ACM TOMS 37(1),
    2010).

    For each group of 8 rows of b, T holds all 256 XOR combinations of the
    group; byte g of a row of a (its columns 8g..8g+7) picks the row of T
    to XOR into the matching row of the product.  Rows whose byte is zero are
    skipped: on the Cartier matrices four bytes in five are.
    """
    A = a.view(np.uint8)
    C = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint64)
    T = np.zeros((256, b.shape[1]), dtype=np.uint64)
    for g in range(0, b.shape[0], 8):
        # a short last group leaves T[2^len:] stale, but the zero padding of
        # A's last byte never indexes it
        for j, row in enumerate(b[g:g + 8]):
            np.bitwise_xor(T[:1 << j], row, out=T[1 << j:2 << j])
        rows = np.flatnonzero(A[:, g // 8])
        C[rows] ^= T[A[rows, g // 8]]
    return C


def _gf2_pack(bits: np.ndarray) -> np.ndarray:
    """0/1 rows as uint64 words, little-endian: column c is bit c%64 of word
    c//64, so byte j of the uint8 view holds columns 8j..8j+7.  Padding bits
    are zero."""
    rows, cols = bits.shape
    nbytes = -(-cols // 8)
    packed = np.zeros((rows, -(-nbytes // 8) * 8), dtype=np.uint8)
    packed[:, :nbytes] = np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")
    return packed.view(np.uint64)


# ---------------------------------------------------------------------------
# rank / kernel
# ---------------------------------------------------------------------------

def rank(M: DenseMatrix) -> int:
    """Rank over GF(p^k): the GF(p) rank of the stored matrix divided by k; M is
    only read."""
    p = M.ctx.p
    r, rem = divmod(_rank_gf2(M._a) if p == 2 else _rank_mod_p(M._a, p), M.ctx.k)
    if rem:
        raise InternalConsistencyError(f"GF(p) rank not a multiple of k={M.ctx.k}")
    return r


def _rank_mod_p(A: np.ndarray, p: int) -> int:
    """Rank of a residue array over odd GF(p): the singleton pivots
    (_singleton_pivots), then _rank_blocked on the leftover submatrix only."""
    if A.size == 0:
        return 0
    npiv, rows, cols = _singleton_pivots(A != 0)
    if rows.size == 0 or cols.size == 0:
        return npiv
    return npiv + _rank_blocked(A[np.ix_(rows, cols)], p)


def kernel_dim(M: DenseMatrix) -> int:
    """cols - rank, by Gaussian elimination; rank + nullity = cols by construction."""
    return M.cols - rank(M)


def _singleton_pivots(nz: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Zero-fill pivots of a matrix with nonzero pattern nz (rows x cols bool).

    Returns (pivots, live rows, live cols) with
    rank(A) = pivots + rank(A[live rows][:, live cols]).  A column whose only
    live nonzero sits in row r is a pivot: column operations clear row r
    without touching any other live row, so dropping row r and the column
    lowers the rank by exactly one; singleton rows are the transpose.  Each
    round pivots on all singleton columns (one per row), then on all
    singleton rows (one per column), until a round finds none; lines left
    empty are dropped.
    """
    m, n = nz.shape
    # row-major order, so ci holds the CSR column indices (flatnonzero: 5x np.nonzero's speed)
    ri, ci = np.divmod(np.flatnonzero(nz), n)
    cr = ri[np.argsort(ci, kind="stable")]  # CSC row indices
    rdeg, cdeg = np.bincount(ri, minlength=m), np.bincount(ci, minlength=n)
    rptr = np.concatenate(([0], np.cumsum(rdeg)))
    cptr = np.concatenate(([0], np.cumsum(cdeg)))
    # sum of each line's live indices: the index of its last entry at degree 1
    rsum = np.bincount(ri, weights=ci, minlength=m).astype(np.int64)
    csum = np.bincount(ci, weights=ri, minlength=n).astype(np.int64)
    rlive, clive = np.ones(m, dtype=bool), np.ones(n, dtype=bool)
    npiv = 0
    while True:
        got = (_pivot_singletons(cdeg, csum, clive, rlive, rptr, ci)
               + _pivot_singletons(rdeg, rsum, rlive, clive, cptr, cr))
        if not got:
            return npiv, np.nonzero(rlive & (rdeg > 0))[0], np.nonzero(clive & (cdeg > 0))[0]
        npiv += got


def _pivot_singletons(deg, lsum, live, olive, optr, oidx) -> int:
    """One batch of _singleton_pivots on the lines of one side.

    Every live line of degree 1 whose partner (lsum) is not yet taken becomes
    a pivot; line and partner die, and the partner's entries (oidx over the
    segments optr of the other side) are subtracted from deg and lsum.
    """
    lines = np.nonzero(live & (deg == 1))[0]
    partners, first = np.unique(lsum[lines], return_index=True)
    lens = optr[partners + 1] - optr[partners]
    owner = np.repeat(partners, lens)
    pos = np.repeat(optr[partners] - np.cumsum(lens) + lens, lens) + np.arange(owner.size)
    hit = oidx[pos]
    np.subtract.at(deg, hit, 1)
    np.subtract.at(lsum, hit, owner)
    live[lines[first]] = False
    olive[partners] = False
    return partners.size


def _rank_gf2(words: np.ndarray) -> int:
    """Rank over GF(2) of packed rows (_gf2_pack) by M4RI elimination
    (Albrecht-Bard-Hart, ACM TOMS 37(1), 2010; Bard 2006) on a private copy.

    Columns go in groups of 8, one byte of every row; only live rows whose
    byte is nonzero take part.  The group's pivot rows are found on those
    bytes alone, by elimination on the 8-bit slice.  The other bytes then lie
    in the span of the pivot bytes, which are independent, so a table T of the
    2^npiv XOR combinations of the pivot rows, indexed by their bytes, clears
    the group from every other row in one pass: row ^= T[its byte].  Pivot
    rows leave the live set.  Live rows are zero left of the group, so T
    holds only words from the group's onward.
    """
    W = words.copy()
    B = W.view(np.uint8)
    live = np.ones(W.shape[0], dtype=bool)
    r = 0
    for g in range(B.shape[1]):
        rows = np.flatnonzero(B[:, g])
        rows = rows[live[rows]]
        if rows.size == 0:
            continue
        s = B[rows, g]  # a copy, reduced as pivots are taken
        piv: list[int] = []
        for j in range(8):
            hit = (s & np.uint8(1 << j)) != 0
            hit[piv] = False
            t = int(hit.argmax())
            if hit[t]:
                hit[t] = False
                s ^= hit * s[t]
                piv.append(t)
        w, prows = g // 8, rows[piv]
        comb = np.zeros((1 << len(piv), W.shape[1] - w), dtype=np.uint64)
        key = np.zeros(1 << len(piv), dtype=np.uint8)
        for t, pr in enumerate(prows):
            np.bitwise_xor(comb[:1 << t], W[pr, w:], out=comb[1 << t:2 << t])
            np.bitwise_xor(key[:1 << t], B[pr, g], out=key[1 << t:2 << t])
        T = np.empty((256, comb.shape[1]), dtype=np.uint64)  # rows off the span are never read
        T[key] = comb
        rest = np.delete(rows, piv)
        W[rest, w:] ^= T[B[rest, g]]
        live[prows] = False
        r += len(piv)
    return r


def _rank_blocked(Ai: np.ndarray, p: int) -> int:
    """Blocked LU-style rank over GF(p), running entirely in float64 on a
    private copy (Ai is only read).

    Everything stays an exact integer: multipliers and pivot rows are reduced
    mod p before use, so one trailing GEMM adds at most _PANEL * (p-1)^2 in
    magnitude and entries stay below ~144 n, far inside float64's 2^53 exact
    range.  Within a panel each rank-1 update touches only columns right of
    the pivot; the pivot column stores the multipliers so row swaps keep L
    attached to the correct rows.
    """
    m, n = Ai.shape
    A = Ai.astype(np.float64)
    r = 0
    for c0 in range(0, n, _PANEL):
        c1 = min(c0 + _PANEL, n)
        panel = A[:, c0:c1]
        pivots: list[int] = []  # panel-local pivot columns; pivot rows are r0, r0+1, ...
        r0 = r
        for c in range(c1 - c0):
            if r == m:
                break
            col = panel[r:, c] % p
            nz = np.nonzero(col)[0]
            if nz.size == 0:
                continue
            piv = r + int(nz[0])
            if piv != r:
                A[[r, piv]] = A[[piv, r]]
            inv = pow(int(col[int(nz[0])]), p - 2, p)
            factors = (panel[r + 1:, c] * inv) % p
            if factors.any():
                panel[r + 1:, c + 1:] -= np.outer(factors, panel[r, c + 1:] % p)
            panel[r + 1:, c] = factors
            pivots.append(c)
            r += 1
        npiv = len(pivots)
        if r == m or c1 == n:
            break
        if npiv == 0:
            continue
        pcols = np.array(pivots, dtype=np.intp)
        # triangular solve on the pivot rows of the trailing block
        U = A[r0:r0 + npiv, c1:]
        U %= p
        for t in range(1, npiv):
            ft = panel[r0 + t, pcols[:t]]
            if ft.any():
                U[t] -= ft @ U[:t]
                U[t] %= p
        # trailing GEMM update: A[below] -= L21 @ U
        L21 = panel[r0 + npiv:, pcols]
        if L21.size and U.size:
            A[r0 + npiv:, c1:] -= L21 @ U
    return r


def rref(M: DenseMatrix) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of M.data over GF(p) and its pivot columns
    (small-matrix path)."""
    p = M.ctx.p
    A = M.data.copy()
    r, pivots = 0, []
    for c in range(A.shape[1]):
        if r == A.shape[0]:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        A[r] = A[r] * pow(int(A[r, c]), p - 2, p) % p
        others = np.nonzero(A[:, c])[0]
        others = others[others != r]
        A[others] = (A[others] - np.outer(A[others, c], A[r])) % p
        pivots.append(c)
        r += 1
    return A, pivots


def kernel_basis(M: DenseMatrix) -> list[np.ndarray]:
    """GF(p) basis of the right kernel of M.data (small-matrix path via RREF).

    Each vector has length k * cols: reshaped to (cols, k) it holds the
    coefficient vectors of a c with M sigma^-1(c) = 0.  The kernel is a
    GF(p^k)-subspace, so there are k * kernel_dim(M) vectors.
    """
    p = M.ctx.p
    R, pivots = rref(M)
    n = R.shape[1]
    basis = []
    for fc in sorted(set(range(n)) - set(pivots)):
        v = np.zeros(n, dtype=np.int64)
        v[fc] = 1
        v[pivots] = (-R[:len(pivots), fc]) % p
        basis.append(v)
    return basis


def _twisted_kernels(M: DenseMatrix) -> Iterator[int]:
    """a^(r) = kernel_dim(M^r) for r = 1, 2, ..., where M^r is the twisted
    product M sigma^-1(M) ... sigma^-(r-1)(M).

    Each product is formed only when its value is requested, and none once the
    kernel is the whole space.  The sequence must be nondecreasing with concave
    increments; a violation raises InternalConsistencyError.
    """
    if not M.is_square():
        raise LinAlgError("twisted powers need a square matrix")
    dims: list[int] = []
    N = M
    while not dims or dims[-1] < M.cols:
        if dims:
            N = N @ M
        dims.append(kernel_dim(N))
        if len(dims) >= 2 and dims[-1] < dims[-2]:
            raise InternalConsistencyError(f"kernel dimensions decrease: {dims}")
        if len(dims) >= 3 and dims[-1] - dims[-2] > dims[-2] - dims[-3]:
            raise InternalConsistencyError(f"kernel increments not concave: {dims}")
        yield dims[-1]
    while True:
        yield M.cols


def twisted_power_kernels(M: DenseMatrix, R: int) -> list[int]:
    """Kernel dimensions of N_r = M sigma^-1(M) ... sigma^-(r-1)(M), r = 1..R:
    those of the powers of the sigma^-1-semilinear operator with matrix M."""
    return list(islice(_twisted_kernels(M), R))


def kernels_to_stabilization(M: DenseMatrix) -> list[int]:
    """Twisted-power kernel dimensions until two consecutive values agree.

    Always stops: _twisted_kernels checks that the sequence is nondecreasing,
    and it is bounded by M.cols, so it cannot rise more than M.cols times.
    """
    dims: list[int] = []
    for d in _twisted_kernels(M):
        dims.append(d)
        if len(dims) >= 2 and dims[-1] == dims[-2]:
            return dims

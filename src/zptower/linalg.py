"""Exact linear algebra over GF(p^k), done over GF(p).

Every matrix is stored as a GF(p) matrix, by restriction of scalars: over
GF(p^k) a g x g matrix M is held as the kg x kg GF(p) matrix of the
semilinear map c -> M sigma^-1(c), whose block (i, j) is the matrix of
c -> m_ij sigma^-1(c).  So `@` composes such maps (a twisted product is a plain
product), and as their kernels are GF(p^k)-subspaces, a GF(p^k) rank is the
GF(p) rank divided by k.

Every assembled matrix, and every matrix made from caller data, is shifted
segments (_Segs) at every p: sorted rows, of the narrowest index type, and
their nonzero int8 residues, each GF(p) column naming the segment it reads
and how far it moves it down.  A Cartier matrix hands over one segment per
table entry and block column, which fills all of that entry's columns, so it
never holds an array with one element per nonzero; caller data and odd-p
products have one segment per column.  Reading `.data` densifies an int64
copy, for small matrices only.

The rank of segments (_rank_segs) is one path at every p: a zero-fill
structured-pivot pass (LaMacchia-Odlyzko, CRYPTO '90) on the nonzero pattern
(_singleton_pivots), then the leftover submatrix only, a dense int8 block
(_gather) eliminated in place one float column panel at a time
(_rank_blocked).  Every GF(2) Cartier matrix tried leaves no leftover.

Every pass over segments goes in strips of about _STRIP cells or entries:
the two passes of _pattern, the pivots' entry batches (_row_entries,
_column_entries) and every dense read (_gather, so _packed too).  A strip's
temporaries hold the narrowest index types the shapes allow (_ix, int32)
and are formed in place, so they take at most 16 bytes a cell or entry,
besides a few words for each segment, line or row window they read.  The
int64 arrays of a cell or entry are _pattern's sort keys, and the values
it and the pivots add with ufunc.at (offsets, line owners), as numpy's fast
ufunc.at path wants values of its target's type.

Over GF(2), GF(2^k) included, only products hold packed rows of uint64 words,
one bit per entry: their factors, packed from segments a block of columns at
a time (_factor, the one caller of _packed), and their results.  A product is
Four-Russians XOR tables and its rank M4RI elimination (Albrecht-Bard-Hart,
ACM TOMS 37(1), 2010), with no floating point, both from one helper's XOR
combinations of up to 8 rows (_xor_table).  Odd-p products N @ M densify
N's rows to int8 and take M one dense column block at a time (_gather)
through float GEMMs, reduced mod p in float (gf.float_mod) and compressed
back to one segment per column.  gf.check_float_exact, which also picks the
float type of _slab's x-convolution, picks float32 or float64 for the
products and the elimination and keeps every float sum exact (float32 for
every p <= 13 in the elimination, GF(2) included).

Both eliminations also report their pivot rows, rows of their input that
span its row space.  Twisted powers use them: rowspace(N M) = rowspace(N) M,
so the pivot rows of M^(r-1) times M have the rank of M^r, and each power is
a rho x g product, rho the GF(p) rank of the previous one, never g x g.

Elimination mutates a private copy, so matrices are exclusively owned while
being reduced; callers may parallelize over independent matrices.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np

from ._slab import batches
from .gf import FieldCtx, InternalConsistencyError, check_float_exact, float_mod

_PANEL = 256  # columns per trailing GEMM of the odd-p elimination
_SUB = 32  # columns per rank-1 update within a panel
_GEMM_CHUNK = 4_000_000  # float elements per temporary of an odd-p product or trailing update
_STRIP = 1 << 16  # cells per strip of the segment passes


class LinAlgError(ValueError):
    pass


class _Segs(NamedTuple):
    """An m x n GF(p) matrix as shifted segments.

    Segment s is the rows idx[ptr[s]:ptr[s+1]], ascending, with nonzero
    residues val[...]; it makes the count[s] columns first[s] + t step,
    t < count[s], each the segment moved down t unit rows, and every column
    is made by exactly one segment: column j is segment seg[j] moved down
    shift[j] rows.  Row indices take 2 bytes while m <= 2^16 (_ix), so a cell
    takes 3 bytes however many columns share it."""

    m: int
    unit: int
    step: int
    ptr: np.ndarray  # int64, one more than the segments
    idx: np.ndarray  # _ix(m): uint16 or int32
    val: np.ndarray  # int8
    first: np.ndarray  # int64, per segment
    count: np.ndarray  # int64, per segment
    seg: np.ndarray  # int64, n
    shift: np.ndarray  # int64, n


def _segs(m: int, n: int, unit: int, step: int, ptr: np.ndarray, idx: np.ndarray,
          val: np.ndarray, first: np.ndarray, count: np.ndarray) -> _Segs:
    """The _Segs of n columns made by the given segments; a column made by no
    segment or by two, or a row moved past m - 1, raises."""
    first, count = np.asarray(first, dtype=np.int64), np.asarray(count, dtype=np.int64)
    if not ptr.size - 1 == first.size == count.size:
        raise InternalConsistencyError("segments, first columns and counts differ in number")
    s = np.repeat(np.arange(count.size), count)
    t = np.arange(s.size) - np.repeat(np.cumsum(count) - count, count)
    cols = first[s] + t * step
    if cols.size != n or (n and (cols.min() < 0 or cols.max() >= n
                                 or np.bincount(cols, minlength=n).max() > 1)):
        raise InternalConsistencyError(f"segments do not make each of {n} columns once")
    seg, shift = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    seg[cols], shift[cols] = s, t * unit
    idx = _narrow(idx, m)
    full = np.flatnonzero(np.diff(ptr))
    if full.size:  # the last row of each segment, moved down the furthest
        bottom = np.maximum.reduceat(idx, ptr[full]).astype(np.int64) + (count[full] - 1) * unit
        if bottom.max() >= m:
            raise InternalConsistencyError(f"a segment moved down to row {bottom.max()} of {m}")
    return _Segs(m, unit, step, ptr, idx, val, first, count, seg, shift)


def _ix(m: int) -> type:
    """The index type of m rows or columns: uint16 while they fit, else int32.
    Arithmetic on such indices must run in a wider type: numpy keeps uint16
    for a uint16 array plus a Python int."""
    return np.uint16 if m <= 1 << 16 else np.int32


def _narrow(a: np.ndarray, m: int) -> np.ndarray:
    """Indices a, each in 0..m-1, as _ix(m); a value out of range raises
    instead of wrapping."""
    if a.size and (a.min() < 0 or a.max() >= m):
        raise InternalConsistencyError(f"index {a.min()}..{a.max()} outside 0..{m - 1}")
    return a.astype(_ix(m), copy=False)


class DenseMatrix:
    """rows x cols matrix over a FieldCtx, held as the (k rows) x (k cols) GF(p)
    matrix of c -> M sigma^-1(c): as shifted segments of int8 residues
    (_Segs), or, for a GF(2) product, as packed rows (_packed), one bit per
    entry.  Construction from caller data reduces and compresses it."""

    __slots__ = ("ctx", "_a", "_ncols")

    def __init__(self, ctx: FieldCtx, data: np.ndarray):
        data = np.asarray(data, dtype=np.int64)
        if data.ndim != 2 or data.shape[0] % ctx.k or data.shape[1] % ctx.k:
            raise LinAlgError(f"expected a 2-d array with sides divisible by k={ctx.k}")
        self.ctx, self._ncols = ctx, data.shape[1]
        self._a = _columns(data.shape[0], ctx.k, [(data % ctx.p).astype(np.int8)])

    @classmethod
    def _wrap(cls, ctx: FieldCtx, a, ncols: int) -> "DenseMatrix":
        """A matrix on a _Segs, or on packed rows with ncols GF(2) columns,
        without copying them."""
        M = cls.__new__(cls)
        M.ctx, M._a, M._ncols = ctx, a, ncols
        return M

    @classmethod
    def shifted(cls, ctx: FieldCtx, rows: int, cols: int,
                segments: Sequence[tuple[np.ndarray, np.ndarray]], first: Sequence[int],
                count: Sequence[int], step: int) -> "DenseMatrix":
        """The rows x cols matrix whose GF(p) columns first[s] + t step,
        t < count[s], are segment s moved down t k GF(p) rows: the nonzero
        residues segments[s][1] at the ascending rows segments[s][0] + t k.
        Every GF(p) column must be made by exactly one segment."""
        m, n = ctx.k * rows, ctx.k * cols
        ptr = np.concatenate(([0], np.cumsum([r.size for r, _ in segments], dtype=np.int64)))
        idx = np.concatenate([np.zeros(0, dtype=_ix(m))] + [_narrow(r, m) for r, _ in segments])
        val = np.concatenate([np.zeros(0, dtype=np.int8)] + [v for _, v in segments])
        A = _segs(m, n, ctx.k, step, ptr, idx, val.astype(np.int8, copy=False), first, count)
        return cls._wrap(ctx, A, n)

    @property
    def data(self) -> np.ndarray:
        """The GF(p) matrix as int64 residues, a copy made on every read (small
        matrices only): the segments densified, or a product's packed rows
        unpacked."""
        if isinstance(self._a, _Segs):
            return _gather(self._a, np.arange(self._a.m), np.arange(self._ncols)).astype(np.int64)
        return np.unpackbits(self._a.view(np.uint8), axis=1, count=self._ncols,
                             bitorder="little").astype(np.int64)

    @property
    def rows(self) -> int:
        return (self._a.m if isinstance(self._a, _Segs) else len(self._a)) // self.ctx.k

    @property
    def cols(self) -> int:
        return self._ncols // self.ctx.k

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __matmul__(self, other: "DenseMatrix") -> "DenseMatrix":
        """The composition c -> self sigma^-1(other sigma^-1(c))."""
        if self.ctx != other.ctx or self.cols != other.rows:
            raise LinAlgError("matmul shape/field mismatch")
        return _rows_times(_factor(self), np.arange(self.rows * self.ctx.k), _factor(other))


def _factor(M: DenseMatrix) -> DenseMatrix:
    """M as a factor of products: over GF(2) its packed rows (_packed), made
    from its segments unless M is a product already; otherwise M itself."""
    if M.ctx.p != 2 or not isinstance(M._a, _Segs):
        return M
    return DenseMatrix._wrap(M.ctx, _packed(M._a, np.arange(M._a.m), np.arange(M._ncols)),
                             M._ncols)


def _rows_times(N: DenseMatrix, rows: np.ndarray, M: DenseMatrix) -> DenseMatrix:
    """The GF(p) rows `rows` of N times M, both as _factor gives them: over
    GF(2) packed rows by packed rows, otherwise N's rows densified to int8
    residues times M's segments."""
    a = N._a[rows] if N.ctx.p == 2 else _gather(N._a, rows, np.arange(N._ncols))
    return DenseMatrix._wrap(N.ctx, _matmul(a, M._a, N.ctx.p), M._ncols)


def _matmul(a: np.ndarray, b, p: int):
    """a @ b mod p: packed rows by packed rows for p = 2; for odd p, int8
    residues by a _Segs, read a dense column block at a time (_gather),
    giving a _Segs."""
    if p == 2:
        return _matmul_gf2(a, b)
    m, inner = a.shape
    dt = check_float_exact(inner, p)
    n = b.seg.size
    # b in column blocks and a in row chunks, so that every temporary (a
    # block of b, dense from _gather, a chunk of a, their product) holds at
    # most _GEMM_CHUNK elements; a block of b goes to float only on its live
    # rows, the rows where its columns have entries, and a only on the
    # matching columns (about half of them on the block-triangular Cartier
    # matrices)
    cols = max(1, _GEMM_CHUNK // max(inner, 1))
    rows = max(1, _GEMM_CHUNK // max(inner, cols))
    out = np.empty((m, min(cols, n)), dtype=np.int8)

    def blocks():
        for c0 in range(0, n, cols):
            D = _gather(b, np.arange(inner), np.arange(c0, min(n, c0 + cols)))
            live = np.flatnonzero(D.any(axis=1))
            bf = D[live].astype(dt)
            blk = out[:, :D.shape[1]]
            for r0 in range(0, m, rows):
                blk[r0:r0 + rows] = float_mod(a[r0:r0 + rows, live].astype(dt) @ bf, p)
            yield blk
    return _columns(m, b.unit, blocks())


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The positions starts[j] .. starts[j] + lens[j] - 1, range by range, as
    int32: 4 bytes a position and 8 a range, twice that while they are
    formed.  Every array they index has fewer than 2^31 elements, as every
    _ix index assumes."""
    pos = starts.astype(np.int32)  # less the positions of the ranges before
    pos -= np.cumsum(lens, dtype=np.int32)
    pos += lens
    pos = np.repeat(pos, lens)
    pos += np.arange(pos.size, dtype=np.int32)
    return pos


def _column_entries(A: _Segs, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lens, rows, pos): every entry of the columns `cols` of A, column by
    column, cols[j] having the next lens[j]: the cells of the column's
    segment, moved down its shift.  An entry at row rows[.] (_ix(A.m)) is the
    cell at pos[.] (int32) of A.idx and A.val, so 6 bytes an entry, and 8
    while they are read."""
    s = A.seg[cols]
    lens = A.ptr[s + 1] - A.ptr[s]
    pos = _ranges(A.ptr[s], lens)
    rows = A.idx[pos]
    rows += np.repeat(A.shift[cols].astype(rows.dtype), lens)  # below A.m: no wrap
    return lens, rows, pos


def _gather(A: _Segs, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """A[rows][:, cols] as dense int8 residues, rows distinct.  The columns are
    read in strips of about _STRIP entries (_column_entries) and scattered
    into place unmasked: an entry of a row not asked for lands in a scratch
    row past the last, which the view returned leaves out.  So a strip costs
    about 9 bytes an entry (its entries' rows, residues and columns, and
    their rows in the output, _ix(rows.size + 1)), besides the output and
    that lookup of 2 or 4 bytes a row of A.  Every dense read of segments
    (.data, _packed, odd-p products, the leftover of the rank) is one."""
    R = rows.size
    at = np.full(A.m, R, dtype=_ix(R + 1))
    at[rows] = np.arange(R)
    out = np.zeros((R + 1, cols.size), dtype=np.int8)
    s = A.seg[cols]
    for c0, c1 in batches(A.ptr[s + 1] - A.ptr[s], _STRIP):
        lens, r, pos = _column_entries(A, cols[c0:c1])
        v = A.val[pos]
        del pos
        out[:, c0:c1][at[r], np.repeat(np.arange(c1 - c0, dtype=_ix(c1 - c0)), lens)] = v
        del r, v  # before the next strip's are read
    return out[:R]


def _columns(m: int, unit: int, blocks: Iterable[np.ndarray]) -> _Segs:
    """Dense residue blocks of m rows placed side by side, one segment per
    column."""
    counts, idx, val = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=_ix(m))], \
        [np.zeros(0, dtype=np.int8)]
    for D in blocks:
        c, r = np.nonzero(D.T)  # by column, then row
        counts.append(np.bincount(c, minlength=D.shape[1]))
        idx.append(_narrow(r, m))
        val.append(D[r, c])
    counts = np.concatenate(counts)
    n = counts.size
    return _segs(m, n, unit, 0, np.concatenate(([0], np.cumsum(counts))), np.concatenate(idx),
                 np.concatenate(val), np.arange(n), np.ones(n, dtype=np.int64))


def _xor_table(rows: np.ndarray, T: np.ndarray) -> np.ndarray:
    """The 2^j XOR combinations of j <= 8 packed rows, formed by doubling in the
    caller's buffer T; row i of the view T[:2^j] returned is the XOR of the rows of i's bits."""
    T[0] = 0
    for j, row in enumerate(rows):
        np.bitwise_xor(T[:1 << j], row, out=T[1 << j:2 << j])
    return T[:1 << len(rows)]


def _matmul_gf2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over GF(2) for packed rows (_packed), b with one row per column
    of a, by the method of Four Russians (Albrecht-Bard-Hart, ACM TOMS 37(1),
    2010).

    For each group of 8 rows of b, T holds all 256 XOR combinations of the
    group (_xor_table); byte g of a row of a (its columns 8g..8g+7) picks the
    row of T to XOR into the matching row of the product.  Rows whose byte is
    zero are skipped: on the Cartier matrices four bytes in five are.  T and
    the XOR start at the group's first nonzero word, since all of its
    combinations are zero to the left of it: on a block upper triangular b,
    such as the Cartier matrices, that is the start of the group's block.
    """
    A = a.view(np.uint8)
    C = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint64)
    T = np.empty((256, b.shape[1]), dtype=np.uint64)
    for g in range(0, b.shape[0], 8):
        words = np.flatnonzero(b[g:g + 8].any(axis=0))
        if words.size == 0:
            continue
        w = int(words[0])
        # a short last group leaves T[2^len:] stale, and earlier groups leave
        # T[:, :w] stale, but neither is read: the zero padding of A's last
        # byte never indexes the first, and the slices below start at w
        Tw = _xor_table(b[g:g + 8, w:], T[:, w:])
        rows = np.flatnonzero(A[:, g // 8])
        C[rows, w:] ^= Tw[A[rows, g // 8]]
    return C


def _packed(A: _Segs, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """A[rows][:, cols] over GF(2) as packed rows of uint64 words: column c is
    bit c%64 of word c//64, little-endian, so byte j of the uint8 view holds
    columns 8j..8j+7, and padding bits are zero.  The columns are gathered in
    blocks of whole words, each about _STRIP entries or one word wide, so no
    temporary has one element per entry: besides the words, a dense int8
    block of about max(_STRIP, 64 rows) bytes and _gather's strip of about
    9 bytes an entry."""
    W = np.zeros((rows.size, -(-cols.size // 64)), dtype=np.uint64)
    w = 64 * max(1, _STRIP // (64 * max(rows.size, 1)))
    for c0 in range(0, cols.size, w):
        bits = np.packbits(_gather(A, rows, cols[c0:c0 + w]).view(np.uint8), axis=1,
                           bitorder="little")
        W.view(np.uint8)[:, c0 // 8:c0 // 8 + bits.shape[1]] = bits
    return W


# ---------------------------------------------------------------------------
# rank / kernel
# ---------------------------------------------------------------------------

def rank(M: DenseMatrix) -> int:
    """Rank over GF(p^k): the GF(p) rank of the stored matrix divided by k; M is
    only read."""
    return _row_basis(M)[0]


def _row_basis(M: DenseMatrix) -> tuple[int, np.ndarray]:
    """(rank of M over GF(p^k), pivot rows of the stored GF(p) matrix): k times
    that rank distinct row indices whose rows span its row space."""
    A = M._a
    r, rows = _rank_segs(A, M.ctx.p) if isinstance(A, _Segs) else _rank_gf2(A)
    rho, rem = divmod(r, M.ctx.k)
    if rem:
        raise InternalConsistencyError(f"GF(p) rank not a multiple of k={M.ctx.k}")
    return rho, rows


def _rank_segs(A: _Segs, p: int) -> tuple[int, np.ndarray]:
    """Rank of shifted segments over GF(p) and their pivot rows: the singleton
    pivots (_singleton_pivots), then the leftover submatrix only, as int8
    residues that _rank_blocked eliminates in place at every p.  No GF(2)
    Cartier matrix tried leaves a leftover, and odd-p ones leave a sparse
    one; packed words are for products only."""
    prows, rows, cols = _singleton_pivots(A)
    r, lrows = _rank_blocked(_gather(A, rows, cols), p)
    return prows.size + r, np.concatenate((prows, rows[lrows]))


def kernel_dim(M: DenseMatrix) -> int:
    """cols - rank; rank + nullity = cols by construction."""
    return M.cols - rank(M)


def _singleton_pivots(A: _Segs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zero-fill pivots of the nonzero pattern of A (rows x cols).

    Returns (pivot rows, live rows, live cols) with
    rank(A) = #pivots + rank(A[live rows][:, live cols]).  A column whose only
    live nonzero sits in row r is a pivot: column operations clear row r
    without touching any other live row, so dropping row r and the column
    lowers the rank by exactly one; singleton rows are the transpose.  Each
    round pivots on all singleton columns (one per row), then on all
    singleton rows (one per column), until a round finds none; lines left
    empty are dropped.  The rows a pivot drops are exactly the pivot rows,
    and together with any rows independent on the leftover they are
    independent in A: a pivot row's pivot entry is the only nonzero of its
    column (row) among the rows (columns) still live when it was taken.
    A dying row's entries come from _pattern's cells by row, a dying
    column's from its segment.
    """
    rdeg, rsum, cdeg, csum, cells = _pattern(A)
    rlen, clen = rdeg.copy(), cdeg.copy()  # entries of each line, dead ones included

    def row_entries(rows):
        return _row_entries(A, cells, rows)

    def column_entries(cols):
        lens, rows = _column_entries(A, cols)[:2]
        return np.repeat(cols, lens), rows

    rlive, clive = np.ones(A.m, dtype=bool), np.ones(A.seg.size, dtype=bool)
    while True:
        got = (_pivot_singletons(cdeg, csum, clive, rlive, row_entries, rlen)
               + _pivot_singletons(rdeg, rsum, rlive, clive, column_entries, clen))
        if not got:
            return (np.flatnonzero(~rlive), np.flatnonzero(rlive & (rdeg > 0)),
                    np.flatnonzero(clive & (cdeg > 0)))


def _cell_keys(A: _Segs, c0: int, c1: int, first: np.ndarray,
               top: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cells of segments c0..c1-1, one strip of _pattern: each cell's
    unshifted row r0, a view of A.idx, and as int32 its key
    first[s] + (r0 % unit) h + r0 // unit and its offset
    top[s] - (r0 // unit) step.  8 bytes a cell, and 14 while they are
    formed."""
    lens = A.ptr[c0 + 1:c1 + 1] - A.ptr[c0:c1]
    r0 = A.idx[A.ptr[c0]:A.ptr[c1]]
    q, c = np.divmod(r0, A.unit)
    key = np.repeat(first[c0:c1], lens)
    key += q
    key += np.multiply(c, A.m // A.unit, dtype=np.int32)
    del c
    offset = np.repeat(top[c0:c1], lens)
    offset -= np.multiply(q, A.step, dtype=np.int32)
    return r0, key, offset


def _pattern(A: _Segs) -> tuple:
    """The nonzero pattern of A: the degrees and index sums of its rows and
    columns (the sum is the index of a line's last live entry at degree 1)
    and its cells indexed by row, (rdeg, rsum, cdeg, csum, (Qs, ptr, cols)).

    A column's degree and sum come from its segment.  A cell at row
    r0 = q unit + c of segment s lies in the rows r = r0 + t unit,
    t < count[s], in column first[s] + t step: its offset
    first[s] + (h - 1 - q) step, h = m / unit, which is never negative, less
    (h - 1 - r // unit) step.  So along each class of rows mod unit the row
    degrees are the prefix sums of +1 at r0 and -1 at r0 + count[s] unit,
    and the row sums those of +offset and -offset there, less
    (h - 1 - r // unit) step times the degree.

    Finding a row's entries needs the cells by row, grouped by their
    segment's column count: Qs holds the distinct counts ascending, and the
    cells whose segment has count Qs[g] have the key g m + c h + q, so each
    group and, within it, each class of rows mod unit is one run of keys, in
    row order.  The offsets cols[ptr[key]:ptr[key+1]] are those of the cells
    of that key, ascending within each strip, and row r's entries in group g
    are the window of keys of rows r - t unit, 0 <= t < Qs[g]
    (_row_entries).  With one column count, as for products, this is sparse
    rows.  Pointers and offsets take the narrowest type their ranges allow
    (_ix).

    The cells go in strips of _STRIP, each cell's key and offset as int32
    (_cell_keys), so no temporary has one element per cell.  A first pass
    counts the cells of each key and adds each cell's +-1 and +-offset to the
    difference arrays, at 14 bytes a cell of a strip.  A second sorts each
    strip's cells by key and offset, packed into one int64, and places each
    offset at its key's next free slot, ptr itself serving as the cursor,
    at 16 bytes a cell.  The outputs hold 2 or 4 bytes a cell (cols) and as
    many a key (ptr).
    """
    m, u, step = A.m, A.unit, A.step
    h = m // u
    Qs, group = np.unique(A.count, return_inverse=True)
    lens = np.diff(A.ptr)
    strips = list(batches(lens, _STRIP))
    first = (group * m).astype(np.int32)  # per segment: the first key of its group
    top = (A.first + (h - 1) * step).astype(np.int32)  # per segment: its row-0 cells' offset
    ends = (A.count * u).astype(np.int32)  # per segment: how far below its cells their lines end
    # P[key + 2] counts the cells of key, so that after the prefix sum P[key + 1]
    # is key's first slot, the cursor of the second pass, which leaves it at
    # key's last slot + 1: then ptr = P[:-1]
    P = np.zeros(m * Qs.size + 2, dtype=_ix(A.idx.size + 1))
    one = P.dtype.type(1)  # of P's own type: numpy's fast ufunc.at path
    ssum = np.zeros(A.count.size, dtype=np.int64)
    ddeg, dsum = np.zeros(m + u, dtype=np.int64), np.zeros(m + u, dtype=np.int64)
    for c0, c1 in strips:
        r0, key, offset = _cell_keys(A, c0, c1, first + 2, top)
        np.add.at(P, key, one)
        del key
        full = c0 + np.flatnonzero(lens[c0:c1])
        ssum[full] = np.add.reduceat(r0, A.ptr[full] - A.ptr[c0], dtype=np.int64)
        offset = offset.astype(np.int64)  # the target's type: numpy's fast ufunc.at path
        end = np.repeat(ends[c0:c1], lens[c0:c1])
        end += r0
        np.add.at(ddeg, r0, 1)
        np.subtract.at(ddeg, end, 1)
        np.add.at(dsum, r0, offset)
        np.subtract.at(dsum, end, offset)
        del offset, end
    np.cumsum(P, out=P)
    cols = np.empty(A.idx.size, dtype=_ix(A.seg.size + h * step))
    for c0, c1 in strips:
        _, key, offset = _cell_keys(A, c0, c1, first + 1, top)
        k = key.astype(np.int64)  # (key << 32) | offset, as offsets stay below 2^31
        del key
        k <<= 32
        k |= offset
        del offset
        k.sort()
        offset = np.empty(k.size, dtype=cols.dtype)
        np.bitwise_and(k, 0xFFFFFFFF, out=offset, casting="unsafe")
        k >>= 32
        key = k.astype(np.int32)
        del k
        # a cell's slot is its key's cursor plus its rank in its run of keys
        at = np.arange(key.size, dtype=np.int32)
        run = np.ones(key.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=run[1:])  # by comparison: keys may repeat
        run = np.where(run, at, 0)
        at -= np.maximum.accumulate(run, out=run)
        del run
        at += P[key]
        np.add.at(P, key, one)
        cols[at] = offset
        del key, offset, at
    rdeg = ddeg.reshape(-1, u).cumsum(axis=0).ravel()[:m]
    rsum = dsum.reshape(-1, u).cumsum(axis=0).ravel()[:m] - (h - 1 - np.arange(m) // u) * step * rdeg
    cdeg = lens[A.seg]
    return rdeg, rsum, cdeg, ssum[A.seg] + cdeg * A.shift, (Qs, P[:-1], cols)


def _row_entries(A: _Segs, cells, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, cols): every entry of the rows `rows` of A, an entry of row
    owner[.] (int64) in column cols[.] (of _pattern's offset type), from one
    window of _pattern's cells by row per row and group: 16 bytes an entry
    and as many a window, at most, with window keys of int32."""
    Qs, ptr, offsets = cells
    m, u = A.m, A.unit
    q = (rows // u).astype(np.int32)
    key = (rows % u * (m // u)).astype(np.int32)[:, None] + q[:, None] \
        + np.arange(Qs.size, dtype=np.int32) * m  # each row's own key in each group
    hi = ptr[key + 1]
    key -= np.minimum(q[:, None], (Qs - 1).astype(np.int32))  # that of row r - (Qs[g] - 1) u
    lo = ptr[key]
    del key
    lens = hi - lo
    del hi
    cols = offsets[_ranges(lo.ravel(), lens.ravel())]
    per_row = lens.sum(axis=1, dtype=np.int64)
    del lo, lens
    cols -= np.repeat(((m // u - 1 - q) * A.step).astype(cols.dtype), per_row)  # no wrap
    return np.repeat(rows, per_row), cols


def _pivot_singletons(deg, lsum, live, olive, entries, size) -> int:
    """One batch of _singleton_pivots on the lines of one side.

    Every live line of degree 1 whose partner (lsum) is not yet taken becomes
    a pivot; line and partner die, and the partners' entries, (owner, index)
    pairs from entries(partners), are subtracted from deg and lsum, read in
    strips of about _STRIP entries by the partners' sizes (all their entries).
    """
    lines = np.nonzero(live & (deg == 1))[0]
    partners, first = np.unique(lsum[lines], return_index=True)
    for c0, c1 in batches(size[partners], _STRIP):
        owner, hit = entries(partners[c0:c1])
        np.subtract.at(deg, hit, 1)
        np.subtract.at(lsum, hit, owner)
        del owner, hit
    live[lines[first]] = False
    olive[partners] = False
    return partners.size


def _rank_gf2(words: np.ndarray) -> tuple[int, np.ndarray]:
    """Rank over GF(2) of packed rows (_packed) and its pivot rows, by M4RI
    elimination (Albrecht-Bard-Hart, ACM TOMS 37(1), 2010; Bard 2006) on a
    private copy.

    Columns go in groups of 8, one byte of every row; only live rows whose
    byte is nonzero take part.  The group's pivot rows are found on those
    bytes alone: a row is a pivot when its byte lies outside the span of the
    bytes of the pivots before it, a set of at most 256 small ints kept in
    Python (groups have about a hundred candidates on the Cartier matrices,
    too few for vectorised passes to pay).  The other bytes then lie in the
    span of the pivot bytes, which are independent, so the 2^npiv XOR
    combinations of the pivot rows (_xor_table), combination i of byte key[i],
    clear the group from every row in one pass: row ^= comb[inv[its byte]],
    inv[key[i]] = i.  That zeroes the pivot rows, which leave the live set.
    Live rows are zero left of the group, so the table holds only words from
    the group's onward.  Rows never move, so the pivot rows index `words`.
    """
    W = words.copy()
    B = W.view(np.uint8)
    T = np.empty((256, W.shape[1]), dtype=np.uint64)
    inv = np.zeros(256, dtype=np.intp)  # entries off the span are never read
    live = np.ones(W.shape[0], dtype=bool)
    found: list[np.ndarray] = []
    for g in range(B.shape[1]):
        rows = np.flatnonzero(B[:, g])
        rows = rows[live[rows]]
        if rows.size == 0:
            continue
        s = B[rows, g]
        key, span, piv = [0], {0}, []  # key[i]: the byte of XOR combination i of the pivots
        for t, byte in enumerate(s.tolist()):
            if byte not in span:
                more = [x ^ byte for x in key]
                key += more
                span.update(more)
                piv.append(t)
                if len(piv) == 8:
                    break
        w, prows = g // 8, rows[piv]
        comb = _xor_table(W[prows, w:], T[:, w:])
        inv[key] = np.arange(len(key))
        W[rows, w:] ^= comb[inv[s]]
        live[prows] = False
        found.append(prows)
    prows = np.concatenate(found) if found else np.empty(0, dtype=np.intp)
    return prows.size, prows


def _rank_blocked(A: np.ndarray, p: int) -> tuple[int, np.ndarray]:
    """Blocked LU-style rank over GF(p) of the residues A and its pivot rows,
    eliminating A in place: the caller's private copy, int8 from _gather.

    Columns go in panels of _PANEL, and each panel is converted to float, rows
    from the first live one down, and factored there in sub-panels of _SUB.
    Within a sub-panel each pivot's rank-1 update touches only the
    sub-panel's columns right of the pivot; at its end one GEMM
    (_apply_pivots) updates the rest of the panel.  The pivot column stores
    the multipliers, so row swaps keep L attached to the correct rows.  At the
    end of a panel its multipliers update the trailing columns of A one block
    at a time: a block is converted to float, updated by _apply_pivots and
    its live rows reduced back into A.  Rows are swapped whole (in A only
    right of the panel, which is all that is read again), and `perm` follows
    the swaps, so the pivot rows of A are perm[:rank].

    Multipliers and pivot rows are reduced mod p (float_mod) before use, and
    every panel and block starts as residues, so an entry is a residue plus
    at most one product of residues per pivot of one panel: a sum of at most
    _PANEL + 1 such products, for which gf.check_float_exact picks the float
    type (float32 for every p <= 13).  Besides A, the live temporaries are
    the panel or its multipliers and a block, its GEMM result and its
    quotients, each of at most one panel's size and _GEMM_CHUNK elements.
    """
    m, n = A.shape
    dt = check_float_exact(_PANEL + 1, p)
    perm = np.arange(m)
    r = 0
    for c0 in range(0, n, _PANEL):
        if r == m:
            break
        c1 = min(c0 + _PANEL, n)
        r0 = r
        P = A[r0:, c0:c1].astype(dt)  # row i is row r0 + i of A
        pcols: list[int] = []  # the panel column of the pivot of row r0 + t
        for s0 in range(0, c1 - c0, _SUB):
            s1 = min(s0 + _SUB, c1 - c0)
            q0 = r
            for c in range(s0, s1):
                if r == m:
                    break
                i = r - r0
                col = float_mod(P[i:, c].copy(), p)
                nz = np.flatnonzero(col)
                if nz.size == 0:
                    continue
                piv = int(nz[0])
                if piv:
                    P[[i, i + piv]] = P[[i + piv, i]]
                    A[[r, r + piv], c1:] = A[[r + piv, r], c1:]
                    perm[[r, r + piv]] = perm[[r + piv, r]]
                    col[[0, piv]] = col[[piv, 0]]
                inv = pow(int(col[0]), p - 2, p)
                factors = float_mod(col[1:] * inv, p)
                if factors.any():
                    P[i + 1:, c + 1:s1] -= np.outer(factors, float_mod(P[i, c + 1:s1].copy(), p))
                P[i + 1:, c] = factors
                pcols.append(c)
                r += 1
            Lq = P[q0 - r0:, pcols[q0 - r0:]]
            _apply_pivots(_unit_inverse(Lq, p), Lq, P[q0 - r0:, s1:], p)
        if r == m or r == r0:
            continue
        L = P[:, pcols]
        del P
        X = _unit_inverse(L, p)
        w = max(1, min(_PANEL, _GEMM_CHUNK // (m - r0)))
        for s in range(c1, n, w):
            B = A[r0:, s:s + w].astype(dt)
            _apply_pivots(X, L, B, p)
            A[r:, s:s + w] = float_mod(B[r - r0:], p)
    return r, perm[:r]


def _unit_inverse(L: np.ndarray, p: int) -> np.ndarray:
    """X = L11^-1 mod p, L11 the unit lower triangular matrix whose strictly
    lower part is L[t, :t], t < L.shape[1], by forward substitution."""
    npiv = L.shape[1]
    X = np.eye(npiv, dtype=L.dtype)
    for t in range(1, npiv):
        ft = L[t, :t]
        if ft.any():
            X[t] = float_mod(X[t] - ft @ X[:t], p)
    return X


def _apply_pivots(X: np.ndarray, L: np.ndarray, B: np.ndarray, p: int) -> None:
    """Eliminate npiv = L.shape[1] pivots from the float block B, in place.
    Rows t < npiv of L and B belong to pivot t: L[t, :t] holds its multipliers
    by the earlier pivots and B[t] its row, and X = _unit_inverse(L).  B[:npiv]
    becomes the reduced pivot rows U = X B[:npiv] mod p, then one GEMM
    subtracts L[npiv:] @ U from the rows below."""
    npiv = L.shape[1]
    if npiv == 0:
        return
    U = float_mod(B[:npiv], p)
    U[:] = float_mod(X @ U, p)
    B[npiv:] -= L[npiv:] @ U


def twisted_power_kernels(M: DenseMatrix, R: int) -> list[int]:
    """Kernel dimensions of N_r = M sigma^-1(M) ... sigma^-(r-1)(M), r = 1..R:
    those of the powers of the sigma^-1-semilinear operator with matrix M.

    Only a row basis of each power is multiplied: the pivot rows of an
    elimination span the row space, and rowspace(M^r) = rowspace(M^(r-1)) M
    (on the stored GF(p) matrices, where the twisted product is a plain
    one), so the pivot rows of M^(r-1) times M have the rank of M^r.  That
    product has as many rows as the GF(p) rank of M^(r-1), which shrinks as r
    grows; over GF(2) M is packed once, for the first product (_factor).  No
    product is formed past R, nor once the kernel is the whole space.  On the
    Cartier matrices it gets there: V is nilpotent, as every level has base
    genus 0 and one totally ramified branch point, so its p-rank, the
    Deuring-Shafarevich count p^n (d_0 + |S| - 1) - (|S| - 1), is 0.  The
    sequence must be nondecreasing with concave increments; a violation
    raises InternalConsistencyError.
    """
    if not M.is_square():
        raise LinAlgError("twisted powers need a square matrix")
    dims: list[int] = []
    N = M
    while len(dims) < R and (not dims or dims[-1] < M.cols):
        if dims:
            if N is M:  # the first product: M and its pivot rows from one _factor
                N = M = _factor(M)
            N = _rows_times(N, rows, M)
        rho, rows = _row_basis(N)
        dims.append(M.cols - rho)
        if len(dims) >= 2 and dims[-1] < dims[-2]:
            raise InternalConsistencyError(f"kernel dimensions decrease: {dims}")
        if len(dims) >= 3 and dims[-1] - dims[-2] > dims[-2] - dims[-3]:
            raise InternalConsistencyError(f"kernel increments not concave: {dims}")
    return dims + [M.cols] * (R - len(dims))

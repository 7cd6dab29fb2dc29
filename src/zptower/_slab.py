"""Dense kernel for y-reduced tower polynomials.

A Slab stores a reduced polynomial in x, y_1..y_level as an int64 array of
shape (p**level, k, X): one row per y-exponent tuple (coded little-endian in
base p), one coefficient vector of length k per power of x.  Entries are
residues in [0, p); all arithmetic is exact.  A differential form h dx at a
tower level is the Slab of h.  A Monomial x^nu y_1^a_1 ... y_n^a_n names one
entry by its exponents.  Products take the layer right-hand sides
f_1..f_level as a list of slabs and reduce y_j^p to y_j + f_j; the kernel holds
no tower of its own.

All products run through one batched x-convolution, _xconv: it gathers many
(k, X) blocks and the blocks they multiply and forms every product with float64
GEMMs against a sliding-window (Toeplitz) view, in chunks of at most
_CONV_CHUNK elements per temporary, adding the results into target y-codes by
integer key arithmetic.  mul forms all code pairs at once and then reduces in
waves, one batched product of the overflowing blocks with f_j per wave;
v_apply forms all p-th-root cofactors against their Cartier table entries at
once.

Slab is the package's only polynomial type.  The test suite checks every
operation here against the sparse dict reference in tests/oracle.py.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .gf import FieldCtx, InternalConsistencyError


class PolyError(ValueError):
    pass


class Monomial(NamedTuple):
    """Exponents of a single term: x^nu * prod y_j^a[j-1]."""

    nu: int
    a: tuple[int, ...]

    def pad(self, level: int) -> "Monomial":
        if len(self.a) >= level:
            return self
        return Monomial(self.nu, self.a + (0,) * (level - len(self.a)))


class Slab:
    __slots__ = ("ctx", "level", "arr")

    def __init__(self, ctx: FieldCtx, level: int, arr: np.ndarray):
        self.ctx = ctx
        self.level = level
        self.arr = arr  # (p**level, k, X) int64, entries in [0, p)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zeros(cls, ctx: FieldCtx, level: int, xcap: int = 1) -> "Slab":
        return cls(ctx, level, np.zeros((ctx.p ** level, ctx.k, max(xcap, 1)), dtype=np.int64))

    @classmethod
    def monomial(cls, ctx: FieldCtx, m: Monomial, coeff=None, level: int | None = None) -> "Slab":
        level = len(m.a) if level is None else level
        m = m.pad(level)
        s = cls.zeros(ctx, level, m.nu + 1)
        c = ctx.one() if coeff is None else ctx.elem(coeff)
        s.arr[code_of(ctx.p, m.a), :, m.nu] = c.coeffs
        return s

    # -- basic structure --------------------------------------------------------

    def copy(self) -> "Slab":
        return Slab(self.ctx, self.level, self.arr.copy())

    def is_zero(self) -> bool:
        return not self.arr.any()

    def trim(self) -> "Slab":
        nz = np.nonzero(self.arr.any(axis=(0, 1)))[0]
        xcap = int(nz[-1]) + 1 if nz.size else 1
        if xcap != self.arr.shape[2]:
            self.arr = np.ascontiguousarray(self.arr[:, :, :xcap])
        return self

    def at_level(self, level: int) -> "Slab":
        if level == self.level:
            return self
        if level < self.level:
            S = self.ctx.p ** level
            if self.arr[S:].any():
                raise PolyError("cannot lower slab level: higher variables present")
            return Slab(self.ctx, level, np.ascontiguousarray(self.arr[:S]))
        out = Slab.zeros(self.ctx, level, self.arr.shape[2])
        out.arr[: self.arr.shape[0]] = self.arr
        return out

    def nonzero_codes(self) -> np.ndarray:
        return np.nonzero(self.arr.any(axis=(1, 2)))[0]

    # -- additive arithmetic -----------------------------------------------------

    def add_into(self, other: "Slab", scale: int = 1) -> "Slab":
        """self += scale * other (in place; levels and X padded as needed)."""
        p = self.ctx.p
        if other.level > self.level:
            raise PolyError("add_into target level too small")
        ob = other.arr
        if ob.shape[2] > self.arr.shape[2]:
            grown = np.zeros((self.arr.shape[0], self.ctx.k, ob.shape[2]), dtype=np.int64)
            grown[:, :, : self.arr.shape[2]] = self.arr
            self.arr = grown
        view = self.arr[: ob.shape[0], :, : ob.shape[2]]
        view += scale % p * ob
        view %= p
        return self

    def __add__(self, other: "Slab") -> "Slab":
        lvl = max(self.level, other.level)
        out = self.at_level(lvl).copy()
        return out.add_into(other)

    def __sub__(self, other: "Slab") -> "Slab":
        lvl = max(self.level, other.level)
        out = self.at_level(lvl).copy()
        return out.add_into(other, scale=-1)

    def scale(self, c) -> "Slab":
        """Multiply by a field scalar: its k x k GF(p) matrix on every coefficient vector."""
        M = self.ctx.mul_matrices(np.array([self.ctx.elem(c).coeffs]))[0]
        return Slab(self.ctx, self.level, M @ self.arr % self.ctx.p)

    # -- valuation data ------------------------------------------------------------

    def pole_data(self, d: Sequence[int], n: int):
        """(pole_order, code, nu, coeff tuple) of the deepest pole at level n of a
        tower with lower breaks d; None if zero.

        Uses the distinct-valuation property of reduced monomials (checked).
        """
        p = self.ctx.p
        nz = self.arr.any(axis=1)  # (S, X)
        rows = np.nonzero(nz.any(axis=1))[0]
        if rows.size == 0:
            return None
        lastnu = self.arr.shape[2] - 1 - nz[rows, ::-1].argmax(axis=1)
        weights = code_weights(p, self.level, d, n)[rows]
        poles = lastnu * p ** n + weights
        order = np.argsort(poles)[::-1]
        best = order[0]
        if rows.size > 1 and poles[order[1]] == poles[best]:
            raise InternalConsistencyError(
                "tied pole orders: distinct-valuation property violated")
        code, nu = int(rows[best]), int(lastnu[best])
        return int(poles[best]), code, nu, tuple(int(v) for v in self.arr[code, :, nu])


def code_of(p: int, digits: Iterable[int]) -> int:
    code = 0
    for j, e in enumerate(digits):
        code += e * p ** j
    return code


def digits_of(p: int, code: int, level: int) -> tuple[int, ...]:
    out = []
    for _ in range(level):
        out.append(code % p)
        code //= p
    return tuple(out)


def code_weights(p: int, level: int, d: Sequence[int], n: int) -> np.ndarray:
    """weights[code] = sum digits_j * d_j * p^(n-j) over j = 1..level: the pole
    order at level n of y^code, given the lower breaks d_1..d_level."""
    S = p ** level
    w = np.zeros(S, dtype=np.int64)
    for j in range(1, level + 1):
        dig = (np.arange(S) // p ** (j - 1)) % p
        w += dig * d[j - 1] * p ** (n - j)
    return w


# ---------------------------------------------------------------------------
# batched x-convolution over GF(p^k)
# ---------------------------------------------------------------------------

_CONV_CHUNK = 1 << 16  # float64 elements per temporary of the batched x-convolution
_KEY_BITS = 6  # bits per y-digit in the integer keys of unreduced y-exponents (8 levels: 48)


def _exact(inner: int, p: int) -> None:
    """Raise unless a float64 sum of `inner` products of residues below p is
    exact, i.e. inner * (p-1)^2 < 2^53."""
    if inner * (p - 1) ** 2 >= 1 << 53:
        raise InternalConsistencyError(
            f"x-convolution of inner dimension {inner} is not exact in float64 for p={p}")


def _xconv(a: Sequence[np.ndarray], h: np.ndarray, rows: np.ndarray, into: np.ndarray,
           ctx: FieldCtx) -> None:
    """into[rows[t, g]] += sum_e a[e][t] * h[e, g] in GF(p^k)[x], for every row t
    of the a[e] and every block g of h.

    a[e] is a (T, k, La_e) residue array, h an (E, G, k, Lh) one and rows a
    (T, G) array of row indices into the int64 array `into`, which is at least
    max La_e + Lh - 1 long in x and is left unreduced; no row of `rows`
    repeats an index.

    One float64 GEMM per chunk forms every product: the x-reversed rows (t, i)
    of the a[e], padded to a common length L, times the sliding-window
    (Toeplitz) view of h whose row (e, r) and column (g, j, n) hold
    h[e, g, j, n - L + 1 + r].  Entry (t, i), (g, j, n) of the result is the
    coefficient of x^n in sum_e a[e][t, i] h[e, g, j]; the k^2 coefficient
    products then fold modulo the field polynomial (ctx.fold).  The sum is
    exact: it adds at most sum_e La_e products of residues below p, which
    _exact checks is below 2^53 (for p <= 13 that allows 6e13 terms).  Each
    temporary holds at most twice _CONV_CHUNK elements, apart from one entry's
    block of a when that block alone is larger.
    """
    p, k = ctx.p, ctx.k
    E, G, _, Lh = h.shape
    T = rows.shape[0]
    if not (E and G and T):
        return
    srt = np.sort(rows, axis=1)
    if np.any(srt[:, 1:] == srt[:, :-1]):
        raise InternalConsistencyError("x-convolution sends two blocks of one row to one target")
    la = [x.shape[2] for x in a]
    _exact(sum(la), p)
    nout = max(la) + Lh - 1
    ncols = max(1, _CONV_CHUNK // max(max(la), T * k))  # Toeplitz and GEMM output columns
    cn = min(nout, max(1, ncols // k))
    cg = min(G, max(1, ncols // (k * nout))) if cn == nout else 1
    inner = max(1, _CONV_CHUNK // max(cg * k * cn, T * k))  # Toeplitz rows and a-block columns
    chunks, e0 = [], 0
    while e0 < E:
        e1, L = e0 + 1, la[e0]
        while e1 < E and (e1 + 1 - e0) * max(L, la[e1]) <= inner:
            L = max(L, la[e1])
            e1 += 1
        chunks.append((e0, e1, L))
        e0 = e1
    for g0 in range(0, G, cg):
        g1 = min(G, g0 + cg)
        for n0 in range(0, nout, cn):
            n1 = min(nout, n0 + cn)
            acc = np.zeros((T * k, (g1 - g0) * k * (n1 - n0)))
            for e0, e1, L in chunks:
                blk = np.zeros((e1 - e0, T, k, L))
                for e in range(e0, e1):
                    blk[e - e0, :, :, L - la[e]:] = a[e][:, :, ::-1]
                blk = blk.transpose(1, 2, 0, 3).reshape(T * k, -1)
                live = np.flatnonzero(blk.any(axis=1))
                # hp[..., m] = h[..., n0 - L + 1 + m], zero outside h
                hp = np.zeros((e1 - e0, g1 - g0, k, L - 1 + n1 - n0))
                x0, x1 = max(0, n0 - L + 1), min(Lh, n1)
                if x0 < x1:
                    hp[..., x0 - n0 + L - 1: x1 - n0 + L - 1] = h[e0:e1, g0:g1, :, x0:x1]
                # the window view (e, r, g, j, n) -> hp[e, g, j, r + n], copied
                # contiguous: BLAS does not take its overlapping strides
                se, sg, sj, sx = hp.strides
                toe = np.ndarray((e1 - e0, L, g1 - g0, k, n1 - n0), hp.dtype, hp, 0,
                                 (se, sx, sg, sj, sx))
                toe = np.ascontiguousarray(toe).reshape(blk.shape[1], -1)
                acc[live] += blk[live] @ toe
            out = np.fmod(acc, p, out=acc).astype(np.int64)  # acc >= 0: fmod is mod
            out = out.reshape(T, k, g1 - g0, k, n1 - n0)
            if k == 1:
                vals = out[:, 0, :, :, :]
            else:
                raw = np.zeros((T, g1 - g0, 2 * k - 1, n1 - n0), dtype=np.int64)
                for i in range(k):
                    raw[:, :, i:i + k] += out[:, i]
                vals = ctx.fold(raw, axis=2)
            for t in range(T):  # rows[t] repeats no index, so += adds every block
                into[rows[t, g0:g1], :, n0:n1] += vals[t]


def _keys(p: int, codes: np.ndarray, level: int) -> np.ndarray:
    """Integer keys of the y-exponents of `codes`: digit j in bits
    _KEY_BITS*j.., so adding keys adds exponents digit by digit."""
    keys = np.zeros(codes.shape, dtype=np.int64)
    for j in range(level):
        keys += (codes // p ** j % p) << (_KEY_BITS * j)
    return keys


# ---------------------------------------------------------------------------
# multiplication with y-reduction
# ---------------------------------------------------------------------------

def mul(a: Slab, b: Slab, layers: Sequence[Slab]) -> Slab:
    """Reduced product of two reduced slabs, rewriting y_j^p -> y_j + f_j with
    f_j = layers[j-1], the reduced right-hand side of layer j at level j-1."""
    ctx = a.ctx
    lvl = max(a.level, b.level)
    if a.arr.shape[2] > b.arr.shape[2]:
        a, b = b, a  # the shorter factor is the GEMM's inner side
    ca, cb = a.nonzero_codes(), b.nonzero_codes()
    keys, rows = np.unique(_keys(ctx.p, ca, a.level)[:, None] + _keys(ctx.p, cb, b.level),
                           return_inverse=True)
    blocks = np.zeros((keys.size, ctx.k, a.arr.shape[2] + b.arr.shape[2] - 1), dtype=np.int64)
    _xconv([a.arr[ca]], b.arr[cb][None], rows.reshape(ca.size, cb.size), blocks, ctx)
    return _finish_reduce(keys, blocks, ctx, lvl, layers)


def _finish_reduce(keys: np.ndarray, blocks: np.ndarray, ctx: FieldCtx, lvl: int,
                   layers: Sequence[Slab]) -> Slab:
    """The reduced slab of sum_i y^keys[i] blocks[i] (keys as in _keys, blocks
    (N, k, X) with distinct keys).

    Digits can exceed p-1 after a single multiplication; each overflow splits
    via y_j^p = y_j + f_j, whose f_j factor only touches digits below j, so the
    rewriting terminates.  Each wave takes the blocks whose highest overflowing
    digit is the highest of all, say j, and forms their products with every
    row of f_j in one batched convolution (_xconv); blocks are coalesced by key
    between waves, since without that the splits recombine exponentially.
    """
    p, k = ctx.p, ctx.k
    shifts = _KEY_BITS * np.arange(lvl)
    done: list[tuple[np.ndarray, np.ndarray]] = []
    while keys.size:
        blocks %= p
        live = blocks.any(axis=(1, 2))
        keys, blocks = keys[live], blocks[live]
        dig = keys[:, None] >> shifts & ((1 << _KEY_BITS) - 1)
        if dig.size and dig.max() > (1 << _KEY_BITS) - p:
            raise InternalConsistencyError("y-exponent digit outgrew its key field")
        over = dig >= p
        fin = ~over.any(axis=1)
        done.append((dig[fin] @ p ** np.arange(lvl), blocks[fin]))
        if fin.all():
            break
        top = np.where(fin, -1, lvl - 1 - over[:, ::-1].argmax(axis=1))  # highest overflow
        j = int(top.max())
        sel, rest = top == j, ~fin & (top < j)
        base = keys[sel] - (p << _KEY_BITS * j)
        fj = layers[j]
        cf = fj.nonzero_codes()
        prods = _keys(p, cf, fj.level)[:, None] + base
        keys, rows = np.unique(np.concatenate(
            (keys[rest], base + (1 << _KEY_BITS * j), prods.ravel())), return_inverse=True)
        nxt = np.zeros((keys.size, k, blocks.shape[2] + fj.arr.shape[2] - 1), dtype=np.int64)
        nr, ns = int(rest.sum()), int(sel.sum())
        # each group's keys are distinct, so += adds every block
        nxt[rows[:nr], :, :blocks.shape[2]] += blocks[rest]
        nxt[rows[nr:nr + ns], :, :blocks.shape[2]] += blocks[sel]
        _xconv([fj.arr[cf]], blocks[sel][None], rows[nr + ns:].reshape(prods.shape), nxt, ctx)
        blocks = nxt
    return _materialize(ctx, lvl, done)


def _materialize(ctx: FieldCtx, lvl: int, parts: list[tuple[np.ndarray, np.ndarray]]) -> Slab:
    """The level-lvl slab sum y^code block over the (codes, blocks) parts, each
    with distinct codes and (N, k, X) blocks of any length X."""
    out = Slab.zeros(ctx, lvl, max((b.shape[2] for _, b in parts), default=1))
    for codes, b in parts:
        out.arr[codes, :, :b.shape[2]] += b
    out.arr %= ctx.p
    return out.trim()


# ---------------------------------------------------------------------------
# Cartier application
# ---------------------------------------------------------------------------

def v_apply(g: Slab, tables: dict[tuple[int, int], Slab]) -> Slab:
    """Apply the Cartier operator to g*dx at g's level.

    tables maps (nu0, ycode) with nu0 < p to the reduced value of V on
    x^nu0 y^code dx at the same level.  Each group of monomials congruent to
    x^nu0 mod p in a row of g contributes sigma^{-1}(h) times that table
    entry, where h collects the p-th-root cofactors; one batched convolution
    (_xconv) forms the sum of all of them.
    """
    ctx = g.ctx
    p, k = ctx.p, ctx.k
    finv = ctx.inv_frob_matrix()
    X = g.arr.shape[2]
    cofactors, entries = [], []
    for code in g.nonzero_codes().tolist():
        for nu0 in range(min(p, X)):
            sub = g.arr[code, :, nu0::p]
            if sub.any():
                cofactors.append(sub if k == 1 else finv @ sub % p)
                entries.append(tables[(nu0, code)].arr)
    S = p ** g.level
    if not cofactors:
        return Slab.zeros(ctx, g.level)
    h = np.zeros((len(cofactors), 1, k, -(-X // p)), dtype=np.int64)
    for e, c in enumerate(cofactors):
        h[e, 0, :, :c.shape[1]] = c
    out = np.zeros((S, k, max(e.shape[2] for e in entries) + h.shape[3] - 1), dtype=np.int64)
    _xconv(entries, h, np.arange(S)[:, None], out, ctx)
    return Slab(ctx, g.level, out % p).trim()

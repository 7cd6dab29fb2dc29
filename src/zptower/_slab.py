"""Dense kernel for y-reduced tower polynomials.

A Slab stores a reduced polynomial in x, y_1..y_level as an array of shape
(p**level, k, X): one row per y-exponent tuple (coded little-endian in base
p), one coefficient vector of length k per power of x.  Entries are int8
residues in [0, p); all arithmetic is exact.  A differential form h dx at a
tower level is the Slab of h.  A Monomial x^nu y_1^a_1 ... y_n^a_n names one
entry by its exponents.  Products take the layer right-hand sides
f_1..f_level as a list of slabs and reduce y_j^p to y_j + f_j; the kernel
holds no tower of its own and never sees the lower breaks, so the pole
orders of monomials at infinity belong to tower.

All products run through one batched x-convolution, _xconv: it gathers many
(k, X) blocks and the blocks they multiply and forms every product with GEMMs
of shift blocks against a sliding-window (Toeplitz) copy, in chunks whose
temporaries hold about _CONV_CHUNK elements, adding the results into target
y-codes by integer key arithmetic.  It is GF(p)-bilinear and knows no field
polynomial: over GF(p^k) its callers pass each coefficient of one factor as
its k x k GF(p) matrix (gf's restriction of scalars: FieldCtx.mul_matrices,
and for V the sigma^-1-twisted FieldCtx.semilinear_blocks), so one float
reduction serves every k.  mul_pairs forms many sums of products a b at
once, one _xconv per distinct a against the stacked blocks of its b's, and
then reduces them all in one loop of waves (_finish_reduce), one batched
product of the overflowing blocks with f_j per wave; mul is its one-pair case.
ymul forms many products y^code f in that same reduction, each keyed by its
index.  Both split their products into batches of whole indices that hold
about _REDUCE_BATCH elements, one reduction each.  lincomb forms GF(p)
combinations of slabs, and v_apply applies V to a sequence of forms, each
by groups padded to their longest member (_padded_groups): one float
product of coefficients and slabs, or one convolution of every Cartier
table entry, as the matrices of c -> entry sigma^-1(c) (v_entries expands
a level's table to them once), against the p-th-root cofactors of all the
group's forms.

Slab is the package's only polynomial type.  The test suite checks every
operation here against the sparse dict reference in tests/oracle.py.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .gf import FieldCtx, InternalConsistencyError, check_float_exact, float_mod


class PolyError(ValueError):
    pass


class Monomial(NamedTuple):
    """Exponents of a single term: x^nu * prod y_j^a[j-1]."""

    nu: int
    a: tuple[int, ...]


class Slab:
    __slots__ = ("ctx", "level", "arr")

    def __init__(self, ctx: FieldCtx, level: int, arr: np.ndarray):
        self.ctx = ctx
        self.level = level
        self.arr = np.asarray(arr, dtype=np.int8)  # (p**level, k, X) residues in [0, p)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zeros(cls, ctx: FieldCtx, level: int, xcap: int = 1) -> "Slab":
        return cls(ctx, level, np.zeros((ctx.p ** level, ctx.k, max(xcap, 1)), dtype=np.int8))

    @classmethod
    def monomial(cls, ctx: FieldCtx, m: Monomial) -> "Slab":
        s = cls.zeros(ctx, len(m.a), m.nu + 1)
        s.arr[code_of(ctx.p, m.a), :, m.nu] = ctx.one().coeffs
        return s

    # -- basic structure --------------------------------------------------------

    def trim(self) -> "Slab":
        nz = np.nonzero(self.arr.any(axis=(0, 1)))[0]
        xcap = int(nz[-1]) + 1 if nz.size else 1
        if xcap != self.arr.shape[2]:
            self.arr = np.ascontiguousarray(self.arr[:, :, :xcap])
        return self

    def at_level(self, level: int) -> "Slab":
        if level == self.level:
            return self
        out = Slab.zeros(self.ctx, level, self.arr.shape[2])
        out.arr[: self.arr.shape[0]] = self.arr
        return out

    def nonzero_codes(self) -> np.ndarray:
        return np.nonzero(self.arr.any(axis=(1, 2)))[0]

    # -- additive arithmetic -----------------------------------------------------

    def _plus(self, other: "Slab", scale: int) -> "Slab":
        """self + scale * other, at the larger level and x-length; scale is 1 or
        -1, so the unreduced sum stays within int8 (|sum| < 2p <= 26)."""
        a, b = self.arr, other.arr
        out = Slab.zeros(self.ctx, max(self.level, other.level), max(a.shape[2], b.shape[2]))
        out.arr[:a.shape[0], :, :a.shape[2]] = a
        out.arr[:b.shape[0], :, :b.shape[2]] += scale * b
        out.arr %= self.ctx.p
        return out

    def __add__(self, other: "Slab") -> "Slab":
        return self._plus(other, 1)

    def __sub__(self, other: "Slab") -> "Slab":
        return self._plus(other, -1)

    def scale(self, c) -> "Slab":
        """Multiply by a field scalar: its k x k GF(p) matrix on every coefficient vector."""
        M = self.ctx.mul_matrices(np.array([self.ctx.elem(c).coeffs]))[0]
        return Slab(self.ctx, self.level, M @ self.arr % self.ctx.p)


def code_digits(p: int, codes, level: int) -> np.ndarray:
    """digits[..., j] = base-p digit j of codes (j < level), the exponent of y_(j+1)."""
    return np.asarray(codes, dtype=np.int64)[..., None] // p ** np.arange(level) % p


def code_of(p: int, digits) -> np.ndarray:
    """The y-codes of digits, along their last axis: the inverse of code_digits."""
    return np.asarray(digits, dtype=np.int64) @ p ** np.arange(np.shape(digits)[-1])


# ---------------------------------------------------------------------------
# batched x-convolution over GF(p^k)
# ---------------------------------------------------------------------------

_CONV_CHUNK = 1 << 16  # elements of the temporaries alive together in one _xconv chunk
_BATCH = 1 << 20  # elements of the cofactor and output blocks of one v_apply group
# elements of the products that one batched y-reduction starts from, and of
# the values of one lincomb group: with one digit overflowing, a reduction's
# working set is about 2.5 times that, so p3d7's level-4 table and p2d21's
# level-6 build peak lower than when each lowcode or product had a reduction
# of its own
_REDUCE_BATCH = 1 << 16
_KEY_BITS = 6  # bits per y-digit in the integer keys of unreduced y-exponents (8 levels: 48)


def batches(sizes: Sequence[int], budget: int) -> Iterator[tuple[int, int]]:
    """The consecutive ranges [i, j) that cover sizes, each the longest from i
    whose sizes sum to at most budget, and at least one long."""
    ends = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    i = 0
    while i < len(sizes):
        j = max(i + 1, int(np.searchsorted(ends, ends[i] + budget, side="right")) - 1)
        yield i, j
        i = j


def _padded_groups(widths: np.ndarray, unit, budget: int) -> Iterator[np.ndarray]:
    """The indices of widths, ascending in width, cut into the longest runs (one
    index at least) whose members hold at most budget elements, unit(w) each for
    the run's widest w."""
    order = np.argsort(widths, kind="stable")
    i = 0
    while i < order.size:
        j = i + 1
        while j < order.size and (j + 1 - i) * unit(int(widths[order[j]])) <= budget:
            j += 1
        yield order[i:j]
        i = j


def _xconv(a: Sequence[np.ndarray], h: np.ndarray, rows: np.ndarray, into: np.ndarray,
           p: int) -> None:
    """into[rows[t, g]] += sum_e a[e][t] h[e, g] in GF(p)^k[x], for every row t
    of the a[e] and every block g of h: a[e][t] is a polynomial in x with k x k
    GF(p) matrix coefficients (FieldCtx.mul_matrices or semilinear_blocks)
    acting on the coefficient vectors of h[e, g].

    a[e] is a (T, k, k, La_e) residue array, h an (E, G, k, Lh) one and rows a
    (T, G) array of row indices into the integer array `into`, which is at
    least max La_e + Lh - 1 long in x and is left unreduced; no row of `rows`
    repeats an index.  Each (t, g) adds one reduced block, so `into` may be
    int8 where no two of them share a target row, and is int64 otherwise.

    GEMMs form every product.  The entries e with a nonzero a[e] and h[e] are
    taken longest first, and each a[e] is cut into shift blocks of b x-powers:
    block s of every entry is one (T k) x (E k b) matrix whose nonzero
    columns are a prefix, since a shorter entry ends sooner.  It multiplies
    the sliding-window (Toeplitz) copy of h over b shifts, whose row (e, j, c)
    and column (g, m) hold h[e, g, j, m - b + 1 + c], and the result is added
    into the accumulator at x-offset s b.  b balances that window copy, E k b
    rows, against the accumulator additions, T k rows per shift block, so it
    is about sqrt(La T / E); when the whole window copy over all La shifts
    is small, b = La and each chunk is one GEMM.  Entry (t, i), (g, n) of the
    accumulator is the coefficient of x^n in component i of
    sum_e a[e][t] h[e, g], reduced mod p by float_mod.  The sum is exact: it
    adds at most k sum_e La_e products of residues below p, and
    check_float_exact picks the float type for that many: float32 while
    k sum_e La_e (p-1)^2 is below 2^24, so that every partial sum is an
    integer float32 holds exactly, float64 below 2^53 (for p <= 13 that
    allows 6e13 terms).

    The blocks g go in chunks, then the entries, then x-pieces of h.  The
    temporaries alive together (the accumulator with either a piece of h, its
    gather and window copies and one GEMM result, or the int64 residues of a
    group of the accumulator's rows and their scatter copy) hold at most
    _CONV_CHUNK elements.  When one block's accumulator, T k (Lh + La)
    elements, alone takes more than half of that, a chunk is that one block
    and its other temporaries stay within half of _CONV_CHUNK.  A chunk takes
    at least one column of h and one row of the accumulator, and b is capped
    so that a piece of one entry 2 b columns wide fits.  The shift blocks of
    a, a copy of the live a[e] padded to a multiple of b, come on top; they
    are built once per call.
    """
    E, G, k, Lh = h.shape
    T = rows.shape[0]
    if not (E and G and T):
        return
    srt = np.sort(rows, axis=1)
    if np.any(srt[:, 1:] == srt[:, :-1]):
        raise InternalConsistencyError("x-convolution sends two blocks of one row to one target")
    la = np.array([x.shape[3] for x in a])
    inner = k * int(la.sum())
    dt = check_float_exact(inner, p)
    live = np.flatnonzero(h.reshape(E, -1).any(axis=1) & np.array([x.any() for x in a]))
    if not live.size:
        return
    order = live[np.argsort(-la[live], kind="stable")]  # longest first
    Ev, L = order.size, int(la[order[0]])
    if Ev * L * G * k * (Lh + L) <= _CONV_CHUNK // 4:
        b = L
    else:
        b = max(1, min(L, round(math.sqrt(L * T / Ev)), math.isqrt(_CONV_CHUNK // (12 * k)),
                       _CONV_CHUNK // (12 * T * k)))
    nb = -(-L // b)
    # A[s][(t, i), (e, j, c)] = a[e][t, i, j, s b + b - 1 - c], zero past La_e
    A = np.zeros((nb, T, k, Ev, k, b), dtype=dt)
    for col, e in enumerate(order.tolist()):
        q, rem = divmod(int(la[e]), b)
        if q:
            blocks = a[e][..., :q * b].reshape(T, k, k, q, b)
            A[:q, :, :, col, :, ::-1] = blocks.transpose(3, 0, 1, 2, 4)
        if rem:
            A[q, :, :, col, :, b - rem:] = a[e][..., q * b:][..., ::-1]
    A = A.reshape(nb, T * k, Ev * k * b)
    width = k * b * np.searchsorted(-la[order], -b * np.arange(nb))  # entries longer than s b
    W = Lh + nb * b - 1  # the accumulator's x-length; past L + Lh - 1 it stays zero
    nout = L + Lh - 1
    # elements per block: the accumulator; per column of a piece of h: the
    # window copy, padded piece and gather of each entry, and one GEMM result
    acc1, ent, res = T * k * W, (b + 2) * k, T * k
    room = max(_CONV_CHUNK - acc1, _CONV_CHUNK // 2)
    if acc1 + (Ev * ent + res) * (Lh + 2 * b) <= _CONV_CHUNK:
        cg, ce, cx = min(G, _CONV_CHUNK // (acc1 + (Ev * ent + res) * (Lh + 2 * b))), Ev, Lh
    elif (ent + res) * (Lh + 2 * b) <= room:
        cg, ce, cx = 1, max(1, (room // (Lh + 2 * b) - res) // ent), Lh
    else:
        cg, ce, cx = 1, 1, max(1, room // (ent + res) - 2 * b)
    distinct = T == 1 or np.unique(rows).size == rows.size
    for g0 in range(0, G, cg):
        g1 = min(G, g0 + cg)
        acc = np.zeros((T * k, g1 - g0, W), dtype=dt)
        for x0 in range(0, Lh, cx):
            x1 = min(Lh, x0 + cx)
            m = x1 - x0 + b - 1
            for c0 in range(0, Ev, ce):
                c1 = min(Ev, c0 + ce)
                # hp[..., r] = h[..., x0 - b + 1 + r], zero outside h
                hp = np.zeros((c1 - c0, g1 - g0, k, m + b - 1), dtype=dt)
                hp[..., b - 1:m] = h[order[c0:c1], g0:g1, :, x0:x1]
                # the window view (e, j, c, g, m) -> hp[e, g, j, c + m], copied
                # contiguous: BLAS does not take its overlapping strides
                se, sg, sj, sx = hp.strides
                toe = np.ndarray((c1 - c0, k, b, g1 - g0, m), dt, hp, 0, (se, sj, sx, sg, sx))
                toe = np.ascontiguousarray(toe).reshape((c1 - c0) * k * b, -1)
                # each temporary is freed before the next one of its kind is
                # made, so that it counts once against _CONV_CHUNK
                del hp
                for s in range(nb):
                    hi = min(int(width[s]), c1 * k * b)
                    if hi <= c0 * k * b:
                        break  # width falls with s
                    part = A[s, :, c0 * k * b:hi] @ toe[:hi - c0 * k * b]
                    acc[:, :, x0 + s * b:x0 + s * b + m] += part.reshape(T * k, g1 - g0, m)
                    del part
                del toe
        # acc holds exact integers, below 2^24 in float32 and 2^53 in
        # float64, so float_mod reduces it exactly (and far faster than an
        # int64 cast and %)
        tr = max(1, max(_CONV_CHUNK - acc.size, _CONV_CHUNK // 2) // (3 * k * (g1 - g0) * nout))
        for t0 in range(0, T, tr):
            t1 = min(T, t0 + tr)
            vals = float_mod(acc[t0 * k:t1 * k, :, :nout], p).reshape(t1 - t0, k, g1 - g0, nout)
            vals = vals.transpose(0, 2, 1, 3).astype(np.int64)  # (t, g, i, n)
            if distinct:
                into[rows[t0:t1, g0:g1], :, :nout] += vals
            else:
                for t in range(t0, t1):  # rows[t] repeats no index, so += adds every block
                    into[rows[t, g0:g1], :, :nout] += vals[t - t0]
            del vals
        del acc


def _keys(p: int, codes: np.ndarray, level: int) -> np.ndarray:
    """Integer keys of the y-exponents of `codes`: digit j in bits
    _KEY_BITS*j.., so adding keys adds exponents digit by digit."""
    return code_digits(p, codes, level) @ (1 << (_KEY_BITS * np.arange(level)))


# ---------------------------------------------------------------------------
# multiplication with y-reduction
# ---------------------------------------------------------------------------

def mul(a: Slab, b: Slab, layers: Sequence[Slab]) -> Slab:
    """Reduced product of two reduced slabs, rewriting y_j^p -> y_j + f_j with
    f_j = layers[j-1], the reduced right-hand side of layer j at level j-1: the
    one-pair case of mul_pairs."""
    if a.arr.shape[2] > b.arr.shape[2]:
        a, b = b, a  # the shorter factor is the GEMM's inner side
    return mul_pairs([(a, b, 0)], layers)[0]


def mul_pairs(pairs: Sequence[tuple[Slab, Slab, int]], layers: Sequence[Slab]) -> list[Slab]:
    """The reduced products 0..max index, as in mul, all at the largest level
    of any factor: product i is the sum of a b over the pairs (a, b, i), and
    zero if no pair has index i.

    The products go in batches of consecutive whole indices whose pairs hold
    about _REDUCE_BATCH elements before their reduction (batches), counting
    the nonzero y-codes of each factor.  In a batch, the pairs sharing one a
    (the same object) make one _xconv: the nonzero rows of their b's are its
    blocks, keyed by product index and y-code, so that a b + a b' with one
    index adds b and b' first.  Every target block is keyed by product index
    and y-exponent, which sums the products of one index, and one
    _finish_reduce reduces them all."""
    if not pairs:
        return []
    ctx = pairs[0][0].ctx
    p, k = ctx.p, ctx.k
    lvl = max(max(a.level, b.level) for a, b, _ in pairs)
    pairs = sorted(pairs, key=lambda pair: pair[2])
    idx = [i for *_, i in pairs]
    # the nonzero y-codes of each distinct factor, which many pairs may share
    codes = {id(f): f for a, b, _ in pairs for f in (a, b)}
    codes = {key: f.nonzero_codes() for key, f in codes.items()}
    size = np.zeros(idx[-1] + 1, dtype=np.int64)
    np.add.at(size, idx, [codes[id(a)].size * codes[id(b)].size * k
                          * (a.arr.shape[2] + b.arr.shape[2] - 1) for a, b, _ in pairs])
    bounds = np.searchsorted(idx, np.arange(size.size + 1))
    out: list[Slab] = []
    for first, end in batches(size, _REDUCE_BATCH):
        top = _index_top(end - first, lvl)
        by_a: dict[int, tuple[Slab, list[tuple[Slab, int]]]] = {}
        for a, b, i in pairs[bounds[first]:bounds[end]]:
            by_a.setdefault(id(a), (a, []))[1].append((b, i - first))
        if not by_a:  # indices without pairs, between two that fill a batch each
            out += [Slab.zeros(ctx, lvl) for _ in range(first, end)]
            continue
        convs, targets = [], []
        for a, bs in by_a.values():
            ca = codes[id(a)]
            cbs = [codes[id(b)] for b, _ in bs]
            cols, col = np.unique(np.concatenate([_keys(p, cb, b.level) + (i << top) for (b, i), cb
                                                  in zip(bs, cbs)]), return_inverse=True)
            h = np.zeros((1, cols.size, k, max(b.arr.shape[2] for b, _ in bs)), dtype=np.int64)
            at = 0
            for (b, _), cb in zip(bs, cbs):  # the columns of one b are distinct, so += adds each
                h[0, col[at:at + cb.size], :, :b.arr.shape[2]] += b.arr[cb]
                at += cb.size
            h %= p  # a column that two b's share holds their sum
            convs.append((a.arr[ca], h))
            targets.append(_keys(p, ca, a.level)[:, None] + cols)
        keys, rows = np.unique(np.concatenate([t.ravel() for t in targets]), return_inverse=True)
        blocks = np.zeros((keys.size, k, max(x.shape[2] + h.shape[3] for x, h in convs) - 1),
                          dtype=np.int64)
        at = 0
        for (x, h), t in zip(convs, targets):
            _xconv([ctx.mul_matrices(x)], h, rows[at:at + t.size].reshape(t.shape), blocks, p)
            at += t.size
        del convs, targets, rows  # the stacked blocks of b, before the reduction
        out += _finish_reduce(keys, blocks, ctx, lvl, layers, end - first)
    return out


def ymul(codes: Sequence[int], level: int, fs: Sequence[Slab],
         layers: Sequence[Slab]) -> list[Slab]:
    """The reduced products y^codes[i] fs[i], with the codes at `level`, as in
    mul, all at the largest level of `level` and the fs.  A monomial in y only
    renames the y-codes of fs[i], so no convolution comes before the
    reduction; the products share one reduction per batch of consecutive
    products whose fs hold about _REDUCE_BATCH elements (batches)."""
    if not fs:
        return []
    ctx = fs[0].ctx
    lvl = max([level] + [f.level for f in fs])
    lows = _keys(ctx.p, codes, level)
    out: list[Slab] = []
    for first, end in batches([f.arr.size for f in fs], _REDUCE_BATCH):
        top, part = _index_top(end - first, lvl), fs[first:end]
        nz = [f.nonzero_codes() for f in part]
        keys = np.concatenate([_keys(ctx.p, cf, f.level) + low + (i << top) for i, (low, f, cf)
                               in enumerate(zip(lows[first:end], part, nz))])
        blocks = np.zeros((keys.size, ctx.k, max(f.arr.shape[2] for f in part)), dtype=np.int64)
        at = 0
        for f, cf in zip(part, nz):
            blocks[at:at + cf.size, :, :f.arr.shape[2]] = f.arr[cf]
            at += cf.size
        out += _finish_reduce(keys, blocks, ctx, lvl, layers, end - first)
    return out


def _index_top(nprod: int, lvl: int) -> int:
    """The lowest key bit of the product index, above lvl y-digits; raises if
    nprod indices do not fit the 63 bits of an int64 key."""
    if nprod > 1 << (63 - _KEY_BITS * lvl):
        raise InternalConsistencyError(
            f"{nprod} product indices do not fit the key bits above {lvl} y-digits")
    return _KEY_BITS * lvl


def _finish_reduce(keys: np.ndarray, blocks: np.ndarray, ctx: FieldCtx, lvl: int,
                   layers: Sequence[Slab], nprod: int) -> list[Slab]:
    """The reduced slabs of nprod products, in index order: product i is the
    sum of y^keys[r] blocks[r] over the r whose key carries index i in its bits
    from _index_top(nprod, lvl) up (y-digits as in _keys, blocks (N, k, X),
    keys distinct).

    Digits can exceed p-1 after a single multiplication; each overflow splits
    via y_j^p = y_j + f_j, whose f_j factor only touches digits below j, so the
    rewriting terminates.  Each wave takes the blocks whose highest overflowing
    digit is the highest of all, say j, and forms their products with every
    row of f_j in one batched convolution (_xconv); blocks are coalesced by key
    between waves, since without that the splits recombine exponentially.
    The product index above the y-digits keeps products from mixing.
    """
    p, k = ctx.p, ctx.k
    shifts = _KEY_BITS * np.arange(lvl)
    top = _KEY_BITS * lvl
    done: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | slice]] = []
    while keys.size:
        blocks %= p
        live = blocks.any(axis=(1, 2))
        if not live.all():
            keys, blocks = keys[live], blocks[live]
        dig = keys[:, None] >> shifts & ((1 << _KEY_BITS) - 1)
        if dig.size and dig.max() > (1 << _KEY_BITS) - p:
            raise InternalConsistencyError("y-exponent digit outgrew its key field")
        over = dig >= p
        fin = ~over.any(axis=1)
        # a wave's part is its finished rows: the blocks array itself while
        # they are at least half of it, so that the larger share is not copied
        nfin = int(fin.sum())
        if nfin == fin.size:
            done.append((keys >> top, code_of(p, dig), blocks, slice(None)))
            break
        done.append((keys[fin] >> top, code_of(p, dig[fin]),
                     *((blocks, fin) if 2 * nfin >= fin.size else (blocks[fin], slice(None)))))
        high = np.where(fin, -1, lvl - 1 - over[:, ::-1].argmax(axis=1))  # highest overflow
        j = int(high.max())
        sel, rest = high == j, ~fin & (high < j)
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
        _xconv([ctx.mul_matrices(fj.arr[cf])], blocks[sel][None],
               rows[nr + ns:].reshape(prods.shape), nxt, p)
        blocks = nxt
    del blocks
    return _materialize(ctx, lvl, nprod, done)


def lincomb(us: Sequence[Slab], rows: np.ndarray, cols: np.ndarray, c: np.ndarray,
            n: int) -> list[Slab]:
    """The slabs sum c[r] us[cols[r]] over the r with rows[r] = i, for i < n,
    of GF(p) scalars c and slabs us of one level, with no (row, col) pair
    twice: one float product (check_float_exact) of the coefficient matrix
    with the stacked us per group of rows of similar length whose values hold
    at most _REDUCE_BATCH elements (_padded_groups)."""
    ctx = us[0].ctx
    p, k = ctx.p, ctx.k
    S, E = us[0].arr.shape[0], len(us)
    dt = check_float_exact(E, p)
    U = np.zeros((E, S, k, max(u.arr.shape[2] for u in us)), dtype=dt)
    for x, u in zip(U, us):
        x[:, :, :u.arr.shape[2]] = u.arr
    C = np.zeros((n, E), dtype=dt)
    C[rows, cols] = c
    width = np.zeros(n, dtype=np.int64)
    np.maximum.at(width, rows, np.array([u.arr.shape[2] for u in us])[cols])
    vals: list[Slab | None] = [None] * n
    for group in _padded_groups(width, lambda w: S * k * w, _REDUCE_BATCH):
        w = int(width[group[-1]])
        out = float_mod(C[group] @ U[..., :w].reshape(E, -1), p).astype(np.int8)
        for g, x in zip(group.tolist(), out.reshape(group.size, S, k, w)):
            vals[g] = Slab(ctx, us[0].level, x).trim()
    return vals


def _materialize(ctx: FieldCtx, lvl: int, nprod: int,
                 parts: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | slice]]
                 ) -> list[Slab]:
    """The level-lvl slabs, as int8 residues, that sum y^code block of each
    product index over the (indices, codes, blocks, rows) parts: the blocks
    are the residue rows `rows` of an (N, k, X) array of any length X, with
    distinct (index, code) pairs.  Each part is freed once it is added, and
    the sum is reduced after each, so that it stays below 2 p <= 26."""
    out = np.zeros((nprod, ctx.p ** lvl, ctx.k, max((b.shape[2] for *_, b, _ in parts), default=1)),
                   dtype=np.int8)
    while parts:
        idx, codes, b, rows = parts.pop()
        out[idx, codes, :, :b.shape[2]] += b[rows]
        out %= ctx.p
        del b
    return [Slab(ctx, lvl, x).trim() for x in out]


# ---------------------------------------------------------------------------
# Cartier application
# ---------------------------------------------------------------------------

def v_entries(table: dict[tuple[int, int], Slab]) -> list[np.ndarray]:
    """A level's Cartier table, (nu0, ycode) -> the reduced V(x^nu0 y^ycode dx),
    as v_apply takes it: each entry's GF(p) matrices of c -> entry sigma^-1(c)
    (FieldCtx.semilinear_blocks), in (nu0, ycode) order, views of the entries
    when k = 1.  Expanded once per level, for every v_apply call at it."""
    ctx = next(iter(table.values())).ctx
    S = len(table) // ctx.p
    return [ctx.semilinear_blocks(table[(nu0, code)].arr) for nu0 in range(ctx.p)
            for code in range(S)]


def v_apply(forms: Sequence[Slab], entries: Sequence[np.ndarray],
            shifts: Sequence[int]) -> list[Slab]:
    """Apply the Cartier operator to x^shifts[i] forms[i] dx for forms all at
    one level n; the images, in order.

    entries is the level-n table expanded by v_entries: entry (nu0, code),
    nu0 < p, is the reduced value of V on x^nu0 y^code dx at level n.  The
    monomials of row `code` of a form that are congruent to x^nu0 mod p
    contribute sigma^{-1}(h) times that table entry, where h is the p-th-root
    cofactor: its coefficient of x^q is the form's coefficient of
    x^(p q + nu0).  The group's cofactors are one array, entry by form by
    x^q, whose transposed view takes each form, shift included, as p strided
    slices, so no shifted or padded copy is made.  The forms go in groups of
    similar cofactor length whose cofactor and output blocks hold at most
    _BATCH elements (at least one form); each group is one batched
    convolution (_xconv) of every table entry, as the GF(p) matrices of
    c -> entry sigma^-1(c), against the cofactors, with the image of form g in
    rows g S .. g S + S - 1.  Cofactors and images are int8 residues.
    """
    if not forms:
        return []
    ctx = forms[0].ctx
    p, k = ctx.p, ctx.k
    n = forms[0].level
    if any(f.level != n for f in forms):
        raise PolyError("v_apply takes forms of one level")
    S = p ** n
    if len(entries) != p * S:
        raise PolyError(f"v_apply at level {n} takes {p * S} table entries, not {len(entries)}")
    La = max(x.shape[3] for x in entries)
    # cofactor lengths; forms of similar length go together, so few are padded far
    Qs = [-(-(f.arr.shape[2] + s) // p) for f, s in zip(forms, shifts)]
    images: list[Slab | None] = [None] * len(forms)
    for group in _padded_groups(np.array(Qs), lambda Q: 2 * p * S * k * Q + S * k * (La + Q - 1),
                                _BATCH):
        G, Q = group.size, Qs[group[-1]]
        # h5[nu0, code, g, :, q] = form g's coefficient of x^(p q + nu0) in row code
        h5 = np.zeros((p, S, G, k, Q), dtype=np.int8)
        view = h5.transpose(2, 1, 3, 4, 0)  # (g, code, :, q, nu0)
        for g, idx in enumerate(group.tolist()):
            f, s = forms[idx].arr, shifts[idx]
            X = f.shape[2]
            for nu0 in range(p):
                x0 = (nu0 - s) % p  # the first x-power of f that lands on x^nu0 mod p
                cnt = len(range(x0, X, p))
                if cnt:
                    q0 = (x0 + s - nu0) // p
                    view[g, :, :, q0:q0 + cnt, nu0] = f[:, :, x0::p]
        h = h5.reshape(p * S, G, k, Q)
        # each row of out is the target of one (code, form) pair, so it
        # receives one reduced block and int8 holds it
        out = np.zeros((G * S, k, La + Q - 1), dtype=np.int8)
        _xconv(entries, h, np.arange(G) * S + np.arange(S)[:, None], out, p)
        for g, idx in enumerate(group.tolist()):
            images[idx] = Slab(ctx, n, out[g * S:(g + 1) * S]).trim()
    return images

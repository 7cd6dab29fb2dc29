"""Dense kernel for y-reduced tower polynomials.

A Slab stores a reduced polynomial in x, y_1..y_level as an int64 array of
shape (p**level, k, X): one row per y-exponent tuple (coded little-endian in
base p), one coefficient vector of length k per power of x.  Entries are
residues in [0, p); all arithmetic is exact.  A differential form h dx at a
tower level is the Slab of h.  A Monomial x^nu y_1^a_1 ... y_n^a_n names one
entry by its exponents.  Products take the layer right-hand sides
f_1..f_level as a list of slabs and reduce y_j^p to y_j + f_j; the kernel holds
no tower of its own.

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
# x-polynomial convolution over GF(p^k)
# ---------------------------------------------------------------------------

def xconv(u: np.ndarray, v: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Product of two GF(p^k)[x] coefficient blocks of shape (k, X)."""
    p, k = ctx.p, ctx.k
    if k == 1:
        return np.convolve(u[0], v[0])[None, :] % p
    n = u.shape[1] + v.shape[1] - 1
    raw = np.zeros((2 * k - 1, n), dtype=np.int64)
    for i in range(k):
        if not u[i].any():
            continue
        for j in range(k):
            if v[j].any():
                raw[i + j] += np.convolve(u[i], v[j])
    return ctx.fold(raw)


# ---------------------------------------------------------------------------
# multiplication with y-reduction
# ---------------------------------------------------------------------------

def mul(a: Slab, b: Slab, layers: Sequence[Slab]) -> Slab:
    """Reduced product of two reduced slabs, rewriting y_j^p -> y_j + f_j with
    f_j = layers[j-1], the reduced right-hand side of layer j at level j-1."""
    ctx = a.ctx
    lvl = max(a.level, b.level)
    acc: dict[tuple[int, ...], np.ndarray] = {}
    ca, cb = a.nonzero_codes(), b.nonzero_codes()
    p = ctx.p
    for sa in ca.tolist():
        da = digits_of(p, sa, a.level)
        ra = a.arr[sa]
        for sb in cb.tolist():
            db = digits_of(p, sb, b.level)
            dig = tuple((da[j] if j < len(da) else 0) + (db[j] if j < len(db) else 0)
                        for j in range(lvl))
            _merge_block(acc, dig, xconv(ra, b.arr[sb], ctx))
    return _finish_reduce(acc, ctx, lvl, layers)


def _grow_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[1] < b.shape[1]:
        a, b = b, a
    a = a.copy() if a.base is not None else a
    a[:, : b.shape[1]] += b
    return a


def _merge_block(into: dict, key, block: np.ndarray) -> None:
    prev = into.get(key)
    into[key] = block if prev is None else _grow_add(prev, block)


def _materialize(ctx: FieldCtx, lvl: int, blocks: dict[int, np.ndarray]) -> Slab:
    """The level-lvl slab with the (k, X) block blocks[code] in row `code`."""
    xcap = max((b.shape[1] for b in blocks.values()), default=1)
    out = Slab.zeros(ctx, lvl, xcap)
    for code, block in blocks.items():
        out.arr[code, :, : block.shape[1]] += block
    out.arr %= ctx.p
    return out.trim()


def _finish_reduce(acc: dict[tuple[int, ...], np.ndarray], ctx: FieldCtx, lvl: int,
                   layers: Sequence[Slab]) -> Slab:
    """Drain a {digit tuple: (k, X) block} accumulator into a reduced slab.

    Digits can exceed p-1 after a single multiplication; each overflow splits
    via y_j^p = y_j + f_j, whose f_j factor only touches digits below j, so the
    rewriting terminates (lexicographic descent on reversed digit tuples).
    Blocks are coalesced by digit tuple between waves; without that the splits
    recombine exponentially.
    """
    p = ctx.p
    done: dict[int, np.ndarray] = {}
    pending = dict(acc)
    while pending:
        nxt: dict[tuple[int, ...], np.ndarray] = {}
        for dig, block in pending.items():
            block %= p
            if not block.any():
                continue
            for j in range(lvl, 0, -1):
                if dig[j - 1] >= p:
                    break
            else:
                _merge_block(done, code_of(p, dig), block)
                continue
            base = dig[: j - 1] + (dig[j - 1] - p,) + dig[j:]
            fj = layers[j - 1]
            for sf in fj.nonzero_codes().tolist():
                df = digits_of(p, sf, fj.level)
                nd = tuple(base[t] + (df[t] if t < len(df) else 0) for t in range(lvl))
                _merge_block(nxt, nd, xconv(block, fj.arr[sf], ctx))
            # merge last: _merge_block may fold the accumulator into `block`
            # in place, so `block` must not be read afterwards
            _merge_block(nxt, base[: j - 1] + (base[j - 1] + 1,) + base[j:], block)
        pending = nxt
    return _materialize(ctx, lvl, done)


# ---------------------------------------------------------------------------
# Cartier application
# ---------------------------------------------------------------------------

def v_apply(g: Slab, tables: dict[tuple[int, int], Slab]) -> Slab:
    """Apply the Cartier operator to g*dx at g's level.

    tables maps (nu0, ycode) with nu0 < p to the reduced value of V on
    x^nu0 y^code dx at the same level.  Each group of monomials congruent to
    x^nu0 mod p in a slice contributes conv(sigma^{-1}(h), table entry) where
    h collects the p-th-root cofactors.
    """
    ctx = g.ctx
    p, k = ctx.p, ctx.k
    finv = ctx.inv_frob_matrix()
    acc: dict[int, np.ndarray] = {}
    for code in g.nonzero_codes().tolist():
        row = g.arr[code]
        for nu0 in range(min(p, row.shape[1])):
            sub = row[:, nu0::p]
            if not sub.any():
                continue
            h = sub if k == 1 else (finv @ sub) % p
            entry = tables[(nu0, code)]
            for ecode in entry.nonzero_codes().tolist():
                _merge_block(acc, ecode, xconv(h, entry.arr[ecode], ctx))
    return _materialize(ctx, g.level, acc)

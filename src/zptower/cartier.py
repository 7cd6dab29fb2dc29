"""Cartier operator on regular differentials of a tower level.

Regular differentials at level n have an explicit monomial basis
x^nu y_1^a_1 ... y_n^a_n dx indexed by the set where every a_i < p and
0 <= p^n nu <= sum_j p^(n-j) d_j (p-1-a_j) - p^n - 1, valid once the layers
are in standard form; its cardinality equals the genus, which is checked on
every construction.

The operator is evaluated recursively: writing y_n^a = (y_n^p - f_n)^a and
expanding binomially pushes the computation down one level, since V(h^p w) =
h V(w).  Per level we precompute V on the p^(m+1) monomials with nu < p and
all a_i < p; V of anything else is a shifted, Frobenius-twisted combination
of those values.  Tables serialize to a per-(spec, level) cache so deeper
levels resume without recomputation, and cartier_matrix assembles the matrix
of V on the basis from them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb
from pathlib import Path

import numpy as np

from ._slab import (Monomial, Slab, code_digits, code_weights, mul as slab_mul, v_apply,
                    v_entries, ymul)
from .gf import InternalConsistencyError
from .linalg import DenseMatrix
from .tower import TowerState
from .witt import read_cache, write_cache

TABLE_FORMAT_VERSION = 3


# ---------------------------------------------------------------------------
# basis enumeration
# ---------------------------------------------------------------------------

def _basis_layout(state: TowerState, n: int):
    """(numax, offsets, genus): per y-code the largest admissible nu (or -1),
    and the starting column of that code's block in the basis ordering."""
    p = state.spec.p
    ram = state.ensure_ram(n)
    # sum_j p^(n-j) d_j (p-1-a_j) = W[top code] - W[code]
    W = code_weights(p, n, ram.d, n)
    bound = W[-1] - W - p ** n - 1
    numax = np.where(bound >= 0, bound // p ** n, -1)
    counts = np.maximum(numax + 1, 0)
    offsets = np.concatenate(([0], np.cumsum(counts)))[:-1]
    total = int(counts.sum())
    if total != ram.genus(n):
        raise InternalConsistencyError(
            f"basis cardinality {total} != genus {ram.genus(n)} at level {n}")
    return numax, offsets, total


# ---------------------------------------------------------------------------
# precompute tables
# ---------------------------------------------------------------------------

class CartierTables:
    """Per-level values of V on the small monomial differentials.

    levels[m] maps (nu0, ycode) with 0 <= nu0 < p to the reduced slab of
    V(x^nu0 y^ycode dx) at level m.  Level m entries only need level m-1:
    writing y_m^a = (y_m^p - f_m)^a expands each entry into values
    V(x^nu0 y^low (-f_m)^j dx) at level m-1, and since x^nu0 commutes with the
    y-reduction, each product y^low (-f_m)^j is formed once and shifted by
    nu0.  The products are formed one variable at a time, by digit sum of
    low: with i the lowest nonzero digit of low, y^low F = y_(i+1) y^(low -
    p^i) F, so a generation comes from the last one in one _slab.ymul call,
    which sizes its own y-reductions, where only digit i overflows at first,
    and for i = 0 nothing cascades, as f_1 has no y.  All shifts of a
    generation's products go through one _slab.v_apply call, which convolves
    the p-th-root cofactors of a group of forms at a time against every level
    m-1 table entry, expanded to GF(p) matrices once per level
    (_slab.v_entries).  At most two generations of products are alive.  Each
    entry is then put together from slices of the images, scaled by comb(a, i)
    mod p.  The build is sequential and deterministic.

    Entries, like every Slab, are int8 residues, the cache payload's own
    form.  Each level is cached in a witt.write_cache file (format 3) whose
    payload is every entry's x-length, then every entry's slab as int8
    residues; a file loads only if writing its table back would give it byte
    for byte.
    """

    def __init__(self, state: TowerState):
        self.state = state
        self.ctx = state.field
        p = self.ctx.p
        base = {}
        one, zero = Slab.monomial(self.ctx, Monomial(0, ())), Slab.zeros(self.ctx, 0)
        for nu0 in range(p):
            base[(nu0, 0)] = one if nu0 == p - 1 else zero
        self.levels: list[dict[tuple[int, int], Slab]] = [base]
        state.tables = self

    def table(self, m: int) -> dict[tuple[int, int], Slab]:
        self.ensure(m)
        return self.levels[m]

    def ensure(self, n: int) -> "CartierTables":
        self.state.build_to(n)
        for m in range(len(self.levels), n + 1):
            loaded = self._load_level(m)
            self.levels.append(loaded if loaded is not None else self._build_level(m))
            if loaded is None:
                self._store_level(m)
        return self

    def _build_level(self, m: int) -> dict[tuple[int, int], Slab]:
        state, ctx = self.state, self.ctx
        p = ctx.p
        prev = self.levels[m - 1]
        entries = v_entries(prev)  # for every generation's v_apply
        S_low = p ** (m - 1)
        minus_f = state.layer_slab(m).scale(-1)
        fpow = [Slab.monomial(ctx, Monomial(0, ()))]
        for _ in range(1, p):
            fpow.append(slab_mul(fpow[-1], minus_f, state.layers))
        table: dict[tuple[int, int], Slab] = {}
        # the lowcodes by digit sum; with i the lowest nonzero digit of low,
        # y^low F = y_(i+1) y^(low - p^i) F, so each generation's products
        # come from the last one's, and only digit i overflows at first
        codes = np.arange(S_low)
        digit_sum = code_digits(p, codes, m - 1).sum(axis=1)
        unit = np.gcd(codes, S_low)  # p^i for the lowest nonzero digit i of each code > 0
        lows = np.zeros(1, dtype=np.int64)
        prods = fpow[1:]  # prods[c (p-1) + j - 1] = y^lows[c] (-f_m)^j, reduced at level m-1
        for s in range((p - 1) * (m - 1) + 1):
            if s:  # the products of digit sum s, from those of digit sum s - 1
                nxt = np.flatnonzero(digit_sum == s)
                at = np.searchsorted(lows, nxt - unit[nxt])
                units = [u for u in unit[nxt].tolist() for _ in range(1, p)]
                fs = [prods[c * (p - 1) + j - 1] for c in at.tolist() for j in range(1, p)]
                prods = ymul(units, m - 1, fs, state.layers)
                lows = nxt
                del fs  # the last generation's products
            # x^nu0 commutes with the y-reduction, so x^nu0 y^low (-f_m)^j is that
            # product shifted by nu0; the images come in (low, nu0, j) order
            images = iter(v_apply([prods[c * (p - 1) + j - 1] for c in range(lows.size)
                                   for _ in range(p) for j in range(1, p)], entries,
                                  [nu0 for _ in lows for nu0 in range(p) for _ in range(1, p)]))
            for low in lows.tolist():
                for nu0 in range(p):
                    # inner[j] = V(x^nu0 y^low (-f_m)^j dx) at level m-1, in int64,
                    # where comb(am, i) times a residue does not overflow
                    inner = [prev[(nu0, low)].arr.astype(np.int64)] + \
                        [next(images).arr.astype(np.int64) for _ in range(1, p)]
                    for am in range(p):
                        # y_m = y_m^p - f_m, so y_m^am is the sum over i of
                        # comb(am, i) y_m^(p i) (-f_m)^(am-i), and V(y_m^(p i) w) =
                        # y_m^i V(w): the entry's y_m-digit block i is
                        # comb(am, i) inner[am - i]
                        width = max(inner[j].shape[2] for j in range(am + 1))
                        entry = Slab.zeros(ctx, m, width)
                        for i in range(am + 1):
                            term = inner[am - i]
                            entry.arr[i * S_low:(i + 1) * S_low, :, :term.shape[2]] = \
                                comb(am, i) % p * term % p
                        table[(nu0, low + am * S_low)] = entry.trim()
        return table

    # -- persistence ---------------------------------------------------------

    def _cache_path(self, m: int) -> Path | None:
        if self.state.cache_dir is None:
            return None
        h = self.state.spec.spec_hash()
        return Path(self.state.cache_dir) / "cartier" / h / f"tables_L{m}.bin"

    def _header(self, m: int) -> str:
        return json.dumps({"format_version": TABLE_FORMAT_VERSION, "p": self.ctx.p,
                           "k": self.ctx.k, "spec_hash": self.state.spec.spec_hash(),
                           "level": m}, sort_keys=True)

    def _store_level(self, m: int) -> None:
        path = self._cache_path(m)
        if path is not None:
            write_cache(path, self._header(m), _level_bytes(self.levels[m]))

    def _load_level(self, m: int) -> dict | None:
        """The cached level-m table, or None (recompute) unless read_cache
        accepts the file and its payload is what _level_bytes writes for some
        table: p^(m+1) widths X >= 1, then as many (p^m, k, X) slabs of residues,
        each trimmed (X = 1 or a nonzero last x-column)."""
        data = read_cache(self._cache_path(m), self._header(m))
        p, k = self.ctx.p, self.ctx.k
        n = p ** (m + 1)
        if data is None or len(data) < 4 * n:
            return None
        widths = np.frombuffer(data, dtype="<i4", count=n).astype(np.int64)
        size = p ** m * k  # cells per unit of width
        if np.any(widths < 1) or 4 * n + int(widths.sum()) * size != len(data):
            return None
        cells = np.frombuffer(data, dtype=np.int8, offset=4 * n)
        if np.any(cells.view(np.uint8) >= p):
            return None
        table: dict[tuple[int, int], Slab] = {}
        at = 0
        keys = ((nu0, code) for nu0 in range(p) for code in range(p ** m))
        for key, x in zip(keys, widths.tolist()):
            arr = cells[at:at + size * x].reshape(p ** m, k, x)
            at += size * x
            if x > 1 and not arr[:, :, -1].any():
                return None
            table[key] = Slab(self.ctx, m, arr.copy())
        return table


def _level_bytes(table: dict[tuple[int, int], Slab]) -> bytes:
    """The cache payload of a level table: each entry's x-length as <i4, then
    each entry's (p^m, k, X) slab as int8 residues, both in sorted key order."""
    keys = sorted(table)
    widths = np.array([table[key].arr.shape[2] for key in keys], dtype="<i4")
    return widths.tobytes() + b"".join(table[key].arr.tobytes() for key in keys)


# ---------------------------------------------------------------------------
# matrix
# ---------------------------------------------------------------------------

@dataclass
class CartierMatrix:
    """g x g matrix of V in the regular-differential basis at one level.

    Column s holds the basis coordinates of V(omega_s).  The operator is
    sigma^-1-semilinear: V(sum c_s omega_s) has coordinates M sigma^-1(c).
    The DenseMatrix stores its kg x kg GF(p) matrix (restriction of scalars),
    so V^r has the matrix power as GF(p) matrix and a^(r) = kernel_dim(M^r).
    Column (code, q p + nu0) is table entry (nu0, code) with its rows moved
    down q basis positions, as V(x^(p q) w) = x^q V(w).  So the matrix is
    handed over as one segment per table entry and block column b, the GF(p)
    rows and residues of the entry's nonzero block entries, which makes the
    GF(p) columns (code, q p + nu0) k + b moved down q k rows
    (DenseMatrix.shifted), kept as int8 segments that the columns share, so
    no array has an element per nonzero.  With the basis ordered by y-code
    (a_n most significant) M is block upper triangular: V(y_n^(pi) h dx) =
    y_n^i V(h dx), so no column reaches a row of larger y-code.
    """

    matrix: DenseMatrix

    @property
    def genus(self) -> int:
        return self.matrix.cols


def cartier_matrix(state: TowerState, n: int) -> CartierMatrix:
    ctx = state.field
    p, k = ctx.p, ctx.k
    tables = (state.tables or CartierTables(state)).table(n)
    numax, offsets, g = _basis_layout(state, n)
    # column (code, nu) with nu = q p + nu0 is V(x^(p q) x^nu0 y^code dx) =
    # x^q V(x^nu0 y^code dx): entry (nu0, code) with its rows moved down q basis
    # positions, so for each column b of a k x k block an entry is one segment,
    # the GF(p) rows and values of its nonzero block entries, that makes its
    # columns nu0, nu0 + p, ...
    segments, first, count = [], [], []
    for (nu0, code), slab in tables.items():
        ecodes, xs = np.nonzero(slab.arr.any(axis=1))
        if ecodes.size and ecodes[-1] > code:  # ecodes ascend
            raise InternalConsistencyError(
                f"V(x^{nu0} y^{code} dx) reaches y-code {ecodes[-1]}: not block-triangular")
        q = len(range(nu0, numax[code] + 1, p))
        if q == 0:
            continue
        if ecodes.size and q - 1 > np.min(numax[ecodes] - xs):
            raise InternalConsistencyError(
                "V image leaves the regular basis: regularity not preserved")
        blk = ctx.semilinear_blocks(slab.arr[ecodes, :, xs])
        rows = (offsets[ecodes] + xs)[:, None] * k + np.arange(k)
        nz = blk != 0
        for b in range(k):
            segments.append((rows[nz[:, :, b]].astype(np.int32),
                             blk[:, :, b][nz[:, :, b]].astype(np.int8)))
            first.append((offsets[code] + nu0) * k + b)
            count.append(q)
    return CartierMatrix(DenseMatrix.shifted(ctx, g, g, segments, first, count, p * k))

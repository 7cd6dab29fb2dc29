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
levels resume without recomputation.  A differential form h dx is the Slab of
h: cartier_apply and trace_map take and return Slabs.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from math import comb
from pathlib import Path

import numpy as np

from ._slab import Monomial, PolyError, Slab, code_weights, digits_of, mul as slab_mul, v_apply
from .gf import InternalConsistencyError
from .linalg import DenseMatrix
from .tower import TowerState
from .witt import read_cache_body, write_cache_body

TABLE_FORMAT_VERSION = 2
_TEXT_LINES = 1 << 16  # lines of the table cache text rendered per batch
_TEXT_BYTES = 1 << 22  # characters of the table cache text parsed per batch


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


def differential_basis(state: TowerState, n: int) -> list[Monomial]:
    """The monomial basis of regular differentials at level n, in column order."""
    state.ensure_ram(n)
    numax, _, _ = _basis_layout(state, n)
    p = state.spec.p
    out = []
    for code in range(p ** n):
        for nu in range(int(numax[code]) + 1):
            out.append(Monomial(nu, digits_of(p, code, n)))
    return out


def is_regular(form: Slab, state: TowerState) -> bool:
    """Whether form dx is regular at infinity: every nonzero x^nu y^code cell
    satisfies the basis inequality nu <= numax[code]."""
    if form.level == 0:
        # on the projective line every nonzero polynomial differential has a
        # pole at infinity of order deg + 2
        return form.is_zero()
    numax, _, _ = _basis_layout(state, form.level)
    codes, xs = np.nonzero(form.arr.any(axis=1))
    return not np.any(xs > numax[codes])


# ---------------------------------------------------------------------------
# precompute tables
# ---------------------------------------------------------------------------

class CartierTables:
    """Per-level values of V on the small monomial differentials.

    levels[m] maps (nu0, ycode) with 0 <= nu0 < p to the reduced slab of
    V(x^nu0 y^ycode dx) at level m.  Level m entries only need level m-1:
    writing y_m^a = (y_m^p - f_m)^a expands each entry into values
    V(x^nu0 y^low (-f_m)^j dx) at level m-1, and since x^nu0 commutes with the
    y-reduction, each product y^low (-f_m)^j is formed once (a batched slab
    product) and shifted by nu0.  Every V at level m-1 is one batched
    x-convolution of the p-th-root cofactors against the level m-1 table
    (_slab.v_apply).  The build is sequential and deterministic.

    Each level is cached as text (format 2: a header with a body digest, then
    per entry "K nu0 code count" and its nonzero cells "ycode nu c_0,..");
    writing and parsing run on whole batches of lines with numpy, and a file
    loads only if writing its table back would give it byte for byte.
    """

    def __init__(self, state: TowerState):
        self.state = state
        self.ctx = state.field
        p = self.ctx.p
        base = {}
        one = Slab.monomial(self.ctx, Monomial(0, ()))
        zero = Slab.zeros(self.ctx, 0)
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
        S_low = p ** (m - 1)
        minus_f = state.layer_slab(m).scale(-1)
        fpow = [Slab.monomial(ctx, Monomial(0, ()))]
        for _ in range(1, p):
            fpow.append(slab_mul(fpow[-1], minus_f, state.layers).trim())
        inner: dict[tuple[int, int, int], Slab] = {}
        for lowcode in range(S_low):
            ylow = Slab.monomial(ctx, Monomial(0, digits_of(p, lowcode, m - 1)))
            prods = [slab_mul(ylow, fpow[j], state.layers) for j in range(1, p)]
            for nu0 in range(p):
                inner[(nu0, lowcode, 0)] = prev[(nu0, lowcode)]
                for j, g in enumerate(prods, 1):
                    # x^nu0 commutes with the y-reduction: x^nu0 y^low (-f_m)^j is g
                    # shifted by nu0
                    shifted = Slab(ctx, g.level, np.pad(g.arr, ((0, 0), (0, 0), (nu0, 0))))
                    inner[(nu0, lowcode, j)] = v_apply(shifted, prev)
        table: dict[tuple[int, int], Slab] = {}
        for am in range(p):
            for lowcode in range(S_low):
                for nu0 in range(p):
                    acc = Slab.zeros(ctx, m)
                    for i in range(am + 1):
                        cmb = comb(am, i) % p
                        if cmb == 0:
                            continue
                        term = inner[(nu0, lowcode, am - i)]
                        acc.add_into(_embed_ym(term, i, m), scale=cmb)
                    table[(nu0, lowcode + am * S_low)] = acc.trim()
        return table

    # -- persistence ---------------------------------------------------------

    def _cache_path(self, m: int) -> Path | None:
        if self.state.cache_dir is None:
            return None
        h = self.state.spec.spec_hash()
        return Path(self.state.cache_dir) / "cartier" / h / f"tables_L{m}.txt"

    def _header(self, m: int) -> str:
        return json.dumps({"format_version": TABLE_FORMAT_VERSION, "p": self.ctx.p,
                           "k": self.ctx.k, "spec_hash": self.state.spec.spec_hash(),
                           "level": m}, sort_keys=True)

    def _store_level(self, m: int) -> None:
        path = self._cache_path(m)
        if path is not None:
            write_cache_body(path, self._header(m), _level_text(self.levels[m], self.ctx.k))

    def _load_level(self, m: int) -> dict | None:
        """The cached level-m table, or None (recompute) unless read_cache_body
        accepts the file, it holds p^(m+1) blocks "K nu0 code count" followed by
        `count` rows "ycode nu c_0,..,c_(k-1)" of residues, and _store_level
        would write the table they give as exactly this file."""
        body = read_cache_body(self._cache_path(m), self._header(m))
        if body is None:
            return None
        p, k = self.ctx.p, self.ctx.k
        starts = [hit.start() for hit in re.finditer("^K ", body, re.M)] + [len(body)]
        if starts[0] != 0 or len(starts) != p ** (m + 1) + 1:
            return None
        table: dict[tuple[int, int], Slab] = {}
        try:
            i = 0
            while i + 1 < len(starts):  # parse runs of whole blocks of about _TEXT_BYTES
                j = i + 1
                while j + 1 < len(starts) and starts[j + 1] - starts[i] <= _TEXT_BYTES:
                    j += 1
                vals, at = _ints(body[starts[i]:starts[j]]), 0
                for _ in range(i, j):
                    nu0, code, count = (int(v) for v in vals[at:at + 3])
                    cells = vals[at + 3:at + 3 + count * (2 + k)].reshape(count, 2 + k)
                    at += 3 + count * (2 + k)
                    if nu0 >= p or code >= p ** m or np.any(cells[:, 2:] >= p):
                        return None
                    slab = Slab.zeros(self.ctx, m, int(cells[:, 1].max(initial=0)) + 1)
                    slab.arr[cells[:, 0], :, cells[:, 1]] = cells[:, 2:]
                    table[(nu0, code)] = slab
                if at != vals.size:
                    return None
                i = j
        except (ValueError, IndexError):
            return None
        if len(table) != p ** (m + 1) or _level_text(table, k) != body:
            return None
        return table


def _level_text(table: dict[tuple[int, int], Slab], k: int) -> str:
    """The cache body of a level table: for each entry (nu0, code) in sorted
    order the line "K nu0 code count", then "ycode nu c_0,..,c_(k-1)" for each
    of its `count` nonzero cells in (ycode, nu) order.  Rendered with numpy in
    batches of whole entries of about _TEXT_LINES lines."""
    parts, batch, lines = [], [], 0
    keys = sorted(table)
    for key in keys:
        arr = table[key].arr
        codes, xs = np.nonzero(arr.any(axis=1))
        batch.append((key, np.column_stack((codes, xs, arr[codes, :, xs]))))
        lines += 1 + codes.size
        if lines >= _TEXT_LINES or key == keys[-1]:
            heads = np.array([(nu0, code, len(cells)) for (nu0, code), cells in batch])
            cells = np.concatenate([cells for _, cells in batch]).reshape(-1, 2 + k)
            hc, hk = _render(heads, "  \n", prefix="K ")
            cc, ck = _render(cells, "  " + "," * (k - 1) + "\n")
            n, width = len(heads) + len(cells), max(hc.shape[1], cc.shape[1])
            chars, keep = np.zeros((n, width), dtype=np.uint8), np.zeros((n, width), dtype=bool)
            head = np.zeros(n, dtype=bool)
            head[np.arange(len(heads)) + np.cumsum(heads[:, 2]) - heads[:, 2]] = True
            chars[head, :hc.shape[1]], keep[head, :hc.shape[1]] = hc, hk
            chars[~head, :cc.shape[1]], keep[~head, :cc.shape[1]] = cc, ck
            parts.append(chars[keep].tobytes().decode())
            batch, lines = [], 0
    return "".join(parts)


def _render(vals: np.ndarray, seps: str, prefix: str = "") -> tuple[np.ndarray, np.ndarray]:
    """Characters and kept positions of one line per row of the nonnegative (N, F)
    int array vals: prefix, then each field in decimal followed by its
    one-character separator seps[f]."""
    n = vals.shape[0]
    cols = [np.tile(np.frombuffer(prefix.encode(), dtype=np.uint8), (n, 1))]
    keep = [np.ones((n, len(prefix)), dtype=bool)]
    for f, sep in enumerate(seps):
        v = vals[:, f:f + 1].astype(np.int64)
        width = len(str(int(v.max(initial=0))))
        p10 = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
        ndig = 1 + (v >= p10[:-1]).sum(axis=1, keepdims=True)
        cols += [(v // p10 % 10 + 48).astype(np.uint8), np.full((n, 1), ord(sep), np.uint8)]
        keep += [np.arange(width) >= width - ndig, np.ones((n, 1), dtype=bool)]
    return np.hstack(cols), np.hstack(keep)


def _ints(text: str) -> np.ndarray:
    """The decimal numbers of text in order, as int64; ValueError past 18 digits."""
    b = np.frombuffer(text.encode(), dtype=np.uint8)
    edge = np.diff(((b >= 48) & (b <= 57)).astype(np.int8), prepend=0, append=0)
    st, en = np.flatnonzero(edge == 1), np.flatnonzero(edge == -1)
    if np.any(en - st > 18):
        raise ValueError("number too long")
    vals = np.zeros(st.size, dtype=np.int64)
    for j in range(int((en - st).max(initial=0))):
        more = st + j < en
        vals[more] = vals[more] * 10 + (b[st[more] + j] - 48)
    return vals


def _embed_ym(term: Slab, i: int, m: int) -> Slab:
    """term (level m-1) times y_m^i, as a level-m slab."""
    S_low = term.arr.shape[0]
    out = Slab.zeros(term.ctx, m, term.arr.shape[2])
    out.arr[i * S_low: (i + 1) * S_low] = term.arr
    return out


# ---------------------------------------------------------------------------
# application, matrix, trace
# ---------------------------------------------------------------------------

def _tables_for(state: TowerState) -> CartierTables:
    if state.tables is None:
        CartierTables(state)
    return state.tables


def cartier_apply(form: Slab, state: TowerState) -> Slab:
    """V(form dx) at the form's level; at level 0 this is
    V(sum a_i x^i dx) = sum sigma^-1(a_(pj-1)) x^(j-1) dx on the projective line."""
    return v_apply(form, _tables_for(state).table(form.level))


@dataclass
class CartierMatrix:
    """g x g matrix of V in the regular-differential basis at one level.

    Column s holds the basis coordinates of V(omega_s).  The operator is
    sigma^-1-semilinear: V(sum c_s omega_s) has coordinates M sigma^-1(c).
    The DenseMatrix stores its kg x kg GF(p) matrix (restriction of scalars),
    so V^r has the matrix power as GF(p) matrix and a^(r) = kernel_dim(M^r).
    That matrix is set straight from the tables, as packed bits for p = 2 and
    int8 residues otherwise, and keeps that form through every product and
    rank.  With the basis ordered by y-code (a_n most significant) M is block
    upper triangular: V(y_n^(pi) h dx) = y_n^i V(h dx), so no column reaches a
    row of larger y-code.
    """

    level: int
    basis: list[Monomial]
    matrix: DenseMatrix

    @property
    def genus(self) -> int:
        return len(self.basis)


def cartier_matrix(state: TowerState, n: int) -> CartierMatrix:
    ctx = state.field
    p, k = ctx.p, ctx.k
    tables = _tables_for(state).table(n)
    numax, offsets, g = _basis_layout(state, n)
    M = DenseMatrix.zeros(ctx, g, g)
    # per table entry: the slab's rows and, for each column b of a k x k block,
    # the GF(p) rows and values of its nonzero block entries, reused by every shift
    pre: dict[tuple[int, int], tuple] = {}
    for key, slab in tables.items():
        ecodes, xs = np.nonzero(slab.arr.any(axis=1))
        if ecodes.size and ecodes[-1] > key[1]:  # ecodes ascend
            raise InternalConsistencyError(
                f"V(x^{key[0]} y^{key[1]} dx) reaches y-code {ecodes[-1]}: not block-triangular")
        blk = ctx.semilinear_blocks(slab.arr[ecodes, :, xs])
        rows = (offsets[ecodes] + xs)[:, None] * k + np.arange(k)
        nz = blk != 0
        pre[key] = (ecodes, xs, [(rows[nz[:, :, b]], blk[:, :, b][nz[:, :, b]])
                                 for b in range(k)])
    col = 0
    for code in range(p ** n):
        top = int(numax[code])
        for nu in range(top + 1):
            q, nu0 = divmod(nu, p)
            ecodes, xs, cells = pre[(nu0, code)]
            if np.any(xs + q > numax[ecodes]):
                raise InternalConsistencyError(
                    "V image leaves the regular basis: regularity not preserved")
            for b, (rows, vals) in enumerate(cells):
                M.set_column(col * k + b, rows + q * k, vals)
            col += 1
    if col != g:
        raise InternalConsistencyError(f"filled {col} matrix columns, genus {g}")
    return CartierMatrix(n, differential_basis(state, n), M)


def trace_map(form: Slab) -> Slab:
    """Trace to the previous level: sum_i w_i y_n^i dx -> -w_(p-1) dx."""
    if form.level == 0:
        raise PolyError("no level below the base")
    p = form.ctx.p
    top = form.arr[-p ** (form.level - 1):]  # the rows whose y_n digit is p - 1
    return Slab(form.ctx, form.level - 1, -top % p).trim()


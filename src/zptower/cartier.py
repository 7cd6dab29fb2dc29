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
from dataclasses import dataclass
from math import comb
from pathlib import Path

import numpy as np

from ._slab import Monomial, PolyError, Slab, code_weights, digits_of, mul as slab_mul, v_apply
from .gf import InternalConsistencyError
from .linalg import DenseMatrix
from .tower import TowerState
from .witt import read_cache, write_cache

TABLE_FORMAT_VERSION = 2


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
    V(x^nu0 y^ycode dx) at level m.  Level m entries only need level m-1, so
    entries within a level are independent and could be computed in parallel;
    this implementation is sequential and deterministic.
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
            lowdig = digits_of(p, lowcode, m - 1)
            for nu0 in range(p):
                inner[(nu0, lowcode, 0)] = prev[(nu0, lowcode)]
                mono = Slab.monomial(ctx, Monomial(nu0, lowdig))
                for j in range(1, p):
                    g = slab_mul(mono, fpow[j], state.layers)
                    inner[(nu0, lowcode, j)] = v_apply(g, prev)
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
        if path is None:
            return
        lines = []
        for (nu0, code), slab in sorted(self.levels[m].items()):
            codes, xs = np.nonzero(slab.arr.any(axis=1))
            lines.append(f"K {nu0} {code} {codes.size}")
            for yc, nu in zip(codes.tolist(), xs.tolist()):
                cvec = ",".join(str(int(v)) for v in slab.arr[yc, :, nu])
                lines.append(f"{yc} {nu} {cvec}")
        write_cache(path, self._header(m), lines)

    def _load_level(self, m: int) -> dict | None:
        """The cached level-m table, or None (recompute) unless read_cache accepts
        the file, every "K nu0 code count" block has `count` rows
        "ycode nu c_0,..,c_(k-1)" of k coefficients, and all p^(m+1) keys appear."""
        lines = read_cache(self._cache_path(m), self._header(m))
        if lines is None:
            return None
        table: dict[tuple[int, int], Slab] = {}
        try:
            i = 0
            while i < len(lines):
                tag, nu0, code, count = lines[i].split()
                entries = [(int(yc), int(nu), [int(v) for v in cvec.split(",")])
                           for yc, nu, cvec in map(str.split, lines[i + 1: i + 1 + int(count)])]
                if tag != "K" or len(entries) != int(count) \
                        or any(len(cv) != self.ctx.k for _, _, cv in entries):
                    return None
                xcap = max((nu for _, nu, _ in entries), default=0) + 1
                slab = Slab.zeros(self.ctx, m, xcap)
                for yc, nu, cv in entries:
                    slab.arr[yc, :, nu] = cv
                table[(int(nu0), int(code))] = slab
                i += 1 + len(entries)
        except (ValueError, IndexError):
            return None
        return table if len(table) == self.ctx.p ** (m + 1) else None


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
    For p = 2 that matrix is packed bits, set straight from the tables, and
    stays packed through every product and rank.
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


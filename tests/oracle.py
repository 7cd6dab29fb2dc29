"""Reference implementations that tests compare the package against.

Sparse reference polynomials, the oracle every Slab test is checked against:
a SparsePoly maps monomials x^nu * y_1^a_1 ... y_n^a_n to nonzero field
coefficients and does all arithmetic term by term with FieldElement
operations.  It shares no code with the dense kernel in zptower._slab, which
is what makes it an independent cross-check.  The reduced (monomial-basis)
form has every y-exponent below p; reduction rewrites y_j^p as y_j + f_j
using the layer equations of a tower.  Nothing in the package imports this
module.

It also holds field-element helpers (the generator t, every element, a
random element), the formal differential dh = D(h) dx of a tower function, for
the V(dh) = 0 oracles, the universal Witt addition polynomials, for the
ghost-engine cross-checks, and a term-by-term product, sum and power of
{exponent tuple: coefficient} dicts, which the ghost engine's array
arithmetic is checked against.

The other references are built on the pipeline and check its answers
against proven statements: the regular-differential basis, V and the trace
on single forms (cartier_apply runs _slab.v_apply on the package's tables),
an RREF kernel basis, the kernels to stabilization and module multiplicities,
the singleton pivots of a bool pattern by sparse rows and columns, a dense
Cartier matrix assembled column by column from the tables,
the residuals of a^(1) against the conjectured main term, the p = 2 level-2
closed form, the ramification hypothesis, the
trace-vanishing bound (trace_bound_check starts from cartier_matrix) and
the two-level estimate of lambda that fit_periodic's slope must agree with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Sequence

import numpy as np

from zptower import witt
from zptower._slab import (Monomial, PolyError, Slab, code_of, mul as slab_mul, v_apply,
                           v_entries)
from zptower.analysis import AnalysisError, _check_p2_breaks, constants
from zptower.cartier import CartierTables, _basis_layout, cartier_matrix
from zptower.gf import FieldCtx, FieldElement, InternalConsistencyError, poly_modred
from zptower.linalg import DenseMatrix, twisted_power_kernels
from zptower.tower import RamificationData, TowerState


def gen(ctx: FieldCtx) -> FieldElement:
    """The power-basis generator t of GF(p^k); 1 when k = 1."""
    return ctx.elem((0, 1) + (0,) * (ctx.k - 2)) if ctx.k > 1 else ctx.elem(1)


def elements(ctx: FieldCtx) -> list[FieldElement]:
    """All elements of the field, in base-p code order."""
    return [ctx.elem(digits_of(ctx.p, code, ctx.k)) for code in range(ctx.order)]


def random_element(ctx: FieldCtx, rng) -> FieldElement:
    """A uniform random element, one rng draw per coefficient."""
    return ctx.elem([int(rng.integers(ctx.p)) for _ in range(ctx.k)])


def pad(m: Monomial, level: int) -> Monomial:
    """m with y-exponents of zero up to y_level."""
    return Monomial(m.nu, m.a + (0,) * (level - len(m.a)))


class SparsePoly:
    """Polynomial over a FieldCtx in x, y_1..y_level with sparse term storage.

    Treated as an immutable value: arithmetic returns fresh objects.
    """

    __slots__ = ("ctx", "level", "terms")

    def __init__(self, ctx: FieldCtx, level: int, terms: dict[Monomial, FieldElement] | None = None):
        self.ctx = ctx
        self.level = level
        self.terms: dict[Monomial, FieldElement] = {}
        if terms:
            for m, c in terms.items():
                if len(m.a) > level:
                    raise PolyError(f"monomial {m} exceeds level {level}")
                if not c.is_zero():
                    self.terms[pad(m, level)] = c

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ctx: FieldCtx, level: int = 0) -> "SparsePoly":
        return cls(ctx, level)

    @classmethod
    def constant(cls, ctx: FieldCtx, c, level: int = 0) -> "SparsePoly":
        return cls(ctx, level, {Monomial(0, (0,) * level): ctx.elem(c)})

    @classmethod
    def x_power(cls, ctx: FieldCtx, nu: int, c=1, level: int = 0) -> "SparsePoly":
        return cls(ctx, level, {Monomial(nu, (0,) * level): ctx.elem(c)})

    @classmethod
    def variable(cls, ctx: FieldCtx, j: int, level: int | None = None) -> "SparsePoly":
        """The variable y_j (j >= 1)."""
        level = j if level is None else level
        a = tuple(1 if i == j else 0 for i in range(1, level + 1))
        return cls(ctx, level, {Monomial(0, a): ctx.one()})

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def at_level(self, level: int) -> "SparsePoly":
        if level < self.level:
            if any(any(m.a[level:]) for m in self.terms):
                raise PolyError("cannot lower level: higher variables present")
            return SparsePoly(self.ctx, level,
                              {Monomial(m.nu, m.a[:level]): c for m, c in self.terms.items()})
        if level == self.level:
            return self
        return SparsePoly(self.ctx, level, {pad(m, level): c for m, c in self.terms.items()})

    def coefficient(self, m: Monomial) -> FieldElement:
        return self.terms.get(pad(m, self.level), self.ctx.elem(0))

    def y_coefficients(self, j: int) -> dict[int, "SparsePoly"]:
        """Split by the power of y_j: {e: coefficient poly with y_j removed}."""
        out: dict[int, dict[Monomial, FieldElement]] = {}
        for m, c in self.terms.items():
            e = m.a[j - 1]
            a = m.a[: j - 1] + (0,) + m.a[j:]
            out.setdefault(e, {})[Monomial(m.nu, a)] = c
        return {e: SparsePoly(self.ctx, self.level, t) for e, t in out.items()}

    def is_reduced(self) -> bool:
        p = self.ctx.p
        return all(all(e < p for e in m.a) for m in self.terms)

    def map_coefficients(self, fn) -> "SparsePoly":
        return SparsePoly(self.ctx, self.level, {m: fn(c) for m, c in self.terms.items()})

    # -- arithmetic -------------------------------------------------------------

    def _coerce(self, other) -> "SparsePoly":
        if isinstance(other, SparsePoly):
            if other.ctx != self.ctx:
                raise PolyError("mixed-field polynomial arithmetic")
            return other
        return SparsePoly.constant(self.ctx, self.ctx.elem(other))

    def __add__(self, other):
        o = self._coerce(other)
        lvl = max(self.level, o.level)
        out = dict(self.at_level(lvl).terms)
        for m, c in o.at_level(lvl).terms.items():
            s = out.get(m)
            out[m] = c if s is None else s + c
        return SparsePoly(self.ctx, lvl, out)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly(self.ctx, self.level, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, (FieldElement, int)):
            c = self.ctx.elem(other)
            return self.map_coefficients(lambda v: v * c)
        o = self._coerce(other)
        lvl = max(self.level, o.level)
        out: dict[Monomial, FieldElement] = {}
        for m1, c1 in self.at_level(lvl).terms.items():
            for m2, c2 in o.at_level(lvl).terms.items():
                m = Monomial(m1.nu + m2.nu, tuple(e1 + e2 for e1, e2 in zip(m1.a, m2.a)))
                s = out.get(m)
                out[m] = c1 * c2 if s is None else s + c1 * c2
        return SparsePoly(self.ctx, lvl, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise PolyError("negative polynomial power")
        result = SparsePoly.constant(self.ctx, 1, self.level)
        for _ in range(e):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        lvl = max(self.level, other.level)
        return self.at_level(lvl).terms == other.at_level(lvl).terms

    __hash__ = None

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda m: (m.a[::-1], m.nu)):
            mono = "*".join([f"x^{m.nu}"] * bool(m.nu)
                            + [f"y{j}^{e}" for j, e in enumerate(m.a, start=1) if e])
            parts.append(f"({self.terms[m]!r})*{mono}" if mono else repr(self.terms[m]))
        return " + ".join(parts)

    __repr__ = render


def reduce_to_monomial_basis(f: SparsePoly, layers: Sequence[SparsePoly]) -> SparsePoly:
    """Rewrite f modulo the relations y_j^p = y_j + f_j until all y-exponents are < p.

    layers[j-1] is the (already reduced) right-hand side f_j, a polynomial in
    x, y_1..y_{j-1}.  The rewriting is confluent, so the result is the unique
    monomial-basis representative; it is idempotent on reduced input.
    """
    if f.level > len(layers):
        raise PolyError(f"need {f.level} layer equations, got {len(layers)}")
    p = f.ctx.p
    lvl = f.level
    out: dict[Monomial, FieldElement] = {}
    work: list[tuple[Monomial, FieldElement]] = list(f.terms.items())
    while work:
        m, c = work.pop()
        for j in range(lvl, 0, -1):
            if m.a[j - 1] >= p:
                break
        else:
            s = out.get(m)
            out[m] = c if s is None else s + c
            continue
        # y_j^e = y_j^(e-p) * (y_j + f_j)
        base = m.a[: j - 1] + (m.a[j - 1] - p,) + m.a[j:]
        work.append((Monomial(m.nu, base[: j - 1] + (base[j - 1] + 1,) + base[j:]), c))
        for mf, cf in layers[j - 1].at_level(lvl).terms.items():
            mm = Monomial(m.nu + mf.nu, tuple(e1 + e2 for e1, e2 in zip(base, mf.a)))
            work.append((mm, c * cf))
    return SparsePoly(f.ctx, lvl, out)


def monomial_valuation(p: int, d: Sequence[int], m: Monomial, n: int) -> int:
    """Valuation of x^nu y^a at the infinite place of level n (negative of pole
    order) of a tower with lower breaks d."""
    if len(m.a) > n or n > len(d):
        raise PolyError("monomial level exceeds the number of lower breaks")
    return -(m.nu * p ** n + sum(e * d[j - 1] * p ** (n - j)
                                 for j, e in enumerate(m.a, start=1)))


def infinity_valuation(f: SparsePoly, p: int, d: Sequence[int], n: int) -> int | float:
    """min over monomials of -(nu p^n + sum a_j d_j p^(n-j)); +inf for the zero polynomial.

    Requires reduced input: distinct reduced monomials have distinct
    valuations (p does not divide any d_j), which is checked.
    """
    if f.is_zero():
        return math.inf
    if not f.is_reduced():
        raise PolyError("infinity_valuation requires a reduced polynomial")
    vals = [monomial_valuation(p, d, m, n) for m in f.terms]
    if len(set(vals)) != len(vals):
        raise InternalConsistencyError("duplicate valuation: reduced monomials must separate")
    return min(vals)


def poly_pth_power(f: SparsePoly) -> SparsePoly:
    """p-th power in the free polynomial ring: exponents scale, coefficients Frobenius."""
    p = f.ctx.p
    return SparsePoly(f.ctx, f.level, {Monomial(m.nu * p, tuple(e * p for e in m.a)): c ** p
                                       for m, c in f.terms.items()})


def trace(f: SparsePoly) -> SparsePoly:
    """Trace of f dx to the level below: sum_i w_i y_n^i dx -> -w_(p-1) dx."""
    top = f.y_coefficients(f.level).get(f.ctx.p - 1, SparsePoly.zero(f.ctx, f.level))
    return (-top).at_level(f.level - 1)


def evaluate_witt(poly, values: Sequence[SparsePoly], ctx: FieldCtx) -> SparsePoly:
    """Substitute SparsePoly values for the variables of a witt engine polynomial."""
    nvars = poly.e.shape[1]
    if len(values) != nvars:
        raise ValueError(f"expected {nvars} values, got {len(values)}")
    level = max((v.level for v in values), default=0)
    out = SparsePoly.zero(ctx, level)
    for e, c in zip(poly.e.tolist(), poly.c.tolist()):
        term = SparsePoly.constant(ctx, c, level)
        for v, ei in zip(values, e):
            term = term * v ** ei
        out = out + term
    return out


# -- conversion to and from the dense kernel ----------------------------------

def digits_of(p: int, code: int, level: int) -> tuple[int, ...]:
    """The base-p digits a_1..a_level of a y-code (code_of's inverse)."""
    out = []
    for _ in range(level):
        out.append(code % p)
        code //= p
    return tuple(out)


def from_sparse(f: SparsePoly, level: int | None = None) -> Slab:
    f = f.at_level(f.level if level is None else level)
    s = Slab.zeros(f.ctx, f.level, max((m.nu for m in f.terms), default=0) + 1)
    for m, c in f.terms.items():
        s.arr[code_of(f.ctx.p, m.a), :, m.nu] = c.coeffs
    return s


def to_sparse(s: Slab) -> SparsePoly:
    codes, xs = np.nonzero(s.arr.any(axis=1))
    return SparsePoly(s.ctx, s.level, {
        Monomial(nu, digits_of(s.ctx.p, code, s.level)): s.ctx.elem(s.arr[code, :, nu].tolist())
        for code, nu in zip(codes.tolist(), xs.tolist())})


def layers(state) -> list[SparsePoly]:
    """The standard-form layers f_1..f_n of a built TowerState."""
    return [to_sparse(state.layer_slab(m)) for m in range(1, state.level + 1)]


# -- formal differentials -------------------------------------------------------

def function_differential(h: Slab, state) -> Slab:
    """D(h) with dh = D(h) dx on the tower: D(x) = 1, D(y_j) = -D(f_j)."""
    state.build_to(h.level)
    dy: list[Slab] = []
    for f in state.layers[:h.level]:
        dy.append(_differential(f, dy, state.layers).scale(-1))
    return _differential(h, dy, state.layers)


def _differential(h: Slab, dy: Sequence[Slab], layers: Sequence[Slab]) -> Slab:
    """D(h), given dy[j-1] = D(y_j) for j up to h's level."""
    out = _x_derivative(h)
    for j in range(1, h.level + 1):
        part = _y_derivative(h, j)
        if not (part.arr.any() and dy[j - 1].arr.any()):
            continue
        out = out + slab_mul(part, dy[j - 1], layers)
    return out.trim()


def _x_derivative(slab: Slab) -> Slab:
    p = slab.ctx.p
    arr = slab.arr
    out = np.zeros_like(arr)
    if arr.shape[2] > 1:
        mult = (np.arange(1, arr.shape[2]) % p)
        out[:, :, :-1] = arr[:, :, 1:] * mult[None, None, :]
    return Slab(slab.ctx, slab.level, out % p)


def _y_derivative(slab: Slab, j: int) -> Slab:
    p = slab.ctx.p
    out = Slab.zeros(slab.ctx, slab.level, slab.arr.shape[2])
    stride = p ** (j - 1)
    for code in slab.nonzero_codes().tolist():
        e = (code // stride) % p
        if e:
            out.arr[code - stride] += e * slab.arr[code]
    out.arr %= p
    return out


# -- Witt polynomial arithmetic on {exponent tuple: coefficient} dicts -------------

def dict_mul(a: dict, b: dict, mod: int, f: list[int] | None = None) -> dict:
    """a b mod `mod`, term pair by term pair; with f, the last exponent is that
    of t and each row of the product is reduced modulo the monic lifted field
    polynomial f by gf.poly_modred."""
    acc: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            acc[e] = acc.get(e, 0) + ca * cb
    out = {e: v for e, c in acc.items() if (v := c % mod)}
    if f is None:
        return out
    rows: dict = {}  # exponents of the other variables -> {t exponent: coefficient}
    for e, c in out.items():
        rows.setdefault(e[:-1], {})[e[-1]] = c
    red = {}
    for rest, row in rows.items():
        coeffs = [row.get(j, 0) for j in range(max(row) + 1)]
        red.update({rest + (j,): c for j, c in enumerate(poly_modred(coeffs, f, mod)) if c})
    return red


def dict_add(parts: list[tuple[int, dict]], mod: int) -> dict:
    """sum of scale * poly over the (scale, poly) parts, mod `mod`."""
    acc: dict = {}
    for scale, poly in parts:
        for e, c in poly.items():
            acc[e] = acc.get(e, 0) + scale * c
    return {e: v for e, c in acc.items() if (v := c % mod)}


def dict_pow(a: dict, e: int, mod: int, f: list[int] | None = None) -> dict:
    """a^e by repeated dict_mul."""
    out = {(0,) * len(next(iter(a))): 1}
    for _ in range(e):
        out = dict_mul(out, a, mod, f)
    return out


# -- universal Witt addition ------------------------------------------------------

def addition_polynomials(p: int, length: int) -> list[witt._Poly]:
    """Universal S_0..S_{length-1} in X_0..X_{length-1}, Y_0..Y_{length-1}:
    w_m(S_0..S_m) = w_m(X) + w_m(Y), from the package's ghost engine (uncached)."""
    nv = 2 * length
    xs = [witt._var(nv, i) for i in range(length)]
    ys = [witt._var(nv, length + i) for i in range(length)]
    return witt._combine([(1, xs), (1, ys)], length, p)


# -- differentials and the Cartier operator on single forms ----------------------

def differential_basis(state: TowerState, n: int) -> list[Monomial]:
    """The monomial basis of regular differentials at level n, in column order."""
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
        return not form.arr.any()
    numax, _, _ = _basis_layout(state, form.level)
    codes, xs = np.nonzero(form.arr.any(axis=1))
    return not np.any(xs > numax[codes])


def cartier_apply(form: Slab, state: TowerState) -> Slab:
    """V(form dx) at the form's level; at level 0 this is
    V(sum a_i x^i dx) = sum sigma^-1(a_(pj-1)) x^(j-1) dx on the projective line."""
    table = (state.tables or CartierTables(state)).table(form.level)
    return v_apply([form], v_entries(table), [0])[0]


def trace_map(form: Slab) -> Slab:
    """Trace to the previous level: sum_i w_i y_n^i dx -> -w_(p-1) dx."""
    if form.level == 0:
        raise PolyError("no level below the base")
    p = form.ctx.p
    top = form.arr[-p ** (form.level - 1):]  # the rows whose y_n digit is p - 1
    return Slab(form.ctx, form.level - 1, -top % p).trim()


# -- kernels and module structure -------------------------------------------------

def rref(M: DenseMatrix) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of M.data over GF(p) and its pivot columns."""
    p = M.ctx.p
    A = M.data
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
    """GF(p) basis of the right kernel of M.data, from its RREF.

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


def kernels_to_stabilization(M: DenseMatrix) -> list[int]:
    """Twisted-power kernel dimensions until two consecutive values agree.

    M.cols + 1 values hold a repeat: the sequence is nondecreasing and lies
    in 1..M.cols unless a^(1) = 0, where M is invertible and it is constant.
    On a nilpotent M no product is formed past the full kernel.
    """
    dims = twisted_power_kernels(M, M.cols + 1)
    r = next(r for r in range(1, len(dims)) if dims[r] == dims[r - 1])
    return dims[:r + 1]


def pivot_singletons_csr(deg, lsum, live, olive, optr, oidx) -> int:
    """One batch of singleton pivots on the lines of one side, the other
    side's entries given as index lists oidx over the segments optr: the
    package's pivot batch as it was on sparse columns and rows."""
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


def bool_pattern_pivots(nz):
    """The singleton pivots of a bool pattern from one global flatnonzero with
    int64 indices, an argsort for the CSC side and float64 line sums:
    ((ci, rdeg, rsum, cr, cdeg, csum), (pivot rows, live rows, live cols)),
    ci the CSR column indices and cr the CSC row indices."""
    m, n = nz.shape
    ri, ci = np.divmod(np.flatnonzero(nz), n)
    cr = ri[np.argsort(ci, kind="stable")]
    rdeg, cdeg = np.bincount(ri, minlength=m), np.bincount(ci, minlength=n)
    rsum = np.bincount(ri, weights=ci, minlength=m).astype(np.int64)
    csum = np.bincount(ci, weights=ri, minlength=n).astype(np.int64)
    pattern = tuple(a.copy() for a in (ci, rdeg, rsum, cr, cdeg, csum))  # the pivots mutate them
    rptr = np.concatenate(([0], np.cumsum(rdeg)))
    cptr = np.concatenate(([0], np.cumsum(cdeg)))
    rlive, clive = np.ones(m, dtype=bool), np.ones(n, dtype=bool)
    while True:
        got = (pivot_singletons_csr(cdeg, csum, clive, rlive, rptr, ci)
               + pivot_singletons_csr(rdeg, rsum, rlive, clive, cptr, cr))
        if not got:
            return pattern, (np.nonzero(~rlive)[0], np.nonzero(rlive & (rdeg > 0))[0],
                             np.nonzero(clive & (cdeg > 0))[0])


def cartier_coefficients(state: TowerState, n: int) -> np.ndarray:
    """The level-n Cartier matrix as (g, g, k) coefficient vectors, column by
    column from the tables: V(x^(p q + nu0) y^a dx) = x^q V(x^nu0 y^a dx), each
    cell of table entry (nu0, a) looked up in the basis one position per x."""
    ctx, p = state.field, state.spec.p
    table = (state.tables or CartierTables(state)).table(n)
    basis = differential_basis(state, n)
    index = {mono: i for i, mono in enumerate(basis)}
    out = np.zeros((len(basis), len(basis), ctx.k), dtype=np.int64)
    for col, mono in enumerate(basis):
        arr = table[(mono.nu % p, int(code_of(p, mono.a)))].arr
        for code, x in zip(*np.nonzero(arr.any(axis=1))):
            row = index[Monomial(int(x) + mono.nu // p, digits_of(p, int(code), n))]
            out[row, col] = arr[code, :, x]
    return out


def elementary_divisors(a: Sequence[int]) -> list[int]:
    """Multiplicities m(i) of k[V]/V^i in the V-nilpotent module with kernel
    dimensions a = (a^(1), ..., a^(R)).

    m(i) = 2 a^(i) - a^(i-1) - a^(i+1) with a^(0) = 0 and the sequence
    extended constant past stabilization; sum i*m(i) recovers the stabilized
    kernel dimension.  Requires a stabilized sequence, one whose last two
    entries are equal.
    """
    if len(a) < 2 or a[-1] != a[-2]:
        raise AnalysisError("kernel profile not stabilized: extend r")
    ext = [0, *a, a[-1]]
    out = []
    for i in range(1, len(ext) - 1):
        m_i = 2 * ext[i] - ext[i - 1] - ext[i + 1]
        if m_i < 0:
            raise AnalysisError(f"negative multiplicity m({i}): inconsistent profile")
        out.append(m_i)
    while out and out[-1] == 0:
        out.pop()
    if sum(i * m for i, m in enumerate(out, start=1)) != a[-1]:
        raise InternalConsistencyError("multiplicities do not recover the kernel dimension")
    return out


def delta_values(a_list: Sequence[int], d: int, p: int) -> list[Fraction]:
    """Residuals delta_d(n) = a(n) - alpha(1,p) d (p^2n - p^2) of the kernel
    dimensions against the conjectured main term.  Levels are 1-based:
    a_list[0] is level 1.
    """
    alpha = constants(1, p).alpha
    return [a - alpha * d * (p ** (2 * n) - p * p) for n, a in enumerate(a_list, 1)]


def estimate_lambda(a_list: Sequence[int], d: int, p: int, r: int) -> Fraction:
    """Two-level difference quotient at the deepest level:
    ((a(N) - alpha d p^2N) - (a(N-m) - alpha d p^2(N-m))) / m with m = m(r,p)."""
    cc = constants(r, p)
    if cc.m < 1:
        raise AnalysisError("lambda estimation needs m(r,p) >= 1")
    N = len(a_list)
    if N < cc.m + 1:
        raise AnalysisError(f"need at least {cc.m + 1} levels, got {N}")
    hi = a_list[N - 1] - cc.alpha * d * p ** (2 * N)
    lo = a_list[N - 1 - cc.m] - cc.alpha * d * p ** (2 * (N - cc.m))
    return Fraction(hi - lo, cc.m)


def fit_value(rep, n: int) -> Fraction:
    """The value at level n of a FitReport's formula."""
    return rep.leading * rep.p ** (2 * n) + rep.lam * n + rep.c[n % rep.period]


def kernel_genus_ratio_gap(a_r: int, genus: int, r: int, p: int) -> Fraction:
    """|a^(r)/g - r(p-1)/((p-1)r + (p+1))| at one level (reported, not asserted)."""
    target = Fraction(r * (p - 1), (p - 1) * r + (p + 1))
    return abs(Fraction(a_r, genus) - target)


def kernel2_level2_p2(d_list: Sequence[int]) -> int:
    """a^(2) at level 2 when every second break is 3x the first and
    sum (d-3)/2 > -4: sum (floor((3d+1)/4) + floor((7d+7)/16))."""
    _check_p2_breaks(d_list)
    if not sum(Fraction(d - 3, 2) for d in d_list) > -4:
        raise AnalysisError("level-2 closed form hypothesis fails: breaks too small")
    return sum((3 * d + 1) // 4 + (7 * d + 7) // 16 for d in d_list)


# -- ramification hypothesis and trace checks -------------------------------------

@dataclass(frozen=True)
class RamHypothesisReport:
    """Delta_n = (d(n+1) - ceil(d(n+1)/p)) - (2g(n) - 2) per level, with the
    flag for the trace-vanishing criterion at each level."""

    p: int
    delta: tuple[int, ...]      # Delta_n for n = 0..N-1
    holds: tuple[bool, ...]


def ramification_hypothesis(ram: RamificationData) -> RamHypothesisReport:
    """Evaluate the trace-vanishing hypothesis level by level at the tower's
    one branch point.  holds(n) allows equality when the break at level n+1
    satisfies the strictness exemption d = floor(d/p) mod p."""
    p = ram.p
    deltas, holds = [], []
    for n, d in enumerate(ram.d):  # d: the break of level n+1
        delta_n = d - -(d // -p) - (2 * ram.genus(n) - 2)
        deltas.append(delta_n)
        holds.append(delta_n > 0 or (delta_n == 0 and d % p == (d // p) % p))
    return RamHypothesisReport(p, tuple(deltas), tuple(holds))


@dataclass
class TraceCheck:
    index: int
    trace_poly: Slab  # h of the trace h dx at level 0
    order_at_infinity: int | float  # math.inf when the trace vanishes
    bound: int
    strict: bool
    trace_must_vanish: bool
    passed: bool


@dataclass
class TraceBoundReport:
    p: int
    d: int
    kernel_dimension: int
    checks: list[TraceCheck] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def trace_bound_check(state: TowerState) -> TraceBoundReport:
    """Verify the trace-order bound for every V-killed regular differential at
    level 1, and exact trace vanishing whenever the degree criterion applies.

    A failure here would contradict a proven statement and is therefore an
    implementation bug, not a property of the tower.
    """
    state.build_to(1)
    ram = state.ensure_ram(1)
    p, d = state.spec.p, ram.d[0]
    cm = cartier_matrix(state, 1)
    basis = differential_basis(state, 1)
    ctx = state.field
    # a GF(p) basis of ker V: each vector, reshaped to (g, k), holds the
    # coefficients of the c_s with V(sum c_s w_s) = 0
    vecs = kernel_basis(cm.matrix)
    bound = d - -(d // -p)
    strict = d % p == (d // p) % p
    # over the projective line the degree criterion always holds at level 1:
    # sum (d - ceil(d/p)) >= 0 > -2 = 2g - 2
    must_vanish = True
    report = TraceBoundReport(p=p, d=d, kernel_dimension=len(vecs) // ctx.k)
    codes = np.array([m.a[0] for m in basis], dtype=np.int64)
    nus = np.array([m.nu for m in basis], dtype=np.int64)
    for idx, vec in enumerate(vecs):
        eta = Slab.zeros(ctx, 1, int(nus.max()) + 1)
        eta.arr[codes, :, nus] = vec.reshape(-1, ctx.k)
        if cartier_apply(eta, state).arr.any():
            raise InternalConsistencyError("kernel vector not killed by V")
        tr = trace_map(eta)
        if not tr.arr.any():
            order = math.inf
        else:
            # ord at infinity of h dx on the line is -deg h - 2; tr is trimmed
            order = -(tr.arr.shape[2] - 1) - 2
        ok = (order > bound) if strict else (order >= bound)
        if must_vanish:
            ok = ok and not tr.arr.any()
        report.checks.append(TraceCheck(idx, tr, order, bound, strict, must_vanish, ok))
    return report

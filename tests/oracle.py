"""Sparse reference polynomials: the oracle every Slab test is checked against.

A SparsePoly maps monomials x^nu * y_1^a_1 ... y_n^a_n to nonzero field
coefficients and does all arithmetic term by term with FieldElement
operations.  It shares no code with the dense kernel in zptower._slab, which
is what makes it an independent cross-check.  The reduced (monomial-basis)
form has every y-exponent below p; reduction rewrites y_j^p as y_j + f_j
using the layer equations of a tower.  Nothing in the package imports this
module.

It also holds the references that only tests use: the formal differential
dh = D(h) dx of a tower function, for the V(dh) = 0 oracles, and the
universal Witt addition polynomials, for the ghost-engine cross-checks.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from zptower import witt
from zptower._slab import Monomial, PolyError, Slab, code_of, digits_of, mul as slab_mul
from zptower.gf import FieldCtx, FieldElement, InternalConsistencyError


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
                    self.terms[m.pad(level)] = c

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
        return SparsePoly(self.ctx, level, {m.pad(level): c for m, c in self.terms.items()})

    def coefficient(self, m: Monomial) -> FieldElement:
        return self.terms.get(m.pad(self.level), self.ctx.zero())

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
    """Substitute SparsePoly values for the variables of a witt.WittPolynomial."""
    if len(values) != poly.nvars:
        raise ValueError(f"expected {poly.nvars} values, got {len(values)}")
    level = max((v.level for v in values), default=0)
    out = SparsePoly.zero(ctx, level)
    for e, c in poly.terms:
        term = SparsePoly.constant(ctx, c, level)
        for v, ei in zip(values, e):
            term = term * v ** ei
        out = out + term
    return out


# -- conversion to and from the dense kernel ----------------------------------

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
        if part.is_zero() or dy[j - 1].is_zero():
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


# -- universal Witt addition ------------------------------------------------------

def addition_polynomials(p: int, length: int) -> list[witt.WittPolynomial]:
    """Universal S_0..S_{length-1} in X_0..X_{length-1}, Y_0..Y_{length-1}:
    w_m(S_0..S_m) = w_m(X) + w_m(Y), from the package's ghost engine (uncached)."""
    nv = 2 * length
    xs = [witt._var(nv, i) for i in range(length)]
    ys = [witt._var(nv, length + i) for i in range(length)]
    return [witt.WittPolynomial.from_dict(nv, c)
            for c in witt._combine([(1, xs), (1, ys)], length, p)]

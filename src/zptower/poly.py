"""Sparse multivariate polynomials over GF(p^k) in x, y_1..y_n.

A polynomial is a map from monomials x^nu * y_1^a_1 ... y_n^a_n to nonzero
field coefficients.  The reduced (monomial-basis) form has every y-exponent
below p; reduction rewrites y_j^p as y_j + f_j using the layer equations of a
tower.  Valuations at the infinite place are computed from a pole profile of
per-level lower ramification breaks.

This module is the general-purpose exact path.  Performance-critical tower
computations use the dense kernel in _slab, which is cross-checked against
this implementation in the test suite.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .gf import FieldCtx, FieldElement, InternalConsistencyError


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

    def render(self) -> str:
        parts = []
        if self.nu:
            parts.append("x" if self.nu == 1 else f"x^{self.nu}")
        for j, e in enumerate(self.a, start=1):
            if e:
                parts.append(f"y{j}" if e == 1 else f"y{j}^{e}")
        return "*".join(parts) if parts else "1"


class PoleProfile:
    """Lower ramification breaks d_1..d_n of a tower, one per level.

    Each d_j is a positive integer prime to p, and consecutive breaks satisfy
    d_{j+1} >= (p^2 - p + 1) d_j; both are enforced at construction.
    """

    __slots__ = ("p", "d")

    def __init__(self, p: int, d: Sequence[int]):
        d = tuple(int(v) for v in d)
        for j, dj in enumerate(d):
            if dj <= 0 or dj % p == 0:
                raise PolyError(f"break d_{j+1}={dj} must be positive and prime to p={p}")
            if j and dj < (p * p - p + 1) * d[j - 1]:
                raise PolyError(
                    f"break d_{j+1}={dj} below (p^2-p+1)*d_{j} = {(p*p-p+1)*d[j-1]}")
        self.p = p
        self.d = d

    def __len__(self):
        return len(self.d)

    def __getitem__(self, j):
        return self.d[j]

    def monomial_valuation(self, m: Monomial, n: int) -> int:
        """Valuation of x^nu y^a at the infinite place of level n (negative of pole order)."""
        if len(m.a) > n or n > len(self.d):
            raise PolyError("monomial level exceeds profile depth")
        p = self.p
        w = m.nu * p ** n
        for j, e in enumerate(m.a, start=1):
            w += e * self.d[j - 1] * p ** (n - j)
        return -w

    def __repr__(self):
        return f"PoleProfile(p={self.p}, d={self.d})"


class SparsePoly:
    """Polynomial over a FieldCtx in x, y_1..y_level with sparse term storage.

    Treated as an immutable value: arithmetic returns fresh objects, so
    polynomials are safe to share across threads and to process in parallel.
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
        c = ctx.elem(c)
        return cls(ctx, level, {Monomial(0, (0,) * level): c})

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

    def x_degree(self) -> int:
        return max((m.nu for m in self.terms), default=-1)

    def map_coefficients(self, fn) -> "SparsePoly":
        out = {}
        for m, c in self.terms.items():
            v = fn(c)
            if not v.is_zero():
                out[m] = v
        return SparsePoly(self.ctx, self.level, out)

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
            v = c if s is None else s + c
            if v.is_zero():
                out.pop(m, None)
            else:
                out[m] = v
        return SparsePoly(self.ctx, lvl, out)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly(self.ctx, self.level, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, FieldElement) or isinstance(other, int):
            c = self.ctx.elem(other)
            if c.is_zero():
                return SparsePoly(self.ctx, self.level)
            return self.map_coefficients(lambda v: v * c)
        o = self._coerce(other)
        lvl = max(self.level, o.level)
        a, b = self.at_level(lvl), o.at_level(lvl)
        out: dict[Monomial, FieldElement] = {}
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                m = Monomial(m1.nu + m2.nu, tuple(e1 + e2 for e1, e2 in zip(m1.a, m2.a)))
                v = c1 * c2
                s = out.get(m)
                v = v if s is None else s + v
                if v.is_zero():
                    out.pop(m, None)
                else:
                    out[m] = v
        return SparsePoly(self.ctx, lvl, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise PolyError("negative polynomial power")
        result = SparsePoly.constant(self.ctx, 1, self.level)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        lvl = max(self.level, other.level)
        return self.at_level(lvl).terms == other.at_level(lvl).terms

    def __hash__(self):
        return hash(frozenset((m, c.coeffs) for m, c in self.at_level(self.level).terms.items()))

    # -- rendering ----------------------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda m: (m.a[::-1], m.nu)):
            c = self.terms[m]
            if m.nu == 0 and not any(m.a):
                parts.append(repr(c))
            elif c.is_one():
                parts.append(m.render())
            else:
                cs = repr(c)
                if "+" in cs:
                    cs = f"({cs})"
                parts.append(f"{cs}*{m.render()}")
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
            v = c if s is None else s + c
            if v.is_zero():
                out.pop(m, None)
            else:
                out[m] = v
            continue
        # y_j^e = y_j^(e-p) * (y_j + f_j)
        base = m.a[: j - 1] + (m.a[j - 1] - p,) + m.a[j:]
        work.append((Monomial(m.nu, base[: j - 1] + (base[j - 1] + 1,) + base[j:]), c))
        fj = layers[j - 1].at_level(lvl)
        for mf, cf in fj.terms.items():
            mm = Monomial(m.nu + mf.nu, tuple(e1 + e2 for e1, e2 in zip(base, mf.a)))
            work.append((mm, c * cf))
    return SparsePoly(f.ctx, lvl, out)


def infinity_valuation(f: SparsePoly, profile: PoleProfile, n: int) -> int | float:
    """min over monomials of -(nu p^n + sum a_j d_j p^(n-j)); +inf for the zero polynomial.

    Requires reduced input: distinct reduced monomials have distinct
    valuations (p does not divide any d_j), which is checked on the fly.
    """
    if f.is_zero():
        return math.inf
    if not f.is_reduced():
        raise PolyError("infinity_valuation requires a reduced polynomial")
    best: int | None = None
    seen: set[int] = set()
    for m in f.terms:
        v = profile.monomial_valuation(m, n)
        if v in seen:
            raise InternalConsistencyError(
                f"duplicate valuation {v}: reduced monomials must separate")
        seen.add(v)
        if best is None or v < best:
            best = v
    return best


def leading_term(f: SparsePoly, profile: PoleProfile, n: int) -> tuple[Monomial, FieldElement]:
    """The unique monomial of minimal valuation (deepest pole) of a reduced poly."""
    if f.is_zero():
        raise PolyError("zero polynomial has no leading term")
    m = min(f.terms, key=lambda m: profile.monomial_valuation(m, n))
    return m, f.terms[m]

"""Tower model: right-hand-side normalization, ramification breaks, conductors,
genus, monodromy classification, and layer equations in standard form.

A tower over the projective line, totally ramified over the point at infinity
and unramified elsewhere, is specified by terms (v, c, i) standing for
p^v * [c x^i] on the right-hand side of F(y) - y = sum of terms.  Layer m is
the Artin-Schreier extension y_m^p - y_m = f_m, where f_m is the m-th
right-hand-side component minus a universal correction in y_1..y_{m-1}.
TowerState holds the layers in standard form (pole order at infinity equal to
the lower break), tracking the change of variables so that deeper corrections
are evaluated consistently; products of tower polynomials are y-reduced by
passing its layer list to the slab kernel.

Standard form: a layer y^p - y = f only has its pole order equal to the
ramification break when that order is prime to p; otherwise the order is a
multiple of p and strictly larger.  Changing variables by y -> y + c*z
replaces f by f + (c z)^p - c z, and a monomial z = x^nu y_1^a_1 ... with pole
order exactly ord(f)/p always exists over the projective line, so repeatedly
cancelling the leading term terminates with the minimal pole order.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from ._slab import Monomial, PolyError, Slab, mul as slab_mul
from .gf import FieldCtx, FieldElement, InternalConsistencyError
from .witt import LENGTH_CAP, peel_polynomials, rhs_components


class TowerError(ValueError):
    pass


@dataclass(frozen=True)
class Term:
    v: int
    c: FieldElement
    i: int


@dataclass(frozen=True)
class TowerSpec:
    """Right-hand-side data over a fixed field, plus a display name."""

    field: FieldCtx
    terms: tuple[Term, ...]
    name: str = ""

    def __post_init__(self):
        # geometric/total-ramification itself is checked where breaks are
        # computed, since exact Witt sums may cancel valuation-0 terms anyway
        for t in self.terms:
            if t.v < 0 or t.i < 1:
                raise TowerError(f"term (v={t.v}, i={t.i}) out of range")
            if t.c.is_zero():
                raise TowerError("zero coefficient in tower term")

    @classmethod
    def make(cls, field: FieldCtx, terms: Sequence[tuple[int, object, int]],
             name: str = "") -> "TowerSpec":
        return cls(field, tuple(Term(v, field.elem(c), i) for v, c, i in terms), name)

    @property
    def p(self) -> int:
        return self.field.p

    def normalize(self) -> "TowerSpec":
        """Make every exponent coprime to p: p^v [c x^(pm)] -> p^v [c^(1/p) x^m].

        The replacement differs from the original by an element of the image
        of F - 1, so the generated extension at every level is unchanged.
        """
        p = self.p
        out = []
        for t in self.terms:
            c, i = t.c, t.i
            while i % p == 0:
                i //= p
                c = c.frobenius_inverse()
            out.append(Term(t.v, c, i))
        out.sort(key=lambda t: (t.i, t.v, t.c.to_int()))
        return TowerSpec(self.field, tuple(out), self.name)

    @property
    def is_normalized(self) -> bool:
        return all(t.i % self.p for t in self.terms)

    @property
    def is_basic(self) -> bool:
        """All coefficients in the field itself (every term has valuation 0)."""
        return all(t.v == 0 for t in self.terms)

    @property
    def ramification_invariant(self) -> int:
        """d = s(1): largest exponent among valuation-0 terms (normalized spec)."""
        return max(t.i for t in self.normalize().terms if t.v == 0)

    def spec_hash(self) -> str:
        spec = self.normalize()
        blob = json.dumps({
            "p": spec.p,
            "k": spec.field.k,
            "modulus": list(spec.field.modulus),
            "terms": [[t.v, t.c.serialize(), t.i] for t in spec.terms],
        }, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def max_level(self) -> int:
        return LENGTH_CAP[self.p]

    def serialize(self) -> dict:
        """The spec-file form that cli.spec_from_dict reads back."""
        out = {"p": self.p, "k": self.field.k, "name": self.name,
               "terms": [{"v": t.v, "c": t.c.serialize(), "i": t.i} for t in self.terms]}
        if self.field.k > 1:
            out["modulus"] = list(self.field.modulus)
        return out


def euler_phi_prime_power(p: int, j: int) -> int:
    return p ** j - p ** (j - 1)


def coefficient_valuations(spec: TowerSpec, n: int) -> dict[int, int]:
    """p-adic valuation of the total Witt coefficient per exponent, capped at n.

    Terms sharing an exponent are summed exactly in W_n(k); cancellations are
    therefore detected (never approximated by a min of valuations).  The sum
    (sum p^v [c]) [x^i] has its first nonzero component where the coefficient
    sum does.  A value of n means "no contribution below level n".
    """
    if not spec.is_normalized:
        spec = spec.normalize()
    groups: dict[int, list[tuple]] = {}
    for t in spec.terms:
        groups.setdefault(t.i, []).append((t.v, t.c, t.i))
    out = {}
    for i, terms in groups.items():
        comps = rhs_components(terms, n, spec.field)
        out[i] = next((idx for idx, comp in enumerate(comps) if comp), n)
    return out


def breaks_and_conductor(spec: TowerSpec, n: int) -> tuple[list[int], list[int]]:
    """(s(1..n), u(1..n)): u(m) = 1 + max over i with v(c_i) < m of i p^(m-1-v)."""
    spec = spec.normalize()
    vals = coefficient_valuations(spec, n)
    s, u = [], []
    for m in range(1, n + 1):
        candidates = [i * spec.p ** (m - 1 - v) for i, v in vals.items() if v < m]
        if not candidates:
            raise TowerError(f"tower not totally ramified at level {m}")
        um = 1 + max(candidates)
        u.append(um)
        s.append(um - 1)
    return s, u


def lower_breaks(p: int, s: Sequence[int]) -> list[int]:
    """d(n) = p^(n-1) s(n) - sum_{j<n} phi(p^j) s(j), from the upper breaks."""
    d = []
    for m in range(1, len(s) + 1):
        if m > 1 and s[m - 1] < p * s[m - 2]:
            raise TowerError(f"malformed break sequence: s({m}) < p*s({m-1})")
        dm = p ** (m - 1) * s[m - 1] - sum(
            euler_phi_prime_power(p, j) * s[j - 1] for j in range(1, m))
        if dm <= 0:
            raise TowerError("nonpositive lower break: malformed sequence")
        d.append(dm)
    return d


def genus_from_breaks(p: int, s: Sequence[int], n: int) -> int:
    """2g - 2 = -2 p^n + sum phi(p^i)(s(i) + 1) over the projective line, one branch point."""
    val = -2 * p ** n + sum(euler_phi_prime_power(p, i) * (s[i - 1] + 1)
                            for i in range(1, n + 1))
    if val % 2:
        raise InternalConsistencyError("odd Riemann-Hurwitz total")
    return val // 2 + 1


@dataclass(frozen=True)
class RamificationData:
    """Per-level breaks, conductor exponents, and genera for levels 1..n."""

    p: int
    s: tuple[int, ...]
    u: tuple[int, ...]
    d: tuple[int, ...]
    g: tuple[int, ...]

    @classmethod
    def compute(cls, spec: TowerSpec, n: int) -> "RamificationData":
        """The one check of the lower breaks: prime to p, d_{m+1} >= (p^2-p+1) d_m.
        The breaks come from breaks_and_conductor, so a malformed sequence is an
        engine fault, not bad input."""
        p = spec.p
        s, u = breaks_and_conductor(spec, n)
        try:
            d = lower_breaks(p, s)
        except TowerError as exc:
            raise InternalConsistencyError(f"computed breaks {s}: {exc}") from exc
        g = [genus_from_breaks(p, s, m) for m in range(1, n + 1)]
        for m, dm in enumerate(d):
            if dm % p == 0:
                raise InternalConsistencyError(f"lower break d_{m + 1}={dm} divisible by p={p}")
            if m and dm < (p * p - p + 1) * d[m - 1]:
                raise InternalConsistencyError("lower-break growth bound violated")
        return cls(p, tuple(s), tuple(u), tuple(d), tuple(g))

    @property
    def levels(self) -> int:
        return len(self.s)

    def genus(self, m: int) -> int:
        return 0 if m == 0 else self.g[m - 1]


def p_rank(spec: TowerSpec, n: int) -> int:
    """Always 0 here: base genus 0, one totally ramified branch point, so the
    Deuring-Shafarevich count p^n (d_0 + |S| - 1) - (|S| - 1) vanishes."""
    return 0


def closed_form_basic(p: int, d: int, n: int) -> tuple[int, int, int]:
    """(genus, lower break, upper break) of a basic tower at level n."""
    if d % p == 0:
        raise TowerError(f"ramification invariant {d} divisible by p={p}")
    g = Fraction(d, 2 * (p + 1)) * p ** (2 * n) - Fraction(p ** n, 2) \
        + Fraction(p + 1 - d, 2 * (p + 1))
    d_low = Fraction(d * (p ** (2 * n - 1) + 1), p + 1)
    s = d * p ** (n - 1)
    if g.denominator != 1 or d_low.denominator != 1:
        raise InternalConsistencyError("closed-form genus or lower break not integral")
    return int(g), int(d_low), s


@dataclass(frozen=True)
class MonodromyClass:
    kind: str  # "stable" | "periodic" | "unclassified"
    d: Fraction | None = None
    c: tuple[Fraction, ...] | None = None  # constants per residue class mod period
    period: int = 0

    def describe(self) -> str:
        if self.kind == "stable":
            return f"stable: s(n) = {self.c[0]} + {self.d} * p^(n-1)"
        if self.kind == "periodic":
            cs = ", ".join(f"n%{self.period}={r}: {c}" for r, c in enumerate(self.c))
            return f"periodic (m={self.period}): s(n) = c(n) + {self.d} * p^(n-1) with {cs}"
        return "unclassified"


def classify_monodromy(spec: TowerSpec, N: int) -> MonodromyClass:
    """Detect s(n) = c(n mod m) + d p^(n-1) exactly on a trailing window.

    Exact rational arithmetic only; smallest period m <= N//2 wins, with
    m = 1 reported as stable.  Requires N >= 4 observed levels.
    """
    if N < 4:
        raise TowerError("classification needs at least 4 levels")
    p = spec.p
    s, _ = breaks_and_conductor(spec, N)
    if any(s[m] <= s[m - 1] for m in range(1, N)):
        raise InternalConsistencyError("upper breaks must strictly increase")
    for m in range(1, N // 2 + 1):
        d = Fraction(s[N - 1] - s[N - 1 - m], p ** (N - 1) - p ** (N - 1 - m))
        resid = [Fraction(s[i]) - d * p ** i for i in range(N)]
        window = max(2 * m, 3)
        if all(resid[i] == resid[i + m] for i in range(N - window, N - m)):
            # c[r] is the constant applying to levels n = r (mod m)
            c = [Fraction(0)] * m
            for i in range(N - m, N):
                c[(i + 1) % m] = resid[i]
            return MonodromyClass("stable" if m == 1 else "periodic",
                                  d=d, c=tuple(c), period=m)
    return MonodromyClass("unclassified")


# ---------------------------------------------------------------------------
# layer equations
# ---------------------------------------------------------------------------

def monomial_with_pole_order(w: int, p: int, d: Sequence[int], level: int) -> Monomial:
    """The unique (nu >= 0, 0 <= a_j < p) with nu p^m + sum a_j d_j p^(m-j) = w.

    Solved digit by digit mod p from a_m downward (each d_j is prime to p).
    Raises PolyError when no representation with nu >= 0 exists.
    """
    if w < 0:
        raise PolyError(f"pole order {w} negative")
    a = [0] * level
    for j in range(level, 0, -1):
        dj = d[j - 1]
        aj = (w * pow(dj, -1, p)) % p
        a[j - 1] = aj
        w -= aj * dj
        if w < 0:
            raise PolyError("no monomial with the requested pole order (nu < 0)")
        if w % p:
            raise InternalConsistencyError(f"pole-order remainder {w} not divisible by p")
        w //= p
    return Monomial(w, tuple(a))


def reduce_slab(f: Slab, state: TowerState, d: Sequence[int], target_d: int
                ) -> tuple[Slab, Slab]:
    """Standard-form reduction of a layer f at level len(d) = f.level.

    Returns (f', Z) with ord(f') = -target_d and f' = f + Z-induced shifts,
    where Z accumulates the substitution y -> y + Z.  Every iteration must
    strictly decrease the pole order (checked).
    """
    ctx = f.ctx
    p = ctx.p
    level = f.level
    shift = Slab.zeros(ctx, level)
    while True:
        pd = f.pole_data(d, level)
        if pd is None:
            raise InternalConsistencyError("layer reduced to zero: degenerate tower data")
        pole, code, nu, coeffvec = pd
        if pole == target_d:
            break
        if pole < target_d or pole % p != 0:
            raise InternalConsistencyError(
                f"pole order {pole} below or coprime-to-p above target {target_d}")
        z_mon = monomial_with_pole_order(pole // p, p, d, level)
        z = Slab.monomial(ctx, z_mon, level=level)
        zp = state.pth_power(z_mon, level)
        zp_pd = zp.pole_data(d, level)
        if zp_pd is None or zp_pd[0] != pole:
            raise InternalConsistencyError("z^p pole order mismatch")
        lead_f = ctx.elem(coeffvec)
        lead_zp = ctx.elem(zp_pd[3])
        c_p = -lead_f / lead_zp
        c = c_p.frobenius_inverse()
        f = f + zp.scale(c_p) - z.scale(c)
        new_pd = f.pole_data(d, level)
        if new_pd is None or new_pd[0] >= pole:
            raise InternalConsistencyError("pole order failed to decrease")
        shift = shift + z.scale(c)
    return f.trim(), shift.trim()


class TowerState:
    """Spec plus everything derived, built level by level (single-threaded);
    read-only and freely shareable once built.

    Holds the layers: each is rewritten in standard form, so its pole order
    equals the lower break, and the accumulated substitution y_m -> y_m + Z_m
    is remembered: subs[m-1] is the original variable expressed in the current
    ones, which is what deeper universal corrections must be evaluated at.
    """

    def __init__(self, spec: TowerSpec, cache_dir=None):
        self.spec = spec.normalize()
        self.field = self.spec.field
        self.cache_dir = cache_dir
        self.ram: RamificationData | None = None
        self.layers: list[Slab] = []
        self.subs: list[Slab] = []
        self._mask_cache: dict[tuple[int, ...], Slab] = {}
        self._upow_cache: dict[tuple[int, int], Slab] = {}
        self.tables = None  # attached by cartier.CartierTables

    @property
    def level(self) -> int:
        return len(self.layers)

    def ensure_ram(self, n: int) -> RamificationData:
        if self.ram is None or self.ram.levels < n:
            self.ram = RamificationData.compute(self.spec, n)
        return self.ram

    def build_to(self, n: int) -> "TowerState":
        """Layer m, for each m up to n not built yet, from the m-th right-hand-side
        component minus the peel correction evaluated at the substituted variables."""
        if n > self.spec.max_level():
            raise TowerError(
                f"level {n} beyond supported Witt length {self.spec.max_level()} for p={self.spec.p}")
        if n <= self.level:
            return self
        ram = self.ensure_ram(n)
        comps = rhs_components([(t.v, t.c, t.i) for t in self.spec.terms], n, self.field)
        for m in range(self.level + 1, n + 1):
            d = ram.d[:m - 1]
            peel = peel_polynomials(self.spec.p, m, self.cache_dir)[m - 1]
            raw = Slab.zeros(self.field, 0, max((nu for nu, in comps[m - 1]), default=0) + 1)
            for (nu,), c in comps[m - 1].items():
                raw.arr[0, :, nu] = c
            f = (raw.at_level(m - 1) - self._eval_terms(peel.terms, m - 1)).trim()
            f, shift = reduce_slab(f, self, d, ram.d[m - 1])
            y_m = Slab.monomial(self.field, Monomial(0, (0,) * (m - 1) + (1,)))
            self.layers.append(f)
            self.subs.append((y_m - shift.at_level(m)).trim())
            pole = f.pole_data(d, m - 1)[0]
            if pole != ram.d[m - 1]:
                raise InternalConsistencyError(
                    f"layer {m} pole order {pole}, expected lower break {ram.d[m-1]}")
        return self

    def genus(self, m: int) -> int:
        return self.ensure_ram(max(m, 1)).genus(m)

    def layer_slab(self, j: int) -> Slab:
        return self.layers[j - 1]

    def pth_power(self, z: Monomial, level: int) -> Slab:
        """Reduced z^p at `level` for z = x^nu y^a with coefficient 1:
        x^(p nu) times the cached product of (y_j + f_j)^a_j."""
        mp = self._mask_pow(z.a).at_level(level)
        return Slab(self.field, level, np.pad(mp.arr, ((0, 0), (0, 0), (self.field.p * z.nu, 0))))

    def _mask_pow(self, digits: tuple[int, ...]) -> Slab:
        while digits and digits[-1] == 0:
            digits = digits[:-1]
        if not digits:
            return Slab.monomial(self.field, Monomial(0, ()))
        got = self._mask_cache.get(digits)
        if got is not None:
            return got
        j = len(digits)
        prev = self._mask_pow(digits[:-1] + (digits[-1] - 1,))
        yj_plus_fj = Slab.monomial(self.field, Monomial(0, (0,) * (j - 1) + (1,))) \
            + self.layers[j - 1]
        out = slab_mul(prev, yj_plus_fj, self.layers).trim()
        self._mask_cache[digits] = out
        return out

    # construction -------------------------------------------------------------

    def _upow(self, j: int, e: int) -> Slab:
        if e == 0:
            return Slab.monomial(self.field, Monomial(0, ()))
        if e == 1:
            return self.subs[j - 1]
        got = self._upow_cache.get((j, e))
        if got is None:
            got = slab_mul(self._upow(j, e - 1), self.subs[j - 1], self.layers).trim()
            self._upow_cache[(j, e)] = got
        return got

    def _eval_terms(self, items: Sequence[tuple[tuple[int, ...], int]], t: int) -> Slab:
        if not items:
            return Slab.zeros(self.field, 0)
        if t == 0:
            ((_, c),) = items
            return Slab.monomial(self.field, Monomial(0, ()), coeff=c)
        groups: dict[int, list] = {}
        for e, c in items:
            groups.setdefault(e[t - 1], []).append((e[: t - 1], c))
        out: Slab | None = None
        for et in sorted(groups):
            inner = self._eval_terms(groups[et], t - 1)
            if et:
                inner = slab_mul(self._upow(t, et), inner, self.layers)
            out = inner if out is None else (out + inner)
        return out.trim()

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

from ._slab import (Monomial, PolyError, Slab, code_of, leading_cell, lincomb, mul as slab_mul,
                    mul_pairs, pole_grid)
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
    """Right-hand-side data over a fixed field, plus a display name.

    A spec is normalized when it is made: every exponent is made coprime to p,
    p^v [c x^(pm)] -> p^v [c^(1/p) x^m], and the terms are sorted.  The
    replacement differs from the original by an element of the image of
    F - 1, so the generated extension at every level is unchanged.
    """

    field: FieldCtx
    terms: tuple[Term, ...]
    name: str = ""

    def __post_init__(self):
        # geometric/total-ramification itself is checked where breaks are
        # computed, since exact Witt sums may cancel valuation-0 terms anyway
        p = self.field.p
        out = []
        for t in self.terms:
            if t.v < 0 or t.i < 1:
                raise TowerError(f"term (v={t.v}, i={t.i}) out of range")
            if t.c.is_zero():
                raise TowerError("zero coefficient in tower term")
            c, i = t.c, t.i
            while i % p == 0:
                i //= p
                c = c.frobenius_inverse()
            out.append(Term(t.v, c, i))
        out.sort(key=lambda t: (t.i, t.v, t.c.to_int()))
        object.__setattr__(self, "terms", tuple(out))  # the dataclass is frozen

    @classmethod
    def make(cls, field: FieldCtx, terms: Sequence[tuple[int, object, int]],
             name: str = "") -> "TowerSpec":
        return cls(field, tuple(Term(v, field.elem(c), i) for v, c, i in terms), name)

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def is_basic(self) -> bool:
        """All coefficients in the field itself (every term has valuation 0)."""
        return all(t.v == 0 for t in self.terms)

    @property
    def ramification_invariant(self) -> int:
        """d = s(1): largest exponent among valuation-0 terms."""
        return max(t.i for t in self.terms if t.v == 0)

    def spec_hash(self) -> str:
        blob = json.dumps({
            "p": self.p,
            "k": self.field.k,
            "modulus": list(self.field.modulus),
            "terms": [[t.v, t.c.serialize(), t.i] for t in self.terms],
        }, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def max_level(self) -> int:
        return LENGTH_CAP[self.p]


def euler_phi_prime_power(p: int, j: int) -> int:
    return p ** j - p ** (j - 1)


def coefficient_valuations(spec: TowerSpec, n: int) -> dict[int, int]:
    """p-adic valuation of the total Witt coefficient per exponent, capped at n.

    Terms sharing an exponent are summed exactly in W_n(k); cancellations are
    therefore detected (never approximated by a min of valuations).  The sum
    (sum p^v [c]) [x^i] has its first nonzero component where the coefficient
    sum does.  A value of n means "no contribution below level n".
    """
    groups: dict[int, list[tuple]] = {}
    for t in spec.terms:
        groups.setdefault(t.i, []).append((t.v, t.c, t.i))
    out = {}
    for i, terms in groups.items():
        comps = rhs_components(terms, n, spec.field)
        out[i] = next((idx for idx, comp in enumerate(comps) if comp), n)
    return out


def upper_breaks(spec: TowerSpec, n: int) -> list[int]:
    """s(1..n): s(m) = max over i with v(c_i) < m of i p^(m-1-v); the conductor is s + 1."""
    vals = coefficient_valuations(spec, n)
    s = []
    for m in range(1, n + 1):
        candidates = [i * spec.p ** (m - 1 - v) for i, v in vals.items() if v < m]
        if not candidates:
            raise TowerError(f"tower not totally ramified at level {m}")
        s.append(max(candidates))
    return s


def lower_breaks(p: int, s: Sequence[int]) -> list[int]:
    """d(n) = p^(n-1) s(n) - sum_{j<n} phi(p^j) s(j), from the upper breaks."""
    return [p ** (m - 1) * s[m - 1] - sum(euler_phi_prime_power(p, j) * s[j - 1]
                                          for j in range(1, m))
            for m in range(1, len(s) + 1)]


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
    d: tuple[int, ...]
    g: tuple[int, ...]

    @classmethod
    def compute(cls, spec: TowerSpec, n: int) -> "RamificationData":
        """The one check of the break sequence: s(m+1) >= p s(m), and each lower
        break positive, prime to p and d(m+1) >= (p^2-p+1) d(m).  The breaks come
        from upper_breaks, so a violation is an engine fault, not bad input."""
        p = spec.p
        s = upper_breaks(spec, n)
        if any(s[m] < p * s[m - 1] for m in range(1, n)):
            raise InternalConsistencyError(f"malformed break sequence {s}: s(m+1) < p*s(m)")
        d = lower_breaks(p, s)
        for m, dm in enumerate(d):
            if dm <= 0 or dm % p == 0:
                raise InternalConsistencyError(f"lower break d_{m + 1}={dm} not positive and "
                                               f"prime to p={p}")
            if m and dm < (p * p - p + 1) * d[m - 1]:
                raise InternalConsistencyError("lower-break growth bound violated")
        g = [genus_from_breaks(p, s, m) for m in range(1, n + 1)]
        return cls(p, tuple(s), tuple(d), tuple(g))

    @property
    def u(self) -> tuple[int, ...]:  # the conductor exponents
        return tuple(sm + 1 for sm in self.s)

    @property
    def levels(self) -> int:
        return len(self.s)

    def genus(self, m: int) -> int:
        return 0 if m == 0 else self.g[m - 1]


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


def classify_monodromy(p: int, s: Sequence[int]) -> MonodromyClass:
    """Detect s(n) = c(n mod m) + d p^(n-1) exactly on a trailing window of s(1..N).

    Exact rational arithmetic only; smallest period m <= N//2 wins, with
    m = 1 reported as stable.  Requires N >= 4 observed levels.
    """
    N = len(s)
    if N < 4:
        raise TowerError("classification needs at least 4 levels")
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
    where Z accumulates the substitution y -> y + Z.  f is one array, changed
    in place.  For z = x^nu y^a, z^p is x^(p nu) times (y + f)^a, which the
    state's power memo holds (TowerState.pth_power): each step adds c_p times
    that slab into the cells of arr it reaches, x-columns p nu onward, and
    -c z, and reduces only those mod p.  The slab's leading cell is found
    against the matching window of the pole-order grid, and the next leading
    term of f comes from one masked argmax over the whole grid, which is
    computed once and again only when z^p reaches past f.  z^p must lead at
    the pole order it cancels, and every iteration must strictly decrease
    the pole order (both checked).
    """
    ctx = f.ctx
    p, level = ctx.p, f.level
    arr = f.arr.copy()
    shift = Slab.zeros(ctx, level).arr
    grid = pole_grid(p, level, d, level, arr.shape[2])
    lead = leading_cell(arr, grid)
    if lead is None:
        raise InternalConsistencyError("layer reduced to zero: degenerate tower data")
    while lead[0] != target_d:
        pole, code, nu = lead
        if pole < target_d or pole % p != 0:
            raise InternalConsistencyError(
                f"pole order {pole} below or coprime-to-p above target {target_d}")
        z = monomial_with_pole_order(pole // p, p, d, level)
        zp = state.pth_power(z.a)  # (y^a)^p: z^p is it times x^x0
        x0, (S, _, X) = p * z.nu, zp.arr.shape
        if x0 + X > arr.shape[2]:
            arr = np.pad(arr, ((0, 0), (0, 0), (0, x0 + X - arr.shape[2])))
            grid = pole_grid(p, level, d, level, x0 + X)
        zp_lead = leading_cell(zp.arr, grid[:S, x0:])
        if zp_lead is None or zp_lead[0] != pole:
            raise InternalConsistencyError("z^p pole order mismatch")
        c_p = -ctx.elem(arr[code, :, nu]) / ctx.elem(zp.arr[zp_lead[1], :, zp_lead[2]])
        c = np.array(c_p.frobenius_inverse().coeffs)
        view = arr[:S, :, x0:x0 + X]
        view += zp.scale(c_p).arr
        view %= p
        zc = code_of(p, z.a)
        arr[zc, :, z.nu] = (arr[zc, :, z.nu] - c) % p
        if z.nu >= shift.shape[2]:
            shift = np.pad(shift, ((0, 0), (0, 0), (0, z.nu + 1 - shift.shape[2])))
        shift[zc, :, z.nu] = (shift[zc, :, z.nu] + c) % p
        new = leading_cell(arr, grid)
        if new is None or new[0] >= pole:
            raise InternalConsistencyError("pole order failed to decrease")
        lead = new
    return Slab(ctx, level, arr).trim(), Slab(ctx, level, shift).trim()


class TowerState:
    """Spec plus everything derived, built level by level (single-threaded);
    read-only and freely shareable once built.

    Holds the layers: each is rewritten in standard form, so its pole order
    equals the lower break, and the accumulated substitution y_m -> y_m + Z_m
    is remembered: subs[m-1] is the original variable expressed in the current
    ones, which is what deeper universal corrections must be evaluated at.
    The peel polynomials arrive as witt's exponent and coefficient arrays and
    are evaluated at subs by Horner's rule from the bottom up (_eval_terms):
    the sums c u_1^e at the leaves are one _slab.lincomb of the powers of
    u_1, and each depth above is one _slab.mul_pairs call, which batches its
    products and reductions itself, with the products keyed by their parent
    node.  Its slabs, like every Slab, are int8 residues.  One memo, _power,
    holds the products of powers of subs and of y_j + f_j = y_j^p that the
    evaluation and the standard-form reduction reuse; pth_power hands the
    latter to reduce_slab as they are, read only, and no caller writes into
    a memo slab.
    The breaks (ensure_ram) and the right-hand-side components are computed
    again only for a deeper level than before, since those of a shallower one
    are a prefix; cli.run_compute asks for its deepest level first.
    """

    def __init__(self, spec: TowerSpec, cache_dir=None):
        self.spec = spec
        self.field = self.spec.field
        self.cache_dir = cache_dir
        self.ram: RamificationData | None = None
        self.layers: list[Slab] = []
        self.subs: list[Slab] = []
        self._plus_f: list[Slab] = []  # y_j + f_j at level j, the p-th power of y_j
        self._powers: dict[tuple[int, tuple[int, ...]], Slab] = {}
        self._comps: list[dict] = []  # the right-hand-side components, to length ram.levels
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
        if len(self._comps) < n:  # those of a shorter Witt length are a prefix
            self._comps = rhs_components([(t.v, t.c, t.i) for t in self.spec.terms], ram.levels,
                                         self.field)
        comps = self._comps
        for m in range(self.level + 1, n + 1):
            d = ram.d[:m - 1]
            peel = peel_polynomials(self.spec.p, m, self.cache_dir)[m - 1]
            raw = Slab.zeros(self.field, 0, max((nu for nu, in comps[m - 1]), default=0) + 1)
            for (nu,), c in comps[m - 1].items():
                raw.arr[0, :, nu] = c
            f = (raw.at_level(m - 1) - self._eval_terms(peel.e, peel.c)).trim()
            f, shift = reduce_slab(f, self, d, ram.d[m - 1])
            y_m = Slab.monomial(self.field, Monomial(0, (0,) * (m - 1) + (1,)))
            self.layers.append(f)
            self.subs.append((y_m - shift).trim())
            self._plus_f.append(y_m + f)
            lead = leading_cell(f.arr, pole_grid(self.field.p, m - 1, d, m - 1, f.arr.shape[2]))
            if lead is None or lead[0] != ram.d[m - 1]:
                raise InternalConsistencyError(
                    f"layer {m} pole order {lead and lead[0]}, expected lower break {ram.d[m-1]}")
        return self

    def genus(self, m: int) -> int:
        return self.ensure_ram(max(m, 1)).genus(m)

    def layer_slab(self, j: int) -> Slab:
        return self.layers[j - 1]

    def pth_power(self, a: tuple[int, ...]) -> Slab:
        """The reduced (y^a)^p, the product of (y_j + f_j)^a_j: the memo's own
        slab, at the level of a's last nonzero digit; z^p for z = x^nu y^a is
        it times x^(p nu)."""
        return self._power(self._plus_f, a)

    # construction -------------------------------------------------------------

    def _power(self, bases: list[Slab], digits: tuple[int, ...]) -> Slab:
        """The reduced product of bases[j]^digits[j], where bases is subs or
        _plus_f; the empty product and each product by one more base are
        cached per list and digits, so equal digits give the same slab."""
        while digits and digits[-1] == 0:
            digits = digits[:-1]
        j = len(digits) - 1
        if digits == (0,) * j + (1,):
            return bases[j]
        key = (id(bases), digits)  # both lists live as long as the state
        got = self._powers.get(key)
        if got is None and not digits:
            got = self._powers[key] = Slab.monomial(self.field, Monomial(0, ()))
        elif got is None:
            prev = self._power(bases, digits[:-1] + (digits[-1] - 1,))
            got = self._powers[key] = slab_mul(prev, bases[j], self.layers)
        return got

    def _eval_terms(self, e: np.ndarray, c: np.ndarray) -> Slab:
        """sum_r c[r] prod_j u_j^e[r, j] over the rows of e, u_j = subs[j-1],
        by Horner's rule from the bottom up.  A node at depth d is a tuple of
        exponents of u_t .. u_(t-d+1) that some rows carry; its value is the
        sum over those rows of c[r] prod_(j <= t-d) u_j^e[r, j].  The leaves,
        at depth t - 1, are sums of c u_1^e, one lincomb of the powers of u_1.
        A node above sums u_j^e times the value of each child, so the products
        of one depth go to mul_pairs keyed by their parent, which sums them."""
        t = e.shape[1]
        if not len(c):  # G_1 = 0, which has no variables
            return Slab.zeros(self.field, 0)
        nodes, leaf = np.unique(e[:, 1:], axis=0, return_inverse=True)
        exps, col = np.unique(e[:, 0], return_inverse=True)
        vals = lincomb([self._power(self.subs, (int(x),)).at_level(1) for x in exps],
                       leaf.ravel(), col.ravel(), c, len(nodes))
        for j in range(1, t):
            up, parent = np.unique(nodes[:, 1:], axis=0, return_inverse=True)
            xs, parent = nodes[:, 0].tolist(), parent.ravel().tolist()
            pows = {x: self._power(self.subs, (0,) * j + (x,)) for x in set(xs)}
            vals = mul_pairs([(pows[x], v, i) for x, v, i in zip(xs, vals, parent)], self.layers)
            nodes = up
        return vals[0]

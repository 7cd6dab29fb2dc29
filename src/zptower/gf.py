"""Arithmetic in small finite fields GF(p^k) with explicit Frobenius and inverse.

Elements are represented by their coefficient vector in the power basis of a
fixed monic irreducible modulus.  The modulus is chosen deterministically (the
lexicographically least monic irreducible of the requested degree), so the
field constructed for a given (p, k) is always the same; all invariants
computed downstream are independent of this choice.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)
MAX_DEGREE = 8


class FieldError(ValueError):
    """Raised for unsupported field parameters or illegal element operations."""


class InternalConsistencyError(RuntimeError):
    """A structural invariant failed; indicates a bug, not bad input."""


# ---------------------------------------------------------------------------
# GF(p)[t] helpers (coefficient lists, little-endian): the modulus search and
# every product modulo the field polynomial.  `poly_modred` also reduces
# modulo p^m when the divisor is monic (witt's lifted sums).
# ---------------------------------------------------------------------------

def _poly_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    return poly_modred(res, mod, p)


def poly_modred(a: list[int], mod: list[int], p: int) -> list[int]:
    """a mod `mod`, coefficients reduced mod p and trailing zeros trimmed."""
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            f = (c * inv_lead) % p
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - f * mod[j]) % p
    return _poly_trim([c % p for c in a[:dm]])


def _poly_powmod(a: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = poly_modred(a, mod, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a = poly_modred(a, b, p)
        a, b = b, a
    return a


def _poly_sub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
           for i in range(n)]
    return _poly_trim(out)


def _is_irreducible(f: list[int], p: int) -> bool:
    """Rabin irreducibility test for a monic f over GF(p)."""
    k = len(f) - 1
    if k < 1:
        return False
    x = [0, 1]
    # t^(p^k) == t mod f
    h = poly_modred(x, f, p)
    for _ in range(k):
        h = _poly_powmod(h, p, f, p)
    if _poly_sub(h, x, p):
        return False
    # gcd(t^(p^(k/q)) - t, f) == 1 for every prime q | k
    for q in {q for q in (2, 3, 5, 7) if k % q == 0}:
        h = poly_modred(x, f, p)
        for _ in range(k // q):
            h = _poly_powmod(h, p, f, p)
        g = _poly_gcd(_poly_sub(h, x, p), f, p)
        if len(g) != 1:
            return False
    return True


def default_modulus(p: int, k: int) -> tuple[int, ...]:
    """Low-order coefficients (c_0..c_{k-1}) of the least monic irreducible t^k + sum c_i t^i."""
    if k == 1:
        return ()
    for code in range(p ** k):
        low = []
        c = code
        for _ in range(k):
            low.append(c % p)
            c //= p
        if _is_irreducible(low + [1], p):
            return tuple(low)
    raise FieldError(f"no irreducible polynomial of degree {k} over GF({p})")


class FieldCtx:
    """Immutable description of GF(p^k); all element operations live here.

    Thread-safe after construction: every attribute is computed eagerly and
    never mutated, so a context may be shared freely.
    """

    __slots__ = ("p", "k", "modulus", "order", "_f", "_redmat", "_frob_mats")

    def __init__(self, p: int, k: int = 1, modulus: Sequence[int] | None = None):
        if p not in SUPPORTED_PRIMES:
            raise FieldError(f"unsupported characteristic {p}; supported: {SUPPORTED_PRIMES}")
        if not 1 <= k <= MAX_DEGREE:
            raise FieldError(f"extension degree {k} out of range 1..{MAX_DEGREE}")
        self.p = p
        self.k = k
        if modulus is None:
            modulus = default_modulus(p, k)
        modulus = tuple(int(c) % p for c in modulus)
        if k > 1:
            if len(modulus) != k:
                raise FieldError(f"modulus needs {k} low-order coefficients, got {len(modulus)}")
            if not _is_irreducible(list(modulus) + [1], p):
                raise FieldError(f"modulus {modulus} is reducible over GF({p})")
        elif modulus not in ((), None):
            raise FieldError("prime fields take no modulus")
        self.modulus = modulus
        self.order = p ** k
        self._f = list(modulus) + [1] if k > 1 else [0, 1]  # the field polynomial
        self._redmat = self._build_redmat()
        self._frob_mats = self._build_frob_mats()

    # -- construction helpers ------------------------------------------------

    def _build_redmat(self) -> np.ndarray:
        """redmat[s] = coefficient vector of t^(k+s) mod modulus, s = 0..k-2."""
        k = self.k
        red = [self._vec(poly_modred([0] * (k + s) + [1], self._f, self.p)) for s in range(k - 1)]
        return np.array(red, dtype=np.int64).reshape(k - 1, k)

    def _build_frob_mats(self) -> tuple[np.ndarray, ...]:
        """Matrix of sigma^e on coefficient vectors, e = 0..k-1 (sigma: a -> a^p)."""
        p, k = self.p, self.k
        mats = [np.eye(k, dtype=np.int64)]
        if k > 1:
            m1 = np.zeros((k, k), dtype=np.int64)
            for i in range(k):
                basis = tuple(1 if j == i else 0 for j in range(k))
                m1[:, i] = self._pow_vec(basis, p)
            mats.append(m1)
            for _ in range(2, k):
                mats.append(mats[-1] @ m1 % p)
        return tuple(m % p for m in mats)

    # -- raw coefficient-vector arithmetic: GF(p)[t] modulo the field polynomial

    def _vec(self, poly: list[int]) -> tuple[int, ...]:
        return tuple(poly) + (0,) * (self.k - len(poly))

    def _mul_vec(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        return self._vec(_poly_mulmod(a, b, self._f, self.p))

    def _pow_vec(self, a: Sequence[int], e: int) -> tuple[int, ...]:
        return self._vec(_poly_powmod(a, e, self._f, self.p))

    # -- element factories -----------------------------------------------------

    def elem(self, value: int | Iterable[int] | "FieldElement") -> "FieldElement":
        """Coerce an int (prime-field embedding) or coefficient iterable to an element."""
        if isinstance(value, FieldElement):
            if value.ctx is not self:
                raise FieldError("element belongs to a different field")
            return value
        if isinstance(value, (int, np.integer)):
            coeffs = (int(value) % self.p,) + (0,) * (self.k - 1)
            return FieldElement(self, coeffs)
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) != self.k:
            raise FieldError(f"expected {self.k} coefficients, got {len(coeffs)}")
        return FieldElement(self, coeffs)

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.k)

    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.k - 1))

    def gen(self) -> "FieldElement":
        """The power-basis generator t (equals 0-th basis vector when k = 1)."""
        if self.k == 1:
            return self.one()
        return FieldElement(self, (0, 1) + (0,) * (self.k - 2))

    def elements(self) -> Iterable["FieldElement"]:
        """All field elements, in base-p code order."""
        for code in range(self.order):
            coeffs, c = [], code
            for _ in range(self.k):
                coeffs.append(c % self.p)
                c //= self.p
            yield FieldElement(self, tuple(coeffs))

    def random_element(self, rng) -> "FieldElement":
        return FieldElement(self, tuple(int(rng.integers(self.p)) for _ in range(self.k)))

    # -- Frobenius as numpy maps (used by the dense kernel) ---------------------

    def frob_matrix(self, e: int) -> np.ndarray:
        """Matrix of sigma^e (mod k) acting on coefficient columns."""
        return self._frob_mats[e % self.k]

    def inv_frob_matrix(self, e: int = 1) -> np.ndarray:
        return self._frob_mats[(-e) % self.k]

    def fold(self, raw: np.ndarray, axis: int = 0) -> np.ndarray:
        """Reduce raw GF(p)[t] products of degree < 2k-1, laid out along `axis`,
        to coefficient vectors: t^(k+s) becomes _redmat[s]."""
        k = self.k
        raw = np.moveaxis(raw, axis, 0)
        out = raw[:k] + np.tensordot(self._redmat.T, raw[k:], axes=1)
        return np.ascontiguousarray(np.moveaxis(out % self.p, 0, axis))

    def mul_matrices(self, coeffs: np.ndarray) -> np.ndarray:
        """(N, k) coefficient vectors m -> (N, k, k) GF(p) matrices of c -> m c."""
        k = self.k
        # raw[n, i + j, j] = m_n[i]: column j is m_n t^j before folding
        raw = np.zeros((coeffs.shape[0], 2 * k - 1, k), dtype=np.int64)
        for j in range(k):
            raw[:, j:j + k, j] = coeffs
        return self.fold(raw, axis=1)

    def semilinear_blocks(self, coeffs: np.ndarray) -> np.ndarray:
        """(N, k) coefficient vectors m -> (N, k, k) GF(p) matrices of c -> m sigma^-1(c),
        the blocks of a matrix restricted to GF(p) (linalg); for k = 1 the entries."""
        return self.mul_matrices(coeffs) @ self.inv_frob_matrix() % self.p

    # -- identity --------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FieldCtx) and other.p == self.p
                and other.k == self.k and other.modulus == self.modulus)

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        if self.k == 1:
            return f"GF({self.p})"
        mod = "+".join(f"{c}*t^{i}" for i, c in enumerate(self.modulus) if c)
        return f"GF({self.p}^{self.k}; t^{self.k}+{mod})"


@lru_cache(maxsize=None)
def field(p: int, k: int = 1, modulus: tuple[int, ...] | None = None) -> FieldCtx:
    """Shared, cached field contexts (same (p, k, modulus) gives the same object)."""
    return FieldCtx(p, k, modulus)


class FieldElement:
    """A value of GF(p^k), canonical coefficient tuple in the power basis."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: tuple[int, ...]):
        self.ctx = ctx
        self.coeffs = coeffs

    # -- ring/field structure ----------------------------------------------

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.ctx != self.ctx:
                raise FieldError("mixed-field arithmetic")
            return other
        return self.ctx.elem(other)

    def __add__(self, other):
        o = self._coerce(other)
        p = self.ctx.p
        return FieldElement(self.ctx, tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        p = self.ctx.p
        return FieldElement(self.ctx, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return FieldElement(self.ctx, self.ctx._mul_vec(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return FieldElement(self.ctx, self.ctx._pow_vec(self.coeffs, e))

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero in " + repr(self.ctx))
        return self ** (self.ctx.order - 2)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    # -- Frobenius -----------------------------------------------------------

    def frobenius(self) -> "FieldElement":
        """sigma(a) = a^p."""
        return self ** self.ctx.p

    def frobenius_inverse(self) -> "FieldElement":
        """The unique p-th root; equals sigma^(k-1) since sigma^k = id."""
        return self ** (self.ctx.p ** (self.ctx.k - 1))

    # -- predicates / conversions ---------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def to_int(self) -> int:
        """Base-p code of the coefficient vector (serialization for prime fields)."""
        code = 0
        for c in reversed(self.coeffs):
            code = code * self.ctx.p + c
        return code

    def serialize(self) -> int | list[int]:
        """Bare int for prime fields, coefficient list otherwise."""
        if self.ctx.k == 1:
            return self.coeffs[0]
        return list(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, np.integer)):
            other = self.ctx.elem(int(other))
        return (isinstance(other, FieldElement) and other.ctx == self.ctx
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.coeffs, self.ctx.p, self.ctx.k))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if self.ctx.k == 1:
            return str(self.coeffs[0])
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                t = "t" if i == 1 else f"t^{i}"
                parts.append(t if c == 1 else f"{c}*{t}")
        return "+".join(parts) if parts else "0"


def parse_element(ctx: FieldCtx, obj) -> FieldElement:
    """Deserialize an element from config/results form: a bare int or a list
    [c0, c1, ...] of ints (a bool, float or string is rejected)."""
    if type(obj) is int or (type(obj) in (list, tuple) and all(type(c) is int for c in obj)):
        return ctx.elem(obj)
    raise FieldError(f"cannot parse field element from {obj!r}")

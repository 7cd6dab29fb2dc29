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


def check_float_exact(inner: int, p: int) -> type:
    """The float type in which every sum of `inner` products of residues below
    p is exact: float32 when inner * (p-1)^2 < 2^24, float64 when it is below
    2^53, and otherwise InternalConsistencyError.  The one choice of float
    type for every float product over GF(p)."""
    bound = inner * (p - 1) ** 2
    if bound < 1 << 24:
        return np.float32
    if bound < 1 << 53:
        return np.float64
    raise InternalConsistencyError(f"a float64 sum of {inner} products mod {p} is not exact")


def float_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, x - p floor(x / p), for a float array of integers
    with -2^e + p <= x < 2^e, 2^e = 2^24 for float32 and 2^53 for float64.
    That holds for every sum whose float type check_float_exact(inner, p)
    picked: a sum of at most `inner` products of residues, or a residue less
    a sum of at most `inner` - 1 of them (p >= 3).  The quotient x / p is
    correctly rounded, so it is exact at multiples of p and otherwise off by
    less than 1/p, too little to cross an integer; so the floor is exact, and
    p floor(x / p), within p - 1 of x, is exact too.  About 7 times faster
    than an int64 cast and % on float32 blocks."""
    q = x / p
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


# ---------------------------------------------------------------------------
# GF(p)[t] helpers (coefficient lists, little-endian): the modulus search and
# every product modulo the field polynomial.
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

    __slots__ = ("p", "k", "modulus", "order", "_f", "_redmat", "_mul_basis", "_semi_basis")

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
        # the GF(p) matrices of c -> t^i c and c -> t^i sigma^-1(c), i < k:
        # column j of the first is t^(i+j), row i + j of the powers t^0..t^(2k-2)
        powers = np.concatenate((np.eye(k, dtype=np.int64), self._redmat))
        self._mul_basis = np.stack([powers[i:i + k].T for i in range(k)])
        self._semi_basis = self._mul_basis @ self._build_inv_frob() % p

    # -- construction helpers ------------------------------------------------

    def _build_redmat(self, mod: int | None = None) -> np.ndarray:
        """redmat[s] = coefficient vector of t^(k+s) mod modulus, s = 0..k-2,
        with coefficients mod `mod` (default p): the integer lift of the monic
        modulus leaves one remainder mod any p^m."""
        k = self.k
        red = [self._vec(poly_modred([0] * (k + s) + [1], self._f, mod or self.p))
               for s in range(k - 1)]
        return np.array(red, dtype=np.int64).reshape(k - 1, k)

    def _build_inv_frob(self) -> np.ndarray:
        """Matrix of sigma^-1 = sigma^(k-1) on coefficient vectors (sigma: a -> a^p)."""
        k = self.k
        m = np.zeros((k, k), dtype=np.int64)
        for i in range(k):
            m[:, i] = self._pow_vec(tuple(1 if j == i else 0 for j in range(k)), self.p ** (k - 1))
        return m

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

    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.k - 1))

    # -- arrays: the lifted fold, and restriction of scalars to GF(p) -----------

    def fold(self, raw: np.ndarray, mod: int) -> np.ndarray:
        """Reduce the rows of raw, integer lifts of GF(p)[t] products of degree
        < 2k-1, modulo the lifted field polynomial and mod `mod` = p^m, to
        (N, k) coefficient vectors: t^(k+s) becomes row s of the reduction
        matrix mod p^m, which the monic modulus leaves one integer lift of.
        witt's sums over GF(p^k), where t is one more variable, are its one
        use; raw's dtype must hold k mod^2."""
        k = self.k
        red = self._redmat if mod == self.p else self._build_redmat(mod)
        return np.ascontiguousarray((raw[:, :k] + np.tensordot(raw[:, k:], red, axes=1)) % mod)

    def mul_matrices(self, coeffs: np.ndarray) -> np.ndarray:
        """(N, k, ...) residue vectors m along axis 1 -> (N, k, k, ...) GF(p)
        matrices of c -> m c, the sum of m_i times that of c -> t^i c; for
        k = 1 a view of coeffs."""
        return self._expand(coeffs, self._mul_basis)

    def semilinear_blocks(self, coeffs: np.ndarray) -> np.ndarray:
        """(N, k, ...) residue vectors m -> (N, k, k, ...) GF(p) matrices of
        the sigma^-1-semilinear c -> m sigma^-1(c), as mul_matrices: the
        blocks of a matrix restricted to GF(p) (linalg) and the a-side of V's
        convolutions (_slab.v_apply), so that neither twists its other side.
        The block of m = 1 is the matrix of sigma^-1; for k = 1, where sigma
        is the identity, a view of coeffs."""
        return self._expand(coeffs, self._semi_basis)

    def _expand(self, coeffs: np.ndarray, basis: np.ndarray) -> np.ndarray:
        if self.k == 1:  # basis is [[[1]]]
            return coeffs[:, :, None]
        out = np.tensordot(coeffs, basis, axes=(1, 0))  # (N, ..., k, k)
        # to (N, k, k, ...) by transpose: np.moveaxis leaves cyclic garbage
        out = out.transpose(0, -2, -1, *range(1, out.ndim - 2))
        return np.ascontiguousarray(out % self.p)

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

    def frobenius_inverse(self) -> "FieldElement":
        """The unique p-th root; equals sigma^(k-1) since sigma^k = id."""
        return self ** (self.ctx.p ** (self.ctx.k - 1))

    # -- predicates / conversions ---------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

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

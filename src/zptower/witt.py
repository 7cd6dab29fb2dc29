"""Truncated Witt vector arithmetic over polynomial coefficient rings.

Addition is not componentwise: it is governed by universal polynomials
determined by the ghost components w_m(u) = sum_i p^i u_i^(p^(m-i)).  All
arithmetic here runs through a single ghost/unghost engine working modulo
p^(m+1) per component, which determines every output component mod p exactly
(congruence x = x' mod p^a implies x^(p^b) = x'^(p^b) mod p^(a+b)) and makes
every integrality check exact since divisibility by p^m is decided mod
p^(m+1).

Two consumers share the engine:
  * universal "peel" polynomials giving each layer equation of a tower as
    y_m^p - y_m + G_m(y_1..y_{m-1}) (cached per (p, len)),
  * tower right-hand sides sum p^v [c x^i], added in one pass.

The peel polynomials and cartier's tables are cached in files written by
write_cache: a header line carrying the sha256 of the body, then the payload
compressed with zlib.  read_cache gives any file it cannot vouch for as a miss.

Over GF(p^k) = GF(p)[t]/(f), right-hand sides carry t as one more variable,
and every product reduces it modulo the integer lift of f (gf.poly_modred,
exact mod p^m since f is monic); functoriality of Witt arithmetic under the
reduction map makes the mod-p result independent of the lift.
"""

from __future__ import annotations

import hashlib
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .gf import FieldCtx, InternalConsistencyError, poly_modred

#: Deepest supported truncation per characteristic (levels computed anywhere
#: in the pipeline are bounded by these).
LENGTH_CAP = {2: 8, 3: 6, 5: 4, 7: 2, 11: 2, 13: 2}

CACHE_FORMAT_VERSION = 3


class WittError(ValueError):
    pass


def _check_length(p: int, length: int) -> None:
    cap = LENGTH_CAP.get(p)
    if cap is None:
        raise WittError(f"unsupported characteristic {p}")
    if not 1 <= length <= cap:
        raise WittError(f"Witt length {length} out of supported range 1..{cap} for p={p}")


# ---------------------------------------------------------------------------
# dict polynomials {exponent tuple: int coefficient mod `mod`}; over GF(p^k)
# the last exponent is that of t, reduced modulo the lifted field polynomial f
# ---------------------------------------------------------------------------

def _dp_add_into(acc: dict, other: dict, mod: int, scale: int = 1) -> None:
    for e, c in other.items():
        v = (acc.get(e, 0) + scale * c) % mod
        if v:
            acc[e] = v
        else:
            acc.pop(e, None)


def _dp_mul(a: dict, b: dict, mod: int, f: list[int] | None = None) -> dict:
    out = _dp_mul_packed(a, b, mod) if len(a) * len(b) >= 1 << 14 else None
    if out is None:
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


def _dp_mul_packed(a: dict, b: dict, mod: int) -> dict | None:
    """Vectorized product for big integer-coefficient polynomials.

    Exponent tuples are packed into int64 codes with per-variable capacities
    sized for this one product; the deep powers that need this path live in
    few variables, so the packing fits comfortably.  Falls back (None) when
    it would not, or when the modulus is large enough to threaten the exact
    integer range of the accumulation (chunk pairs * mod stays below 2^44).
    """
    if mod > 1 << 20:
        return None
    nvars = len(next(iter(a)))
    ea = np.array(list(a.keys()), dtype=np.int64).reshape(len(a), nvars)
    eb = np.array(list(b.keys()), dtype=np.int64).reshape(len(b), nvars)
    caps = ea.max(axis=0) + eb.max(axis=0) + 1
    strides = np.ones(nvars, dtype=np.int64)
    for j in range(1, nvars):
        strides[j] = strides[j - 1] * caps[j - 1]
    if float(strides[-1]) * float(caps[-1]) >= 2 ** 62:
        return None
    ca = np.fromiter(a.values(), dtype=np.int64, count=len(a))
    cb = np.fromiter(b.values(), dtype=np.int64, count=len(b))
    codes_a = ea @ strides
    codes_b = eb @ strides
    chunk = max(1, (1 << 24) // max(len(b), 1))
    pieces_codes, pieces_vals = [], []
    for i0 in range(0, len(a), chunk):
        codes = (codes_a[i0:i0 + chunk, None] + codes_b[None, :]).ravel()
        vals = (ca[i0:i0 + chunk, None] * cb[None, :] % mod).ravel()
        uniq, inv = np.unique(codes, return_inverse=True)
        summed = np.bincount(inv, weights=vals.astype(np.float64),
                             minlength=uniq.size).astype(np.int64) % mod
        pieces_codes.append(uniq)
        pieces_vals.append(summed)
    codes = np.concatenate(pieces_codes)
    vals = np.concatenate(pieces_vals)
    uniq, inv = np.unique(codes, return_inverse=True)
    summed = np.bincount(inv, weights=vals.astype(np.float64),
                         minlength=uniq.size).astype(np.int64) % mod
    keep = np.nonzero(summed)[0]
    out = {}
    for code, v in zip(uniq[keep].tolist(), summed[keep].tolist()):
        e = []
        for j in range(nvars):
            e.append(int((code // strides[j]) % caps[j]))
        out[tuple(e)] = int(v)
    return out


def _dp_pow(a: dict, e: int, mod: int, f: list[int] | None = None) -> dict:
    nvars = len(next(iter(a))) if a else 0
    result = {(0,) * nvars: 1}
    base = a
    while e:
        if e & 1:
            result = _dp_mul(result, base, mod, f)
        e >>= 1
        if e:
            base = _dp_mul(base, base, mod, f)
    return result


# ---------------------------------------------------------------------------
# ghost / unghost engine
# ---------------------------------------------------------------------------

class _PowerChain:
    """Memoized Frobenius-power chain g, g^p, g^(p^2), ... at one modulus.

    Components are known exactly (input lifts) or mod p (recovered outputs);
    in either case x = x' (mod p^a) gives x^(p^b) = x'^(p^b) (mod p^(a+b)),
    so one chain at modulus p^length serves every later precision demand.
    """

    def __init__(self, base: dict, p: int, modmax: int, f: list[int] | None):
        self.p = p
        self.modmax = modmax
        self.f = f
        self.chain = [base]

    def power(self, b: int) -> dict:
        while len(self.chain) <= b:
            self.chain.append(_dp_pow(self.chain[-1], self.p, self.modmax, self.f))
        return self.chain[b]


def _divexact(a: int, pm: int, mod: int) -> int:
    """a / p^m, checking exact divisibility (decided exactly mod `mod`)."""
    if a % pm:
        raise InternalConsistencyError(
            "ghost component not divisible by p^m: integrality violated")
    return (a // pm) % (mod // pm)


def _combine(vecs: list[tuple[int, list[dict]]], length: int, p: int,
             f: list[int] | None = None) -> list[dict]:
    """Witt sum of signed vectors: components of (+-)u (+) (+-)v (+) ... mod p.

    Each z_m is (ghost target_m - sum_{i<m} p^i z_i^(p^(m-i))) / p^m with the
    divisibility checked exactly; ghost components use the memoized chains.
    Over GF(p^k), f is the field polynomial and t the last variable.
    """
    modmax = p ** length
    in_chains = [[_PowerChain(comp, p, modmax, f) for comp in vec] for _, vec in vecs]
    z_chains: list[_PowerChain] = []
    zs: list[dict] = []
    for m in range(length):
        mod = p ** (m + 1)
        num: dict = {}
        for (sign, vec), chains in zip(vecs, in_chains):
            for i in range(min(m + 1, len(vec))):
                _dp_add_into(num, chains[i].power(m - i), mod, sign * p ** i)
        for i in range(m):
            _dp_add_into(num, z_chains[i].power(m - i), mod, -p ** i)
        zm = {e: v for e, c in num.items() if (v := _divexact(c, p ** m, mod))}
        zs.append(zm)
        z_chains.append(_PowerChain(zm, p, modmax, f))
    return zs


# ---------------------------------------------------------------------------
# universal polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WittPolynomial:
    """Universal polynomial over GF(p): exponent tuples -> coefficients in [0, p)."""

    nvars: int
    terms: tuple[tuple[tuple[int, ...], int], ...]

    @classmethod
    def from_dict(cls, nvars: int, d: dict) -> "WittPolynomial":
        return cls(nvars, tuple(sorted((e, int(c)) for e, c in d.items())))

    def as_dict(self) -> dict:
        return dict(self.terms)


def _var(nvars: int, i: int, power: int = 1) -> dict:
    e = [0] * nvars
    e[i] = power
    return {tuple(e): 1}


def peel_polynomials(p: int, length: int, cache_dir: str | os.PathLike | None = None
                     ) -> list[WittPolynomial]:
    """G_1..G_length with (F(Y) - Y)_m = y_m^p - y_m + G_m(y_1..y_{m-1}).

    G_m is returned in variables y_1..y_{m-1} (nvars = m - 1); G_1 = 0.
    Subtracting G_m from the m-th right-hand-side component yields the m-th
    layer equation of a tower.
    """
    _check_length(p, length)
    cached = _load_universal(p, length, cache_dir)
    if cached is not None:
        _ensure_on_disk(p, length, cached, cache_dir)
        return cached
    nv = length
    fy = [_var(nv, i, power=p) for i in range(length)]
    ys = [_var(nv, i) for i in range(length)]
    comps = _combine([(1, fy), (-1, ys)], length, p)
    polys = []
    for m, comp in enumerate(comps, start=1):
        g = dict(comp)
        # remove y_m^p - y_m, keep the lower-variable remainder
        _dp_add_into(g, _var(nv, m - 1, power=p), p, -1)
        _dp_add_into(g, _var(nv, m - 1), p)
        trimmed = {}
        for e, c in g.items():
            if any(e[m - 1:]):
                raise InternalConsistencyError("peel polynomial touches y_m or higher")
            trimmed[e[: m - 1]] = c
        polys.append(WittPolynomial.from_dict(m - 1, trimmed))
    _store_universal(p, length, polys, cache_dir)
    return polys


# -- cache files: header line with a body digest, replaced atomically ---------

def read_cache(path: Path | None, header: str) -> bytes | None:
    """The payload of a file written by write_cache, or None (a cache miss) when
    it is absent, of another header, its body digest differs or its body is not
    zlib data."""
    if path is None:
        return None
    try:
        head, _, body = path.read_bytes().partition(b"\n")
    except FileNotFoundError:
        return None
    if head != f"{header} sha256={hashlib.sha256(body).hexdigest()}".encode():
        return None
    try:
        return zlib.decompress(body)
    except zlib.error:
        return None


def write_cache(path: Path, header: str, data: bytes) -> None:
    """Write the header, the digest of the zlib-compressed data and that body
    through a per-process temporary file in the same directory, renamed into
    place; a failed write removes it."""
    body = zlib.compress(data, 1)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(f"{header} sha256={hashlib.sha256(body).hexdigest()}\n".encode() + body)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


# -- universal cache (memory + versioned binary files) -----------------------

_UNIVERSAL_MEM: dict[tuple, list[WittPolynomial]] = {}


def _cache_path(p: int, length: int, cache_dir) -> Path | None:
    if cache_dir is None:
        return None
    return Path(cache_dir) / f"witt_peel_p{p}_len{length}.bin"


def _ensure_on_disk(p, length, polys, cache_dir):
    path = _cache_path(p, length, cache_dir)
    if path is not None and not path.exists():
        _store_universal(p, length, polys, cache_dir)


def _encode(polys: list[WittPolynomial], length: int) -> bytes:
    """One <i4 row (m, c, e_1..e_(length-1)) per term of G_m, in order; the
    exponents past y_(m-1) are zero."""
    rows = [(m, c, *e) + (0,) * (length - m)
            for m, g in enumerate(polys, start=1) for e, c in g.terms]
    return np.array(rows, dtype="<i4").reshape(-1, length + 1).tobytes()


def _load_universal(p, length, cache_dir):
    """Cached polynomials, or None (recompute) unless read_cache accepts the file,
    its rows have 0 < c < p and exponents >= 0, and _encode of the polynomials
    they give returns them unchanged."""
    key = (p, length)
    if key in _UNIVERSAL_MEM:
        return _UNIVERSAL_MEM[key]
    data = read_cache(_cache_path(p, length, cache_dir), _cache_header(p, length))
    if data is None or len(data) % (4 * (length + 1)):
        return None
    rows = np.frombuffer(data, dtype="<i4").reshape(-1, length + 1)
    if np.any(rows[:, 1] <= 0) or np.any(rows[:, 1] >= p) or np.any(rows[:, 2:] < 0):
        return None
    polys = [WittPolynomial.from_dict(m - 1, {tuple(r[2:m + 1]): r[1] for r in
                                              rows[rows[:, 0] == m].tolist()})
             for m in range(1, length + 1)]
    if _encode(polys, length) != data:
        return None
    _UNIVERSAL_MEM[key] = polys
    return polys


def _cache_header(p, length) -> str:
    return f"# zptower-witt v{CACHE_FORMAT_VERSION} kind=peel p={p} len={length}"


def _store_universal(p, length, polys, cache_dir):
    _UNIVERSAL_MEM[(p, length)] = polys
    path = _cache_path(p, length, cache_dir)
    if path is not None:
        write_cache(path, _cache_header(p, length), _encode(polys, length))


# ---------------------------------------------------------------------------
# tower right-hand sides
# ---------------------------------------------------------------------------

def rhs_components(terms: Sequence[tuple[int, object, int]], length: int,
                   field: FieldCtx) -> list[dict]:
    """Components of the Witt sum of p^v [c x^i] over the (v, c, i) terms.

    p^v [c x^i] is the vector with v zero components followed by
    c^(p^v) x^(i p^v), so every term enters one ghost-engine sum directly.
    Component m comes back as {(nu,): coefficient of x^nu}, coefficients in
    [0, p) (k-tuples of them when k > 1).
    """
    p = field.p
    if p not in LENGTH_CAP:
        raise WittError(f"unsupported characteristic {p}")
    if not 1 <= length <= 16:
        raise WittError(f"Witt length {length} out of range 1..16")
    k = field.k
    f = list(field.modulus) + [1] if k > 1 else None
    vecs = []
    for v, c, i in terms:
        c = field.elem(c)
        if v < 0 or i < 1 or c.is_zero():
            raise WittError(f"bad term (v={v}, c={c}, i={i})")
        if v < length:
            nu, cq = i * p ** v, (c ** p ** v).coeffs
            top = {(nu,): cq[0]} if k == 1 else {(nu, j): a for j, a in enumerate(cq) if a}
            vecs.append((1, [{}] * v + [top]))
    comps = _combine(vecs, length, p, f)
    if k == 1:
        return comps
    out = [{} for _ in comps]
    for comp, o in zip(comps, out):
        for (nu, j), a in comp.items():
            o.setdefault((nu,), [0] * k)[j] = a
    return [{e: tuple(v) for e, v in o.items()} for o in out]

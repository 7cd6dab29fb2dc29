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
    y_m^p - y_m + G_m(y_1..y_{m-1}) (cached per (p, len)), handed to tower in
    the engine's own form: an exponent matrix, rows in lexicographic order,
    and a coefficient vector,
  * tower right-hand sides sum p^v [c x^i], added in one pass and returned as
    {(nu,): k-tuple of coefficients} dicts, so that tower never sees the extra
    variable t they carry.

The peel polynomials and cartier's tables are cached in files written by
write_cache: a header line carrying the sha256 of the body, then the payload
compressed with zlib.  read_cache gives any file it cannot vouch for as a miss.

A polynomial here is an exponent matrix, one row per term, and a vector of
coefficients mod p^m.  One product, one sum and one power serve the engine:
each packs the exponents into one integer key per term, sorts the keys, adds
the coefficients of each run with np.add.reduceat and decodes the keys with
one broadcast // and %.  Key, exponent and coefficient arrays are int64 when
their bounds fit and Python-int object arrays otherwise, with the same code.

Over GF(p^k) = GF(p)[t]/(f), right-hand sides carry t as one more variable at
every k (at k = 1 its exponent stays 0), and every product reduces it modulo
the integer lift of f with FieldCtx.fold (exact mod p^m since f is monic);
functoriality of Witt arithmetic under the reduction map makes the mod-p
result independent of the lift.
"""

from __future__ import annotations

import hashlib
import os
import zlib
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .gf import SUPPORTED_PRIMES, FieldCtx, InternalConsistencyError

#: Deepest peel length per prime, so a tower's deepest level (TowerState.ensure_ram).
LENGTH_CAP = dict(zip(SUPPORTED_PRIMES, (8, 6, 4, 2, 2, 2), strict=True))
#: Deepest right-hand-side length, and so the deepest break sequence, at every p.
RHS_LENGTH_CAP = 16

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
# array polynomials: coefficients in [0, mod), no zero or repeated term; over
# GF(p^k) the last variable is t, of degree below k
# ---------------------------------------------------------------------------

_PAIRS = 1 << 22  # term pairs per chunk of a product


class _Poly(NamedTuple):
    e: np.ndarray  # (terms, nvars) exponents
    c: np.ndarray  # (terms,) coefficients

    @property
    def terms(self) -> np.ndarray:
        """The exponent rows, read only: perfbench/rep.py counts a peel
        polynomial's terms as len(g.terms)."""
        return self.e

    def as_dict(self) -> dict:
        return dict(zip(map(tuple, self.e.tolist()), self.c.tolist()))


def _dtype(bound: int):
    """int64 when every value stays below `bound`, Python ints otherwise."""
    return np.int64 if bound <= 1 << 63 else object


def _from_dict(nvars: int, d: dict) -> _Poly:
    e = np.array(list(d), dtype=_dtype(max(map(max, d), default=0) + 1))
    return _Poly(e.reshape(len(d), nvars), np.array(list(d.values()), dtype=np.int64))


def _var(nvars: int, i: int, power: int = 1) -> _Poly:
    return _from_dict(nvars, {(0,) * i + (power,) + (0,) * (nvars - i - 1): 1})


def _packing(caps: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Strides and capacities, in the key dtype, of keys whose digit j is
    below caps[j]."""
    strides = [1]
    for cap in caps[:-1]:
        strides.append(strides[-1] * cap)
    dt = _dtype(strides[-1] * caps[-1])
    return np.array(strides, dtype=dt), np.array(caps, dtype=dt)


def _collect(keys: np.ndarray, vals: np.ndarray, mod: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys in increasing order and the nonzero sums mod `mod` of
    their values."""
    if not keys.size:  # every product cancelled, or no term at all
        return keys, vals
    order = np.argsort(keys)
    keys, vals = keys[order], vals[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    sums = np.add.reduceat(vals, starts) % mod
    keep = np.flatnonzero(sums != 0)
    return keys[starts[keep]], sums[keep]


def _add(parts: list[tuple[int, _Poly]], mod: int) -> _Poly:
    """The sum of scale * poly over the (scale, poly) parts, mod `mod`."""
    e = np.concatenate([q.e for _, q in parts])
    if not e.shape[0]:
        return _Poly(e, np.zeros(0, dtype=np.int64))
    ct = _dtype(mod * max(mod, e.shape[0]))
    vals = np.concatenate([(q.c % mod).astype(ct) * (s % mod) % mod for s, q in parts])
    strides, caps = _packing([int(m) + 1 for m in e.max(axis=0)])
    keys, vals = _collect(e.astype(strides.dtype) @ strides, vals, mod)
    return _Poly(keys[:, None] // strides % caps, vals)


def _mul(a: _Poly, b: _Poly, mod: int, field: FieldCtx | None = None) -> _Poly:
    """a b mod `mod`, and mod the lifted field polynomial over GF(p^k).  The
    term pairs of each chunk of rows of a with all of b are collected, then the
    chunks together."""
    na, nb = len(a.c), len(b.c)
    if not (na and nb):
        return _Poly(np.zeros((0, a.e.shape[1]), dtype=np.int64), np.zeros(0, dtype=np.int64))
    strides, caps = _packing([int(x) + int(y) + 1 for x, y in zip(a.e.max(axis=0), b.e.max(axis=0))])
    ka, kb = a.e.astype(strides.dtype) @ strides, b.e.astype(strides.dtype) @ strides
    ct = _dtype(mod * max(mod, na * nb))
    ca, cb = a.c.astype(ct), b.c.astype(ct)
    chunk = max(1, _PAIRS // nb)
    pieces = [_collect((ka[i:i + chunk, None] + kb).ravel(),
                       (ca[i:i + chunk, None] * cb % mod).ravel(), mod)
              for i in range(0, na, chunk)]
    keys, vals = _collect(*map(np.concatenate, zip(*pieces)), mod)
    if field is not None and keys.size:
        # t is the last key digit: lay each row of the product out along t,
        # of degree below 2k - 1, and fold it
        rest, row = np.unique(keys % strides[-1], return_inverse=True)
        raw = np.zeros((len(rest), 2 * field.k - 1), dtype=_dtype(field.k * mod * mod))
        raw[row, (keys // strides[-1]).astype(np.int64)] = vals
        raw = field.fold(raw, mod=mod)
        r, j = np.nonzero(raw)
        keys, vals = rest[r] + j.astype(keys.dtype) * strides[-1], raw[r, j]
    return _Poly(keys[:, None] // strides % caps, vals)


def _pow(a: _Poly, e: int, mod: int, field: FieldCtx | None = None) -> _Poly:
    """a^e, e >= 1, as e - 1 products with a."""
    out = a
    for _ in range(e - 1):
        out = _mul(out, a, mod, field)
    return out


# ---------------------------------------------------------------------------
# ghost / unghost engine
# ---------------------------------------------------------------------------

def _divexact(a: np.ndarray, pm: int, mod: int) -> np.ndarray:
    """a / p^m, checking exact divisibility (decided exactly mod `mod`)."""
    if np.any(a % pm):
        raise InternalConsistencyError(
            "ghost component not divisible by p^m: integrality violated")
    return (a // pm) % (mod // pm)


def _combine(vecs: list[tuple[int, list[_Poly]]], length: int, p: int,
             field: FieldCtx | None = None) -> list[_Poly]:
    """Witt sum of signed vectors: components of (+-)u (+) (+-)v (+) ... mod p.

    Each z_m is (ghost target_m - sum_{i<m} p^i z_i^(p^(m-i))) / p^m with the
    divisibility checked exactly.  The ghost components come from memoized
    Frobenius-power chains g, g^p, g^(p^2), ... at modulus p^length.  A
    component is known exactly (an input lift) or mod p (a recovered z_i);
    either way x = x' (mod p^a) gives x^(p^b) = x'^(p^b) (mod p^(a+b)), so one
    chain serves every later precision.  Right-hand sides give `field`, and
    their last variable is t; the peel, over the integers, gives none.
    """
    modmax = p ** length

    def power(chain: list[_Poly], b: int) -> _Poly:
        while len(chain) <= b:
            chain.append(_pow(chain[-1], p, modmax, field))
        return chain[b]

    in_chains = [[[comp] for comp in vec] for _, vec in vecs]
    z_chains: list[list[_Poly]] = []
    for m in range(length):
        mod = p ** (m + 1)
        num = _add([(sign * p ** i, power(chains[i], m - i))
                    for (sign, vec), chains in zip(vecs, in_chains)
                    for i in range(min(m + 1, len(vec)))]
                   + [(-p ** i, power(z_chains[i], m - i)) for i in range(m)], mod)
        # each num term is nonzero mod p^(m+1), so no quotient is zero mod p
        z_chains.append([_Poly(num.e, _divexact(num.c, p ** m, mod))])
    return [chain[0] for chain in z_chains]


# ---------------------------------------------------------------------------
# universal polynomials
# ---------------------------------------------------------------------------

def peel_polynomials(p: int, length: int, cache_dir: str | os.PathLike | None = None
                     ) -> list[_Poly]:
    """G_1..G_length with (F(Y) - Y)_m = y_m^p - y_m + G_m(y_1..y_{m-1}).

    G_m is returned in variables y_1..y_{m-1} (m - 1 exponent columns, int64),
    its rows in increasing lexicographic order of the exponents, with int64
    coefficients in [1, p); G_1 = 0.  Subtracting G_m from the m-th
    right-hand-side component yields the m-th layer equation of a tower.
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
        # remove y_m^p - y_m, keep the lower-variable remainder
        g = _add([(1, comp), (-1, fy[m - 1]), (1, ys[m - 1])], p)
        if g.e[:, m - 1:].any():
            raise InternalConsistencyError("peel polynomial touches y_m or higher")
        # y_1 is the first sort key; the zero columns past y_(m-1) give
        # np.lexsort a key when m = 1
        e = g.e.astype(np.int64)
        order = np.lexsort(e.T[::-1])
        polys.append(_Poly(e[order, :m - 1], g.c[order].astype(np.int64)))
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

_UNIVERSAL_MEM: dict[tuple, list[_Poly]] = {}


def _cache_path(p: int, length: int, cache_dir) -> Path | None:
    if cache_dir is None:
        return None
    return Path(cache_dir) / f"witt_peel_p{p}_len{length}.bin"


def _ensure_on_disk(p, length, polys, cache_dir):
    path = _cache_path(p, length, cache_dir)
    if path is not None and not path.exists():
        _store_universal(p, length, polys, cache_dir)


def _encode(polys: list[_Poly], length: int) -> bytes:
    """One <i4 row (m, c, e_1..e_(length-1)) per term of G_m, in order; the
    exponents past y_(m-1) are zero."""
    ms = np.repeat(np.arange(1, len(polys) + 1), [len(g.c) for g in polys])
    e = np.concatenate([np.pad(g.e, ((0, 0), (0, length - m))) for m, g in enumerate(polys, 1)])
    return np.column_stack((ms, np.concatenate([g.c for g in polys]), e)).astype("<i4").tobytes()


def _load_universal(p, length, cache_dir):
    """Cached polynomials, or None (recompute) unless read_cache accepts the file,
    its rows have 0 < c < p and exponents >= 0, ascend strictly in (m, exponents)
    and _encode of the polynomials they give returns them unchanged."""
    key = (p, length)
    if key in _UNIVERSAL_MEM:
        return _UNIVERSAL_MEM[key]
    data = read_cache(_cache_path(p, length, cache_dir), _cache_header(p, length))
    if data is None or len(data) % (4 * (length + 1)):
        return None
    rows = np.frombuffer(data, dtype="<i4").reshape(-1, length + 1).astype(np.int64)
    if np.any(rows[:, 1] <= 0) or np.any(rows[:, 1] >= p) or np.any(rows[:, 2:] < 0):
        return None
    # each row above the one before in its first differing (m, exponent) column:
    # no term repeats and each G_m is in peel_polynomials' order
    step = np.delete(rows, 1, axis=1)
    step = step[1:] - step[:-1]
    if np.any(step[np.arange(len(step)), (step != 0).argmax(axis=1)] <= 0):
        return None
    polys = [_Poly(rows[rows[:, 0] == m, 2:m + 1], rows[rows[:, 0] == m, 1])
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
    Component m comes back as {(nu,): coefficient of x^nu}, each coefficient
    the k-tuple of its residues in [0, p) at every k.
    """
    p = field.p
    if not 1 <= length <= RHS_LENGTH_CAP:
        raise WittError(f"Witt length {length} out of range 1..{RHS_LENGTH_CAP}")
    vecs = []
    for v, c, i in terms:
        c = field.elem(c)
        if v < 0 or i < 1 or c.is_zero():
            raise WittError(f"bad term (v={v}, c={c}, i={i})")
        if v < length:
            top = {(i * p ** v, j): a for j, a in enumerate((c ** p ** v).coeffs) if a}
            vecs.append((1, [_from_dict(2, {})] * v + [_from_dict(2, top)]))
    out = [{} for _ in range(length)]
    if vecs:
        for comp, o in zip(_combine(vecs, length, p, field), out):
            for (nu, j), a in comp.as_dict().items():
                o.setdefault((nu,), [0] * field.k)[j] = a
    return [{e: tuple(v) for e, v in o.items()} for o in out]

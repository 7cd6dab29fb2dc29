import hashlib
import itertools
import math
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

import zptower.witt as witt_mod
from conftest import sealed
from oracle import (SparsePoly, addition_polynomials, dict_add, dict_mul, dict_pow, evaluate_witt,
                    gen)
from zptower.gf import SUPPORTED_PRIMES, field
from zptower._slab import Monomial
from zptower.witt import (LENGTH_CAP, RHS_LENGTH_CAP, WittError, peel_polynomials, read_cache,
                          rhs_components, write_cache)

F2, F3 = field(2), field(3)


def test_addition_polynomial_examples():
    S = addition_polynomials(2, 2)
    # S_0 = X0 + Y0 in variables (X0, X1, Y0, Y1)
    assert S[0].as_dict() == {(1, 0, 0, 0): 1, (0, 0, 1, 0): 1}
    # S_1 = X1 + Y1 + X0*Y0
    assert S[1].as_dict() == {(0, 1, 0, 0): 1, (0, 0, 0, 1): 1, (1, 0, 1, 0): 1}
    S3 = addition_polynomials(3, 2)
    # S_1 = X1 + Y1 + 2(X0^2 Y0 + X0 Y0^2)
    assert S3[1].as_dict() == {(0, 1, 0, 0): 1, (0, 0, 0, 1): 1,
                               (2, 0, 1, 0): 2, (1, 0, 2, 0): 2}


def test_ghost_consistency_of_addition_polynomials():
    # w_m(S(x, y)) = w_m(x) + w_m(y) mod p^(m+1) on random small integers
    rng = np.random.default_rng(5)
    for p, length in [(2, 3), (3, 3), (5, 2)]:
        S = addition_polynomials(p, length)
        for _ in range(30):
            xs = [int(rng.integers(0, 30)) for _ in range(length)]
            ys = [int(rng.integers(0, 30)) for _ in range(length)]
            zs = []
            for m in range(length):
                val = 0
                for e, c in zip(S[m].e.tolist(), S[m].c.tolist()):
                    t = c
                    for v, ei in zip(xs + ys, e):
                        t *= v ** ei
                    val += t
                zs.append(val)
            for m in range(length):
                mod = p ** (m + 1)
                ghost = lambda u: sum(p ** i * u[i] ** (p ** (m - i)) for i in range(m + 1))
                assert (ghost(zs) - ghost(xs) - ghost(ys)) % mod == 0


def test_peel_polynomials():
    G = peel_polynomials(2, 3)
    assert G[0].as_dict() == {}
    assert G[1].as_dict() == {(2,): 1, (3,): 1}  # y1^2 + y1^3
    G3 = peel_polynomials(3, 2)
    assert G3[0].as_dict() == {}
    assert all(sum(e) > 0 for e in G3[1].as_dict())


# sha256 of the cache payload (_encode) of the peel polynomials, as first
# computed by the dict-product engine; at (2, 6), (3, 5) and (5, 4) the largest
# products have more than 2^14 term pairs
PEEL_DIGESTS = {
    (2, 5): "c458a90065a16362d7a7c58dad0647758acc421c5f2a3eff542360166ff774d1",
    (2, 6): "5924182c8f7e3ad97ea7b3bbde3f9d02f69685562efee5ec5ff82e6853a09eb6",
    (3, 4): "7ce8e748296d6dcfeab765fdd875ef0ea308bb7a068924e724cd08a3cbeb6d62",
    (3, 5): "292dbb2be37ff076cb89a96b53c536020f2c160478a7f945e14034f2d6c328a9",
    (5, 3): "b35121081d1fed6ebf9d4b821786cffb99db31476c049c0ecdb7932b95d05469",
    (5, 4): "7d23b1978209bbb9cb8d5f5c1289577dfb2779a1159146a2f71fa7fc101677b2",
}


@pytest.mark.parametrize("p, length", sorted(PEEL_DIGESTS))
def test_peel_polynomials_are_pinned(p, length, monkeypatch):
    monkeypatch.setattr(witt_mod, "_UNIVERSAL_MEM", {})  # recompute, read no cache
    polys = peel_polynomials(p, length)
    assert hashlib.sha256(witt_mod._encode(polys, length)).hexdigest() == PEEL_DIGESTS[p, length]


# (mod, GF(p^k) or None); the mod above 2^32 takes the object path, since its
# squares pass 2^63, while the squares of 11^9 come within a factor 2 of 2^63
ARITH_CASES = [(2 ** 3, None), (3 ** 5, None), (11 ** 9, None), (13 ** 9, None),
               (2 ** 3, field(2, 2)), (13 ** 9, field(13, 2))]


def _random_dict(rng, nvars, nterms, mod, f):
    """nterms distinct terms in nvars variables, coefficients in [1, mod); with
    f, the last variable is t, of degree below deg f."""
    free = nvars - (f is not None)
    caps = [math.ceil((4 * nterms) ** (1 / free))] * free + ([len(f) - 1] if f else [])
    exps = np.stack(np.unravel_index(rng.choice(math.prod(caps), nterms, replace=False), caps), 1)
    return dict(zip(map(tuple, exps.tolist()), rng.integers(1, mod, nterms).tolist()))


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(ARITH_CASES), st.integers(1, 4))
@settings(max_examples=25, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
def test_array_arithmetic_matches_dict_reference(seed, case, nvars):
    # no shrinking phase: a smaller seed is no simpler case
    mod, F = case
    f = list(F.modulus) + [1] if F else None
    nvars = max(nvars, 2) if f else nvars
    rng = np.random.default_rng(seed)
    a = _random_dict(rng, nvars, int(rng.integers(130, 200)), mod, f)
    b = _random_dict(rng, nvars, int(rng.integers(130, 200)), mod, f)
    A, B = witt_mod._from_dict(nvars, a), witt_mod._from_dict(nvars, b)
    prod = witt_mod._mul(A, B, mod, F)
    assert prod.as_dict() == dict_mul(a, b, mod, f)
    assert prod.c.dtype == (object if mod > 1 << 32 else np.int64)
    with pytest.MonkeyPatch.context() as mp:  # many chunks of pairs, collected together
        mp.setattr(witt_mod, "_PAIRS", 1000)
        assert witt_mod._mul(A, B, mod, F).as_dict() == prod.as_dict()
    s, u = (int(x) for x in rng.integers(-mod, mod, 2))
    # scale -1 makes products just under mod^2, as the ghost numerators' -p^i do,
    # and every key of A and B sums two or four of them
    assert witt_mod._add([(s, A), (u, B), (-1, A), (-1, B)], mod).as_dict() \
        == dict_add([(s, a), (u, b), (-1, a), (-1, b)], mod)
    small, e = _random_dict(rng, nvars, 6, mod, f), int(rng.integers(2, 6))
    assert witt_mod._pow(witt_mod._from_dict(nvars, small), e, mod, F).as_dict() \
        == dict_pow(small, e, mod, f)


def test_products_that_vanish_mod_the_modulus():
    # zero divisors mod p^m: every term pair of these products cancels
    two_x, two_xy = witt_mod._from_dict(1, {(1,): 2}), witt_mod._from_dict(2, {(1, 0): 2, (0, 1): 2})
    assert witt_mod._mul(two_x, witt_mod._from_dict(1, {(0,): 4}), 8).as_dict() == {}
    assert witt_mod._pow(two_xy, 3, 8).as_dict() == {} == dict_pow(two_xy.as_dict(), 3, 8)
    assert witt_mod._pow(witt_mod._from_dict(2, {(1, 1): 2}), 3, 8, field(2, 2)).as_dict() == {}


def comp(terms):
    """{(nu,): c} in the form rhs_components returns, its coefficients k-tuples
    at every k, from (nu, c) pairs, c an int (k = 1) or a tuple."""
    return {(nu,): c if isinstance(c, tuple) else (c,) for nu, c in terms}


def test_witt_add_examples():
    # [x^3] + [x] = (x^3 + x, x^4) over GF(2)
    assert rhs_components([(0, 1, 3), (0, 1, 1)], 2, F2) == [comp([(3, 1), (1, 1)]),
                                                             comp([(4, 1)])]
    # adding p^2 [x] (zero at length 2) changes nothing
    assert rhs_components([(0, 1, 5), (2, 1, 1)], 2, F2) == [comp([(5, 1)]), {}]


def test_witt_add_assoc_comm():
    # the order of the terms in the one sum does not matter
    terms = [(0, 1, 2), (0, 2, 5), (0, 1, 1)]
    want = rhs_components(terms, 3, F3)
    assert all(rhs_components(list(order), 3, F3) == want
               for order in itertools.permutations(terms))


def test_teichmuller_and_mul_by_p():
    # the p^v shortcut agrees with p^v repeated ghost-engine additions
    for ctx in (F2, F3):
        p = ctx.p
        for c, i in [(1, 1), (p - 1, 3)]:
            for v in (1, 2):
                assert rhs_components([(v, c, i)], 3, ctx) \
                    == rhs_components([(0, c, i)] * p ** v, 3, ctx), (p, c, i, v)
        # p^v [c x^i] with v >= length contributes nothing
        assert rhs_components([(3, 1, 1)], 3, ctx) == [{}, {}, {}]
        assert rhs_components([(0, 1, 2), (4, 1, 1)], 3, ctx) \
            == rhs_components([(0, 1, 2)], 3, ctx)


def test_rhs_assemble_examples():
    assert rhs_components([(0, 1, 3)], 2, F2) == [comp([(3, 1)]), {}]
    assert rhs_components([(0, 1, 3), (0, 1, 1)], 2, F2)[1] == comp([(4, 1)])
    assert rhs_components([(0, 1, 3), (1, 1, 5)], 2, F2) == [comp([(3, 1)]), comp([(10, 1)])]


def test_rhs_rejects_bad_terms():
    for bad in [(-1, 1, 3), (0, 0, 3), (0, 1, 0)]:
        with pytest.raises(WittError):
            rhs_components([bad], 2, F2)
    for length in (0, 17):
        with pytest.raises(WittError):
            rhs_components([(0, 1, 1)], length, F2)


def test_universal_vs_concrete_cross_check():
    # the one sum agrees with the cached universal polynomials applied to the
    # components of two partial sums, also with coefficients outside GF(p)
    for F, length in ((F2, 3), (field(2, 2), 3), (field(2, 3), 3), (field(3, 2), 2),
                      (field(5, 2), 2)):
        t = gen(F)
        if F.k == 1:
            u, v = [(0, 1, 3), (0, 1, 1)], [(0, 1, 5)]
        else:
            u, v = [(0, t, 3), (0, 1, 1), (1, t + 1, 2)], [(0, t * t + t, 1), (0, -t, 2)]
        S = addition_polynomials(F.p, length)
        vals = [_sparse(F, c) for c in rhs_components(u, length, F) + rhs_components(v, length, F)]
        for i, c in enumerate(rhs_components(u + v, length, F)):
            assert evaluate_witt(S[i], vals, F) == _sparse(F, c), (F, i)


def _sparse(F, comp):
    """A right-hand-side component as a level-0 SparsePoly."""
    return SparsePoly(F, 0, {Monomial(nu, ()): F.elem(a) for (nu,), a in comp.items()})


def test_extension_field_witt_add():
    F4 = field(2, 2)
    t = gen(F4)
    s = rhs_components([(0, t, 3), (0, t, 1)], 2, F4)
    # second component is the product of the Teichmuller inputs: t*t*x^4
    assert s[1] == comp([(4, (t * t).coeffs)])


def test_long_extension_field_sum_is_exact():
    # length 16 over GF(13^2): lifted products exceed 64 bits, and [t x] + [-t x] = 0
    F = field(13, 2)
    t = gen(F)
    s = rhs_components([(0, t, 1), (0, -t, 1), (3, t + 1, 1)], 16, F)
    assert s == [{}] * 3 + [comp([(13 ** 3, ((t + 1) ** 13 ** 3).coeffs)])] + [{}] * 12


def test_sums_near_the_int64_bound():
    # at p=11, length 9 the ghost numerators are summed mod 11^9, whose square
    # is within a factor 2 of 2^63, and c = -1 or -t gives parts just under it;
    # [c x] + p[c' x] has no carry, so the sum is (c x, c'^p x^p, 0, ...) exactly
    for F in (field(11), field(11, 3)):
        c, d = (F.elem(10), F.elem(2)) if F.k == 1 else (-gen(F), gen(F) + 1)
        s = rhs_components([(0, c, 1), (1, d, 1)], 9, F)
        assert s == [comp([(1, c.coeffs)]), comp([(11, (d ** 11).coeffs)])] + [{}] * 7, F


def test_length_caps():
    with pytest.raises(WittError):
        peel_polynomials(7, 3)
    with pytest.raises(WittError):
        peel_polynomials(3, 7)
    assert sorted(LENGTH_CAP) == list(SUPPORTED_PRIMES)
    # right-hand sides beyond the universal cap are allowed, up to their own
    assert rhs_components([(0, 1, 1)], 5, field(7))[0] == comp([(1, 1)])
    with pytest.raises(WittError, match=f"out of range 1..{RHS_LENGTH_CAP}"):
        rhs_components([(0, 1, 1)], RHS_LENGTH_CAP + 1, field(2))


def test_disk_cache_roundtrip(tmp_path):
    g1 = peel_polynomials(3, 3, cache_dir=tmp_path)
    assert (tmp_path / "witt_peel_p3_len3.bin").exists()
    witt_mod._UNIVERSAL_MEM.clear()
    g2 = peel_polynomials(3, 3, cache_dir=tmp_path)
    assert witt_mod._encode(g1, 3) == witt_mod._encode(g2, 3)
    # header mismatch forces recompute instead of loading garbage
    (tmp_path / "witt_peel_p2_len2.bin").write_bytes(sealed("# wrong header", zlib.compress(b"")))
    witt_mod._UNIVERSAL_MEM.clear()
    g = peel_polynomials(2, 2, cache_dir=tmp_path)
    assert g[1].as_dict() == {(2,): 1, (3,): 1}


def _peel_file(tmp_path, monkeypatch):
    """The p=2 length-3 peel polynomials, their cache file and its header."""
    monkeypatch.setattr(witt_mod, "_UNIVERSAL_MEM", {})
    want = peel_polynomials(2, 3, cache_dir=tmp_path)
    return want, tmp_path / "witt_peel_p2_len3.bin", witt_mod._cache_header(2, 3)


def _assert_miss_and_rewrite(tmp_path, want, path, data):
    witt_mod._UNIVERSAL_MEM.clear()
    assert witt_mod._load_universal(2, 3, tmp_path) is None
    assert witt_mod._encode(peel_polynomials(2, 3, cache_dir=tmp_path), 3) \
        == witt_mod._encode(want, 3)
    assert path.read_bytes() == data


def test_truncated_universal_cache_is_a_miss(tmp_path, monkeypatch):
    # the file cut with its digest kept, its body cut under a fresh digest, and
    # its payload cut inside a row and compressed again (a cut between rows is
    # a well-formed shorter payload: only the digest guards against that)
    want, path, header = _peel_file(tmp_path, monkeypatch)
    data = path.read_bytes()
    body = data.partition(b"\n")[2]
    payload = zlib.decompress(body)
    for damaged in ([data[:cut] for cut in (0, 1, len(data) // 2, len(data) - 1)]
                    + [sealed(header, body[:cut]) for cut in (0, 1, len(body) // 2, len(body) - 1)]
                    + [sealed(header, zlib.compress(payload[:cut], 1))
                       for cut in (1, len(payload) // 2 + 4, len(payload) - 1)]):
        path.write_bytes(damaged)
        _assert_miss_and_rewrite(tmp_path, want, path, data)


def test_changed_digit_in_universal_cache_is_a_miss(tmp_path, monkeypatch):
    # y1^3 -> y1^5 in G_2, compressed again under the old digest: the payload is
    # well formed, so only the digest can catch it
    want, path, header = _peel_file(tmp_path, monkeypatch)
    data = path.read_bytes()
    head, _, body = data.partition(b"\n")
    rows = np.frombuffer(zlib.decompress(body), dtype="<i4").reshape(-1, 4).copy()
    i = next(i for i, row in enumerate(rows.tolist()) if row[:3] == [2, 1, 3])
    rows[i, 2] = 5
    path.write_bytes(head + b"\n" + zlib.compress(rows.tobytes(), 1))
    _assert_miss_and_rewrite(tmp_path, want, path, data)
    # one changed byte of the compressed body
    path.write_bytes(data[:-5] + bytes([data[-5] ^ 1]) + data[-4:])
    assert read_cache(path, header) is None


@pytest.mark.parametrize("defect", ["c = 0", "c = p", "negative exponent", "exponent past y_(m-1)",
                                    "repeated term", "rows out of order", "not zlib"])
def test_sealed_bad_universal_cache_is_a_miss(tmp_path, monkeypatch, defect):
    # each file carries a valid digest, so only the checks behind it can see the
    # defect; the polynomials are recomputed and their file rewritten
    want, path, header = _peel_file(tmp_path, monkeypatch)
    data = path.read_bytes()
    rows = np.frombuffer(read_cache(path, header), dtype="<i4").reshape(-1, 4).copy()
    first = np.flatnonzero(rows[:, 0] == 3)[0]  # G_3's first term: y2^2, sorted first
    if defect == "c = 0":
        rows[first, 1] = 0
    elif defect == "c = p":
        rows[first, 1] = 2
    elif defect == "negative exponent":
        rows[first, 2] = -1  # y1^-1 y2^2 still sorts first
    elif defect == "exponent past y_(m-1)":
        rows[rows[:, 0] == 2, 3] = 1  # y2 in G_2
    elif defect == "repeated term":
        rows = np.insert(rows, first, rows[first], axis=0)
    elif defect == "rows out of order":
        rows[rows[:, 0] == 3] = rows[rows[:, 0] == 3][::-1]
    if defect == "not zlib":
        path.write_bytes(sealed(header, b"not zlib data"))
    else:
        write_cache(path, header, rows.tobytes())
    _assert_miss_and_rewrite(tmp_path, want, path, data)


def test_failed_cache_write_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "c.bin"
    write_cache(path, "# h", b"old")
    real_write = Path.write_bytes

    def half_then_fail(self, data):
        real_write(self, data[: len(data) // 2])
        raise OSError("disk full")
    monkeypatch.setattr(Path, "write_bytes", half_then_fail)
    with pytest.raises(OSError):
        write_cache(path, "# h", b"new bytes")
    monkeypatch.undo()
    assert read_cache(path, "# h") == b"old"
    assert [f.name for f in tmp_path.iterdir()] == ["c.bin"]

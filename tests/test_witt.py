import itertools
from pathlib import Path

import numpy as np
import pytest

import zptower.witt as witt_mod
from oracle import SparsePoly, evaluate_witt
from zptower.gf import field
from zptower._slab import Monomial
from zptower.witt import (WittError, addition_polynomials, peel_polynomials, read_cache,
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
                for e, c in S[m].terms:
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


def comp(terms):
    """{(nu,): c} in the form rhs_components returns, from (nu, c) pairs."""
    return {(nu,): c for nu, c in terms}


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
        t = F.gen()
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
    t = F4.gen()
    s = rhs_components([(0, t, 3), (0, t, 1)], 2, F4)
    # second component is the product of the Teichmuller inputs: t*t*x^4
    assert s[1] == comp([(4, (t * t).coeffs)])


def test_long_extension_field_sum_is_exact():
    # length 16 over GF(13^2): lifted products exceed 64 bits, and [t x] + [-t x] = 0
    F = field(13, 2)
    t = F.gen()
    s = rhs_components([(0, t, 1), (0, -t, 1), (3, t + 1, 1)], 16, F)
    assert s == [{}] * 3 + [comp([(13 ** 3, ((t + 1) ** 13 ** 3).coeffs)])] + [{}] * 12


def test_length_caps():
    with pytest.raises(WittError):
        addition_polynomials(7, 3)
    with pytest.raises(WittError):
        peel_polynomials(3, 7)
    # right-hand sides beyond the universal cap are allowed
    assert rhs_components([(0, 1, 1)], 5, field(7))[0] == comp([(1, 1)])


def test_disk_cache_roundtrip(tmp_path):
    a1 = addition_polynomials(3, 3, cache_dir=tmp_path)
    assert (tmp_path / "witt_add_p3_len3.txt").exists()
    witt_mod._UNIVERSAL_MEM.clear()
    a2 = addition_polynomials(3, 3, cache_dir=tmp_path)
    assert a1 == a2
    # header mismatch forces recompute instead of loading garbage
    (tmp_path / "witt_peel_p2_len2.txt").write_text("# wrong header\n1 0\n")
    witt_mod._UNIVERSAL_MEM.clear()
    g = peel_polynomials(2, 2, cache_dir=tmp_path)
    assert g[1].as_dict() == {(2,): 1, (3,): 1}


def test_truncated_universal_cache_is_a_miss(tmp_path, monkeypatch):
    monkeypatch.setattr(witt_mod, "_UNIVERSAL_MEM", {})
    for kind, polys in (("add", addition_polynomials), ("peel", peel_polynomials)):
        want = polys(2, 3, cache_dir=tmp_path)
        path = tmp_path / f"witt_{kind}_p2_len3.txt"
        text = path.read_text()
        ends = [i + 1 for i, ch in enumerate(text) if ch == "\n"]
        for cut in [0] + ends[:-1] + [ends[-1] // 2]:
            path.write_text(text[:cut])
            witt_mod._UNIVERSAL_MEM.clear()
            assert witt_mod._load_universal(2, 3, kind, tmp_path) is None, (kind, cut)
            assert polys(2, 3, cache_dir=tmp_path) == want


def test_changed_digit_in_universal_cache_is_a_miss(tmp_path, monkeypatch):
    monkeypatch.setattr(witt_mod, "_UNIVERSAL_MEM", {})
    want = peel_polynomials(2, 3, cache_dir=tmp_path)
    path = tmp_path / "witt_peel_p2_len3.txt"
    text = path.read_text()
    cut = text.index("\n") + text[text.index("\n"):].index(":3")  # y1^3 in G_2
    path.write_text(text[:cut] + ":5" + text[cut + 2:])
    witt_mod._UNIVERSAL_MEM.clear()
    assert witt_mod._load_universal(2, 3, "peel", tmp_path) is None
    assert peel_polynomials(2, 3, cache_dir=tmp_path) == want
    assert path.read_text() == text
    path.write_bytes(text.encode()[:cut] + b"\xff" + text.encode()[cut + 1:])
    assert read_cache(path, text.partition(" sha256=")[0]) is None


def test_failed_cache_write_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "c.txt"
    write_cache(path, "# h", ["old"])
    real_write = Path.write_text

    def half_then_fail(self, text):
        real_write(self, text[: len(text) // 2])
        raise OSError("disk full")
    monkeypatch.setattr(Path, "write_text", half_then_fail)
    with pytest.raises(OSError):
        write_cache(path, "# h", ["new", "lines"])
    monkeypatch.undo()
    assert read_cache(path, "# h") == ["old"]
    assert [f.name for f in tmp_path.iterdir()] == ["c.txt"]

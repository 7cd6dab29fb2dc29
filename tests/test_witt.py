import numpy as np
import pytest

from zptower.gf import field
from zptower.poly import SparsePoly
from zptower.witt import (WittCtx, WittError, WittVector, addition_polynomials,
                          mul_by_p, peel_polynomials, poly_pth_power, rhs_assemble,
                          teichmuller, witt_add, witt_frobenius, witt_negate)

F2, F3 = field(2), field(3)


def x(ctx, n, c=1):
    return SparsePoly.x_power(ctx, n, c)


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


def test_witt_add_examples():
    W = WittCtx(2, 2)
    s = witt_add(teichmuller(W, x(F2, 3)), teichmuller(W, x(F2, 1)))
    assert s.components[0] == x(F2, 3) + x(F2, 1)
    assert s.components[1] == x(F2, 4)
    z = WittVector(W, (SparsePoly.zero(F2), SparsePoly.zero(F2)))
    u = teichmuller(W, x(F2, 5))
    assert (u + z) == u


def test_witt_add_assoc_comm(rng):
    W = WittCtx(3, 3)
    vs = [teichmuller(W, x(F3, i, c)) for i, c in [(2, 1), (5, 2), (1, 1)]]
    assert (vs[0] + vs[1]) == (vs[1] + vs[0])
    assert ((vs[0] + vs[1]) + vs[2]) == (vs[0] + (vs[1] + vs[2]))


def test_negate():
    W = WittCtx(2, 2)
    w = WittVector(W, (x(F2, 1), x(F2, 3)))
    n = witt_negate(w)
    # (b0, b1) -> (b0, b1 + b0^2) over F2
    assert n.components[0] == x(F2, 1)
    assert n.components[1] == x(F2, 3) + x(F2, 2)
    assert (w + n).is_zero()


def test_teichmuller_and_mul_by_p():
    W = WittCtx(3, 2)
    t = teichmuller(W, x(F3, 3))
    assert t.components[0] == x(F3, 3) and t.components[1].is_zero()
    w = WittVector(W, (x(F3, 2, 2), x(F3, 1)))
    m = mul_by_p(w)
    assert m.components[0].is_zero() and m.components[1] == x(F3, 2, 2) ** 3
    # p-fold repeated addition agrees, len <= 3
    assert m == witt_add(witt_add(w, w), w)
    W2 = WittCtx(2, 3)
    u = WittVector(W2, (x(F2, 3), x(F2, 1), x(F2, 2)))
    assert mul_by_p(u) == witt_add(u, u)


def test_frobenius_componentwise():
    W = WittCtx(2, 2)
    w = WittVector(W, (x(F2, 3) + x(F2, 1), x(F2, 2)))
    f = witt_frobenius(w)
    assert f.components[0] == poly_pth_power(w.components[0])


def test_rhs_assemble_examples():
    W = WittCtx(2, 2)
    r = rhs_assemble([(0, 1, 3)], W, F2)
    assert r.components[0] == x(F2, 3) and r.components[1].is_zero()
    r2 = rhs_assemble([(0, 1, 3), (0, 1, 1)], W, F2)
    assert r2.components[1] == x(F2, 4)
    r3 = rhs_assemble([(0, 1, 3), (1, 1, 5)], W, F2)
    assert r3.components[0] == x(F2, 3)
    assert r3.components[1] == x(F2, 10)


def test_rhs_rejects_bad_terms():
    W = WittCtx(2, 2)
    with pytest.raises(WittError):
        rhs_assemble([(-1, 1, 3)], W, F2)
    with pytest.raises(WittError):
        rhs_assemble([(0, 0, 3)], W, F2)


def test_universal_vs_concrete_cross_check():
    # witt_add agrees with direct evaluation of the cached universal polynomials
    W = WittCtx(2, 3)
    S = addition_polynomials(2, 3)
    u = rhs_assemble([(0, 1, 3), (0, 1, 1)], W, F2)
    v = rhs_assemble([(0, 1, 5)], W, F2)
    s = witt_add(u, v)
    vals = list(u.components) + list(v.components)
    for i in range(3):
        assert S[i].evaluate(vals, F2) == s.components[i]


def test_extension_field_witt_add():
    F4 = field(2, 2)
    t = F4.gen()
    W = WittCtx(2, 2)
    u = teichmuller(W, SparsePoly.x_power(F4, 3, t))
    v = teichmuller(W, SparsePoly.x_power(F4, 1, t))
    s = witt_add(u, v)
    # second component is product of the Teichmuller inputs: t*t*x^4
    assert s.components[1] == SparsePoly.x_power(F4, 4, t * t)


def test_length_mismatch_rejected():
    u = teichmuller(WittCtx(2, 2), x(F2, 1))
    v = teichmuller(WittCtx(2, 3), x(F2, 1))
    with pytest.raises(WittError):
        u + v


def test_length_caps():
    with pytest.raises(WittError):
        addition_polynomials(7, 3)
    with pytest.raises(WittError):
        peel_polynomials(3, 7)
    WittCtx(7, 5)  # concrete arithmetic beyond the universal cap is allowed


def test_disk_cache_roundtrip(tmp_path):
    a1 = addition_polynomials(3, 3, cache_dir=tmp_path)
    assert (tmp_path / "witt_add_p3_len3.txt").exists()
    import zptower.witt as witt_mod
    witt_mod._UNIVERSAL_MEM.clear()
    a2 = addition_polynomials(3, 3, cache_dir=tmp_path)
    assert a1 == a2
    # header mismatch forces recompute instead of loading garbage
    (tmp_path / "witt_peel_p2_len2.txt").write_text("# wrong header\n1 0\n")
    witt_mod._UNIVERSAL_MEM.clear()
    g = peel_polynomials(2, 2, cache_dir=tmp_path)
    assert g[1].as_dict() == {(2,): 1, (3,): 1}


def test_truncated_universal_cache_is_a_miss(tmp_path, monkeypatch):
    import zptower.witt as witt_mod
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

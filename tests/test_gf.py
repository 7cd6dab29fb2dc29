import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle import elements, gen, random_element
from zptower.gf import FieldCtx, FieldError, default_modulus, field, parse_element

FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
          (2, 2), (2, 3), (2, 8), (3, 2), (3, 4), (5, 2), (7, 2), (13, 2)]


def test_prime_field_examples():
    F3 = field(3)
    assert (F3.elem(2) + F3.elem(2)) == F3.elem(1)
    assert F3.elem(2).inverse() == F3.elem(2)


def test_gf4_modulus_and_product():
    F4 = field(2, 2)
    assert F4.modulus == (1, 1)  # t^2 + t + 1
    t = gen(F4)
    assert t * t == F4.elem([1, 1])


def test_frobenius_examples():
    F3 = field(3)
    assert F3.elem(2).frobenius_inverse() == F3.elem(2)
    F4 = field(2, 2)
    assert gen(F4).frobenius_inverse() == F4.elem([1, 1])  # sigma^-1 = sigma: t -> t^2
    F9 = field(3, 2)
    assert F9.modulus == (1, 0)  # t^2 + 1
    t9 = gen(F9)
    assert (t9 ** 3).frobenius_inverse() == t9


def test_inversion_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        field(5).elem(0).inverse()


def test_unsupported_parameters_rejected():
    with pytest.raises(FieldError):
        field(17)
    with pytest.raises(FieldError):
        field(2, 9)
    with pytest.raises(FieldError):
        FieldCtx(2, 2, (0, 1))  # t^2 + t is reducible


@pytest.mark.parametrize("p,k", FIELDS)
def test_frobenius_roundtrip_bulk(p, k):
    # sigma^-1 then sigma is the identity on >= 10^3 random elements per field
    F = field(p, k)
    rng = np.random.default_rng(p * 100 + k)
    for _ in range(1000):
        a = random_element(F, rng)
        assert a.frobenius_inverse() ** p == a
        assert (a ** p).frobenius_inverse() == a


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (5, 2)])
def test_frobenius_is_field_automorphism(p, k):
    F = field(p, k)
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b = random_element(F, rng), random_element(F, rng)
        assert (a + b).frobenius_inverse() == a.frobenius_inverse() + b.frobenius_inverse()
        assert (a * b).frobenius_inverse() == a.frobenius_inverse() * b.frobenius_inverse()
    # sigma^-k = identity
    for a in elements(F):
        x = a
        for _ in range(k):
            x = x.frobenius_inverse()
        assert x == a


@given(st.integers(0, 3 ** 4 - 1), st.integers(0, 3 ** 4 - 1), st.integers(0, 3 ** 4 - 1))
@settings(max_examples=60, deadline=None)
def test_field_axioms_gf81(ca, cb, cc):
    F = field(3, 4)

    def elem(code):
        coeffs = []
        for _ in range(4):
            coeffs.append(code % 3)
            code //= 3
        return F.elem(coeffs)

    a, b, c = elem(ca), elem(cb), elem(cc)
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    if not a.is_zero():
        assert a * a.inverse() == 1


def test_exhaustive_small_field_inverses():
    for p, k in [(2, 2), (3, 2), (2, 3)]:
        F = field(p, k)
        for a in elements(F):
            if not a.is_zero():
                assert a * a.inverse() == 1


def test_deterministic_default_moduli():
    # recomputation picks the same (least) irreducible every time
    for p, k in [(2, 4), (3, 3), (5, 2), (13, 2)]:
        assert default_modulus(p, k) == default_modulus(p, k)


def test_serialization_roundtrip():
    F9 = field(3, 2)
    a = F9.elem([2, 1])
    assert parse_element(F9, a.serialize()) == a
    F5 = field(5)
    assert field(5).elem(3).serialize() == 3
    assert parse_element(F5, 3) == F5.elem(3)


def test_frob_matrices_match_elementwise_power():
    # sigma^-1 as a GF(p) matrix: the semilinear block of the element 1
    for F in (field(3), field(2, 3), field(3, 2)):
        Minv = F.semilinear_blocks(np.array([F.one().coeffs]))[0]
        for a in elements(F):
            assert tuple((Minv @ np.array(a.coeffs)) % F.p) == a.frobenius_inverse().coeffs


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2)])
def test_extension_products_match_field_arithmetic(p, k, rng):
    # every product by GF(p) matrices built from the reduction rows of t^k..
    # (the batched x-convolution _xconv, Slab.scale, the blocks of restricted
    # matrices) against FieldElement arithmetic (k = 3 uses two reduction rows)
    from conftest import restrict, semilinear_image
    from zptower._slab import Slab, _xconv

    F = field(p, k)

    def el(vec):
        return F.elem(tuple(int(v) for v in vec))

    u, v = rng.integers(0, p, size=(k, 6)), rng.integers(0, p, size=(k, 5))
    got = np.zeros((1, k, 10), dtype=np.int64)
    _xconv([F.mul_matrices(u[None])], v[None, None], np.zeros((1, 1), dtype=np.int64), got, p)
    got = got[0] % p
    for n in range(10):
        want = sum((el(u[:, i]) * el(v[:, n - i]) for i in range(6) if 0 <= n - i < 5),
                   F.elem(0))
        assert el(got[:, n]) == want

    c = random_element(F, rng)
    arr = rng.integers(0, p, size=(p, k, 4))
    scaled = Slab(F, 1, arr).scale(c).arr
    for s in range(p):
        for x in range(4):
            assert el(scaled[s, :, x]) == el(arr[s, :, x]) * c

    # restricted matrices compose the semilinear maps:
    # (A @ B) c = A sigma^-1(B sigma^-1(c))
    a, b = rng.integers(0, p, size=(5, 4, k)), rng.integers(0, p, size=(4, 3, k))
    C = restrict(F, a) @ restrict(F, b)
    for _ in range(4):
        c = [random_element(F, rng) for _ in range(3)]
        got = C.data @ np.array([e.coeffs for e in c]).ravel() % p
        assert [el(v) for v in got.reshape(5, k)] == semilinear_image(F, a, semilinear_image(F, b, c))

import pytest

from oracle import (SparsePoly, from_sparse, gen, infinity_valuation, poly_pth_power,
                    reduce_to_monomial_basis, to_sparse)
from zptower.gf import field
from zptower._slab import Monomial, PolyError
from zptower.tower import TowerSpec, TowerState, monomial_with_pole_order, reduce_slab

F2, F3 = field(2), field(3)


def x(ctx, n):
    return SparsePoly.x_power(ctx, n)


def standard_form(f: SparsePoly, state: TowerState) -> SparsePoly:
    """reduce_slab on a raw layer f_m (a polynomial at level m - 1) against the
    standard-form layers below it, with the lower break d_m as target."""
    m = f.level + 1
    ram = state.ensure_ram(m)
    state.build_to(m - 1)
    out, _ = reduce_slab(from_sparse(f), state, ram.d[:m - 1], ram.d[m - 1])
    return to_sparse(out)


def test_monomial_with_pole_order_examples():
    assert monomial_with_pole_order(8, 2, (5,), 1) == Monomial(4, (0,))
    assert monomial_with_pole_order(5, 2, (5,), 1) == Monomial(0, (1,))
    assert monomial_with_pole_order(10, 3, (7,), 1) == Monomial(1, (1,))


def test_monomial_with_pole_order_no_representation():
    with pytest.raises(PolyError):
        monomial_with_pole_order(1, 2, (5,), 1)  # 2nu + 5a = 1 forces nu < 0
    with pytest.raises(PolyError):
        monomial_with_pole_order(-2, 2, (5,), 1)


def test_monomial_with_pole_order_two_levels():
    for w in range(17, 40):
        try:
            m = monomial_with_pole_order(w, 2, (5, 17), 2)
        except PolyError:
            continue
        assert m.nu * 4 + m.a[0] * 5 * 2 + m.a[1] * 17 == w


def test_to_standard_form_example():
    # raw second layer x^8 + (x^5+x^3) y1 has pole 16; one pass with z = x^4
    st = TowerState(TowerSpec.make(F2, [(0, 1, 5), (0, 1, 3)]))
    raw = x(F2, 8) + (x(F2, 5) + x(F2, 3)) * SparsePoly.variable(F2, 1)
    out = standard_form(raw, st)
    want = (x(F2, 5) + x(F2, 3)) * SparsePoly.variable(F2, 1) + x(F2, 4).at_level(1)
    assert out == want
    assert -infinity_valuation(out, 2, st.ram.d[:1], 1) == st.ram.d[1] == 15


def test_to_standard_form_already_standard():
    st = TowerState(TowerSpec.make(F2, [(0, 1, 3)]))
    f2 = x(F2, 3) * SparsePoly.variable(F2, 1)  # raw second layer, pole 9 = d(2)
    assert standard_form(f2, st) == f2


def test_post_invariant_many_specs():
    cases = [
        (TowerSpec.make(F2, [(0, 1, 7)]), 4),
        (TowerSpec.make(F2, [(0, 1, 9), (0, 1, 5), (0, 1, 3)]), 3),
        (TowerSpec.make(F3, [(0, 1, 5), (0, 2, 2)]), 3),
        (TowerSpec.make(F3, [(0, 1, 7), (1, 2, 2)]), 3),
        (TowerSpec.make(field(5), [(0, 1, 3)]), 2),
        (TowerSpec.make(field(2, 2), [(0, gen(field(2, 2)), 5)]), 3),
        # at level 3, a z^p reaches past f's x-length, so the reduction widens f
        (TowerSpec.make(F2, [(0, 1, 5), (1, 1, 3)]), 3),
    ]
    for spec, n in cases:
        st = TowerState(spec)
        st.build_to(n)
        for m in range(1, n + 1):
            assert (-infinity_valuation(to_sparse(st.layer_slab(m)), spec.p, st.ram.d, m - 1)
                    == st.ram.d[m - 1])


def test_artin_schreier_shift_invariance(rng):
    # shifting a layer by z^p - z for regular z changes nothing downstream
    from zptower.cartier import cartier_matrix
    from zptower.linalg import kernel_dim
    spec = TowerSpec.make(F3, [(0, 1, 5), (0, 2, 2)])
    st = TowerState(spec)
    st.build_to(2)
    a_plain = [kernel_dim(cartier_matrix(st, m).matrix) for m in (1, 2)]
    # rebuild level 2 from a p-shifted presentation of f_2
    f2 = to_sparse(st.layer_slab(2))
    z = SparsePoly.x_power(F3, 2, 2).at_level(1) + SparsePoly.variable(F3, 1)
    layers1 = [to_sparse(st.layer_slab(1))]
    shifted = f2 + reduce_to_monomial_basis(poly_pth_power(z), layers1) - z
    st2 = TowerState(spec)
    out = standard_form(shifted, st2)
    assert -infinity_valuation(out, 3, st2.ram.d[:1], 1) == st2.ram.d[1]
    # the standard forms may differ, but the kernel dimensions cannot
    assert a_plain == [2, 19]

import numpy as np
import pytest

from oracle import infinity_valuation, to_sparse
import zptower.tower as tower
from zptower.gf import InternalConsistencyError, field
from zptower.tower import (RamificationData, TowerError, TowerSpec, TowerState,
                           breaks_and_conductor, classify_monodromy, closed_form_basic,
                           coefficient_valuations, lower_breaks, p_rank)

F2, F3 = field(2), field(3)


def test_normalize_examples():
    s = TowerSpec.make(F2, [(0, 1, 6)]).normalize()
    assert [(t.v, t.i) for t in s.terms] == [(0, 3)]
    c = F3.elem(2)
    s = TowerSpec.make(F3, [(1, c, 9)]).normalize()
    t = s.terms[0]
    assert (t.v, t.i) == (1, 1)
    assert t.c == c.frobenius_inverse().frobenius_inverse()
    s = TowerSpec.make(F2, [(0, 1, 3)]).normalize()
    assert [(t.v, t.i) for t in s.terms] == [(0, 3)]


def test_normalization_preserves_invariants():
    # the reduced exponent generates the same extension, so all breaks agree
    a = TowerSpec.make(F2, [(0, 1, 12), (0, 1, 5)])
    b = TowerSpec.make(F2, [(0, 1, 3), (0, 1, 5)])
    assert breaks_and_conductor(a, 3) == breaks_and_conductor(b, 3)
    assert a.normalize().spec_hash() == b.normalize().spec_hash()


def test_coefficient_valuations():
    assert coefficient_valuations(TowerSpec.make(F2, [(0, 1, 3)]), 2) == {3: 0}
    got = coefficient_valuations(TowerSpec.make(F2, [(1, 1, 5), (0, 1, 3)]), 2)
    assert got == {3: 0, 5: 1}
    # cancellation: [1] + [1] = (0, 1) in W_2(GF(2))
    got = coefficient_valuations(TowerSpec.make(F2, [(0, 1, 3), (0, 1, 3), (0, 1, 5)]), 2)
    assert got == {3: 1, 5: 0}


def test_breaks_and_conductor():
    s, u = breaks_and_conductor(TowerSpec.make(F3, [(0, 1, 7)]), 3)
    assert s == [7, 21, 63] and u == [8, 22, 64]
    # mixed valuations: conductor formula max(3*2^(m-1), 5*2^(m-2))
    s, _ = breaks_and_conductor(TowerSpec.make(F2, [(0, 1, 3), (1, 1, 5)]), 3)
    assert s == [3, 6, 12]
    s, _ = breaks_and_conductor(TowerSpec.make(F2, [(0, 1, 3)]), 1)
    assert s == [3]


def test_not_totally_ramified_error():
    spec = TowerSpec.make(F2, [(0, 1, 3), (0, 1, 3)])  # cancels at level 2
    with pytest.raises(TowerError, match="not totally ramified"):
        breaks_and_conductor(spec, 2)
    with pytest.raises(TowerError, match="not totally ramified"):
        breaks_and_conductor(TowerSpec.make(F2, [(1, 1, 3)]), 1)


def test_lower_breaks():
    assert lower_breaks(3, [7, 21, 63]) == [7, 49, 427]
    assert lower_breaks(2, [7, 14, 28]) == [7, 21, 77]
    assert lower_breaks(2, [7]) == [7]
    with pytest.raises(TowerError):
        lower_breaks(2, [7, 13])  # s(2) < p*s(1)


def test_genus_and_p_rank():
    spec37 = TowerSpec.make(F3, [(0, 1, 7)])
    assert RamificationData.compute(spec37, 4).g == (6, 66, 624, 5700)
    spec27 = TowerSpec.make(F2, [(0, 1, 7)])
    assert [TowerState(spec27).genus(n) for n in (0, 1, 2, 3)] == [0, 3, 16, 70]
    assert p_rank(spec37, 4) == 0


def test_closed_form_basic():
    assert closed_form_basic(3, 7, 2) == (66, 49, 21)
    assert closed_form_basic(2, 7, 1) == (3, 7, 7)
    assert closed_form_basic(2, 21, 2)[0] == 51
    with pytest.raises(TowerError):
        closed_form_basic(3, 6, 2)


def test_closed_form_matches_general_formulas():
    for p, d in [(2, 7), (2, 21), (3, 5), (3, 23), (5, 4), (13, 3)]:
        F = field(p)
        spec = TowerSpec.make(F, [(0, 1, d)])
        ram = RamificationData.compute(spec, 5 if p < 5 else 2)
        for n in range(1, ram.levels + 1):
            g, dl, s = closed_form_basic(p, d, n)
            assert (g, dl, s) == (ram.g[n - 1], ram.d[n - 1], ram.s[n - 1])


def test_fixture_columns_match_closed_forms():
    from zptower.analysis import anumber_basic_p2
    from zptower.fixtures import SUITES
    checked = []
    for name, fx in SUITES.items():
        if "genus" not in fx:
            continue
        towers = fx["towers"] if fx["kind"] == "tower_family" else [fx]
        for tower in towers:
            spec = TowerSpec.make(field(fx["p"]), tower["terms"]).normalize()
            assert spec.is_basic
            d = spec.ramification_invariant
            levels = range(1, len(fx["genus"]) + 1)
            assert fx["genus"] == [closed_form_basic(fx["p"], d, n)[0] for n in levels], name
            if fx["p"] == 2:
                a1 = tower["a"][1]
                assert a1 == [anumber_basic_p2(d, n) for n in range(1, len(a1) + 1)], name
        checked.append(name)
    assert {"p3d7", "p3d5", "p3d5-variant", "p2d7", "p2d21", "p2d21-variant"} <= set(checked)
    # the deepest p=2 values, never recomputed by the linear algebra
    assert SUITES["p2d7"]["a"][1][6] == 4779 and SUITES["p2d21"]["a"][1][6] == 14338


def test_lower_break_growth_invariant():
    ram = RamificationData.compute(TowerSpec.make(F2, [(0, 1, 9), (1, 1, 11)]), 5)
    for n in range(1, 5):
        assert ram.d[n] >= (4 - 2 + 1) * ram.d[n - 1]


@pytest.mark.parametrize("p, d", [(3, (6,)), (2, (3, 5))], ids=["divisible-by-p", "growth"])
def test_ramification_data_checks_lower_breaks(monkeypatch, p, d):
    # d_1 = 6 is divisible by 3; d_2 = 5 is below (p^2 - p + 1) d_1 = 9
    monkeypatch.setattr(tower, "lower_breaks", lambda p, s: d)
    spec = TowerSpec.make(field(p), [(0, 1, 7)])
    with pytest.raises(InternalConsistencyError):
        RamificationData.compute(spec, len(d))


def test_classify_monodromy():
    assert classify_monodromy(TowerSpec.make(F3, [(0, 1, 7)]), 5).kind == "stable"
    mc = classify_monodromy(TowerSpec.make(F3, [(0, 1, 7)]), 5)
    assert mc.d == 7 and mc.c[0] == 0
    d = 5
    terms = [(0, 1, d)] + [(2 * i - 1, 1, (d + 2) * 2 ** (2 * i - 1) - 1) for i in (1, 2, 3)]
    mcp = classify_monodromy(TowerSpec.make(F2, terms), 6)
    assert mcp.kind == "periodic" and mcp.period == 2 and mcp.d == d + 2
    assert mcp.c[1] == -2 and mcp.c[0] == -1
    with pytest.raises(TowerError):
        classify_monodromy(TowerSpec.make(F3, [(0, 1, 7)]), 3)


def test_tower_state_standard_form_poles():
    # every built layer has pole order exactly the lower break
    for spec, n in [(TowerSpec.make(F3, [(0, 1, 7)]), 3),
                    (TowerSpec.make(F2, [(0, 1, 9), (0, 1, 3)]), 4),
                    (TowerSpec.make(F2, [(0, 1, 3), (1, 1, 5)]), 3)]:
        st = TowerState(spec)
        st.build_to(n)
        for m in range(1, n + 1):
            assert (-infinity_valuation(to_sparse(st.layer_slab(m)), spec.p, st.ram.d, m - 1)
                    == st.ram.d[m - 1])


@pytest.mark.parametrize("spec, n", [
    (TowerSpec.make(F2, [(0, 1, 5), (0, 1, 3)]), 4),
    (TowerSpec.make(F3, [(0, 1, 7), (0, 2, 5)]), 3),
    (TowerSpec.make(field(2, 2), [(0, field(2, 2).gen(), 5), (0, 1, 3)]), 3),
], ids=["p2", "p3", "gf4"])
def test_incremental_build_matches_one_shot(spec, n):
    steps = TowerState(spec)
    for m in (1, 2, n):
        steps.build_to(m)
    once = TowerState(spec).build_to(n)
    for got, want in ((steps.layers, once.layers), (steps.subs, once.subs)):
        assert len(got) == len(want) == n
        for a, b in zip(got, want):
            assert a.level == b.level and np.array_equal(a.arr, b.arr)


def test_spec_hash_ignores_name_and_order():
    a = TowerSpec.make(F3, [(0, 1, 7), (0, 2, 5)], name="one")
    b = TowerSpec.make(F3, [(0, 2, 5), (0, 1, 7)], name="two")
    assert a.spec_hash() == b.spec_hash()
    c = TowerSpec.make(F3, [(0, 1, 7)])
    assert a.spec_hash() != c.spec_hash()


def test_serialize_roundtrip():
    from zptower.cli import spec_from_dict
    spec = TowerSpec.make(field(2, 2), [(0, field(2, 2).gen(), 5), (1, 1, 3)], name="w")
    again = spec_from_dict(spec.serialize())
    assert again.spec_hash() == spec.spec_hash()

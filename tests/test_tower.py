import hashlib

import numpy as np
import pytest

from oracle import gen, infinity_valuation, to_sparse
import zptower.tower as tower
from zptower import _slab
from zptower.fixtures import SUITES
from zptower.gf import InternalConsistencyError, field
from zptower.tower import (RamificationData, TowerError, TowerSpec, TowerState,
                           classify_monodromy, closed_form_basic, coefficient_valuations,
                           lower_breaks, upper_breaks)

F2, F3 = field(2), field(3)


def test_normalize_examples():
    # a spec is normalized when it is made: exponents prime to p, terms sorted
    s = TowerSpec.make(F2, [(0, 1, 6)])
    assert [(t.v, t.i) for t in s.terms] == [(0, 3)]
    c = F3.elem(2)
    s = TowerSpec.make(F3, [(1, c, 9)])
    t = s.terms[0]
    assert (t.v, t.i) == (1, 1)
    assert t.c == c.frobenius_inverse().frobenius_inverse()
    s = TowerSpec.make(F2, [(0, 1, 3)])
    assert [(t.v, t.i) for t in s.terms] == [(0, 3)]
    s = TowerSpec.make(F3, [(0, 1, 2), (0, 2, 7), (0, 1, 15)])
    assert [(t.v, t.c.to_int(), t.i) for t in s.terms] == [(0, 1, 2), (0, 1, 5), (0, 2, 7)]


def test_normalization_preserves_invariants():
    # the reduced exponent generates the same extension, so all breaks agree
    a = TowerSpec.make(F2, [(0, 1, 12), (0, 1, 5)])
    b = TowerSpec.make(F2, [(0, 1, 3), (0, 1, 5)])
    assert upper_breaks(a, 3) == upper_breaks(b, 3)
    assert a.spec_hash() == b.spec_hash()


@pytest.mark.parametrize("F,raw,reduced", [
    (F2, [(0, 1, 5), (0, 1, 12)], [(0, 1, 3), (0, 1, 5)]),
    (F3, [(0, 2, 21), (0, 1, 5), (1, 1, 18)], [(1, 1, 2), (0, 1, 5), (0, 2, 7)]),
    (field(2, 2), [(0, (0, 1), 10), (0, 1, 3)], [(0, 1, 3), (0, (1, 1), 5)]),
], ids=["F2", "F3", "GF4"])
def test_spec_with_exponents_divisible_by_p_is_the_reduced_spec(F, raw, reduced):
    # both constructors give the reduced spec's terms, hash and breaks, with no
    # normalize step for a caller to forget
    want = TowerSpec.make(F, reduced)
    made = TowerSpec.make(F, raw)
    direct = TowerSpec(F, tuple(tower.Term(v, F.elem(c), i) for v, c, i in raw))
    for spec in (made, direct):
        assert all(t.i % F.p for t in spec.terms)
        assert spec.terms == want.terms and spec.spec_hash() == want.spec_hash()
        assert RamificationData.compute(spec, 3) == RamificationData.compute(want, 3)
        assert spec.ramification_invariant == want.ramification_invariant


def test_coefficient_valuations():
    assert coefficient_valuations(TowerSpec.make(F2, [(0, 1, 3)]), 2) == {3: 0}
    got = coefficient_valuations(TowerSpec.make(F2, [(1, 1, 5), (0, 1, 3)]), 2)
    assert got == {3: 0, 5: 1}
    # cancellation: [1] + [1] = (0, 1) in W_2(GF(2))
    got = coefficient_valuations(TowerSpec.make(F2, [(0, 1, 3), (0, 1, 3), (0, 1, 5)]), 2)
    assert got == {3: 1, 5: 0}


def test_upper_breaks():
    spec = TowerSpec.make(F3, [(0, 1, 7)])
    assert upper_breaks(spec, 3) == [7, 21, 63]
    assert RamificationData.compute(spec, 3).u == (8, 22, 64)  # the conductor is s + 1
    # mixed valuations: conductor formula max(3*2^(m-1), 5*2^(m-2))
    assert upper_breaks(TowerSpec.make(F2, [(0, 1, 3), (1, 1, 5)]), 3) == [3, 6, 12]
    assert upper_breaks(TowerSpec.make(F2, [(0, 1, 3)]), 1) == [3]


def test_not_totally_ramified_error():
    spec = TowerSpec.make(F2, [(0, 1, 3), (0, 1, 3)])  # cancels at level 2
    with pytest.raises(TowerError, match="not totally ramified"):
        upper_breaks(spec, 2)
    with pytest.raises(TowerError, match="not totally ramified"):
        upper_breaks(TowerSpec.make(F2, [(1, 1, 3)]), 1)


def test_lower_breaks():
    assert lower_breaks(3, [7, 21, 63]) == [7, 49, 427]
    assert lower_breaks(2, [7, 14, 28]) == [7, 21, 77]
    assert lower_breaks(2, [7]) == [7]


def test_genus():
    spec37 = TowerSpec.make(F3, [(0, 1, 7)])
    assert RamificationData.compute(spec37, 4).g == (6, 66, 624, 5700)
    spec27 = TowerSpec.make(F2, [(0, 1, 7)])
    assert [TowerState(spec27).genus(n) for n in (0, 1, 2, 3)] == [0, 3, 16, 70]


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
    checked = []
    for name, fx in SUITES.items():
        if "genus" not in fx:
            continue
        towers = fx["towers"] if fx["kind"] == "tower_family" else [fx]
        for tower in towers:
            spec = TowerSpec.make(field(fx["p"]), tower["terms"])
            assert spec.is_basic
            d = spec.ramification_invariant
            levels = range(1, len(fx["genus"]) + 1)
            assert fx["genus"] == [closed_form_basic(fx["p"], d, n)[0] for n in levels], name
            if fx["p"] == 2:
                a1 = tower["a"][1]
                assert a1 == [anumber_basic_p2(d, n) for n in range(1, len(a1) + 1)], name
        checked.append(name)
    assert {"p3d7", "p3d5", "p3d5-variant", "p2d7", "p2d21", "p2d21-variant"} <= set(checked)
    # the deepest p=2 values: p2d7's is recomputed by no test, p2d21's only by the deep lane
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


@pytest.mark.parametrize("s, match", [([7, 13], "malformed"), ([-3], "not positive")],
                         ids=["malformed", "nonpositive"])
def test_ramification_data_checks_upper_breaks(monkeypatch, s, match):
    # s(2) = 13 is below p s(1) = 14; s(1) = -3 gives the lower break d_1 = -3
    monkeypatch.setattr(tower, "upper_breaks", lambda spec, n: s)
    with pytest.raises(InternalConsistencyError, match=match):
        RamificationData.compute(TowerSpec.make(F2, [(0, 1, 7)]), len(s))


def test_classify_monodromy():
    mc = classify_monodromy(3, RamificationData.compute(TowerSpec.make(F3, [(0, 1, 7)]), 5).s)
    assert mc.kind == "stable" and mc.d == 7 and mc.c[0] == 0
    d = 5
    terms = [(0, 1, d)] + [(2 * i - 1, 1, (d + 2) * 2 ** (2 * i - 1) - 1) for i in (1, 2, 3)]
    mcp = classify_monodromy(2, RamificationData.compute(TowerSpec.make(F2, terms), 6).s)
    assert mcp.kind == "periodic" and mcp.period == 2 and mcp.d == d + 2
    assert mcp.c[1] == -2 and mcp.c[0] == -1
    with pytest.raises(TowerError):
        classify_monodromy(3, [7, 21, 63])


def test_classify_monodromy_checks_the_last_pair():
    # s(4) = s(3) breaks strict growth in the last pair of levels
    with pytest.raises(InternalConsistencyError):
        classify_monodromy(3, [7, 21, 63, 63])


@pytest.mark.parametrize("s,text", [
    ([7, 22, 63, 190, 567, 1702],
     "periodic (m=2): s(n) = c(n) + 7 * p^(n-1) with n%2=0: 1, n%2=1: 0"),
    ([7, 22, 70, 215], "unclassified"),
], ids=["periodic", "unclassified"])
def test_monodromy_class_descriptions(s, text):
    assert classify_monodromy(3, s).describe() == text


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
    (TowerSpec.make(field(2, 2), [(0, gen(field(2, 2)), 5), (0, 1, 3)]), 3),
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
    # the spec-file form of a GF(4) spec, modulus included, reads back as that spec
    from zptower.cli import spec_from_dict
    spec = TowerSpec.make(field(2, 2), [(0, gen(field(2, 2)), 5), (1, 1, 3)], name="w")
    again = spec_from_dict({"p": 2, "k": 2, "modulus": [1, 1], "name": "w",
                            "terms": [{"v": 0, "c": [0, 1], "i": 5},
                                      {"v": 1, "c": [1, 0], "i": 3}]})
    assert again.spec_hash() == spec.spec_hash() and again.name == "w"


def test_horner_depths_are_batched(monkeypatch):
    # bottom-up Horner: building p2d21 to level 4 reduces the products of each
    # depth of each peel polynomial in one _finish_reduce (levels 3 and 4
    # have one and two depths of products), besides those of the powers of u_j
    reductions, inside = [], []
    real_pairs, real_reduce = tower.mul_pairs, _slab._finish_reduce

    def pairs(*args):
        inside.append(True)
        try:
            return real_pairs(*args)
        finally:
            inside.pop()

    def reduce(*args):
        if inside:
            reductions.append(args[-1])
        return real_reduce(*args)
    monkeypatch.setattr(tower, "mul_pairs", pairs)
    monkeypatch.setattr(_slab, "_finish_reduce", reduce)
    st = TowerState(TowerSpec.make(F2, SUITES["p2d21"]["terms"]))
    st.build_to(4)
    assert len(reductions) <= 3, reductions


# sha256 over the shapes and int64 cells of every layer, then every substitution,
# recorded before the standard-form reduction worked in place on one array;
# p3d7-seed1, perfbench's p3d7-L4 seed-1 tower, was recorded before the peel
# polynomials crossed to tower as arrays: its level-4 substitution has 122
# cells, so the Horner evaluation meets shifted variables at p = 3
LAYER_DIGESTS = {
    "p2d21": (5, "153c7504a6091217c327f51c101328db41819aa0783d8ee1eed04364af9646e1"),
    "p3d7": (4, "c99763f12a03bc8384b3da5835ffffb8d61ead866cfbf7d8cd11ad9e819003c5"),
    "p3d7-seed1": (4, "4b1544c475f1a8588d7927902040a3f214a221161025e774f9a55c553f477dd7"),
    "gf4": (4, "07f1ce2478ff8260c4250f6845d7f7dd205550b5e92135f829ac988e7afd7b78"),
    "gf9": (3, "63f3910dcbfd283025bfca8b4e9738e618925e5ea6a85b9c608c31ed8525311b"),
}
# the same for the deep lane: about 8 s for p3d7-seed1 and 20-30 s for p2d21
# at level 7, peel included, on a 2-vCPU host
DEEP_LAYER_DIGESTS = {
    "p2d21": (7, "85b0190e428ad598ad885541def64fc09582041df1e6c61426b0cf2d7bb657c6"),
    "p3d7-seed1": (5, "48b0e565c0a833ba82b5c71877cdca49308115eb0b739e8285eaea6dab4cc9dc"),
}


def _layer_digest(name: str, n: int) -> str:
    from zptower.fixtures import SUITES
    F4, F9 = field(2, 2), field(3, 2)
    F, terms = {"p2d21": (F2, SUITES["p2d21"]["terms"]), "p3d7": (F3, SUITES["p3d7"]["terms"]),
                "p3d7-seed1": (F3, [(0, 1, 7), (0, 1, 5), (0, 1, 2)]),
                "gf4": (F4, [(0, gen(F4), 5), (0, 1, 3)]),
                "gf9": (F9, [(0, gen(F9), 7), (0, 1, 5)])}[name]
    st = TowerState(TowerSpec.make(F, terms))
    st.build_to(n)
    h = hashlib.sha256()
    for slab in st.layers + st.subs:
        h.update(np.array(slab.arr.shape, dtype="<i8").tobytes())
        h.update(slab.arr.astype("<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(LAYER_DIGESTS))
def test_layers_and_substitutions_match_recorded(name):
    n, want = LAYER_DIGESTS[name]
    assert _layer_digest(name, n) == want


@pytest.mark.deep
@pytest.mark.parametrize("name", sorted(DEEP_LAYER_DIGESTS))
def test_deep_layers_and_substitutions_match_recorded(name):
    n, want = DEEP_LAYER_DIGESTS[name]
    assert _layer_digest(name, n) == want

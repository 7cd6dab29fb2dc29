import math
from fractions import Fraction as Fr

import pytest

from oracle import (delta_values, elementary_divisors, estimate_lambda, fit_value, gen,
                    kernel2_level2_p2, kernel_genus_ratio_gap, ramification_hypothesis,
                    trace_bound_check)
from zptower.analysis import (AnalysisError, alpha1_formula, anumber_basic_p2, anumber_cover_p2,
                              constants, discrepancies, fit_periodic, kernel_power_level1_p2)
from zptower.gf import field
from zptower.tower import RamificationData, TowerSpec, TowerState

F2, F3 = field(2), field(3)

# seven-level reference series for the d=21 characteristic-2 tower pair
A21 = {
    1: [5, 16, 58, 226, 898, 3586, 14338],
    2: [8, 25, 94, 363, 1440, 5741, 22946],
    3: [9, 31, 116, 452, 1796, 7172, 28676],
    4: [10, 36, 131, 517, 2055, 8198, 32776],
    5: [10, 40, 142, 562, 2242, 8962, 35842],
    9: [10, 48, 175, 680, 2696, 10760, 43016],
}


def test_constants_examples():
    assert constants(1, 2).alpha == Fr(1, 24)
    c = constants(2, 2)
    assert 21 * c.alpha == Fr(7, 5) and c.m == 2
    c9 = constants(9, 2)
    assert 21 * c9.alpha == Fr(21, 8) and c9.m == 0
    with pytest.raises(AnalysisError):
        constants(0, 2)


def test_alpha1_closed_form_all_primes():
    for p in (2, 3, 5, 7, 11, 13):
        assert constants(1, p).alpha == alpha1_formula(p) == Fr(p - 1, 4 * p * (p + 1))


def test_delta_examples():
    assert delta_values([4, 25, 214, 1915, 17224], 7, 3) == [4] * 5
    d5 = delta_values([2, 19, 154, 1369, 12304], 5, 3)
    assert d5 == [2, 4, 4, 4, 4]
    zeros = delta_values([0, 0], 7, 3)
    assert zeros == [-Fr(7, 24) * (9 - 9), -Fr(7, 24) * (81 - 9)]


def test_fixture_delta_discrepancies_are_those_of_their_a1_column():
    # a suite's delta_discrepancies come from its own a^(1) column, which
    # verify compares exactly with the computed values level by level
    from zptower.fixtures import SUITES
    checked = [name for name, fx in SUITES.items() if "delta_discrepancies" in fx]
    for name in checked:
        fx = SUITES[name]
        d = TowerSpec.make(field(fx["p"]), fx["terms"]).ramification_invariant
        deltas = delta_values(fx["a"][1], d, fx["p"])
        assert discrepancies(deltas, 1) == fx["delta_discrepancies"], name
    assert checked == ["p3d5"]


def test_discrepancies_examples():
    assert discrepancies([2, 4, 4, 4, 4], 1) == {2}
    assert discrepancies([1, 1, 1, 1], 1) == set()
    assert discrepancies([12, 14, 16, 16, 16], 1) == {2, 3}
    assert discrepancies([1, 2, 1, 2, 1], 2) == set()
    with pytest.raises(AnalysisError):
        discrepancies([1, 2], 0)


def test_estimate_lambda_examples():
    assert estimate_lambda(A21[3], 21, 2, 3) == 0 == fit_periodic(A21[3], 21, 2, 3).lam
    assert estimate_lambda(A21[2], 21, 2, 2) == 1 == fit_periodic(A21[2], 21, 2, 2).lam
    with pytest.raises(AnalysisError):
        estimate_lambda(A21[9], 21, 2, 9)  # m(9,2) = 0
    with pytest.raises(AnalysisError):
        estimate_lambda([1, 2], 21, 2, 2)


def test_fit_examples():
    fit = fit_periodic([2, 5, 19, 75, 299, 1195, 4779], 7, 2, 1)
    assert fit.lam == 0 and fit.period == 1
    assert fit.c[0] == Fr(1, 3) and fit.valid_from == 2 and fit.fitted
    # equivalently a(n) = (7/24)(2^2n - 4) + a(1) - 1/2 from level 2
    assert fit.c[0] == Fr(2) - Fr(1, 2) - Fr(7, 24) * 4

    fit3 = fit_periodic(A21[3], 21, 2, 3)
    assert (fit3.lam, fit3.period, fit3.c[0]) == (0, 1, 4)
    assert fit3.valid_from == 3 and fit3.discrepancy_set == {2, 3}

    fit2 = fit_periodic(A21[2], 21, 2, 2)
    assert fit2.lam == 1 and fit2.period == 2
    assert fit2.c[1] == Fr(7, 5) and fit2.c[0] == Fr(3, 5)
    assert fit2.discrepancy_set == set() and fit2.valid_from == 1

    fit9 = fit_periodic(A21[9], 21, 2, 9)  # m = 0: trial periods
    assert fit9.period == 1 and fit9.lam == 0 and fit9.c[0] == 8
    assert fit9.valid_from == 4
    with pytest.raises(AnalysisError):
        fit_periodic([1, 2], 21, 2, 2)


def test_fit_synthetic_recovery():
    cc = constants(2, 3)
    synth = [math.floor(cc.alpha * 5 * 3 ** (2 * n)) + 2 * n + (7 if n % 2 else 3)
             for n in range(1, 8)]
    fs = fit_periodic(synth, 5, 3, 2)
    assert fs.lam == 2 and fs.period == 2 and fs.valid_from == 1 and fs.fitted
    for n in range(1, 8):
        assert fit_value(fs, n) == synth[n - 1]


def test_elementary_divisors():
    assert elementary_divisors((2, 3, 3, 3)) == [1, 1]
    assert elementary_divisors((1, 1)) == [1]
    assert elementary_divisors((1, 1, 1)) == [1]
    with pytest.raises(AnalysisError):
        elementary_divisors((2, 3))  # not stabilized


def test_p2_closed_forms():
    assert anumber_cover_p2([21]) == 5
    assert anumber_cover_p2([7]) == 2
    assert anumber_cover_p2([3, 3, 3]) == 3
    assert anumber_basic_p2(21, 2) == 16
    assert anumber_basic_p2(7, 2) == 5 and anumber_basic_p2(7, 3) == 19
    assert kernel_power_level1_p2([21], 2) == 8
    assert kernel_power_level1_p2([21], 1) == 5
    assert kernel2_level2_p2([21]) == 25
    with pytest.raises(AnalysisError):
        anumber_cover_p2([4])
    with pytest.raises(AnalysisError):
        kernel2_level2_p2([1, 1, 1, 1, 1, 1])  # hypothesis sum > -4 fails


def test_ramification_hypothesis():
    ram = RamificationData.compute(TowerSpec.make(F2, [(0, 1, 7)]), 3)
    rep = ramification_hypothesis(ram)
    assert rep.delta[1] == (21 - 11) - 4 == 6
    assert all(rep.holds)
    # basic towers in characteristic two satisfy it at every level
    for d in (3, 9, 21):
        ram = RamificationData.compute(TowerSpec.make(F2, [(0, 1, d)]), 4)
        assert all(ramification_hypothesis(ram).holds)
    # p > 2: holds for all computed levels of ramified basic towers
    ram3 = RamificationData.compute(TowerSpec.make(F3, [(0, 1, 5), (0, 2, 2)]), 4)
    assert all(ramification_hypothesis(ram3).holds)


def test_trace_bound_check_towers():
    for p, d in [(2, 7), (2, 3), (3, 7), (5, 11)]:
        st = TowerState(TowerSpec.make(field(p), [(0, 1, d)]))
        assert trace_bound_check(st).passed
    rep = trace_bound_check(TowerState(TowerSpec.make(F2, [(0, 1, 7)])))
    assert rep.kernel_dimension == 2
    assert not any(c.trace_poly.arr.any() for c in rep.checks)
    rep3 = trace_bound_check(TowerState(TowerSpec.make(F3, [(0, 1, 7)])))
    assert all(c.bound == 7 - 3 for c in rep3.checks)


def test_trace_bound_check_extension_fields():
    F4, F8, F9 = field(2, 2), field(2, 3), field(3, 2)
    t4, t8, t9 = gen(F4), gen(F8), gen(F9)
    for F, terms, dim in [(F4, [(0, t4, 7)], 2), (F4, [(0, t4, 5), (0, 1, 3)], 1),
                          (F9, [(0, t9, 7), (0, 1, 5)], 3), (F8, [(0, t8, 7), (0, 1, 3)], 2)]:
        rep = trace_bound_check(TowerState(TowerSpec.make(F, terms)))
        assert rep.passed and rep.kernel_dimension == dim


def test_ratio_gap():
    gap = kernel_genus_ratio_gap(1915, 5700, 1, 3)
    assert gap < Fr(2, 3 ** 4)

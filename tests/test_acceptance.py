"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single "ACCEPTANCE <n>: PASS" line (visible with
pytest -s); a failed assertion surfaces as the test failure instead.

Deep levels (beyond 5 for p = 3 and beyond 7 for p = 2) are intentionally out
of desk-scale scope: criterion 9 requires only that the supported-range caps
are enforced, which test_criterion_9 checks.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_poly
from oracle import (cartier_apply, delta_values, differential_basis, elementary_divisors,
                    fit_value, from_sparse, function_differential, kernel2_level2_p2,
                    kernel_genus_ratio_gap, kernels_to_stabilization, layers as sparse_layers,
                    reduce_to_monomial_basis, to_sparse, trace_bound_check)
from zptower.analysis import (alpha1_formula, anumber_basic_p2, anumber_cover_p2, constants,
                              discrepancies, fit_periodic, kernel_power_level1_p2)
from zptower.cartier import cartier_matrix
from zptower.fixtures import SUITES
from zptower.gf import field
from zptower.linalg import kernel_dim, twisted_power_kernels
from zptower.tower import TowerError, TowerSpec, TowerState

SEED = 20260810

_cache: dict = {}


def shared_tower(key, p, terms, n, powers=1):
    """Build once, reuse across criteria; returns (state, genus list, a^r rows)."""
    got = _cache.get(key)
    if got is not None and got[3] >= n and got[4] >= powers:
        return got[:3]
    state = TowerState(TowerSpec.make(field(p), terms, name=key))
    genera, rows = [], []
    for m in range(1, n + 1):
        cm = cartier_matrix(state, m)
        genera.append(cm.genus)
        rows.append(twisted_power_kernels(cm.matrix, powers))
    _cache[key] = (state, genera, rows, n, powers)
    return state, genera, rows


def random_basic_terms(rng, p, d):
    terms = [(0, 1, d)]
    for i in range(1, d):
        if i % p and rng.integers(0, 2):
            c = int(rng.integers(1, p))
            terms.append((0, c, i))
    return terms


def test_criterion_1_p3_d7_reproduction():
    t0 = time.perf_counter()
    _, genera, rows = shared_tower("p3d7", 3, [(0, 1, 7)], 4)
    elapsed = time.perf_counter() - t0
    assert genera == [6, 66, 624, 5700]
    assert [r[0] for r in rows] == [4, 25, 214, 1915]
    assert elapsed <= 600, f"criterion 1 runtime {elapsed:.1f}s exceeds 10 minutes"
    print(f"\nACCEPTANCE 1: PASS  genus (6,66,624,5700), a (4,25,214,1915), "
          f"{elapsed:.1f}s <= 600s")


def test_criterion_2_p3_d5_reproduction():
    _, genera, rows = shared_tower("p3d5", 3, [(0, 1, 5), (0, 2, 2)], 4)
    a = [r[0] for r in rows]
    assert a == [2, 19, 154, 1369]
    deltas = delta_values(a, 5, 3)
    assert deltas == [2, 4, 4, 4]
    assert discrepancies(deltas, 1) == {2}
    print("\nACCEPTANCE 2: PASS  a (2,19,154,1369), delta_5 (2,4,4,4), discrepancies {2}")


def test_criterion_3_p2_d7_any_basic_spec():
    rng = np.random.default_rng(SEED)
    expected = [2, 5, 19, 75, 299, 1195]
    specs = [[(0, 1, 7)], random_basic_terms(rng, 2, 7)]
    for idx, terms in enumerate(specs):
        _, _, rows = shared_tower(f"p2d7-{idx}", 2, terms, 6)
        assert [r[0] for r in rows] == expected, terms
    print(f"\nACCEPTANCE 3: PASS  {len(specs)} basic d=7 specs give a = {expected}")


def test_criterion_4_p2_d21_powers():
    _, genera, rows = shared_tower(
        "p2d21", 2, [(0, 1, 21), (0, 1, 19), (0, 1, 15), (0, 1, 13), (0, 1, 9)],
        4, powers=10)
    expected = SUITES["p2d21"]["a"]
    assert genera == SUITES["p2d21"]["genus"][:4]
    for r in range(1, 11):
        got = [rows[n][r - 1] for n in range(4)]
        assert got == expected[r][:4], (r, got)
    assert rows[1][2 - 1] == 25 and rows[2][3 - 1] == 116 and rows[3][5 - 1] == 562
    print("\nACCEPTANCE 4: PASS  a^(1..10) at levels 1-4 match, incl. "
          "a2(2)=25, a3(3)=116, a5(4)=562")


@pytest.mark.parametrize("name", ["p2d21", "p2d21-variant"])
def test_p2_d21_level5_powers_match_fixtures(name):
    fx = SUITES[name]
    cm = cartier_matrix(TowerState(TowerSpec.make(field(2), fx["terms"])), 5)
    assert cm.genus == fx["genus"][4]
    assert twisted_power_kernels(cm.matrix, 10) == [fx["a"][r][4] for r in range(1, 11)]


def test_p3_d5_level4_powers_match_fixtures():
    fx = SUITES["p3d5"]
    state, _, _ = shared_tower("p3d5", 3, [(0, 1, 5), (0, 2, 2)], 4)
    cm = cartier_matrix(state, 4)
    assert twisted_power_kernels(cm.matrix, 3) == [fx["a"][r][3] for r in (1, 2, 3)]


def test_criterion_5_proven_closed_forms():
    rng = np.random.default_rng(SEED + 1)
    # -- level-n a-number equality for random basic characteristic-2 towers.
    # The compact constant a(T(1)) - 1/2 is exact for d = 3 mod 4; for
    # d = 1 mod 4 the proven piecewise form (d/24) 2^2n + (d+3)/12 applies
    # (the two agree iff d = 3 mod 4; see the piecewise closed form).
    checked = 0
    d34 = [3, 7, 11, 15, 19, 23, 27, 31]
    d14 = [5, 9, 13, 17, 21, 25, 29]
    plan = [int(rng.choice(d34)) for _ in range(20)] + \
           [int(rng.choice(d14)) for _ in range(8)]
    for d in plan:
        terms = random_basic_terms(rng, 2, d)
        state = TowerState(TowerSpec.make(field(2), terms))
        a = [kernel_dim(cartier_matrix(state, m).matrix) for m in range(1, 6)]
        assert a[0] == anumber_cover_p2([d]), (d, terms)
        for n in range(2, 6):
            assert a[n - 1] == anumber_basic_p2(d, n), (d, n, terms)
            if d % 4 == 3:
                compact = Fraction(d, 24) * (2 ** (2 * n) - 4) + a[0] - Fraction(1, 2)
                assert a[n - 1] == compact, (d, n)
        checked += 1
    assert checked >= 20

    # -- level-1 kernel powers and the level-2 second-power closed form
    for d in (3, 5, 7, 9, 13, 21, 31):
        terms = random_basic_terms(rng, 2, d)
        state = TowerState(TowerSpec.make(field(2), terms))
        cm1 = cartier_matrix(state, 1)
        got = twisted_power_kernels(cm1.matrix, 5)
        for r in range(1, 6):
            assert got[r - 1] == kernel_power_level1_p2([d], r), (d, r)
        cm2 = cartier_matrix(state, 2)
        assert twisted_power_kernels(cm2.matrix, 2)[1] == kernel2_level2_p2([d]), d

    # -- trace-vanishing checks at level 1 for p in {2, 3, 5}, d <= 13
    trace_cases = 0
    for p in (2, 3, 5):
        for d in range(1, 14):
            if d % p == 0 or (p == 2 and d % 2 == 0):
                continue
            terms = random_basic_terms(rng, p, d)
            report = trace_bound_check(TowerState(TowerSpec.make(field(p), terms)))
            assert report.passed, (p, d, terms)
            trace_cases += 1
    assert trace_cases >= 25
    print(f"\nACCEPTANCE 5: PASS  proven a-number closed form on {checked} random basic "
          f"towers (levels 2-5), level-1 powers r<=5, level-2 second power, "
          f"{trace_cases} trace checks")


def test_criterion_6_structural_properties():
    # every computed level of every shared tower: basis size = genus,
    # monotone/concave kernel filtration bounded by the genus
    for key, (state, genera, rows, n, powers) in list(_cache.items()):
        for m in range(1, n + 1):
            assert len(differential_basis(state, m)) == state.genus(m) == genera[m - 1]
            dims = rows[m - 1]
            assert all(a <= b for a, b in zip(dims, dims[1:]))
            incs = [b - a for a, b in zip([0] + dims, dims)]
            assert all(x >= y for x, y in zip(incs, incs[1:]))
            assert dims[-1] <= genera[m - 1]

    # V-oracle identities on >= 100 random functions across towers and levels
    rng = np.random.default_rng(SEED + 2)
    oracle_count = 0
    towers = [(2, [(0, 1, 7)], 3), (3, [(0, 1, 7)], 2), (3, [(0, 1, 5), (0, 2, 2)], 2),
              (2, [(0, 1, 9), (0, 1, 3)], 3), (5, [(0, 1, 3)], 1)]
    for p, terms, maxlvl in towers:
        ctx = field(p)
        state = TowerState(TowerSpec.make(ctx, terms))
        state.build_to(maxlvl)
        for lvl in range(1, maxlvl + 1):
            layers = sparse_layers(state)[:lvl]
            for _ in range(10):
                h = random_poly(ctx, lvl, rng, nterms=3, maxdeg=4)
                dh = function_differential(from_sparse(h), state)
                if not dh.arr.any():
                    continue
                assert not cartier_apply(dh, state).arr.any()
                hpdh = reduce_to_monomial_basis(h ** (p - 1) * to_sparse(dh), layers)
                assert to_sparse(cartier_apply(from_sparse(hpdh), state)) == to_sparse(dh)
                oracle_count += 1
    assert oracle_count >= 100

    # deepest levels: kernel/genus ratios approach r(p-1)/((p-1)r + (p+1))
    for key, (state, genera, rows, n, powers) in list(_cache.items()):
        p = state.spec.p
        for r in range(1, powers + 1):
            gap = kernel_genus_ratio_gap(rows[n - 1][r - 1], genera[n - 1], r, p)
            assert gap < Fraction(2, p ** n), (key, r, gap)

    # elementary divisors: full stabilization at every level of modest genus
    checked_md = 0
    for key, (state, genera, rows, n, powers) in list(_cache.items()):
        for m in range(1, n + 1):
            if genera[m - 1] > 700:
                continue
            dims = kernels_to_stabilization(cartier_matrix(state, m).matrix)
            md = elementary_divisors(tuple(dims))
            assert all(v >= 0 for v in md)
            # p-rank 0: the V-nilpotent part is everything
            assert sum(i * v for i, v in enumerate(md, start=1)) == genera[m - 1]
            checked_md += 1
    assert checked_md >= 8
    print(f"\nACCEPTANCE 6: PASS  basis=genus everywhere, {oracle_count} V-oracle "
          f"identities, kernel filtrations monotone/concave, {checked_md} stabilized "
          f"module decompositions sum to the genus")


def test_criterion_7_constants_tables():
    t8 = SUITES["constants"]["rows"][(2, 21)]
    t12 = SUITES["constants"]["rows"][(3, 5)]
    for r in range(1, 11):
        c2 = constants(r, 2)
        assert c2.alpha * 21 == Fraction(t8["alpha_d"][r - 1])
        assert c2.m == t8["m"][r - 1]
        c3 = constants(r, 3)
        assert c3.alpha * 5 == Fraction(t12["alpha_d"][r - 1])
        assert c3.m == t12["m"][r - 1]
    for p in (2, 3, 5, 7, 11, 13):
        assert constants(1, p).alpha == alpha1_formula(p)
    print("\nACCEPTANCE 7: PASS  alpha/m rows for (p=2,d=21) and (p=3,d=5), "
          "alpha(1,p) closed form for p <= 13")


def test_criterion_8_fit_regression():
    A = SUITES["p2d21"]["a"]
    B = SUITES["p2d21-variant"]["a"]
    printed = {2: {3}, 3: {2, 3}, 4: {4, 5}, 5: {2, 3}}

    fit3 = fit_periodic(A[3], 21, 2, 3)
    assert fit3.lam == 0 and fit3.period == 1 and fit3.c[0] == 4
    assert fit3.valid_from == 3 and fit3.discrepancy_set <= printed[3]
    fit3b = fit_periodic(B[3], 21, 2, 3)
    assert fit3b.c[0] == 5 and fit3b.discrepancy_set <= printed[3]

    fit2 = fit_periodic(A[2], 21, 2, 2)
    assert fit2.lam == 1 and fit2.period == 2
    assert fit2.c[1] == Fraction(7, 5) and fit2.c[0] == Fraction(3, 5)
    assert fit2.discrepancy_set <= printed[2]

    fit5 = fit_periodic(A[5], 21, 2, 5)
    assert fit5.lam == 0 and fit5.c[0] == 2 and fit5.valid_from == 3
    assert fit5.discrepancy_set <= printed[5]
    fit5b = fit_periodic(B[5], 21, 2, 5)
    assert fit5b.c[0] == 2 and fit5b.discrepancy_set <= printed[5]

    fit4 = fit_periodic(A[4], 21, 2, 4)
    assert fit4.lam == 1 and fit4.period == 3
    assert fit4.discrepancy_set <= printed[4]

    for fit in (fit3, fit3b, fit2, fit5, fit4):
        for n in range(fit.valid_from, fit.levels + 1):
            series = (A if fit in (fit3, fit2, fit5, fit4) else B)[fit.r]
            assert fit_value(fit, n) == series[n - 1]
    print("\nACCEPTANCE 8: PASS  printed growth formulas recovered for r in "
          "{2,3,4,5} with discrepancy sets inside the printed ones")


def test_criterion_9_depth_caps_enforced():
    # deeper levels are property-tested only; the caps themselves must hold
    with pytest.raises(TowerError):
        TowerState(TowerSpec.make(field(7), [(0, 1, 3)])).build_to(3)
    with pytest.raises(TowerError):
        TowerState(TowerSpec.make(field(3), [(0, 1, 5), (0, 2, 2)])).build_to(7)
    print("\nACCEPTANCE 9: PASS  desk-scale depth caps enforced "
          "(deeper levels out of scope by design)")

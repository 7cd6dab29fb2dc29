"""Closed-form invariants, growth-law constants, residual fitting, and the
proven characteristic-two evaluators.

All arithmetic here is exact rational (fractions.Fraction); nothing is ever
estimated in floating point.  Fits are reports, not truth claims: a FitReport
records the level from which its formula reproduces the observed values and
the discrepancy set before that, and never extrapolates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .gf import InternalConsistencyError


class AnalysisError(ValueError):
    pass


# ---------------------------------------------------------------------------
# growth-law constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjectureConstants:
    """alpha(r, p) with its denominator split into p-part and prime-to-p part."""

    r: int
    p: int
    alpha: Fraction
    D: int
    D_prime: int
    m: int


def _multiplicative_order(a: int, n: int) -> int:
    a %= n
    if math.gcd(a, n) != 1:
        raise AnalysisError(f"{a} not invertible mod {n}")
    order, x = 1, a
    while x != 1:
        x = x * a % n
        order += 1
    return order


def constants(r: int, p: int) -> ConjectureConstants:
    """alpha(r,p) = r(p-1) / (2(p+1)((p-1)r + (p+1))), D its denominator,
    D' the prime-to-p part, m = ord(p^2 mod D') (0 when D' = 1)."""
    if r < 1:
        raise AnalysisError("r must be positive")
    alpha = Fraction(r * (p - 1), 2 * (p + 1) * ((p - 1) * r + (p + 1)))
    D = alpha.denominator
    D_prime = D
    while D_prime % p == 0:
        D_prime //= p
    m = _multiplicative_order(p * p, D_prime) if D_prime > 1 else 0
    return ConjectureConstants(r, p, alpha, D, D_prime, m)


def alpha1_formula(p: int) -> Fraction:
    """(p-1) / (4p(p+1)), the r = 1 specialization."""
    return Fraction(p - 1, 4 * p * (p + 1))


# ---------------------------------------------------------------------------
# residuals, discrepancies, fits
# ---------------------------------------------------------------------------

def discrepancies(delta_list: Sequence[Fraction], m: int) -> set[int]:
    """{n > m : delta(n) != delta(n - m)}, levels 1-based."""
    if m < 1:
        raise AnalysisError("discrepancies need a period m >= 1")
    return {n for n in range(m + 1, len(delta_list) + 1)
            if delta_list[n - 1] != delta_list[n - 1 - m]}


def _lambda_quotient(a_list: Sequence[int], d: int, p: int, alpha: Fraction,
                     period: int) -> Fraction:
    """The main-term residual's difference quotient over the last `period` levels."""
    N = len(a_list)
    hi = a_list[N - 1] - alpha * d * p ** (2 * N)
    lo = a_list[N - 1 - period] - alpha * d * p ** (2 * (N - period))
    return Fraction(hi - lo, period)


@dataclass
class FitReport:
    """Exact-rational fit a^(r)(n) ~ alpha d p^2n + lambda n + c(n mod period).

    valid_from is the first level from which the reported formula reproduces
    every observed value; discrepancy levels before it are listed.  A report
    with fitted = False means no stabilization was observed in the data.
    """

    r: int
    p: int
    d: int
    leading: Fraction  # alpha(r, p) * d
    lam: Fraction
    period: int
    c: dict[int, Fraction]  # residue of n mod period -> constant
    discrepancy_set: set[int]
    valid_from: int
    fitted: bool
    levels: int


def _fit_with(a_list, d, p, r, period, lam):
    """(discrepancies, c, valid_from) for one (period, lambda) candidate."""
    alpha = constants(r, p).alpha
    N = len(a_list)
    deltas = [a_list[i] - (alpha * d * p ** (2 * (i + 1)) + lam * (i + 1))
              for i in range(N)]
    disc = discrepancies(deltas, period)
    c = {(i + 1) % period: deltas[i] for i in range(max(N - period, 0), N)}
    valid_from = N + 1
    for n in range(N, 0, -1):
        if n % period in c and deltas[n - 1] == c[n % period]:
            valid_from = n
        else:
            break
    return disc, c, valid_from


def fit_periodic(a_list: Sequence[int], d: int, p: int, r: int) -> FitReport:
    """Best exact periodic fit; reports rather than asserts.

    Period is m(r,p) when that is >= 1; for the edge case m = 0 trial periods
    1..3 are tried (period and lambda may genuinely depend on the tower
    there).  lambda = 0 is preferred whenever the residuals stabilize with it,
    and a fit counts as such only when the clean stretch covers at least one
    full period beyond its first level.
    """
    if len(a_list) < 4:
        raise AnalysisError("fitting needs at least 4 levels")
    cc = constants(r, p)
    N = len(a_list)
    candidates: list[tuple[int, Fraction]] = []
    periods = [cc.m] if cc.m >= 1 else [1, 2, 3]
    for period in periods:
        candidates.append((period, Fraction(0)))
        if N >= period + 1:
            lam = _lambda_quotient(a_list, d, p, cc.alpha, period)
            if lam != 0:
                candidates.append((period, lam))
    best = None
    for period, lam in candidates:
        disc, c, valid_from = _fit_with(a_list, d, p, r, period, lam)
        score = (valid_from, period, abs(lam))
        if best is None or score < best[0]:
            best = (score, period, lam, disc, c, valid_from)
    _, period, lam, disc, c, valid_from = best
    fitted = valid_from <= N - period
    return FitReport(r=r, p=p, d=d, leading=cc.alpha * d, lam=lam, period=period,
                     c=c, discrepancy_set=disc, valid_from=valid_from, fitted=fitted,
                     levels=N)


# ---------------------------------------------------------------------------
# proven closed forms in characteristic two
# ---------------------------------------------------------------------------

def _check_p2_breaks(d_list: Sequence[int]) -> None:
    for d in d_list:
        if d < 1 or d % 2 == 0:
            raise AnalysisError(f"characteristic-2 break {d} must be odd and positive")


def anumber_cover_p2(d_list: Sequence[int]) -> int:
    """a-number of a Z/2Z cover from its breaks (hypothesis checked by caller):
    sum (d-1)/4 over d = 1 mod 4 plus sum (d+1)/4 over d = 3 mod 4."""
    _check_p2_breaks(d_list)
    return sum((d - 1) // 4 if d % 4 == 1 else (d + 1) // 4 for d in d_list)


def anumber_basic_p2(d: int, n: int) -> int:
    """a-number of level n >= 2 of any basic characteristic-2 tower:
    (d/24) 2^2n + (d + 3)/12 for d = 1 mod 4, (d/24) 2^2n + (d - 3)/12 otherwise."""
    _check_p2_breaks([d])
    if n < 2:
        if n == 1:
            return anumber_cover_p2([d])
        raise AnalysisError("closed form applies to levels n >= 1")
    shift = 3 if d % 4 == 1 else -3
    val = Fraction(d, 24) * 2 ** (2 * n) + Fraction(d + shift, 12)
    if val.denominator != 1:
        raise InternalConsistencyError(f"a-number closed form {val} not integral")
    return int(val)


def kernel_power_level1_p2(d_list: Sequence[int], r: int) -> int:
    """a^(r) at level 1 of a characteristic-2 tower over the projective line:
    deg D - sum ceil((d+1)/2^(r+1)) with D = sum (d+1)/2 [Q]."""
    _check_p2_breaks(d_list)
    if r < 1:
        raise AnalysisError("r must be positive")
    deg_D = sum((d + 1) // 2 for d in d_list)
    return deg_D - sum(-((d + 1) // -(2 ** (r + 1))) for d in d_list)

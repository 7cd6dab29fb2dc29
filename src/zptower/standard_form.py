"""Rewrite layer equations so the pole order at infinity equals the lower break.

An Artin-Schreier layer y^p - y = f only has its pole order equal to the
ramification break when that order is prime to p; otherwise the order is a
multiple of p and strictly larger.  Changing variables by y -> y + c*z
replaces f by f + (c z)^p - c z, and a monomial z = x^nu y_1^a_1 ... with pole
order exactly ord(f)/p always exists over the projective line, so repeatedly
cancelling the leading term terminates with the minimal pole order.
"""

from __future__ import annotations

from ._slab import Reducer, Slab, pth_power
from .gf import InternalConsistencyError
from .poly import Monomial, PoleProfile, PolyError


class StandardFormError(RuntimeError):
    """Reduction reached a state theory forbids; indicates a bug or bad input."""


def monomial_with_pole_order(w: int, profile: PoleProfile, level: int) -> Monomial:
    """The unique (nu >= 0, 0 <= a_j < p) with nu p^m + sum a_j d_j p^(m-j) = w.

    Solved digit by digit mod p from a_m downward (each d_j is prime to p).
    Raises PolyError when no representation with nu >= 0 exists.
    """
    if w < 0:
        raise PolyError(f"pole order {w} negative")
    p = profile.p
    a = [0] * level
    for j in range(level, 0, -1):
        dj = profile[j - 1]
        aj = (w * pow(dj, -1, p)) % p
        a[j - 1] = aj
        w -= aj * dj
        if w < 0:
            raise PolyError("no monomial with the requested pole order (nu < 0)")
        if w % p:
            raise InternalConsistencyError(f"pole-order remainder {w} not divisible by p")
        w //= p
    return Monomial(w, tuple(a))


def reduce_slab(f: Slab, reducer: Reducer, profile: PoleProfile, target_d: int
                ) -> tuple[Slab, Slab]:
    """Standard-form reduction on the dense representation.

    Returns (f', Z) with ord(f') = -target_d and f' = f + Z-induced shifts,
    where Z accumulates the substitution y -> y + Z.  Every iteration must
    strictly decrease the pole order (checked).
    """
    ctx = f.ctx
    p = ctx.p
    level = f.level
    shift = Slab.zeros(ctx, level)
    while True:
        pd = f.pole_data(profile, level)
        if pd is None:
            raise StandardFormError("layer reduced to zero: degenerate tower data")
        pole, code, nu, coeffvec = pd
        if pole == target_d:
            break
        if pole < target_d or pole % p != 0:
            raise StandardFormError(
                f"pole order {pole} below or coprime-to-p above target {target_d}")
        z_mon = monomial_with_pole_order(pole // p, profile, level)
        z = Slab.monomial(ctx, z_mon, level=level)
        zp = pth_power(z, reducer)
        zp_pd = zp.pole_data(profile, level)
        if zp_pd is None or zp_pd[0] != pole:
            raise InternalConsistencyError("z^p pole order mismatch")
        lead_f = ctx.elem(coeffvec)
        lead_zp = ctx.elem(zp_pd[3])
        c_p = -lead_f / lead_zp
        c = c_p.frobenius_inverse()
        f = f + zp.scale(c_p) - z.scale(c)
        new_pd = f.pole_data(profile, level)
        if new_pd is None or new_pd[0] >= pole:
            raise InternalConsistencyError("pole order failed to decrease")
        shift = shift + z.scale(c)
    return f.trim(), shift.trim()

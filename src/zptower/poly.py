"""Monomials and pole profiles of tower polynomials.

A monomial x^nu * y_1^a_1 ... y_n^a_n is named by its exponents; polynomials
themselves are dense slabs (zptower._slab).  A pole profile holds the lower
ramification breaks d_1..d_n of a tower, which fix the pole order at infinity
of every reduced monomial: nu p^n + sum a_j d_j p^(n-j) at level n.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence


class PolyError(ValueError):
    pass


class Monomial(NamedTuple):
    """Exponents of a single term: x^nu * prod y_j^a[j-1]."""

    nu: int
    a: tuple[int, ...]

    def pad(self, level: int) -> "Monomial":
        if len(self.a) >= level:
            return self
        return Monomial(self.nu, self.a + (0,) * (level - len(self.a)))


class PoleProfile:
    """Lower ramification breaks d_1..d_n of a tower, one per level.

    Each d_j is a positive integer prime to p, and consecutive breaks satisfy
    d_{j+1} >= (p^2 - p + 1) d_j; both are enforced at construction.
    """

    __slots__ = ("p", "d")

    def __init__(self, p: int, d: Sequence[int]):
        d = tuple(int(v) for v in d)
        for j, dj in enumerate(d):
            if dj <= 0 or dj % p == 0:
                raise PolyError(f"break d_{j+1}={dj} must be positive and prime to p={p}")
            if j and dj < (p * p - p + 1) * d[j - 1]:
                raise PolyError(
                    f"break d_{j+1}={dj} below (p^2-p+1)*d_{j} = {(p*p-p+1)*d[j-1]}")
        self.p = p
        self.d = d

    def __len__(self):
        return len(self.d)

    def __getitem__(self, j):
        return self.d[j]

    def __repr__(self):
        return f"PoleProfile(p={self.p}, d={self.d})"

"""Shared helpers: random polynomial generators and the point-evaluation oracle."""

from __future__ import annotations

import numpy as np
import pytest

from zptower.gf import FieldCtx
from zptower.linalg import DenseMatrix
from oracle import SparsePoly
from zptower._slab import Monomial


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def restrict(ctx: FieldCtx, data) -> DenseMatrix:
    """The DenseMatrix of the matrix with (rows, cols, k) coefficient vectors
    `data` over ctx: every entry replaced by its k x k GF(p) block."""
    data = np.asarray(data)
    rows, cols, k = data.shape
    blocks = ctx.semilinear_blocks(data.reshape(-1, k)).reshape(rows, cols, k, k)
    return DenseMatrix(ctx, blocks.transpose(0, 2, 1, 3).reshape(rows * k, cols * k))


def semilinear_image(ctx: FieldCtx, data, c):
    """M sigma^-1(c) by FieldElement arithmetic, for the M of restrict(ctx, data)."""
    rows, cols = data.shape[:2]
    return [sum((ctx.elem(data[i, j]) * c[j].frobenius_inverse() for j in range(cols)),
                ctx.zero()) for i in range(rows)]


def random_poly(ctx: FieldCtx, level: int, rng, nterms: int = 5, maxdeg: int = 8,
                reduced: bool = True) -> SparsePoly:
    terms = {}
    top = ctx.p if reduced else 2 * ctx.p
    for _ in range(nterms):
        m = Monomial(int(rng.integers(0, maxdeg)),
                     tuple(int(rng.integers(0, top)) for _ in range(level)))
        c = ctx.random_element(rng)
        if not c.is_zero():
            terms[m] = c
    return SparsePoly(ctx, level, terms)


def curve_points(layers, big: FieldCtx, limit: int = 400):
    """Points (x0, y1, .., yn) over an extension field satisfying every layer
    equation y_j^p - y_j = f_j; used as an independent evaluation oracle."""
    pts = []
    elems = list(big.elements())
    for x0 in elems:
        stack = [(x0,)]
        for f in layers:
            new = []
            for pt in stack:
                val = evaluate(f, big, pt)
                for y in elems:
                    if y ** big.p - y == val:
                        new.append(pt + (y,))
            stack = new
        pts.extend(stack)
        if len(pts) >= limit:
            break
    return pts


def evaluate(f: SparsePoly, big: FieldCtx, point):
    """Evaluate at (x0, y1, ..) with coefficients embedded into `big`."""
    total = big.zero()
    for m, c in f.terms.items():
        v = embed(c, big) * point[0] ** m.nu
        for e, y in zip(m.a, point[1:]):
            if e:
                v = v * y ** e
        total = total + v
    return total


def embed(c, big: FieldCtx):
    """Embed a prime-field element into an extension (only k=1 sources needed)."""
    assert c.ctx.k == 1, "test oracle only embeds prime-field coefficients"
    return big.elem(c.coeffs[0])

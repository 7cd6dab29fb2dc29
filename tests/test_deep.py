"""Opt-in deep lane: `pytest -m deep` recomputes fixture levels that the
default run leaves out.  Times on a 2-vCPU host: each p=2 level-6 test takes
about 13 s and 136 MB; each p=2 level-7 test about 3 min and 1.35 GB, a fifth
of it in the tower build and Cartier tables and most of the rest in the two
twisted products, whose packed rows set the peak (r = 1 alone peaks at the
build's 273 MB); each p=3 level-4 test about 7 s and 120-130 MB; each p=3
level-5 test 14-23 s, of which the p3d7 level-5 tables take about 17 s, and
0.22 GB (p3d7) or 0.24-0.27 GB (p3d5, p3d5-variant); the p=2 length-7 peel
about 9 s and 285-310 MB."""

import hashlib
import resource

import pytest

from zptower import witt
from zptower.cli import run_compute
from zptower.fixtures import SUITES
from zptower.gf import field
from zptower.tower import TowerSpec

R = 10


def check_rss():
    # ru_maxrss is in KiB on Linux; the lane must fit a 7 GB machine
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss < 7 * 2 ** 20


@pytest.mark.deep
@pytest.mark.parametrize("name", ["p2d21", "p2d21-variant"])
def test_p2_level_6_all_powers(name, tmp_path):
    suite = SUITES[name]
    spec = TowerSpec.make(field(2), suite["terms"], name=name)
    recs = run_compute(spec, 6, R, data_dir=tmp_path)
    assert [rec.genus for rec in recs] == suite["genus"][:6]
    for r in range(1, R + 1):
        assert [rec.a_r[r - 1] for rec in recs] == suite["a"][r][:6], r
    check_rss()


@pytest.mark.deep
@pytest.mark.parametrize("name", ["p2d21", "p2d21-variant"])
def test_p2_level_7_three_powers(name, tmp_path):
    suite = SUITES[name]
    spec = TowerSpec.make(field(2), suite["terms"], name=name)
    recs = run_compute(spec, 7, 3, data_dir=tmp_path)
    assert [rec.genus for rec in recs] == suite["genus"][:7]
    for r in range(1, 4):
        assert [rec.a_r[r - 1] for rec in recs] == suite["a"][r][:7], r
    check_rss()


@pytest.mark.deep
@pytest.mark.parametrize("name", ["p3d5", "p3d5-variant"])
def test_p3_level_4_all_powers(name, tmp_path):
    suite = SUITES[name]
    spec = TowerSpec.make(field(3), suite["terms"], name=name)
    recs = run_compute(spec, 4, R, data_dir=tmp_path)
    assert [rec.genus for rec in recs] == suite["genus"][:4]
    for r in range(1, R + 1):
        assert [rec.a_r[r - 1] for rec in recs] == suite["a"][r][:4], r
    check_rss()


@pytest.mark.deep
@pytest.mark.parametrize("name", ["p3d7", "p3d5", "p3d5-variant"])
def test_p3_level_5_first_power(name, tmp_path):
    suite = SUITES[name]
    spec = TowerSpec.make(field(3), suite["terms"], name=name)
    recs = run_compute(spec, 5, 1, data_dir=tmp_path)
    assert [rec.genus for rec in recs] == suite["genus"][:5]
    assert [rec.a_r[0] for rec in recs] == suite["a"][1][:5]
    check_rss()


@pytest.mark.deep
def test_p2_length_7_peel_is_pinned(monkeypatch):
    # the frontier peel, first computed by the dict-product engine
    monkeypatch.setattr(witt, "_UNIVERSAL_MEM", {})
    polys = witt.peel_polynomials(2, 7)
    assert hashlib.sha256(witt._encode(polys, 7)).hexdigest() \
        == "2706303cf691aeb1f8e1aed11e0ecc1630616885b00baae86309f5c1887e4a41"
    check_rss()

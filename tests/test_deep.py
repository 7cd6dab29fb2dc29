"""Opt-in deep lane: `pytest -m deep` recomputes fixture levels that the
default run leaves out.  Each test runs for minutes and needs a few hundred MB."""

import resource

import pytest

from zptower.cli import run_compute
from zptower.fixtures import SUITES
from zptower.gf import field
from zptower.tower import TowerSpec

R = 10


@pytest.mark.deep
@pytest.mark.parametrize("name", ["p2d21", "p2d21-variant"])
def test_p2_level_6_all_powers(name, tmp_path):
    suite = SUITES[name]
    spec = TowerSpec.make(field(2), suite["terms"], name=name)
    recs = run_compute(spec, 6, R, data_dir=tmp_path)
    assert [rec.genus for rec in recs] == suite["genus"][:6]
    for r in range(1, R + 1):
        assert [rec.a_r[r - 1] for rec in recs] == suite["a"][r][:6], r
    # ru_maxrss is in KiB on Linux; the lane must fit a 7 GB machine
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss < 7 * 2 ** 20

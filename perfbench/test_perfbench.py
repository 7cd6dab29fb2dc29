"""Tests of the benchmark itself: seeded inputs, answer checks, exact counts.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

from workloads import WORKLOADS, check_answers, draw_towers  # noqa: E402

from zptower.fixtures import SUITES  # noqa: E402
from zptower.tower import closed_form_basic  # noqa: E402


def rep(job: dict) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "rep.py"), json.dumps(job),
                           repr(time.monotonic())], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeds_draw_towers_of_the_fixture_shape(name):
    for tower, suite in zip(draw_towers(name, 0), WORKLOADS[name]["suites"]):
        assert tower["terms"] == [list(t) for t in SUITES[suite]["terms"]]
    for seed in range(1, 30):
        towers = draw_towers(name, seed)
        assert towers == draw_towers(name, seed)
        for tower, suite in zip(towers, WORKLOADS[name]["suites"]):
            p, lead = tower["p"], max(SUITES[suite]["terms"], key=lambda t: t[2])
            exps = [t[2] for t in tower["terms"]]
            assert tower["terms"][0] == list(lead)
            assert len(set(exps)) == len(exps) and all(i % p and i <= lead[2] for i in exps)
            assert all(v == 0 and 0 < c < p for v, c, _ in tower["terms"])
            genus = [closed_form_basic(p, lead[2], m)[0] for m in range(1, 6)]
            assert genus == SUITES[suite]["genus"][:5]


def test_wrong_answers_are_caught():
    wl = {**WORKLOADS["p2d21-L5-r3"], "levels": 2}
    towers = draw_towers("p2d21-L5-r3", 0)
    right = [{"genus": SUITES[t["suite"]]["genus"][:2],
              "a": [[SUITES[t["suite"]]["a"][r][m] for r in (1, 2, 3)] for m in range(2)]}
             for t in towers]
    assert check_answers(wl, 0, towers, right) == []
    wrong = json.loads(json.dumps(right))
    wrong[1]["a"][1][2] += 1
    assert check_answers(wl, 0, towers, wrong)
    # at other seeds the characteristic-2 closed form still fixes a^(1)
    shifted = json.loads(json.dumps(right))
    shifted[0]["a"][1] = [a + 1 for a in shifted[0]["a"][1]]
    assert check_answers(wl, 7, draw_towers("p2d21-L5-r3", 7), right) == []
    assert check_answers(wl, 7, draw_towers("p2d21-L5-r3", 7), shifted)
    assert check_answers(wl, 0, towers, right[:1])
    tables = WORKLOADS["p2d21-L6-resume"]
    answer = [{"genus": 14301, "digest": "0" * 64}]
    assert check_answers(tables, 0, draw_towers("p2d21-L6-resume", 0), answer)


def test_exact_counts_repeat_across_runs(tmp_path):
    """Two fresh-process runs of the same job give identical counts and
    answers; a resumed run reads every byte the cold run wrote and gives
    the same table."""
    job = {"kind": "compute", "towers": draw_towers("p3d7-L4", 3), "levels": 3, "powers": 2,
           "run_id": "test", "trace": True}
    a = rep({**job, "data_dir": str(tmp_path / "a")})
    b = rep({**job, "data_dir": str(tmp_path / "b")})
    assert a["counts"] == b["counts"] and a["answers"] == b["answers"]
    assert a["counts"]["cartier.cache_bytes_written"] > 0
    assert check_answers({**WORKLOADS["p3d7-L4"], "levels": 3, "powers": 2}, 3,
                         job["towers"], a["answers"]) == []

    tables = {"kind": "tables", "towers": draw_towers("p2d21-L6-resume", 5), "levels": 4,
              "powers": 0, "run_id": "test", "trace": True, "data_dir": str(tmp_path / "c")}
    cold, warm = rep(tables), rep(tables)
    assert warm["answers"] == cold["answers"]
    assert warm["counts"]["cartier.cache_bytes_written"] == 0
    assert warm["counts"]["cartier.cache_bytes_read"] == cold["counts"]["cartier.cache_bytes_written"]
    assert warm["counts"]["cartier.table_nnz"] == cold["counts"]["cartier.table_nnz"]
    names = {s["name"] for s in warm["spans"]}
    assert {"solve", "witt.peel", "tower.build", "cartier.tables"} <= names
    assert all(math.isfinite(s["end"] - s["start"]) for s in warm["spans"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "p3d7-L4",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""

import copy
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from oracle import gen
from zptower import _slab, cli, tower, witt
from zptower.cli import (ResultRecord, Store, load_spec, main, run_compute,
                         spec_from_dict, verify_suite)
from zptower.gf import InternalConsistencyError, field
from zptower.tower import TowerSpec


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def specfile(tmp_path):
    path = tmp_path / "p3d7.json"
    path.write_text(json.dumps({"name": "p3d7", "p": 3,
                                "terms": [{"v": 0, "c": 1, "i": 7}]}))
    return path


def test_load_spec_and_normalization_warning(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"name": "w", "p": 2,
                                "terms": [{"v": 0, "c": 1, "i": 6}]}))
    warnings = []
    spec = load_spec(path, warn=warnings.append)
    assert warnings and spec.terms[0].i == 3


def _warnings(r) -> list[str]:
    return [ln for ln in r.stderr.splitlines() if ln.startswith("warning: ")]


def test_fit_warns_like_compute(runner, tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"name": "w", "p": 2, "terms": [{"v": 0, "c": 1, "i": 6}]}))
    r = runner.invoke(main, ["--data-dir", str(tmp_path / "d"), "fit", str(path), "-n", "4"])
    assert r.exit_code == 0, r.output
    assert _warnings(r) == [f"warning: {path}: normalizing exponents divisible by p=2: [6]"]


def test_scan_warns_once_per_file(runner, tmp_path):
    # from the up-front check of every file; the workers stay silent
    sd = tmp_path / "specs"
    sd.mkdir()
    for name, i in (("a", 6), ("b", 10), ("c", 5)):
        (sd / f"{name}.json").write_text(json.dumps(
            {"name": name, "p": 2, "terms": [{"v": 0, "c": 1, "i": i}]}))
    r = runner.invoke(main, ["--data-dir", str(tmp_path / "d"), "scan", str(sd), "-n", "1"])
    assert r.exit_code == 0, r.output
    assert _warnings(r) == [f"warning: {sd / name}: normalizing exponents divisible by p=2: {i}"
                            for name, i in (("a.json", [6]), ("b.json", [10]))]


def test_extension_field_spec_roundtrip(tmp_path):
    data = {"name": "g", "p": 2, "k": 2, "modulus": [1, 1],
            "terms": [{"v": 0, "c": [0, 1], "i": 5}]}
    spec = spec_from_dict(data)
    assert spec.field.k == 2 and spec.terms[0].c == gen(spec.field)


def test_info_command(runner, specfile, tmp_path):
    r = runner.invoke(main, ["--data-dir", str(tmp_path / "d"), "info", str(specfile), "-n", "4"])
    assert r.exit_code == 0, r.output
    assert "3829" in r.output and "5700" in r.output
    assert "stable" in r.output


def test_compute_and_store(runner, specfile, tmp_path):
    data = tmp_path / "data"
    r = runner.invoke(main, ["--data-dir", str(data), "compute", str(specfile),
                             "-n", "2", "-r", "2"])
    assert r.exit_code == 0, r.output
    store = Store(data / "results.jsonl")
    recs = store.query()
    assert [rec.level for rec in recs] == [1, 2]
    assert recs[0].a_r == (4, 5) and recs[1].a_r == (25, 36)
    assert recs[0].d == 7 and recs[0].genus == 6
    # duplicate append kept; latest wins on query
    r = runner.invoke(main, ["--data-dir", str(data), "compute", str(specfile),
                             "-n", "2", "-r", "2"])
    assert len(store.load()) == 4 and len(store.query()) == 2


def test_run_compute_refuses_a_level_past_the_supported_depth(tmp_path):
    # p = 7 stops at level 2: level 3 is refused before any level is built
    spec = TowerSpec.make(field(7), [(0, 1, 3)])
    store, echoed = Store(tmp_path / "d" / "results.jsonl"), []
    with pytest.raises(tower.TowerError, match="beyond the supported depth"):
        run_compute(spec, spec.max_level() + 1, data_dir=tmp_path / "d", store=store,
                    echo=echoed.append)
    assert echoed == [] and not (tmp_path / "d").exists()


def test_info_levels_stop_at_the_right_hand_side_cap():
    levels = next(param for param in main.commands["info"].params if param.name == "levels")
    assert levels.type.max == witt.RHS_LENGTH_CAP


def test_info_computes_the_breaks_once(runner, specfile, tmp_path, monkeypatch):
    # load_spec's level-1 check and the table; the monodromy reads the table's breaks
    calls = []
    valuations = tower.coefficient_valuations
    monkeypatch.setattr(tower, "coefficient_valuations",
                        lambda spec, n: calls.append(n) or valuations(spec, n))
    r = runner.invoke(main, ["--data-dir", str(tmp_path / "d"), "info", str(specfile), "-n", "8"])
    assert r.exit_code == 0, r.output
    assert calls == [1, 8] and "monodromy: stable" in r.output


def test_run_compute_level0():
    spec = TowerSpec.make(field(3), [(0, 1, 7)], name="z")
    recs = run_compute(spec, 0)
    assert len(recs) == 1 and recs[0].level == 0 and recs[0].genus == 0


def test_record_d_follows_the_normalized_spec():
    # x^6 and x^3 over GF(2) are the same tower; d is read after normalization
    records = [run_compute(TowerSpec.make(field(2), [(0, 1, i)], name=str(i)), 2)
               for i in (6, 3)]
    strip = [[{**r.serialize(), "spec_name": "", "wall_time": 0, "timestamp": ""} for r in recs]
             for recs in records]
    assert strip[0] == strip[1]
    assert records[0][0].d == 3


def test_warm_cache_identical(tmp_path):
    spec = TowerSpec.make(field(3), [(0, 1, 7)], name="z")
    r1 = run_compute(spec, 2, powers=2, data_dir=tmp_path)
    r2 = run_compute(spec, 2, powers=2, data_dir=tmp_path)
    assert [(r.level, r.genus, r.a_r) for r in r1] == [(r.level, r.genus, r.a_r) for r in r2]


def test_fit_command(runner, specfile, tmp_path):
    r = runner.invoke(main, ["--data-dir", str(tmp_path / "d"), "fit", str(specfile),
                             "-n", "4", "-r", "1"])
    assert r.exit_code == 0, r.output
    assert "7/24" in r.output


def test_scan_and_export(runner, tmp_path):
    sd = tmp_path / "specs"
    sd.mkdir()
    for d in (3, 5):
        (sd / f"d{d}.json").write_text(json.dumps(
            {"name": f"d{d}", "p": 2, "terms": [{"v": 0, "c": 1, "i": d}]}))
    data = tmp_path / "data"
    r = runner.invoke(main, ["--data-dir", str(data), "scan", str(sd), "-n", "2"])
    assert r.exit_code == 0, r.output
    r = runner.invoke(main, ["--data-dir", str(data), "export", "--format", "json"])
    assert r.exit_code == 0
    rows = json.loads(r.output)
    assert len(rows) == 4
    out = tmp_path / "x.csv"
    r = runner.invoke(main, ["--data-dir", str(data), "export", "--format", "csv",
                             "--out", str(out)])
    assert r.exit_code == 0 and out.exists()
    header = out.read_text().splitlines()[0]
    assert header.startswith("spec_hash,spec_name,p,k,d,level,genus,a_r")


def test_scan_parallel(runner, tmp_path):
    sd = tmp_path / "specs"
    sd.mkdir()
    for d in (3, 5, 7):
        (sd / f"d{d}.json").write_text(json.dumps(
            {"name": f"d{d}", "p": 2, "terms": [{"v": 0, "c": 1, "i": d}]}))
    data = tmp_path / "data"
    r = runner.invoke(main, ["--data-dir", str(data), "scan", str(sd), "-n", "1",
                             "-j", "2"])
    assert r.exit_code == 0, r.output
    assert len(Store(data / "results.jsonl").query()) == 3


def test_verify_constants_suite(runner, tmp_path):
    r = runner.invoke(main, ["--data-dir", str(tmp_path), "verify", "constants"])
    assert r.exit_code == 0 and "PASS" in r.output


def test_verify_tower_suite(tmp_path):
    res = verify_suite("p3d7", depth=2, data_dir=tmp_path)
    assert res.passed
    res = verify_suite("p5", depth=1, data_dir=tmp_path)
    assert res.passed


@pytest.fixture
def suites(monkeypatch):
    """A deep copy of the verify fixtures, which a test may corrupt."""
    copied = copy.deepcopy(cli.SUITES)
    monkeypatch.setattr(cli, "SUITES", copied)
    return copied


def test_verify_reports_each_mismatch_and_exits_1(runner, tmp_path, suites):
    suites["p3d7"]["genus"][1] = 67
    suites["p3d7"]["a"][1][0] = 5
    r = runner.invoke(main, ["--data-dir", str(tmp_path), "verify", "p3d7", "--depth", "2"])
    assert r.exit_code == 1, r.output
    lines = r.output.splitlines()
    assert lines[0] == "[FAIL] p3d7"
    assert "  level 1: a^(1) 4 != 5" in lines and "  level 2: genus 66 != 67" in lines


def test_verify_constants_mismatch_exits_1(runner, tmp_path, suites, monkeypatch):
    suites["constants"]["rows"][(3, 5)]["alpha_d"][0] = "1/4"
    r = runner.invoke(main, ["--data-dir", str(tmp_path), "verify", "constants"])
    assert r.exit_code == 1, r.output
    assert "[FAIL] constants" in r.output
    assert "  (p=3, d=5, r=1): got (5/24, 1), want (1/4, 1)" in r.output.splitlines()
    suites["constants"]["rows"][(3, 5)]["alpha_d"][0] = "5/24"
    monkeypatch.setattr(cli, "alpha1_formula", lambda p: 0)
    r = runner.invoke(main, ["--data-dir", str(tmp_path), "verify", "constants"])
    assert r.exit_code == 1 and "  alpha(1,2) mismatch" in r.output.splitlines(), r.output


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_verify_nonpositive_depth_is_usage_error(runner, tmp_path, depth):
    r = runner.invoke(main, ["--data-dir", str(tmp_path), "verify", "p3d7", "--depth", depth])
    assert r.exit_code == 2, r.output
    assert "PASS" not in r.output


def test_verify_unknown_suite():
    import click
    with pytest.raises(click.UsageError):
        verify_suite("nope")


def test_usage_error_exit_code(runner):
    r = runner.invoke(main, ["compute", "/nonexistent.json"])
    assert r.exit_code == 2


def test_record_roundtrip():
    rec = ResultRecord("h", "n", 3, 1, 7, 2, 66, (25, 36), 0.1, "0.1.0", "t")
    assert ResultRecord.deserialize(rec.serialize()) == rec


def _p3(i=7, c=1, p=3, **extra):
    return {"name": "x", "p": p, "terms": [{"v": 0, "c": c, "i": i}], **extra}


@pytest.mark.parametrize("spec", [{"name": "np", "terms": [{"v": 0, "c": 1, "i": 7}]},
                                  {"name": "ni", "p": 3, "terms": [{"v": 0, "c": 1}]},
                                  {"name": "nt", "p": 3, "terms": []},
                                  {"name": "nv", "p": 3, "terms": [{"v": 1, "c": 1, "i": 7}]},
                                  _p3(i=7.9), _p3(p=3.5), _p3(p="3", i="7"), _p3(i=True),
                                  _p3(c=True), _p3(c=[1.2, 0], p=2, k=2.5, modulus=[1.9, 1]),
                                  _p3(c=[1.2, 0], p=2, k=2, modulus=[1, 1]),
                                  _p3(c=[1, 0], p=2, k=2, modulus=[1, True]),
                                  _p3(c=[0, 1], k=2, modulos=[2, 2]),
                                  {"name": "x", "p": 3, "terms": [{"v": 0, "c": 1, "i": 7},
                                                                  {"val": 1, "c": 1, "i": 2}]}],
                         ids=["missing-p", "term-missing-i", "no-terms", "no-valuation-0-term",
                              "float-i", "float-p", "string-p-i", "bool-i", "bool-c",
                              "float-k-modulus-c", "float-c-entry", "bool-modulus-entry",
                              "misspelt-modulus", "misspelt-term-v"])
def test_malformed_spec_is_usage_error(runner, tmp_path, spec):
    # a tower that is not totally ramified at level 1 is malformed input too,
    # and a number that is not a JSON integer is never truncated to one
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    for cmd in ("compute", "info"):
        r = runner.invoke(main, ["--data-dir", str(tmp_path / "d"), cmd, str(path)])
        assert r.exit_code == 2, (cmd, r.output)
        assert "malformed spec file" in r.output


def test_internal_consistency_failure_exits_3(runner, specfile, tmp_path, monkeypatch):
    import itertools

    import numpy as np

    import zptower.linalg as linalg
    import zptower.tower as tower
    assert tower.InternalConsistencyError is InternalConsistencyError
    # a^(1) = 5, a^(2) = 3: kernel dimensions may never decrease
    fake = itertools.cycle([5, 3])
    monkeypatch.setattr(linalg, "_row_basis",
                        lambda N: (N.cols - next(fake), np.arange(N.rows * N.ctx.k)))
    for cmd, n in (("compute", "1"), ("fit", "4")):
        r = runner.invoke(main, ["--data-dir", str(tmp_path / "d"), cmd, str(specfile),
                                 "-n", n, "-r", "2"])
        assert r.exit_code == 3, (cmd, r.output)
        assert "internal consistency failure" in r.output


def test_engine_exception_exits_3(runner, specfile, tmp_path, monkeypatch):
    # an exception of the engine's own, here a kernel's ValueError, is no
    # verification mismatch (exit 1): one line names its type on stderr
    from zptower.linalg import LinAlgError

    def refuse(M, powers):
        raise LinAlgError("twisted powers need a square matrix")
    monkeypatch.setattr(cli, "twisted_power_kernels", refuse)
    data = tmp_path / "d"
    r = runner.invoke(main, ["--data-dir", str(data), "compute", str(specfile), "-n", "2"])
    _one_error_line(r, 3, "LinAlgError", "twisted powers need a square matrix")
    assert r.stdout == "" and not (data / "results.jsonl").exists()


def test_memory_error_exits_4(runner, specfile, tmp_path, monkeypatch):
    # a failed allocation, such as numpy's in a universal peel too large for the
    # address space, is not a verification mismatch (exit 1), and no record is kept
    def refuse(p, length, cache_dir=None):
        raise MemoryError(f"Unable to allocate the peel polynomials of length {length}")
    monkeypatch.setattr(tower, "peel_polynomials", refuse)
    data = tmp_path / "d"
    r = runner.invoke(main, ["--data-dir", str(data), "compute", str(specfile), "-n", "2"])
    assert r.exit_code == 4, r.output
    assert "out of memory: Unable to allocate" in r.output
    assert not (data / "results.jsonl").exists()


def _one_error_line(r, code, *words):
    # the exit code, one line naming the failure (after click's usage text for
    # a usage error) and no traceback
    assert r.exit_code == code, r.output
    lines = r.output.splitlines()
    if code == 2:
        lines = [ln for ln in lines if ln.startswith("Error:")]
    assert len(lines) == 1 and all(w in lines[0] for w in words), r.output
    assert "Traceback" not in r.output


@pytest.mark.parametrize("sub", [False, True], ids=["file", "below-a-file"])
def test_data_dir_that_is_a_file_is_no_mismatch(runner, specfile, tmp_path, sub):
    # a regular file as the data directory is a usage error (2); a path below
    # one fails in the peel cache and exits 5, not 1 (verification mismatch)
    afile = tmp_path / "afile"
    afile.write_text("not a directory")
    data = afile / "d" if sub else afile
    r = runner.invoke(main, ["--data-dir", str(data), "compute", str(specfile), "-n", "2"])
    if sub:
        _one_error_line(r, 5, str(data))
    else:
        _one_error_line(r, 2, "--data-dir", "afile", "is a file")
    assert afile.read_text() == "not a directory"


def test_spec_file_that_is_a_directory_is_a_usage_error(runner, tmp_path):
    data = tmp_path / "d"
    for command in ("info", "compute", "fit"):
        r = runner.invoke(main, ["--data-dir", str(data), command, str(tmp_path)])
        _one_error_line(r, 2, "SPECFILE", "is a directory")
    assert not (data / "results.jsonl").exists()


def test_export_to_a_missing_directory_exits_5(runner, specfile, tmp_path):
    data = tmp_path / "d"
    assert runner.invoke(main, ["--data-dir", str(data), "compute", str(specfile),
                                "-n", "1"]).exit_code == 0
    before = (data / "results.jsonl").read_bytes()
    out = tmp_path / "missing" / "x.csv"
    r = runner.invoke(main, ["--data-dir", str(data), "export", "--out", str(out)])
    _one_error_line(r, 5, str(out))
    assert (data / "results.jsonl").read_bytes() == before and not out.parent.exists()


def test_engine_break_sequence_fault_exits_3(runner, specfile, tmp_path, monkeypatch):
    # s(4) = s(3) is no break sequence; it comes from the engine, not the spec file
    monkeypatch.setattr(tower, "upper_breaks", lambda spec, n: [7, 21, 63, 63][:n])
    r = runner.invoke(main, ["--data-dir", str(tmp_path / "d"), "info", str(specfile),
                             "-n", "4"])
    assert r.exit_code == 3, r.output
    assert "internal consistency failure" in r.output


def _corrupt_ghost_division(monkeypatch):
    divexact = witt._divexact
    # every ghost numerator is divisible by p^m, so numerator + 1 is not
    monkeypatch.setattr(witt, "_divexact", lambda a, pm, mod:
                        divexact(a + 1 if pm > 1 else a, pm, mod))


def _corrupt_peel(monkeypatch):
    combine = witt._combine

    def touch_top_variable(vecs, length, p, f=None):
        comps = combine(vecs, length, p, f)
        if any(sign < 0 for sign, _ in vecs):  # only the peel sums F(Y) - Y
            comps[0] = witt._add([(1, comps[0]), (1, witt._var(length, length - 1, power=2))], p)
        return comps
    monkeypatch.setattr(witt, "_combine", touch_top_variable)


def _skip_standard_form(monkeypatch):
    # every layer kept as its right-hand side and peel give it, with no shift:
    # the p3d7 layers first need one at level 3, which build_to's last check sees
    monkeypatch.setattr(tower, "reduce_slab",
                        lambda f, state: (f, _slab.Slab.zeros(f.ctx, f.level)))


@pytest.mark.parametrize("corrupt", [_corrupt_ghost_division, _corrupt_peel, _skip_standard_form],
                         ids=["ghost-division", "peel", "standard-form"])
def test_engine_faults_exit_3(runner, specfile, tmp_path, monkeypatch, corrupt):
    monkeypatch.setattr(witt, "_UNIVERSAL_MEM", {})  # recompute the peel polynomials
    corrupt(monkeypatch)
    r = runner.invoke(main, ["--data-dir", str(tmp_path / "d"), "compute", str(specfile),
                             "-n", "3"])
    assert r.exit_code == 3, r.output
    assert "internal consistency failure" in r.output


_RECORD = ResultRecord("h", "n", 3, 1, 7, 2, 66, (25, 36), 0.1, "0.1.0", "t").serialize()


@pytest.mark.parametrize("line", [
    json.dumps(_RECORD)[:-9],
    json.dumps({**_RECORD, "a_r": "123"}),
    json.dumps("ab"),
    json.dumps({k: v for k, v in _RECORD.items() if k != "timestamp"}),
    b"\xff\xfe{}",
], ids=["torn-last-line", "a_r-string", "json-string", "missing-field", "not-utf8"])
def test_corrupt_store_record_is_usage_error(runner, tmp_path, line):
    line = line if isinstance(line, bytes) else line.encode()
    (tmp_path / "results.jsonl").write_bytes(json.dumps(_RECORD).encode() + b"\n" + line)
    r = runner.invoke(main, ["--data-dir", str(tmp_path), "export"])
    assert r.exit_code == 2, r.output
    assert "corrupt store record" in r.output


def _no_compute(*args, **kwargs):
    raise RuntimeError("computation started")


@pytest.mark.parametrize("args", [
    ["info", "-n", "0"], ["info", "-n", "-1"], ["info", "-n", "17"],
    ["compute", "-n", "7"], ["compute", "-n", "-1"], ["compute", "-r", "-2"],
    ["compute", "-r", "0"], ["fit", "-n", "3"], ["fit", "-n", "7"], ["fit", "-r", "0"],
], ids=" ".join)
def test_out_of_range_arguments_exit_2_before_computing(runner, specfile, tmp_path,
                                                        monkeypatch, args):
    import zptower.cli as cli
    monkeypatch.setattr(cli, "run_compute", _no_compute)
    data = tmp_path / "d"
    r = runner.invoke(main, ["--data-dir", str(data), args[0], str(specfile)] + args[1:])
    assert r.exit_code == 2, r.output
    assert not (data / "results.jsonl").exists()


def test_fit_rejects_non_basic_tower_before_computing(runner, tmp_path, monkeypatch):
    import zptower.cli as cli
    monkeypatch.setattr(cli, "run_compute", _no_compute)
    path = tmp_path / "nb.json"
    path.write_text(json.dumps({"name": "nb", "p": 2, "terms": [{"v": 0, "c": 1, "i": 3},
                                                                {"v": 1, "c": 1, "i": 5}]}))
    r = runner.invoke(main, ["--data-dir", str(tmp_path / "d"), "fit", str(path)])
    _one_error_line(r, 2, "basic tower")
    assert r.stdout == "" and "basic tower" in r.stderr


def test_scan_of_a_directory_without_spec_files_is_a_usage_error(runner, tmp_path):
    sd = tmp_path / "specs"
    sd.mkdir()
    r = runner.invoke(main, ["--data-dir", str(tmp_path / "d"), "scan", str(sd)])
    _one_error_line(r, 2, "no spec files", str(sd))
    assert r.stdout == "" and "no spec files" in r.stderr
    assert not (tmp_path / "d").exists()


def test_scan_checks_every_spec_before_computing(runner, tmp_path, monkeypatch):
    import zptower.cli as cli
    monkeypatch.setattr(cli, "_scan_one", _no_compute)
    sd = tmp_path / "specs"
    sd.mkdir()
    for name, p in (("a2", 2), ("b3", 3)):  # p=3 stops at level 6, p=2 at level 8
        (sd / f"{name}.json").write_text(json.dumps(
            {"name": name, "p": p, "terms": [{"v": 0, "c": 1, "i": 5}]}))
    r = runner.invoke(main, ["--data-dir", str(tmp_path / "d"), "scan", str(sd), "-n", "7"])
    assert r.exit_code == 2 and "b3.json" in r.output
    r = runner.invoke(main, ["--data-dir", str(tmp_path / "d"), "scan", str(sd), "-n", "-1"])
    assert r.exit_code == 2


class _RecordingPool:
    """In-process stand-in for ProcessPoolExecutor that records max_workers."""

    seen: list[int] = []

    def __init__(self, max_workers):
        self.seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    map = staticmethod(map)


def test_scan_jobs_bounded(runner, tmp_path, monkeypatch):
    import zptower.cli as cli
    sd = tmp_path / "specs"
    sd.mkdir()
    for d in (3, 5, 7):
        (sd / f"d{d}.json").write_text(json.dumps(
            {"name": f"d{d}", "p": 2, "terms": [{"v": 0, "c": 1, "i": d}]}))
    data = tmp_path / "data"
    for jobs in ("0", "-3"):
        r = runner.invoke(main, ["--data-dir", str(data), "scan", str(sd), "-j", jobs])
        assert r.exit_code == 2, r.output
    assert not (data / "results.jsonl").exists()
    # a large -j starts no more workers than there are spec files
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "seen", [])
    r = runner.invoke(main, ["--data-dir", str(data), "scan", str(sd), "-n", "1",
                             "-j", str(10 ** 6)])
    assert r.exit_code == 0, r.output
    assert _RecordingPool.seen == [3]
    assert len(Store(data / "results.jsonl").query()) == 3


def test_compute_level_zero(runner, specfile, tmp_path):
    data = tmp_path / "d"
    r = runner.invoke(main, ["--data-dir", str(data), "compute", str(specfile), "-n", "0"])
    assert r.exit_code == 0, r.output
    assert [rec.level for rec in Store(data / "results.jsonl").query()] == [0]


def test_optimized_interpreter_gives_the_same_output(specfile, tmp_path):
    # python -O strips assert statements, so no check in the package may be one
    src = Path(__file__).resolve().parent.parent / "src"
    import ast
    asserts = [(f.name, node.lineno) for f in sorted((src / "zptower").glob("*.py"))
               for node in ast.walk(ast.parse(f.read_text())) if isinstance(node, ast.Assert)]
    assert asserts == []
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    outs = []
    for flags in ([], ["-O"]):
        r = subprocess.run([sys.executable, *flags, "-m", "zptower.cli",
                            "--data-dir", str(tmp_path / f"d{len(flags)}"), "compute",
                            str(specfile), "-n", "3", "-r", "2"],
                           capture_output=True, text=True, env=env, timeout=300)
        assert r.returncode == 0, r.stderr
        outs.append(re.sub(r"\s*\[[0-9.]+s\]", "", r.stdout).splitlines())
    assert outs[0] == outs[1] and len(outs[0]) == 3

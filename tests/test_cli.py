import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from zptower import _slab, witt
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


def test_extension_field_spec_roundtrip(tmp_path):
    data = {"name": "g", "p": 2, "k": 2, "modulus": [1, 1],
            "terms": [{"v": 0, "c": [0, 1], "i": 5}]}
    spec = spec_from_dict(data)
    assert spec.field.k == 2 and spec.terms[0].c == spec.field.gen()


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
    assert store.query(spec_hash="nope") == []


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
                                  _p3(c=[1, 0], p=2, k=2, modulus=[1, True])],
                         ids=["missing-p", "term-missing-i", "no-terms", "no-valuation-0-term",
                              "float-i", "float-p", "string-p-i", "bool-i", "bool-c",
                              "float-k-modulus-c", "float-c-entry", "bool-modulus-entry"])
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

    import zptower.linalg as linalg
    import zptower.tower as tower
    assert tower.InternalConsistencyError is InternalConsistencyError
    # a^(1) = 5, a^(2) = 3: kernel dimensions may never decrease
    fake = itertools.cycle([5, 3])
    monkeypatch.setattr(linalg, "kernel_dim", lambda N: next(fake))
    for cmd, n in (("compute", "1"), ("fit", "4")):
        r = runner.invoke(main, ["--data-dir", str(tmp_path / "d"), cmd, str(specfile),
                                 "-n", n, "-r", "2"])
        assert r.exit_code == 3, (cmd, r.output)
        assert "internal consistency failure" in r.output


def test_engine_break_sequence_fault_exits_3(runner, specfile, tmp_path, monkeypatch):
    # s(4) = s(3) is no break sequence; it comes from the engine, not the spec file
    import zptower.tower as tower
    monkeypatch.setattr(tower, "breaks_and_conductor",
                        lambda spec, n: ([7, 21, 63, 63][:n], [8, 22, 64, 64][:n]))
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
            comps[0][(0,) * (length - 1) + (2,)] = 1
        return comps
    monkeypatch.setattr(witt, "_combine", touch_top_variable)


def _zero_layer(monkeypatch):
    monkeypatch.setattr(_slab.Slab, "pole_data", lambda self, d, n: None)


@pytest.mark.parametrize("corrupt", [_corrupt_ghost_division, _corrupt_peel, _zero_layer],
                         ids=["ghost-division", "peel", "standard-form"])
def test_engine_faults_exit_3(runner, specfile, tmp_path, monkeypatch, corrupt):
    monkeypatch.setattr(witt, "_UNIVERSAL_MEM", {})  # recompute the peel polynomials
    corrupt(monkeypatch)
    r = runner.invoke(main, ["--data-dir", str(tmp_path / "d"), "compute", str(specfile),
                             "-n", "2"])
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
    assert r.exit_code == 2 and "basic tower" in r.output


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

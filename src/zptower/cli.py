"""Command-line surface: spec-file ingestion, computation, fitting,
verification against bundled fixtures, and the append-only result store.

Spec files are JSON with keys p, k (optional, default 1), modulus (optional,
only for k > 1), name, and terms = [{"v":, "c":, "i":}, ...] where c is a
bare integer over prime fields or a coefficient list otherwise.  Every number
is a JSON integer; a bool, float or string makes the file malformed.  Exponents
divisible by p are normalized away with a warning.

Exit codes: 0 ok, 1 verification mismatch, 2 usage error (including a
malformed spec file or a corrupt result-store record), 3 internal consistency
failure, 4 out of memory, 5 a file or directory could not be read or written.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import click

from . import __version__
from .analysis import alpha1_formula, constants, fit_periodic
from .cartier import cartier_matrix
from .fixtures import SUITES
from .gf import InternalConsistencyError, field, parse_element
from .linalg import twisted_power_kernels
from .tower import (RamificationData, TowerError, TowerSpec, TowerState, classify_monodromy,
                    closed_form_basic)

EXIT_MISMATCH = 1
EXIT_INTERNAL = 3
EXIT_MEMORY = 4
EXIT_IO = 5


# ---------------------------------------------------------------------------
# spec files
# ---------------------------------------------------------------------------

def load_spec(path: str | Path, warn=None) -> TowerSpec:
    """Parse a spec file; any malformed content, including a tower that is not
    totally ramified at level 1, is a usage error (exit 2)."""
    try:
        spec = spec_from_dict(json.loads(Path(path).read_text()), warn=warn)
        RamificationData.compute(spec, 1)
        return spec
    except (KeyError, TypeError, ValueError) as exc:
        raise click.UsageError(
            f"malformed spec file {path}: {type(exc).__name__}: {exc}") from exc


def _load_for_levels(path: str | Path, levels: int, warn=None) -> TowerSpec:
    """load_spec, and a usage error when `levels` exceeds the spec's supported depth."""
    spec = load_spec(path, warn=warn)
    if levels > spec.max_level():
        raise click.UsageError(f"{path}: level {levels} beyond the supported depth "
                               f"{spec.max_level()} for p={spec.p}")
    return spec


def _int(value, key: str) -> int:
    """A JSON integer: a bool, float or string is a malformed spec (ValueError)."""
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def spec_from_dict(data: dict, warn=None) -> TowerSpec:
    p = _int(data["p"], "p")
    k = _int(data.get("k", 1), "k")
    modulus = tuple(_int(c, "modulus") for c in data["modulus"]) if "modulus" in data else None
    ctx = field(p, k, modulus)
    terms = []
    for t in data.get("terms", []):
        c = parse_element(ctx, t["c"])
        terms.append((_int(t.get("v", 0), "v"), c, _int(t["i"], "i")))
    reduced = [i for _, _, i in terms if i % p == 0]
    if warn and reduced:
        warn(f"normalizing exponents divisible by p={p}: {reduced}")
    return TowerSpec.make(ctx, terms, name=str(data.get("name", "")))


# ---------------------------------------------------------------------------
# result store
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResultRecord:
    spec_hash: str
    spec_name: str
    p: int
    k: int
    d: int | None
    level: int
    genus: int
    a_r: tuple[int, ...]
    wall_time: float
    tool_version: str
    timestamp: str

    def serialize(self) -> dict:
        out = dataclasses.asdict(self)
        out["a_r"] = list(self.a_r)
        return out

    @classmethod
    def deserialize(cls, d) -> "ResultRecord":
        """Inverse of serialize; ValueError unless d holds exactly the record's
        fields, each of its annotated type (an int is accepted as a float)."""
        if not isinstance(d, dict) or set(d) != set(CSV_COLUMNS):
            raise ValueError(f"expected an object with the fields {CSV_COLUMNS}")
        for f in dataclasses.fields(cls):
            if not _FIELD_CHECKS[f.type](d[f.name]):
                raise ValueError(f"field {f.name}={d[f.name]!r} is not {f.type}")
        return cls(**{**d, "a_r": tuple(d["a_r"])})


_FIELD_CHECKS = {  # by annotation; JSON true/false is not an int here
    "str": lambda v: type(v) is str,
    "int": lambda v: type(v) is int,
    "int | None": lambda v: v is None or type(v) is int,
    "float": lambda v: type(v) in (int, float),
    "tuple[int, ...]": lambda v: type(v) is list and all(type(e) is int for e in v),
}
CSV_COLUMNS = [f.name for f in dataclasses.fields(ResultRecord)]


class Store:
    """Append-only line-delimited JSON store of ResultRecords.

    Duplicate (spec_hash, level, powers) appends are kept; queries return the
    latest record per key.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def append(self, record: ResultRecord) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            fh.write(json.dumps(record.serialize(), sort_keys=True) + "\n")

    def load(self) -> list[ResultRecord]:
        """Every record; a torn, mistyped or non-record line is a usage error."""
        if not self.path.exists():
            return []
        out = []
        for lineno, line in enumerate(self.path.read_bytes().splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(ResultRecord.deserialize(json.loads(line)))
            except ValueError as exc:
                raise click.UsageError(
                    f"corrupt store record at {self.path}:{lineno}: {exc}") from exc
        return out

    def query(self) -> list[ResultRecord]:
        latest: dict[tuple, ResultRecord] = {}
        for rec in self.load():
            latest[(rec.spec_hash, rec.level, len(rec.a_r))] = rec
        return sorted(latest.values(), key=lambda r: (r.spec_hash, r.level, len(r.a_r)))


# ---------------------------------------------------------------------------
# computation entry point
# ---------------------------------------------------------------------------

def run_compute(spec: TowerSpec, n: int, powers: int = 1,
                data_dir: str | Path | None = None,
                store: Store | None = None, echo=None) -> list[ResultRecord]:
    """Build levels 1..n, compute kernel dimensions a^(1..powers), record results.

    Reuses the on-disk precompute cache under data_dir; recomputation with a
    warm cache is deterministic and byte-identical.  A level beyond the spec's
    supported depth is refused before any work.
    """
    if n > spec.max_level():
        raise TowerError(f"level {n} beyond the supported depth {spec.max_level()} for p={spec.p}")
    cache_dir = Path(data_dir) / "cache" if data_dir is not None else None
    state = TowerState(spec, cache_dir=cache_dir)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    records = []
    base = dict(spec_hash=spec.spec_hash(), spec_name=spec.name, p=spec.p,
                k=spec.field.k,
                d=spec.ramification_invariant if spec.is_basic else None,
                tool_version=__version__, timestamp=stamp)
    if n == 0:
        records.append(ResultRecord(level=0, genus=0, a_r=(), wall_time=0.0, **base))
    else:
        state.ensure_ram(n)  # the breaks and genera of every level at once
    for m in range(1, n + 1):
        t0 = time.perf_counter()
        cm = cartier_matrix(state, m)
        a_r = tuple(twisted_power_kernels(cm.matrix, powers))
        wall = time.perf_counter() - t0
        rec = ResultRecord(level=m, genus=cm.genus, a_r=a_r, wall_time=round(wall, 4), **base)
        records.append(rec)
        if echo:
            echo(f"level {m}: genus {cm.genus}  a^(1..{powers}) = {list(a_r)}"
                 f"  [{wall:.2f}s]")
    if store is not None:
        for rec in records:
            store.append(rec)
    return records


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

@dataclass
class SuiteResult:
    name: str
    passed: bool
    lines: list[str]


def _verify_tower(name: str, fx: dict, depth: int | None, data_dir) -> SuiteResult:
    towers = fx["towers"] if fx["kind"] == "tower_family" else [fx]
    depth = depth or fx.get("default_depth", 3)
    lines, ok = [], True
    for idx, tower in enumerate(towers):
        ctx = field(fx["p"], fx.get("k", 1))
        spec = TowerSpec.make(ctx, tower["terms"], name=f"{name}[{idx}]")
        powers = max(tower.get("a", fx.get("a", {1: None})).keys())
        exp_a = tower.get("a", fx.get("a"))
        exp_g = tower.get("genus", fx.get("genus"))
        n = min(depth, len(next(iter(exp_a.values()))))
        recs = run_compute(spec, n, powers=powers, data_dir=data_dir)
        for rec in recs:
            if rec.level == 0:
                continue
            if exp_g is not None and rec.genus != exp_g[rec.level - 1]:
                ok = False
                lines.append(f"  level {rec.level}: genus {rec.genus} != {exp_g[rec.level-1]}")
            for r in range(1, powers + 1):
                want = exp_a[r][rec.level - 1]
                got = rec.a_r[r - 1]
                if got != want:
                    ok = False
                    lines.append(f"  level {rec.level}: a^({r}) {got} != {want}")
        lines.append(f"  tower {idx}: levels 1..{n} checked")
    return SuiteResult(name, ok, lines)


def _verify_constants(name: str, fx: dict) -> SuiteResult:
    lines, ok = [], True
    for (p, d), row in fx["rows"].items():
        for r in range(1, len(row["alpha_d"]) + 1):
            cc = constants(r, p)
            want_alpha = Fraction(row["alpha_d"][r - 1])
            if cc.alpha * d != want_alpha or cc.m != row["m"][r - 1]:
                ok = False
                lines.append(f"  (p={p}, d={d}, r={r}): got ({cc.alpha * d}, {cc.m}), "
                             f"want ({want_alpha}, {row['m'][r-1]})")
    for p in (2, 3, 5, 7, 11, 13):
        if constants(1, p).alpha != alpha1_formula(p):
            ok = False
            lines.append(f"  alpha(1,{p}) mismatch")
    lines.append(f"  {sum(len(r['alpha_d']) for r in fx['rows'].values())} constant rows checked")
    return SuiteResult(name, ok, lines)


def verify_suite(name: str, depth: int | None = None, data_dir=None) -> SuiteResult:
    if name not in SUITES:
        raise click.UsageError(f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}")
    fx = SUITES[name]
    if fx["kind"] == "constants":
        return _verify_constants(name, fx)
    return _verify_tower(name, fx, depth, data_dir)


# ---------------------------------------------------------------------------
# click commands
# ---------------------------------------------------------------------------

class _Main(click.Group):
    """Every command exits EXIT_INTERNAL on an internal consistency failure,
    EXIT_MEMORY when an allocation fails and EXIT_IO when a file or directory
    could not be read or written."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except InternalConsistencyError as exc:
            click.echo(f"internal consistency failure: {exc}", err=True)
            sys.exit(EXIT_INTERNAL)
        except MemoryError as exc:
            click.echo(f"out of memory: {exc}", err=True)
            sys.exit(EXIT_MEMORY)
        except OSError as exc:  # str(exc) names the path
            click.echo(f"file error: {exc}", err=True)
            sys.exit(EXIT_IO)


@click.group(cls=_Main)
@click.option("--data-dir", envvar="ZPTOWER_DATA_DIR", default="zptower-data",
              type=click.Path(file_okay=False), show_default=True,
              help="directory for caches and the result store")
@click.pass_context
def main(ctx, data_dir):
    """Exact Cartier-operator computations on towers of curves."""
    ctx.ensure_object(dict)
    ctx.obj["data_dir"] = Path(data_dir)


def _store(ctx) -> Store:
    return Store(ctx.obj["data_dir"] / "results.jsonl")


@main.command()
@click.argument("specfile", type=click.Path(exists=True, dir_okay=False))
@click.option("--levels", "-n", default=4, show_default=True, type=click.IntRange(1, 16))
@click.pass_context
def info(ctx, specfile, levels):
    """Breaks, conductors, genera, closed forms, and monodromy classification."""
    spec = load_spec(specfile, warn=lambda m: click.echo(f"warning: {m}", err=True))
    click.echo(f"spec {spec.name or specfile}: p={spec.p}, k={spec.field.k}, "
               f"hash={spec.spec_hash()}")
    ram = RamificationData.compute(spec, levels)
    click.echo(f"{'level':>5} {'s':>10} {'u':>10} {'d':>12} {'genus':>12}")
    for m in range(1, levels + 1):
        click.echo(f"{m:>5} {ram.s[m-1]:>10} {ram.u[m-1]:>10} {ram.d[m-1]:>12} "
                   f"{ram.g[m-1]:>12}")
    if spec.is_basic:
        d = spec.ramification_invariant
        click.echo(f"basic tower with ramification invariant d={d}")
        for m in range(1, levels + 1):
            g, dl, s = closed_form_basic(spec.p, d, m)
            if (g, dl, s) != (ram.g[m-1], ram.d[m-1], ram.s[m-1]):
                raise InternalConsistencyError(
                    f"closed form disagrees with computed invariants at level {m}")
        click.echo("closed forms agree with computed invariants")
    if levels >= 4:
        click.echo("monodromy: " + classify_monodromy(spec.p, ram.s).describe())


@main.command()
@click.argument("specfile", type=click.Path(exists=True, dir_okay=False))
@click.option("--levels", "-n", default=2, show_default=True, type=click.IntRange(min=0))
@click.option("--powers", "-r", default=1, show_default=True, type=click.IntRange(min=1))
@click.pass_context
def compute(ctx, specfile, levels, powers):
    """Build the tower and compute kernel dimensions of Cartier powers."""
    spec = _load_for_levels(specfile, levels,
                            warn=lambda m: click.echo(f"warning: {m}", err=True))
    run_compute(spec, levels, powers=powers, data_dir=ctx.obj["data_dir"],
                store=_store(ctx), echo=click.echo)


@main.command()
@click.argument("specfile", type=click.Path(exists=True, dir_okay=False))
@click.option("--levels", "-n", default=4, show_default=True, type=click.IntRange(min=4))
@click.option("--powers", "-r", default=1, show_default=True, type=click.IntRange(min=1))
@click.pass_context
def fit(ctx, specfile, levels, powers):
    """Compute kernel dimensions and fit the periodic growth law per power."""
    spec = _load_for_levels(specfile, levels)
    if not spec.is_basic:
        raise click.UsageError("fit requires a basic tower (coefficients in the field itself)")
    recs = run_compute(spec, levels, powers=powers, data_dir=ctx.obj["data_dir"],
                       store=_store(ctx))
    d = spec.ramification_invariant
    for r in range(1, powers + 1):
        series = [rec.a_r[r - 1] for rec in recs if rec.level >= 1]
        rep = fit_periodic(series, d, spec.p, r)
        status = "fit" if rep.fitted else "no stable fit"
        cdesc = ", ".join(f"n%{rep.period}={k}: {v}" for k, v in sorted(rep.c.items()))
        click.echo(f"r={r}: {status}: a ~ {rep.leading}*p^(2n) + {rep.lam}*n + c(n), "
                   f"period {rep.period}, c: [{cdesc}], valid from level {rep.valid_from}, "
                   f"discrepancies {sorted(rep.discrepancy_set)}")


@main.command()
@click.argument("specdir", type=click.Path(exists=True, file_okay=False))
@click.option("--levels", "-n", default=2, show_default=True, type=click.IntRange(min=0))
@click.option("--powers", "-r", default=1, show_default=True, type=click.IntRange(min=1))
@click.option("--jobs", "-j", default=1, show_default=True, type=click.IntRange(min=1))
@click.pass_context
def scan(ctx, specdir, levels, powers, jobs):
    """Process every *.json spec in a directory (optionally in parallel)."""
    paths = sorted(Path(specdir).glob("*.json"))
    if not paths:
        raise click.UsageError(f"no spec files found in {specdir}")
    for path in paths:  # every file is checked before any work starts
        _load_for_levels(path, levels)
    store = _store(ctx)
    data_dir = ctx.obj["data_dir"]
    workers = min(jobs, len(paths))  # never more processes than spec files
    if workers == 1:
        results = [_scan_one(str(p), levels, powers, str(data_dir)) for p in paths]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scan_one, [str(p) for p in paths],
                                    [levels] * len(paths), [powers] * len(paths),
                                    [str(data_dir)] * len(paths)))
    for path, recs in zip(paths, results):
        for rec in recs:
            store.append(ResultRecord.deserialize(rec))
        click.echo(f"{path.name}: {len(recs)} records")


def _scan_one(path: str, levels: int, powers: int, data_dir: str) -> list[dict]:
    spec = load_spec(path)
    recs = run_compute(spec, levels, powers=powers, data_dir=Path(data_dir))
    return [r.serialize() for r in recs]


@main.command()
@click.argument("suites", nargs=-1)
@click.option("--depth", default=None, type=click.IntRange(min=1),
              help="override per-suite depth")
@click.pass_context
def verify(ctx, suites, depth):
    """Recompute bundled fixtures and compare exactly (nonzero exit on mismatch)."""
    names = list(suites) or sorted(SUITES)
    all_ok = True
    for name in names:
        res = verify_suite(name, depth=depth, data_dir=ctx.obj["data_dir"])
        status = "PASS" if res.passed else "FAIL"
        click.echo(f"[{status}] {name}")
        for line in res.lines:
            click.echo(line)
        all_ok &= res.passed
    if not all_ok:
        sys.exit(EXIT_MISMATCH)


@main.command()
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--out", type=click.Path(), default="-", show_default=True)
@click.pass_context
def export(ctx, fmt, out):
    """Dump the result store as CSV or JSON."""
    records = _store(ctx).query()
    if fmt == "json":
        text = json.dumps([r.serialize() for r in records], indent=2) + "\n"
    else:
        import csv as _csv
        import io
        buf = io.StringIO()
        w = _csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
        w.writeheader()
        for r in records:
            row = r.serialize()
            row["a_r"] = " ".join(map(str, row["a_r"]))
            w.writerow(row)
        text = buf.getvalue()
    if out == "-":
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text)
        click.echo(f"wrote {len(records)} records to {out}")


if __name__ == "__main__":
    main()

"""One benchmark repetition, run in a fresh interpreter.

    python3 perfbench/rep.py JOB_JSON LAUNCH_STAMP

JOB_JSON names the towers, levels, powers, kind ("compute" or "tables"), data
directory and whether to trace; LAUNCH_STAMP is the parent's time.monotonic()
just before it started this process (CLOCK_MONOTONIC, shared by all
processes on Linux).  The last line of standard output is one JSON object
with the timings, peak RSS and answers, and when tracing, the spans and
per-layer counts.

Untraced, the timed operation is exactly what a user runs: cli.run_compute
for "compute" jobs, TowerState.build_to followed by CartierTables.ensure for
"tables" jobs.  Traced, the same work is done by calling each module in
turn, each call inside a span, so that every layer's time is its own.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from zptower.cartier import CartierTables, cartier_matrix
from zptower.cli import run_compute
from zptower.gf import field
from zptower.linalg import kernel_dim, twisted_power_kernels
from zptower.tower import TowerSpec, TowerState
from zptower.witt import peel_polynomials


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Spans kept in memory: name, start, end, parent span, run id, and the
    process's peak RSS (high-water mark) when the span started and ended."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"run": self.run_id, "id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "rss_start_mb": peak_rss_mb(), "start": time.monotonic()}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.monotonic()
            rec["rss_end_mb"] = peak_rss_mb()
            self._open.pop()


def table_digest(table: dict) -> str:
    """sha256 over the nonzero (entry, y-code, x-power, coefficients) cells of
    one level's in-memory Cartier table, independent of any cache format."""
    h = hashlib.sha256()
    for key in sorted(table):
        arr = table[key].arr
        codes, xs = np.nonzero(arr.any(axis=1))
        h.update(np.array(key, dtype="<i8").tobytes())
        h.update(np.int64(codes.size).astype("<i8").tobytes())
        h.update(codes.astype("<i8").tobytes() + xs.astype("<i8").tobytes())
        h.update(arr[codes, :, xs].astype("<i8").tobytes())
    return h.hexdigest()


def cells(arr: np.ndarray) -> int:
    """Nonzero (y-code, x-power) cells of a slab array."""
    return int(np.count_nonzero(arr.any(axis=1)))


def dir_snapshot(root: Path) -> dict[str, tuple[int, int]]:
    return {str(f): (f.stat().st_size, f.stat().st_mtime_ns)
            for f in root.rglob("*") if f.is_file()}


def blas_info() -> dict:
    """OpenBLAS version and thread count as loaded by numpy, read not set."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                return {"blas_threads": threads(), "openblas": config().decode()}
    return {"blas_threads": None, "openblas": None}


def untraced(job: dict, specs: list[TowerSpec], cache_dir: Path) -> tuple[list, list]:
    n, R = job["levels"], job["powers"]
    if job["kind"] == "compute":
        recs = [run_compute(spec, n, R, data_dir=job["data_dir"]) for spec in specs]
        return recs, []
    states = []
    for spec in specs:
        state = TowerState(spec, cache_dir)
        state.build_to(n)
        CartierTables(state).ensure(n)
        states.append(state)
    return [], states


def traced(job: dict, specs: list[TowerSpec], cache_dir: Path, tr: Tracer) -> dict:
    """The pipeline of `untraced`, one module call per span; answers and
    counts are taken after the "solve" span closes."""
    n, R = job["levels"], job["powers"]
    built = []
    with tr.span("solve"):
        for spec in specs:
            state = TowerState(spec, cache_dir)
            with tr.span("witt.peel"):
                peel = [peel_polynomials(spec.p, m, cache_dir)[m - 1] for m in range(1, n + 1)]
            with tr.span("tower.build"):
                state.build_to(n)
            with tr.span("cartier.tables"):
                tables = CartierTables(state).ensure(n)
            genus, a, top = [], [], None
            for m in range(1, n + 1) if job["kind"] == "compute" else ():
                with tr.span("cartier.matrix"):
                    top = cartier_matrix(state, m)
                with tr.span("linalg.kernels"):
                    a.append(twisted_power_kernels(top.matrix, R))
                genus.append(top.genus)
            built.append((peel, state, tables, genus, a, top))

    counts = {"witt.peel_terms": 0, "tower.layer_nnz": 0, "cartier.table_nnz": 0,
              "cartier.matrix_nnz": 0, "cartier.matrix_cells": 0}
    counts.update({f"linalg.rank_r{r}": 0 for r in range(1, 4)})
    answers = []
    for peel, state, tables, genus, a, top in built:
        counts["witt.peel_terms"] += sum(len(g.terms) for g in peel)
        counts["tower.layer_nnz"] += sum(cells(state.layer_slab(m).arr) for m in range(1, n + 1))
        counts["cartier.table_nnz"] += sum(cells(s.arr) for s in tables.levels[n].values())
        if top is None:
            answers.append({"genus": state.genus(n), "digest": table_digest(tables.levels[n])})
            continue
        answers.append({"genus": genus, "a": a})
        counts["cartier.matrix_nnz"] += int(np.count_nonzero(top.matrix.data))
        counts["cartier.matrix_cells"] += top.genus ** 2
        for r, ar in enumerate(a[-1], start=1):
            counts[f"linalg.rank_r{r}"] += top.genus - ar

    # one more rank and one product on the first tower's top-level matrix
    top = built[0][-1]
    if top is not None:
        M = top.matrix
        with tr.span("linalg.rank"):
            nullity = kernel_dim(M)
        if nullity != answers[0]["a"][-1][0]:
            raise RuntimeError(f"kernel_dim {nullity} != a^(1) {answers[0]['a'][-1][0]}")
        with tr.span("linalg.matmul"):
            M @ M
        counts["linalg.matmul_gflop"] = 2 * M.cols ** 3 / 1e9
    return {"answers": answers, "counts": counts}


def main(argv: list[str]) -> int:
    job, launch = json.loads(argv[1]), float(argv[2])
    specs = [TowerSpec.make(field(t["p"], 1), t["terms"], name=t["name"]) for t in job["towers"]]
    data_dir = Path(job["data_dir"])
    cache_dir = data_dir / "cache"
    if job["trace"]:
        before = dir_snapshot(data_dir)
    t0 = time.monotonic()
    out = {"setup_s": t0 - launch}
    if job["trace"]:
        tr = Tracer(job["run_id"])
        out.update(traced(job, specs, cache_dir, tr))
        out["spans"] = tr.spans
        out["solve_s"] = tr.spans[0]["end"] - tr.spans[0]["start"]
    else:
        recs, states = untraced(job, specs, cache_dir)
        out["solve_s"] = time.monotonic() - t0
        if recs:
            out["answers"] = [{"genus": [r.genus for r in rs], "a": [list(r.a_r) for r in rs]}
                              for rs in recs]
        else:
            n = job["levels"]
            out["answers"] = [{"genus": s.genus(n), "digest": table_digest(s.tables.levels[n])}
                              for s in states]
    out["peak_rss_mb"] = peak_rss_mb()
    if job["trace"]:
        after = dir_snapshot(data_dir)
        out["counts"]["cartier.cache_bytes_written"] = sum(
            size for f, (size, mtime) in after.items() if before.get(f) != (size, mtime))
        out["counts"]["cartier.cache_bytes_read"] = sum(
            size for f, (size, mtime) in before.items() if after.get(f) == (size, mtime))
    out["env"] = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                  "python": sys.version.split()[0], "numpy": np.__version__, **blas_info()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

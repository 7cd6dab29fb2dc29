"""zptower benchmark: fixed tower workloads, timed from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, both modes

Run from the root of a source checkout; the package is imported from src/.
Each repetition is a fresh interpreter (perfbench/rep.py), because the Witt
polynomial cache is process-wide and ru_maxrss is per process.  Repetitions
run back to back, one client in a closed loop, until the next one would end
after S seconds (at least two run).  Every answer is checked exactly; a
repetition fails on a wrong answer, an exception or a nonzero exit.

--trace 0 reports the end-to-end metrics: median solve_s, setup_s and
peak_rss_mb over the repetitions.  --trace 1 alternates traced and untraced
repetitions and reports the per-layer metrics of the traced ones, the
unattributed time and the tracing overhead (traced minus untraced median).
Both print each metric with its median, quartiles and sample count, write
perfbench/out/<workload>_seed<N>_trace<T>.json (and the spans as JSONL when
tracing), and end with one JSON line {"correct", "attempted", "failed",
"metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_REPS = 2
RUN_LIMIT_S = 170  # one invocation must end within 180 s

END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "witt.peel_s": "s", "witt.peel_rss_rise_mb": "MB", "witt.peel_terms": "count",
    "tower.build_s": "s", "tower.build_rss_rise_mb": "MB", "tower.layer_nnz": "count",
    "cartier.tables_s": "s", "cartier.tables_rss_rise_mb": "MB", "cartier.table_nnz": "count",
    "cartier.cache_bytes_written": "B", "cartier.cache_bytes_read": "B",
    "cartier.matrix_s": "s", "cartier.matrix_rss_rise_mb": "MB", "cartier.matrix_nnz": "count",
    "cartier.matrix_density": "ratio",
    "linalg.kernels_s": "s", "linalg.kernels_rss_rise_mb": "MB",
    "linalg.rank_s": "s", "linalg.matmul_s": "s",
    "linalg.matmul_gflop": "Gflop", "linalg.matmul_gflops": "Gflop/s",
    "linalg.rank_r1": "count", "linalg.rank_r2": "count", "linalg.rank_r3": "count",
    "traced_total_s": "s", "unattributed_s": "s", "trace_overhead_s": "s",
}
LAYERS = ("witt.peel", "tower.build", "cartier.tables", "cartier.matrix", "linalg.kernels")
EXACT = ("witt.peel_terms", "tower.layer_nnz", "cartier.table_nnz", "cartier.matrix_nnz",
         "cartier.matrix_cells", "linalg.rank_r1", "linalg.rank_r2", "linalg.rank_r3",
         "cartier.cache_bytes_written", "cartier.cache_bytes_read")


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"value": med, "q1": q1, "q3": q3, "n": len(values)}


def run_rep(job: dict, deadline: float) -> dict:
    """One repetition in a fresh interpreter; {"ok", "wall_s", "out" | "error"}."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "rep.py"), json.dumps(job)]
    launch = time.monotonic()
    try:
        proc = subprocess.run(cmd + [repr(launch)], env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - launch))
    except subprocess.TimeoutExpired:
        return {"ok": False, "wall_s": time.monotonic() - launch, "error": "timed out"}
    wall = time.monotonic() - launch
    if proc.returncode != 0:
        return {"ok": False, "wall_s": wall,
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return {"ok": True, "wall_s": wall, "out": json.loads(proc.stdout.strip().splitlines()[-1])}


def layer_metrics(out: dict) -> dict:
    """Per-layer times, peak-RSS rises and counts of one traced repetition.

    A stage's RSS rise is how far the process's peak RSS grew while it ran,
    so the rises of all stages plus the RSS at the start add up to the peak."""
    spans = out["spans"]
    solve = spans[0]
    m = {"traced_total_s": solve["end"] - solve["start"]}
    for name in LAYERS + ("linalg.rank", "linalg.matmul"):
        mine = [s for s in spans if s["name"] == name]
        m[f"{name}_s"] = sum(s["end"] - s["start"] for s in mine)
        if name in LAYERS:
            m[f"{name}_rss_rise_mb"] = sum(s["rss_end_mb"] - s["rss_start_mb"] for s in mine)
    children = [s for s in spans if s["parent"] == solve["id"]]
    m["unattributed_s"] = m["traced_total_s"] - sum(s["end"] - s["start"] for s in children)
    c = out["counts"]
    m.update({k: c[k] for k in EXACT if k != "cartier.matrix_cells"})
    m["cartier.matrix_density"] = (c["cartier.matrix_nnz"] / c["cartier.matrix_cells"]
                                   if c["cartier.matrix_cells"] else 0.0)
    m["linalg.matmul_gflop"] = c.get("linalg.matmul_gflop", 0.0)
    m["linalg.matmul_gflops"] = (m["linalg.matmul_gflop"] / m["linalg.matmul_s"]
                                 if m["linalg.matmul_s"] else 0.0)
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS, check_answers, draw_towers

    wl = WORKLOADS[name]
    towers = draw_towers(name, seed)
    run_id = f"{name}/seed{seed}/trace{int(trace)}/{os.getpid()}"
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    base = {"kind": wl["kind"], "towers": towers, "levels": wl["levels"],
            "powers": wl["powers"], "run_id": run_id}
    reps, problems, fill = [], [], None
    try:
        if wl["resume"]:
            fill = run_rep({**base, "data_dir": str(work / "fill"), "trace": False}, deadline)
            if not fill["ok"]:
                raise SystemExit(f"filling the cache failed: {fill['error']}")
            bad = check_answers(wl, seed, towers, fill["out"]["answers"])
            if bad:
                raise SystemExit(f"filling the cache gave wrong answers: {bad}")
        t0 = time.monotonic()
        walls = []
        while True:
            traced = trace and len(reps) % 2 == 0
            data_dir = work / "fill" if wl["resume"] else work / f"rep{len(reps)}"
            rep = run_rep({**base, "data_dir": str(data_dir), "trace": traced}, deadline)
            rep["traced"] = traced
            reps.append(rep)
            walls.append(rep["wall_s"])
            if not wl["resume"]:
                shutil.rmtree(data_dir, ignore_errors=True)
            now = time.monotonic()
            if len(reps) >= MIN_REPS and (now - t0 + statistics.median(walls) > seconds
                                          or now + max(walls) > deadline):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # every answer checked; every repetition must agree with the first, and
    # the resumed tables with the ones the fill computed
    first = fill["out"]["answers"] if fill else None
    first_counts = None
    for i, rep in enumerate(reps):
        if rep["ok"]:
            out = rep["out"]
            bad = check_answers(wl, seed, towers, out["answers"])
            first = first if first is not None else out["answers"]
            if out["answers"] != first:
                bad.append("answers differ from the cache fill's" if fill
                           else "answers differ from the first repetition's")
            if rep["traced"]:
                counts = {k: out["counts"].get(k, 0) for k in EXACT}
                first_counts = first_counts or counts
                if counts != first_counts:
                    bad.append(f"exact counts differ between repetitions: {counts} != {first_counts}")
            if bad:
                rep["ok"], rep["error"] = False, "; ".join(bad)
        if not rep["ok"]:
            problems.append(f"repetition {i}: {rep['error']}")

    good = [r for r in reps if r["ok"]]
    plain = [r["out"] for r in good if not r["traced"]]
    metrics = {}
    if plain:
        metrics["solve_s"] = summary([o["solve_s"] for o in plain])
        metrics["setup_s"] = summary([r["out"]["setup_s"] for r in good])
        metrics["peak_rss_mb"] = summary([o["peak_rss_mb"] for o in plain])
    layers = [layer_metrics(r["out"]) for r in good if r["traced"]]
    if layers:
        for key in layers[0]:
            metrics[key] = summary([lm[key] for lm in layers])
        if plain:
            metrics["trace_overhead_s"] = summary(
                [metrics["traced_total_s"]["value"] - metrics["solve_s"]["value"]])
    units = {**END_TO_END, **LAYER_UNITS}
    for key, m in metrics.items():
        m["unit"] = units[key]
    failed = len(reps) - len(good)
    result = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "why": wl["why"], "towers": towers, "attempted": len(reps), "failed": failed,
        "fail_rate": failed / len(reps), "correct": failed == 0, "problems": problems,
        "env": good[0]["out"]["env"] if good else None, "metrics": metrics,
        "repetitions": [{k: v for k, v in r.items() if k != "out"}
                        | {k: v for k, v in r.get("out", {}).items() if k != "spans"}
                        for r in reps],
    }
    stem = OUT / f"{name}_seed{seed}_trace{int(trace)}"
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1) + "\n")
    if trace:
        with stem.with_name(stem.name + "_spans.jsonl").open("w") as fh:
            for i, rep in enumerate(reps):
                for span in rep.get("out", {}).get("spans", []):
                    fh.write(json.dumps({**span, "rep": i}) + "\n")
    return result


def report(result: dict, keys) -> None:
    print(f"{result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{result['attempted']} repetitions, {result['failed']} failed, "
          f"fail_rate {result['fail_rate']:g}")
    for problem in result["problems"]:
        print(f"  FAIL {problem}")
    for key in keys:
        m = result["metrics"].get(key)
        if m is not None:
            label = " (computed as 2 g^3)" if key == "linalg.matmul_gflop" else ""
            print(f"  {key:30s} {m['value']:14.6g} {m['unit']:8s} "
                  f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}{label}")


def main() -> int:
    if not (ROOT / "src" / "zptower" / "__init__.py").is_file():
        print(f"zptower sources not found under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if args.workload != "all":
        keys = LAYER_UNITS if args.trace else END_TO_END
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        report(result, keys)
        if any(k not in result["metrics"] for k in keys):
            print("no repetition succeeded", file=sys.stderr)
            return 1
        metrics = {k: {"value": result["metrics"][k]["value"], "unit": result["metrics"][k]["unit"]}
                   for k in keys}
        print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": metrics}))
        return 0

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace, keys in ((False, END_TO_END), (True, LAYER_UNITS)):
            result = run_workload(name, args.seed, args.seconds, trace)
            report(result, keys)
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            total["metrics"].update({f"{name}.{k}": {"value": m["value"], "unit": m["unit"]}
                                     for k, m in result["metrics"].items() if k in keys})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())

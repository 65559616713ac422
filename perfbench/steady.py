"""Steadiness of the benchmark: repeat it and print each metric's quartiles.

    python3 perfbench/steady.py

Runs the command of BENCHMARK.json from the root of the checkout in two
sets of ten runs per workload, cycling through the workloads run by run
(band, dense, roundtrip, band, ...), with seeds 1-10 in the first set and
1001-1010 in the second.  For each workload, set and end-to-end metric it
prints the median, the quartiles of ``statistics.quantiles(values, n=4)``
and the spread (q3 - q1) / median against the metric's bound; for the
second set also how far its median moved from the first in the metric's
bad direction.  It says "steady" when every spread and every move is
within its bound, every run was correct, and the failed share of
operations was the same in every run.  The summary also goes to
perfbench/out/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS, SETS = 10, 2


def run_once(spec, workload, seed) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    results = {(s, w): [] for s in range(SETS) for w in names}
    for s in range(SETS):
        for r in range(RUNS):
            for w in names:
                seed = 1000 * s + r + 1
                res = run_once(spec, w, seed)
                results[(s, w)].append(res)
                figures = "  ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.6g}" for m in metrics)
                print(f"set {s} {w:9s} seed {seed:5d} correct={res['correct']} "
                      f"failed {res['failed']}/{res['attempted']}  {figures}  ({res['wall_s']:.1f} s)", flush=True)
    summary, ok = {}, True
    print()
    print(f"{'workload':10s} {'metric':10s} {'set':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s} {'worse by':>8s}")
    for w in names:
        runs = [r for s in range(SETS) for r in results[(s, w)]]
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        ok &= correct and len(shares) == 1
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first = None
            for s in range(SETS):
                stats = summarize([r["metrics"][name]["value"] for r in results[(s, w)]])
                ok &= stats["spread"] <= bound
                worse = ""
                if first is not None:
                    moved = (stats["median"] - first["median"]) / first["median"]
                    stats["worse_by"] = moved if m["better"] == "lower" else -moved
                    ok &= stats["worse_by"] <= bound
                    worse = f"{stats['worse_by']:+8.3f}"
                summary[f"{w}/{name}/set{s}"] = stats
                print(f"{w:10s} {name:10s} {s:3d} {stats['median']:12.6g} {stats['q1']:12.6g} {stats['q3']:12.6g} "
                      f"{stats['spread']:8.4f} {bound:6.3f} {worse:>8s}")
                first = first or stats
        print(f"{w:10s} failed share {sorted(shares)}  correct={correct}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(summary, indent=1) + "\n")
    print("steady" if ok else "NOT steady: a spread or move exceeds its bound, a run was wrong, or the failed share moved")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

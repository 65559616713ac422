"""Benchmark for eigenpoly: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload band --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics ``op_ms``, ``ops_per_s``, ``peak_mib`` and
``setup_s``; with ``--trace 1`` it carries the per-layer metrics of a
traced run instead, and the spans go to ``perfbench/out/``.  See
perfbench/README.md for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

# one BLAS thread, as in BENCHMARK.json's command, also when run by hand
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("band", "dense", "roundtrip")
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
CHILD_TIMEOUT = 170
MIB = 2.0**20


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("main", "setup", "peak"), default="main", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


class Tally:
    """Operations attempted and failed, and the checks that found a wrong output."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.wrong: list = []

    def run(self, wl, i):
        """Run and check operation i; returns its seconds, or None if it raised."""
        from oracle import CheckFailed

        self.attempted += 1
        try:
            seconds, out = wl.run(i)
        except Exception:  # an operation of the program failed; count it and go on
            self.failed += 1
            print(f"operation {i} raised:", file=sys.stderr)
            traceback.print_exc()
            return None
        try:
            if wl.check(i, out):
                self.failed += 1
        except (CheckFailed, KeyError, TypeError, ValueError) as exc:
            if len(self.wrong) < 5:
                print(f"check failed: {exc}", file=sys.stderr)
            self.wrong.append(str(exc))
        return seconds

    def restart(self) -> None:
        """Count from here on; wrong outputs seen so far still count."""
        self.attempted = self.failed = 0


def ready(name: str, seed: int, tally: Tally):
    """Set up a workload and warm it up; returns (workload, setup seconds)."""
    t0 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name]()
    wl.setup(seed)
    for i in range(wl.round):
        tally.run(wl, i)
    return wl, time.perf_counter() - t0


def timed_pass(wl, seconds: float, tally: Tally, tracer=None, between=None) -> tuple:
    """Whole rounds until ``seconds`` have passed; one round is one operation.

    Returns the round times in seconds, leaving out rounds in which a call
    raised.  With a tracer, rounds alternate between traced and untraced,
    so that the tracing overhead is measured under the same machine load;
    then returns (traced, untraced) times.  ``between(elapsed)`` runs
    before each round, off the clock.
    """
    times = ([], [])
    rounds = op = 0
    start = time.perf_counter()
    while True:
        if between is not None:
            paused = time.perf_counter()
            between(paused - start)
            start += time.perf_counter() - paused
        traced = tracer is not None and rounds % 2 == 0
        if tracer is not None:
            tracer.install() if traced else tracer.uninstall()
        spent = 0.0
        for j in range(wl.round):
            if traced:
                tracer.op = op
            dt = tally.run(wl, (rounds * wl.round + j) % len(wl))
            spent = None if dt is None or spent is None else spent + dt
            op += 1
        if spent is not None:
            times[0 if traced or tracer is None else 1].append(spent)
        rounds += 1
        if time.perf_counter() - start >= seconds and (tracer is None or rounds % 2 == 0):
            if tracer is not None:
                tracer.uninstall()
                return times
            return times[0]


def child(role: str, args) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--role", role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{role} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cold_import_ms() -> float:
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); t = time.perf_counter(); "
            "import eigenpoly.cli; print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True)
        samples.append(1e3 * float(proc.stdout.strip()))
    return statistics.median(samples)


def end_to_end(args, tally: Tally) -> dict:
    peak = child("peak", args)
    tally.wrong += peak["wrong"]
    wl, setup_s = ready(args.workload, args.seed, tally)
    setups = [setup_s]
    tally.restart()

    def set_up_again(elapsed):
        # the other set-ups run in fresh processes spread over the pass, so
        # their median spans the machine's load over the whole run
        if len(setups) < SETUP_SAMPLES and elapsed >= args.seconds * len(setups) / SETUP_SAMPLES:
            sample = child("setup", args)
            setups.append(sample["setup_s"])
            tally.wrong += sample["wrong"]

    try:
        gc.collect()
        gc.freeze()
        times = timed_pass(wl, args.seconds, tally, between=set_up_again)
    finally:
        getattr(wl, "close", lambda: None)()
    report(wl, tally)
    metrics = {
        "op_ms": (1e3 * statistics.median(times), "ms"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_mib": (peak["peak_mib"], "MiB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return metrics, setups


def traced(args, tally: Tally) -> dict:
    """Per-layer figures: a pass whose rounds alternate between traced and
    untraced, then one round under tracemalloc for the memory figures."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = "setup"
    wl, _ = ready(args.workload, args.seed, tally)
    tracer.uninstall()
    tally.restart()
    try:
        with_spans, without = timed_pass(wl, args.seconds, tally, tracer)
        counts = tally.attempted, tally.failed
        time_spans = list(tracer.spans)
        tracer.install()
        memory_spans = memory_pass(tracer, workloads.WORKLOADS[args.workload](), args.seed, tally)
        tracer.uninstall()
        tally.attempted, tally.failed = counts
    finally:
        getattr(wl, "close", lambda: None)()
    report(wl, tally)
    layers = tracing.layer_metrics(time_spans, memory_spans)
    missing = [name for name, value in layers.items() if value is None]
    if missing:
        # layers this workload never calls are timed on one traced roundtrip cycle
        counts = tally.attempted, tally.failed
        tracer.install()
        cover = workloads.Roundtrip()
        cover.setup(args.seed)
        first = len(tracer.spans)
        try:
            for i in range(cover.round):
                tracer.op = f"coverage-{i}"
                tally.run(cover, i)
        finally:
            cover.close()
            tracer.uninstall()
        covered = tracing.layer_metrics(tracer.spans[first:], [])
        layers.update({name: covered[name] for name in missing})
        tally.attempted, tally.failed = counts
        print(f"layers timed on the roundtrip cycle: {', '.join(missing)}")
    layers["cli.import_ms"] = cold_import_ms()
    layers["trace.overhead_pct"] = 100.0 * (statistics.median(with_spans) / statistics.median(without) - 1.0)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    return {name: (value, tracing.unit(name)) for name, value in layers.items()}


def memory_pass(tracer, wl, seed: int, tally: Tally) -> list:
    """Set up afresh and run one round with tracemalloc on; returns its spans."""
    first = len(tracer.spans)
    tracemalloc.start()
    try:
        tracer.op = "memory-setup"
        wl.setup(seed)
        for i in range(wl.round):
            tracer.op = f"memory-{i}"
            tally.run(wl, i)
    finally:
        tracemalloc.stop()
        getattr(wl, "close", lambda: None)()
    return tracer.spans[first:]


def report(wl, tally: Tally) -> None:
    if hasattr(wl, "skipped"):
        print(f"lstsq oracle: rank compared on {wl.compared - wl.skipped} of {wl.compared} checked solves, "
              f"{wl.skipped} skipped for lack of a clear gap at the cutoff")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "eigenpoly" / "__init__.py").is_file():
        print(f"perfbench: no eigenpoly sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tally = Tally()
    if args.role == "setup":
        wl, setup_s = ready(args.workload, args.seed, tally)
        getattr(wl, "close", lambda: None)()
        print(json.dumps({"setup_s": setup_s, "wrong": tally.wrong}))
        return 0
    if args.role == "peak":
        tracemalloc.start()
        wl, _ = ready(args.workload, args.seed, tally)
        try:
            for i in range(len(wl)):
                tally.run(wl, i)
        finally:
            getattr(wl, "close", lambda: None)()
        print(json.dumps({"peak_mib": tracemalloc.get_traced_memory()[1] / MIB, "wrong": tally.wrong}))
        return 0
    if args.trace:
        metrics, extra = traced(args, tally), {}
    else:
        metrics, setups = end_to_end(args, tally)
        extra = {"setup_samples_s": setups}
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": u} for name, (value, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result | extra) + "\n")
    print(f"{args.workload} seed {args.seed}: {tally.attempted} operations, {tally.failed} failed")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

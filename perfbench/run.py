"""trfam benchmark: one workload, closed loop, for a fixed measuring time.

    python3 perfbench/run.py --workload matrix-qn --seed 3 --seconds 25 --trace 0

Run from the repository root; trfam is imported from ``src/``. The process
sets itself up (import trfam, build the workload's inputs, warm up), then
repeats passes over the workload's operations, one operation at a time,
until the measuring time is spent. Between operations it times a fixed
host-speed kernel and, a few times a run, sets up again from a fresh
import. With ``--trace 0`` it reports the end-to-end metrics of untraced
passes; with ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics. The last stdout line is one JSON object; the
exit code is 1 when any output check failed and 2 when trfam cannot be
imported. perfbench/design.json defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_ROUNDS = 5  # one before measuring, the rest spread over the measuring time
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import trfam; print(time.perf_counter() - t)")

# Workload and metric names and units come from BENCHMARK.json; the bounded
# time metrics are in "ref" units, the median time of the host-speed kernel
# in the same run (see hostspeed.py).
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Printed on every run, not bounded. Host-speed drift moves the plain times
# by up to 2x between runs. The latency percentiles move with the seed as
# well: on matrix-qn the seed reshuffles which cells sit at the median and
# the tail, which moved them by 18-30% between seeds.
UNBOUNDED = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "us_per_iter": "us",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": git_commit(ROOT),
    }


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads OpenBLAS
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import trfam
    except ImportError as exc:
        print(f"error: cannot import trfam from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(trfam.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: trfam came from {trfam.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2

    import_s = time.perf_counter() - t_start
    OUT_DIR.mkdir(exist_ok=True)
    emit_dir = Path(tempfile.mkdtemp(prefix="emit-", dir=OUT_DIR))
    try:
        return measure(args, import_s, emit_dir)
    finally:
        shutil.rmtree(emit_dir, ignore_errors=True)


def child_import_s() -> float:
    """Time to import trfam in a fresh interpreter, as timed inside it."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def typical_pass(per_pass) -> float:
    """Each timed call's median over the passes, summed; ``per_pass`` holds
    one list of call times per pass. A burst of host noise then moves only
    the calls it hit, not a whole pass."""
    return sum(stats.median(call) for call in zip(*per_pass))


def measure(args, import_s, emit_dir) -> int:
    # These load numpy, so they are imported only after main() pinned threads.
    import hostspeed
    import tracing
    import workloads

    imports, builds = [import_s], []
    paused = 0.0  # time in the set-up rounds after the first: not measuring time

    def set_up():
        nonlocal paused
        t0 = time.perf_counter()
        if builds:
            imports.append(child_import_s())
        t1 = time.perf_counter()
        built = workloads.build(args.workload, args.seed, emit_dir)
        built.warm_up()
        t2 = time.perf_counter()
        if builds:
            paused += t2 - t0
        builds.append(t2 - t1)
        return built

    # The first set-up builds the measured workload in this process. The
    # later rounds import trfam in a fresh interpreter and build throwaway
    # copies, between operations of untraced passes, spread evenly over the
    # measuring time, so a burst of host load moves one round, not setup_s.
    wl = set_up()
    ref = hostspeed.Sampler()
    t_measure = time.perf_counter()

    def measured_s() -> float:
        return time.perf_counter() - t_measure - paused

    def between() -> None:
        ref()
        if len(builds) < SETUP_ROUNDS and measured_s() >= args.seconds * len(builds) / SETUP_ROUNDS:
            set_up()

    tracer = tracing.Tracer() if args.trace else None
    plain, traced, layers = [], [], []
    spans = []
    while True:
        if tracer is not None and len(traced) < len(plain):
            res = wl.run_pass(tracer, ref)
            spans, counts = tracer.take()
            layers.append(tracing.layer_metrics(spans, counts, res.iterations, res.accepted))
            traced.append(res)
        else:
            plain.append(wl.run_pass(between=between))
        if measured_s() >= args.seconds and (tracer is None or traced):
            break
    while len(builds) < SETUP_ROUNDS:  # rounds a short run had no time for
        set_up()
    ref_s = stats.median(ref.samples)

    passes = plain + traced
    first = plain[0]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    repeat_ok = all(p.totals() == first.totals() for p in passes)
    for failure in dict.fromkeys(f for p in passes for f in p.failures):
        print(f"FAILED {failure}")
    if not repeat_ok:
        print("FAILED totals differ between passes: "
              + ", ".join(str(p.totals()) for p in passes))

    wall_s = typical_pass([p.calls for p in plain])
    # Each call over the host speed around it, so a host that changes speed
    # within the run moves the calls and their reference together.
    wall_ref = typical_pass([[s / ref.around(t) for s, t in zip(p.calls, p.mids)]
                             for p in plain])
    rounds = [i + b for i, b in zip(imports, builds)]
    setup_s = stats.median(rounds)
    samples = [ms for p in plain for ms in p.op_ms]
    q, tail_ms, above = stats.tail(samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_p50_ms": stats.percentile(samples, 50.0),
        "op_tail_ms": tail_ms,
        "us_per_iter": wall_s / first.iterations * 1e6,
        "wall_ref": wall_ref,
        "iter_ref": wall_ref / first.iterations,
        "iterations": first.iterations,
        "fevals": first.fevals,
        "gevals": first.gevals,
        "solved": first.solved,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {SETUP_ROUNDS} set-ups (import + build and warm-up) "
                   + ", ".join(f"{i:.3f}+{b:.3f}" for i, b in zip(imports, builds))
                   + f"; {setup_s / ref_s:.1f} ref",
        "wall_s": f"per-call medians over {len(plain)} untraced passes, summed",
        "op_p50_ms": f"n={len(samples)}",
        "op_tail_ms": f"p{q:g}, n={len(samples)}, {above} above",
        "wall_ref": f"calls over the host-speed kernel time around them; kernel median "
                    f"{ref_s * 1e3:.4f} ms over {len(ref.samples)} samples",
        "solved": f"of {len(first.op_ms)} per pass",
    }
    print(f"trfam benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(plain)} untraced + {len(traced)} traced passes")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    for name, unit in {**UNBOUNDED, **END_TO_END}.items():
        print(f"  {name:<18} {e2e[name]:>14.6g} {unit:<6} {notes.get(name, '')}")
    print(f"  {'fail_frac':<18} {failed / attempted:>14.6g} {'1':<6} "
          f"{failed} of {attempted} operations")
    print(f"  {'nonfinite_records':<18} {first.nonfinite:>14d} {'count':<6} per pass")

    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        layer = {name: stats.median([run[name] for run in layers]) for name in layers[0]}
        layer["driver.nonfinite_records"] = first.nonfinite
        layer["trace.overhead_frac"] = typical_pass([p.calls for p in traced]) / wall_s - 1.0
        for name, unit in PER_LAYER.items():
            print(f"  {name:<28} {layer[name]:>14.6g} {unit}")
        idle = [name for name in PER_LAYER if layer[name] == 0]
        if idle:
            print("  zero on this workload (design.json gives why): " + ", ".join(idle))
        span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
        tracing.write_spans(spans, span_file)
        print(f"  spans of the last traced pass: {span_file} ({len(spans)} spans)")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}

    correct = failed == 0 and repeat_ok
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Time and memory of one worst-case replay and its audits, for the climb
to paper scale.

    python3 benchmarks/paper_scale.py --p 1 --c 1 --eps 0.28

Run from the repository root; trfam is imported from ``src/``. Runs
``verify_sharpness`` once on the given spec, then ``audit_run`` on that
same replay under both growth assumptions, and prints one JSON line:
k_eps, passed (the replay's checks), audit_successful_counter and
audit_iteration_counter (each audit's verdict), seconds and us_per_iter
(the replay), audit_seconds (both audits), peak_rss_mib (the process's
peak resident set) and bytes_per_iter (that peak above the one right
after the import, over k_eps). Exits 1 unless the replay and both audits
pass. The paper's p = 1 target is eps = 0.25 (k_eps 8,886,110); climb to
it through eps = 0.28 and 0.26, since the replay keeps every iterate's
log, model value and knot data in memory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # KiB on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=float, required=True)
    ap.add_argument("--c", type=float, default=1.0)
    ap.add_argument("--eps", type=float, required=True)
    args = ap.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # before numpy loads its BLAS
    sys.path.insert(0, str(ROOT / "src"))
    from trfam.adversarial import AdversarialSpec, bound_inputs, verify_sharpness
    from trfam.bounds import audit_run

    spec = AdversarialSpec(eps=args.eps, p=args.p, c=args.c)
    baseline = peak_rss_bytes()
    t0 = time.perf_counter()
    sharp, report = verify_sharpness(spec)
    seconds = time.perf_counter() - t0
    inputs = bound_inputs(sharp, report)
    audits = {f"audit_{assumption}": audit_run(report, inputs, assumption).passed
              for assumption in ("successful_counter", "iteration_counter")}
    audit_seconds = time.perf_counter() - t0 - seconds
    peak = peak_rss_bytes()
    print(json.dumps({
        "p": args.p, "c": args.c, "eps": args.eps,
        "k_eps": sharp.k_eps,
        "passed": sharp.passed,
        **audits,
        "seconds": round(seconds, 3),
        "us_per_iter": round(seconds / sharp.k_eps * 1e6, 2),
        "audit_seconds": round(audit_seconds, 3),
        "peak_rss_mib": round(peak / 2**20, 1),
        "bytes_per_iter": round((peak - baseline) / sharp.k_eps, 1),
    }))
    return 0 if sharp.passed and all(audits.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

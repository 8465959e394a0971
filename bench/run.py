"""Benchmark of the nfisac designs and Monte Carlo trials.

Run from the root of a source checkout:

    python3 bench/run.py --workload point-design --seed 1 --seconds 10 --trace 0

Each workload runs in this one process.  The last line of standard output is
a JSON object with the keys correct, attempted, failed and metrics; metrics
holds the end-to-end figures with --trace 0 and the per-layer figures of a
traced run with --trace 1.  The same object, with the machine's cores, BLAS
thread setting and library versions, is written to bench/out/, and a traced
run also writes its spans there as JSON lines.
"""

import os

# One BLAS thread, fixed before numpy loads: on a 2-core machine threaded
# small-matrix LAPACK is both slower and noisier, and the trial pool's
# workers would otherwise oversubscribe the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOAD_NAMES = ("point-design", "mc-trials")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be nonnegative and --seconds positive")
    return args


def environment():
    import numpy
    import scipy
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {v: os.environ.get(v) for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, SRC_DIR)
    t0 = time.perf_counter()
    try:
        import nfisac.harness  # noqa: F401  (loads every module the workloads use)
    except ImportError as exc:
        print(f"error: cannot import nfisac from {SRC_DIR}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    import workloads
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    try:
        res = workloads.WORKLOADS[args.workload](args.seed, args.seconds, import_s, tracer)
    finally:
        if tracer is not None:
            tracer.unwrap()
    for line in res.errors:
        print(f"operation failed: {line}", file=sys.stderr)
    for line in res.fails:
        print(f"check failed: {line}", file=sys.stderr)
    figures = res.layers if args.trace else dict(
        res.metrics, peak_rss_mb=(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                  "MB"))
    result = {"correct": not res.fails, "attempted": res.attempted, "failed": res.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in figures.items()}}

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                       environment=environment(), errors=res.errors, fails=res.fails),
                  fh, indent=2)
    if tracer is not None:
        if tracer.missing:
            print(f"traced names missing from nfisac: {', '.join(tracer.missing)}",
                  file=sys.stderr)
        tracer.write(stem + "-spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

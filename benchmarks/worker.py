"""Run one workload once, in this fresh process, and print its
measurements as one JSON line.

    python3 benchmarks/worker.py --workload W --seed N --scale full \
        --trace 0 --t0 <time.monotonic() just before this process started>

setup_s runs from --t0 (taken by the parent on the same monotonic clock)
to the end of set-up, so it covers interpreter start, package import and
the workload's fixed inputs.  With --setup-only the verdict is skipped.
"""

import argparse
import json
import random
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRELOADED = set(sys.modules)
OWN_MODULES = {"workloads", "tracing", "d43crystal"}


def foreign_modules():
    """Top-level modules imported since start that are neither standard
    library, nor d43crystal, nor this benchmark."""
    return sorted({
        name.split(".", 1)[0] for name in set(sys.modules) - PRELOADED
    } - set(sys.stdlib_module_names) - OWN_MODULES)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", default="full")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import d43crystal
    pkg = Path(d43crystal.__file__).resolve().parent
    if pkg != ROOT / "src" / "d43crystal":
        sys.exit(f"d43crystal imported from {pkg}, not from {ROOT / 'src'}")
    import workloads

    tracer, span = None, lambda name: nullcontext()
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        span = tracer.span
    scale = workloads.SCALES[args.scale]
    setup, verdict = workloads.WORKLOADS[args.workload]

    with span("setup"):
        inputs = setup(scale, random.Random(args.seed))
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s}
    if not args.setup_only:
        checks = workloads.Checks()
        t = time.perf_counter()
        try:
            with span("verdict"):
                verdict(inputs, scale, checks)
        except Exception:
            # a verdict that raises is a failed check, not a crashed run
            checks.attempted += 1
            checks.failures.append({"check": "raised",
                                    "got": traceback.format_exc(limit=3),
                                    "want": "no exception"})
        out["verdict_s"] = time.perf_counter() - t
        out["attempted"] = checks.attempted
        out["failures"] = checks.failures
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["foreign_modules"] = foreign_modules()
    if tracer:
        out["trace"] = tracer.summary()
        out["spans"] = tracer.records()
    print(json.dumps(out))


if __name__ == "__main__":
    main()

"""Self-test of the benchmark at tiny sizes (l = 2, box 1, one YBE point).

    python3 benchmarks/selftest.py

Checks, through the same command the benchmark is run with:

- every metric of BENCHMARK.json is emitted with its unit, in both modes,
  and every known-answer check passes;
- two traced runs with the same seed give exactly the same counters;
- nothing outside the standard library and d43crystal is imported;
- a deliberately wrong known answer, and a zero count, are failed checks;
- without the package sources the benchmark exits nonzero and prints no
  result.

The R-matrix proofs have no size, so rmatrix-exact runs at full size here.
Exits 0 when every check holds.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1
# counters that are times, not counts
TIMED = {"exactalg.p_gcd.s", "exactalg.p_divexact.s"}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def run(workload, trace):
    proc = bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                 "--trace", str(trace), "--scale", "tiny")
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (ROOT / ".bench_out" / f"{workload}-seed{SEED}-trace{trace}.json")
        .read_text())
    return result, record


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import run as bench_run
    import workloads

    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in bench_run.WORKLOADS:
        counts = []
        for trace, key in ((0, "end_to_end"), (1, "per_layer"), (1, None)):
            result, record = run(workload, trace)
            if key:
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                check(got == want, f"{workload} trace {trace}: metrics and units")
                check(set(result) == {"correct", "attempted", "failed", "metrics"}
                      and result["correct"] and result["failed"] == 0
                      and result["attempted"] > 0,
                      f"{workload} trace {trace}: known answers")
            foreign = sorted({m for r in record["repetitions"]
                              for m in r.get("foreign_modules", ())})
            check(not foreign, f"{workload} trace {trace}: stdlib only {foreign}")
            if trace:
                traced = record["repetitions"][1]
                counts.append({k: v for k, v in traced["trace"]["counts"].items()
                               if k not in TIMED})
        check(counts[0] == counts[1], f"{workload}: counters repeat exactly")

    tiny = workloads.SCALES["tiny"]
    wrong = dataclasses.replace(tiny, embeddings=tiny.embeddings + 1)
    checks = workloads.Checks()
    workloads.crystal_coherent({}, wrong, checks)
    check([f["check"] for f in checks.failures] == ["embeddings.count"],
          "a wrong known answer is a failed check")
    checks = workloads.Checks()
    checks.expect_some("samples", 0, 0)
    check(len(checks.failures) == 1, "a zero count is a failed check")

    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", "crystal-coherent", "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without src/ the benchmark exits nonzero with no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

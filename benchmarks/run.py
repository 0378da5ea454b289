"""Time-to-verdict benchmark of d43crystal.

    python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
src/.  Every repetition runs the workload in a fresh single-threaded
worker process (benchmarks/worker.py), one at a time, and checks every
verdict against its known answer.

--trace 0 measures the end-to-end metrics.  It first starts a few cold
processes that only set up, within a tenth of --seconds, then repeats the
whole workload while the next repetition still fits in --seconds, and
reports medians: verdict_s, setup_s (interpreter start, import and the
workload's fixed inputs) and peak_rss_mb.

--trace 1 measures the per-layer metrics: one untraced repetition, one
traced repetition, and one small CLI command in a subprocess.  The
tracing overhead is the traced verdict_s less the untraced one.

Both modes print every metric with its unit, then one JSON line
{"correct", "attempted", "failed", "metrics"}, and write the raw
repetitions, spans and provenance to .bench_out/.  --scale tiny runs the
self-test sizes.
"""

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("rmatrix-exact", "ybe-sampled", "crystal-perfect",
             "crystal-coherent")

# span names whose total time is reported as "<name>.s"
SPAN_TOTALS = (
    "fundrep.relations", "fundrep.polarization", "fundrep.lowering",
    "rmatrix.build_components", "rmatrix.build_projections",
    "rmatrix.component_coords", "rmatrix.build_R", "rmatrix.intertwiner",
    "rmatrix.determinants", "rmatrix.rrswap", "tensorcat.components",
    "tensorcat.vacuum_walk", "perfectness.P1", "perfectness.P2",
    "perfectness.P45", "coherent.embeddings", "coherent.cover",
    "coherent.totality", "a2branch.decompose", "a2branch.appendix",
    "a2branch.lemmas",
)

# one small front-end command per workload, run in the traced mode
CLI_COMMANDS = {
    "rmatrix-exact": ["verify", "relations"],
    "ybe-sampled": ["verify", "relations"],
    "crystal-perfect": ["check", "perfect", "--level", "4"],
    "crystal-coherent": ["verify", "coherent", "--level", "4", "--box", "2"],
}

SETUP_RUNS = 9          # cold set-up samples wanted per run
SETUP_SHARE = 0.1       # share of --seconds the set-up-only processes may use
DEADLINE_S = 170        # a run never outlives this


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = child_env()

    def _run(self, cmd):
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run deadline passed")
        try:
            return subprocess.run(cmd, cwd=ROOT, env=self.env, text=True,
                                  capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"timed out: {' '.join(cmd)}") from exc

    def worker(self, trace=0, setup_only=False):
        a = self.args
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", a.workload, "--seed", str(a.seed),
               "--scale", a.scale, "--trace", str(trace)]
        if setup_only:
            cmd.append("--setup-only")
        t0 = time.monotonic()
        proc = self._run(cmd + ["--t0", repr(t0)])
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def cli(self):
        """One front-end command; a nonzero exit is a failed check."""
        cmd = [sys.executable, "-m", "d43crystal.cli",
               *CLI_COMMANDS[self.args.workload]]
        t = time.monotonic()
        proc = self._run(cmd)
        wall = time.monotonic() - t
        failures = [] if proc.returncode == 0 else [{
            "check": "cli.exit_code", "got": proc.returncode, "want": 0}]
        return {"wall_s": wall, "exit_code": proc.returncode,
                "command": cmd[3:], "attempted": 1, "failures": failures}

    def end_to_end(self):
        """Cold set-ups, then whole repetitions until --seconds is used."""
        start = time.monotonic()
        budget = self.args.seconds
        setups = []
        while len(setups) < SETUP_RUNS:
            setups.append(self.worker(setup_only=True)["setup_s"])
            spent = time.monotonic() - start
            if spent / len(setups) * (len(setups) + 1) > SETUP_SHARE * budget:
                break
        reps = []
        while True:
            t = time.monotonic()
            reps.append(self.worker())
            setups.append(reps[-1]["setup_s"])
            took = time.monotonic() - t
            if time.monotonic() - start + took > budget:
                break
        metrics = {
            "verdict_s": statistics.median(r["verdict_s"] for r in reps),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }
        return metrics, reps, {"setup_samples": setups}

    def per_layer(self):
        plain = self.worker(trace=0)
        traced = self.worker(trace=1)
        cli = self.cli()
        return layer_metrics(plain, traced, cli), [plain, traced, cli], {}


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(plain, traced, cli):
    tr = traced["trace"]
    c, total = tr["counts"], tr["total_s"]
    m = {f"{name}.s": total.get(name, 0.0) for name in SPAN_TOTALS}
    m.update({f"{layer}.self_s": s for layer, s in tr["self_s"].items()})
    for key in ("exactalg.p_gcd.calls", "exactalg.p_gcd.s",
                "exactalg.p_divexact.calls", "exactalg.p_divexact.s",
                "exactalg.qrat_mul.calls", "exactalg.qrat_add.calls",
                "exactalg.max_in_deg", "rmatrix.R_nnz",
                "affine.apply_op.calls", "affine.admits.calls",
                "tensorcat.components.vertices", "tensorcat.vacuum_walk.steps",
                "tensorcat.level_crystal.calls", "coherent.cover.points",
                "coherent.f_embed_inverse.calls", "a2branch.appendix.tuples"):
        m[key] = c[key]
    m["exactalg.p_gcd.trivial_ratio"] = _ratio(c["exactalg.p_gcd.trivial"],
                                               c["exactalg.p_gcd.calls"])
    m["rmatrix.ybe_sample.s"] = tr["median_s"].get("rmatrix.ybe_sample", 0.0)
    m["rmatrix.ybe.samples"] = tr["calls"].get("rmatrix.ybe_sample", 0)
    m["tensorcat.vertices_per_s"] = _ratio(c["tensorcat.components.vertices"],
                                           total.get("tensorcat.components", 0))
    m["coherent.cover.hit_ratio"] = _ratio(c["coherent.f_embed_inverse.hits"],
                                           c["coherent.f_embed_inverse.calls"])
    m["cli.wall_s"] = cli["wall_s"]
    m["cli.exit_code"] = cli["exit_code"]
    m["trace.overhead_s"] = traced["verdict_s"] - plain["verdict_s"]
    m["trace.spans"] = len(traced["spans"])
    runs = (plain, traced, cli)
    m["check_fail_ratio"] = _ratio(sum(len(r["failures"]) for r in runs),
                                   sum(r["attempted"] for r in runs))
    return m


def metric_units(trace):
    """name -> unit of the metrics this mode reports, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def git_commit():
    """HEAD of the checkout, or None where it is not a git work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def provenance(args):
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "scale": args.scale,
        "trace": args.trace,
        "seconds": args.seconds,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "d43crystal").glob("*.py"))),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (SRC / "d43crystal" / "__init__.py").is_file():
        print(f"error: no d43crystal package under {SRC}", file=sys.stderr)
        return 2

    compileall.compile_dir(SRC, quiet=1)
    units = metric_units(args.trace)
    runner = Runner(args)
    try:
        if args.trace:
            metrics, reps, extra = runner.per_layer()
        else:
            metrics, reps, extra = runner.end_to_end()
        if set(metrics) != set(units):
            raise BenchError("metrics differ from BENCHMARK.json: "
                             f"{sorted(set(metrics) ^ set(units))}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    prov = provenance(args)

    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({
        "provenance": prov, "metrics": metrics, "units": units,
        "repetitions": reps, **extra}, indent=1, default=str))

    print(f"provenance {json.dumps(prov)}")
    print(f"repetitions {len(reps)}  checks {attempted}  "
          f"failed {len(failures)}  written {out_file.relative_to(ROOT)}")
    for f in failures:
        print(f"FAILED {f['check']}: got {f['got']}, want {f['want']}")
    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": not failures and attempted > 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

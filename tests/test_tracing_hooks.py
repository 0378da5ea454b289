"""The benchmark tracer wraps package functions by name; a rename or a
deletion that it does not guard against must fail here, not in a traced
benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_COVER = """
import tracing
from d43crystal import coherent
tracer = tracing.Tracer()
tracer.install()
r = coherent.verify_cover(1)
c = tracer.counts
print(r["checked"], c["coherent.f_embed_inverse.calls"],
      c["coherent.f_embed_inverse.hits"], c["coherent.cover.points"])
"""

TRACED_RMATRIX = """
import tracing
from d43crystal import fundrep, rmatrix
tracer = tracing.Tracer()
tracer.install()
rep = fundrep.build_v1()
assert all(fundrep.verify_lowering_identities(rep).values())
R = rmatrix.build_R(rep)
assert all(rmatrix.verify_intertwiner(R, rep).values())
calls = tracer.summary()["calls"]
print(tracer.counts["rmatrix.R_nnz"])
print(" ".join(sorted(name for name, n in calls.items() if n)))
"""

TRACED_CRYSTAL = """
import tracing
from d43crystal import a2branch, perfectness, tensorcat
tracer = tracing.Tracer()
tracer.install()
assert perfectness.check_P1(2)["status"] == "pass"
for pair in [((1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)),
             ((0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0))]:
    assert tensorcat.connect_to_vacuum(2, pair)
assert len(a2branch.decompose(2)) == 2
calls = tracer.summary()["calls"]
print(tracer.counts["tensorcat.level_crystal.calls"])
print(" ".join(sorted(name for name, n in calls.items() if n)))
"""


def _traced(script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "benchmarks")]))
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out


def test_tracer_installs_and_counts_cover_probes():
    out = _traced(TRACED_COVER)
    # the closed-form witness probes f_embed_inverse once per point, and
    # every probe hits
    assert out.stdout.split() == ["405"] * 4


def test_tracer_records_the_rmatrix_spans():
    nnz, names = _traced(TRACED_RMATRIX).stdout.splitlines()
    assert nnz == "342"
    assert {"fundrep.lowering", "rmatrix.build_components",
            "rmatrix.component_coords", "rmatrix.build_R",
            "rmatrix.intertwiner"} <= set(names.split())


def test_tracer_records_the_crystal_spans():
    level_calls, names = _traced(TRACED_CRYSTAL).stdout.splitlines()
    assert int(level_calls) > 0
    assert {"perfectness.P1", "tensorcat.vacuum_walk",
            "a2branch.decompose"} <= set(names.split())

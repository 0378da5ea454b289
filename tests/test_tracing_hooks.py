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


def test_tracer_installs_and_counts_cover_probes():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "benchmarks")]))
    out = subprocess.run([sys.executable, "-c", TRACED_COVER], cwd=ROOT,
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    # the closed-form witness probes f_embed_inverse once per point, and
    # every probe hits
    assert out.stdout.split() == ["405"] * 4

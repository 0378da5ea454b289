"""In-memory spans and counters for the traced run.

The tracer wraps public functions of d43crystal from outside the package;
nothing under src/ changes.  A call at a layer boundary becomes a span
(id, name, start, end, parent).  The hot calls of the exact kernel and of
the crystal operators are too frequent for spans: they become counters,
and p_gcd and p_divexact also accumulate their time, which is charged to
the innermost open span as time spent below it.  Spans stay in memory
until the run writes them out.

Module attributes are replaced in every d43crystal module that holds the
same function object, so calls made inside the package through a module
global or a `from ... import` name are caught too.  A function missing at
the traced commit is skipped and its metrics read zero.
"""

import statistics
from contextlib import contextmanager
from time import perf_counter

from d43crystal import (a2branch, affine, coherent, exactalg, fundrep,
                        g2crystal, perfectness, rmatrix, tensorcat)

# (module, function) -> span name; the name's first part is the layer
SPANS = {
    ("fundrep", "build_v1"): "fundrep.build_v1",
    ("fundrep", "check_defining_relations"): "fundrep.relations",
    ("fundrep", "build_polarization"): "fundrep.polarization",
    ("fundrep", "check_polarization"): "fundrep.polarization",
    ("fundrep", "verify_lowering_identities"): "fundrep.lowering",
    ("rmatrix", "build_components"): "rmatrix.build_components",
    ("rmatrix", "build_projections"): "rmatrix.build_projections",
    ("rmatrix", "component_coords"): "rmatrix.component_coords",
    ("rmatrix", "build_R"): "rmatrix.build_R",
    ("rmatrix", "verify_intertwiner"): "rmatrix.intertwiner",
    ("rmatrix", "vacuum_eigenvalue"): "rmatrix.vacuum",
    ("rmatrix", "verify_determinants"): "rmatrix.determinants",
    ("rmatrix", "verify_R_Rswap_scalar"): "rmatrix.rrswap",
    ("rmatrix", "verify_yang_baxter"): "rmatrix.ybe",
    ("rmatrix", "yang_baxter_residual"): "rmatrix.ybe_sample",
    ("tensorcat", "connected_components"): "tensorcat.components",
    ("tensorcat", "connect_to_vacuum"): "tensorcat.vacuum_walk",
    ("perfectness", "check_P1"): "perfectness.P1",
    ("perfectness", "check_P2"): "perfectness.P2",
    ("perfectness", "check_P4_P5"): "perfectness.P45",
    ("coherent", "verify_all_embeddings"): "coherent.embeddings",
    ("coherent", "verify_cover"): "coherent.cover",
    ("coherent", "verify_totality"): "coherent.totality",
    ("a2branch", "decompose"): "a2branch.decompose",
    ("a2branch", "verify_appendix"): "a2branch.appendix",
    ("a2branch", "verify_lemmas"): "a2branch.lemmas",
}

# span name -> (counter, amount of work read from the call's result)
RESULT_COUNTS = {
    "rmatrix.build_R": ("rmatrix.R_nnz", lambda R: sum(map(len, R.cols))),
    "rmatrix.ybe_sample": ("rmatrix.ybe_sample.nonzero", int),
    "tensorcat.components": ("tensorcat.components.vertices",
                             lambda comps: sum(map(len, comps))),
    "tensorcat.vacuum_walk": ("tensorcat.vacuum_walk.steps", len),
    "coherent.cover": ("coherent.cover.points",
                       lambda r: r.get("checked", 0)),
    "a2branch.appendix": ("a2branch.appendix.tuples", int),
}

COUNTERS = (
    "exactalg.p_gcd.calls", "exactalg.p_gcd.trivial", "exactalg.p_gcd.s",
    "exactalg.max_in_deg", "exactalg.p_divexact.calls",
    "exactalg.p_divexact.s", "exactalg.qrat_mul.calls",
    "exactalg.qrat_add.calls", "affine.apply_op.calls", "affine.admits.calls",
    "tensorcat.level_crystal.calls", "coherent.f_embed_inverse.calls",
    "coherent.f_embed_inverse.hits",
) + tuple(counter for counter, _ in RESULT_COUNTS.values())

LAYERS = ("fundrep", "rmatrix", "tensorcat", "perfectness", "coherent",
          "a2branch")

MODULES = {m.__name__.rsplit(".", 1)[1]: m for m in (
    a2branch, affine, coherent, exactalg, fundrep, g2crystal, perfectness,
    rmatrix, tensorcat)}


def _replace(original, wrapper):
    """Point every d43crystal module name bound to original at wrapper."""
    for mod in MODULES.values():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.spans = []             # [id, name, start, end, parent, below_s]
        self.stack = []
        self.counts = dict.fromkeys(COUNTERS, 0)

    # -- spans ------------------------------------------------------------

    def open(self, name):
        parent = self.stack[-1][0] if self.stack else None
        span = [len(self.spans), name, perf_counter(), None, parent, 0.0]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span):
        span[3] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name):
        span = self.open(name)
        try:
            yield
        finally:
            self.close(span)

    # -- wrapping ---------------------------------------------------------

    def install(self):
        """Wrap the layer boundaries and hot calls of d43crystal."""
        for (mod, fn), name in SPANS.items():
            if hasattr(MODULES[mod], fn):
                original = getattr(MODULES[mod], fn)
                _replace(original, self._spanned(original, name))
        _replace(exactalg.p_gcd, self._gcd(exactalg.p_gcd))
        _replace(exactalg.p_divexact,
                 self._timed(exactalg.p_divexact, "exactalg.p_divexact"))
        _replace(affine.apply_op,
                 self._counted(affine.apply_op, "affine.apply_op.calls"))
        _replace(tensorcat.level_crystal,
                 self._counted(tensorcat.level_crystal,
                               "tensorcat.level_crystal.calls"))
        _replace(coherent.f_embed_inverse,
                 self._hits(coherent.f_embed_inverse, "coherent.f_embed_inverse"))
        QRat, LevelCtx = exactalg.QRat, affine.LevelCtx
        QRat.__mul__ = self._counted(QRat.__mul__, "exactalg.qrat_mul.calls")
        QRat.__add__ = self._counted(QRat.__add__, "exactalg.qrat_add.calls")
        LevelCtx.admits = self._counted(LevelCtx.admits, "affine.admits.calls")

    def _spanned(self, fn, name):
        counts = self.counts
        counter, amount = RESULT_COUNTS.get(name, (None, None))

        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter:
                counts[counter] += amount(result)
            return result
        return wrapper

    def _counted(self, fn, key):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    def _hits(self, fn, key):
        counts, calls, hits = self.counts, key + ".calls", key + ".hits"

        def wrapper(*args):
            result = fn(*args)
            counts[calls] += 1
            counts[hits] += result is not None
            return result
        return wrapper

    def _timed(self, fn, key):
        counts, stack = self.counts, self.stack
        calls, secs = key + ".calls", key + ".s"

        def wrapper(*args):
            t = perf_counter()
            result = fn(*args)
            dt = perf_counter() - t
            counts[calls] += 1
            counts[secs] += dt
            if stack:
                stack[-1][5] += dt
            return result
        return wrapper

    def _gcd(self, fn):
        timed, counts = self._timed(fn, "exactalg.p_gcd"), self.counts

        def wrapper(a, b):
            result = timed(a, b)
            counts["exactalg.p_gcd.trivial"] += result == (1,)
            deg = max(len(a), len(b)) - 1
            if deg > counts["exactalg.max_in_deg"]:
                counts["exactalg.max_in_deg"] = deg
            return result
        return wrapper

    # -- summary ----------------------------------------------------------

    def summary(self):
        """Per-name total and median span time, per-layer self time, and the
        counters.  A span's self time is its duration less its child spans
        and less the timed kernel calls made directly inside it."""
        below = {}
        for span in self.spans:
            if span[4] is not None:
                below[span[4]] = below.get(span[4], 0.0) + span[3] - span[2]
        durations, self_s = {}, dict.fromkeys(LAYERS, 0.0)
        for span in self.spans:
            dur = span[3] - span[2]
            durations.setdefault(span[1], []).append(dur)
            layer = span[1].split(".", 1)[0]
            if layer in self_s:
                self_s[layer] += dur - below.get(span[0], 0.0) - span[5]
        return {
            "total_s": {n: sum(d) for n, d in durations.items()},
            "median_s": {n: statistics.median(d) for n, d in durations.items()},
            "calls": {n: len(d) for n, d in durations.items()},
            "self_s": self_s,
            "counts": dict(self.counts),
        }

    def records(self):
        """Spans as dicts, for writing out at the end of the run; kernel_s
        is the timed p_gcd/p_divexact time directly inside the span."""
        return [{"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                 "parent": s[4], "kernel_s": s[5]} for s in self.spans]


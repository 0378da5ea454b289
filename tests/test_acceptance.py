"""End-to-end acceptance suite.  Each test covers one release criterion and
prints a single pass/fail line so the whole gate can be read off the -s log."""

import time

import pytest

from d43crystal import affine as af
from d43crystal import a2branch as a2
from d43crystal import coherent as ch
from d43crystal import fundrep as fr
from d43crystal import g2crystal as g2
from d43crystal import perfectness as pf
from d43crystal import rmatrix as rm
from d43crystal import tensorcat as tc


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, name


def test_01_cardinality():
    t0 = time.time()
    want = [8, 35, 112, 294, 672, 1386]
    got = [len(af.enumerate_Bl(l)) for l in range(1, 7)]
    formulas = [af.bl_cardinality(l) for l in range(1, 7)]
    elapsed = time.time() - t0
    ok = got == want == formulas and elapsed < 5
    _report("cardinality of B_l for l=1..6", ok,
            f"{got}, {elapsed:.2f}s")


def test_02_level1_golden_graph():
    name = {
        "1": (1, 0, 0, 0, 0, 0), "2": (0, 1, 0, 0, 0, 0),
        "3": (0, 0, 2, 0, 0, 0), "0": (0, 0, 1, 1, 0, 0),
        "3b": (0, 0, 0, 2, 0, 0), "2b": (0, 0, 0, 0, 1, 0),
        "1b": (0, 0, 0, 0, 0, 1), "phi": (0, 0, 0, 0, 0, 0),
    }
    want = {
        (name[a], i, name[b])
        for a, i, b in [
            ("1b", 0, "phi"), ("phi", 0, "1"), ("3b", 0, "2"), ("2b", 0, "3"),
            ("1", 1, "2"), ("3", 1, "0"), ("0", 1, "3b"), ("2b", 1, "1b"),
            ("2", 2, "3"), ("3b", 2, "2b"),
        ]
    }
    c = tc.level_crystal(1)
    got = set(tc.graph_edges(c))
    ok = got == want and set(c.elements) == set(name.values())
    _report("level-1 golden graph", ok, f"{len(got)} arrows")


def test_03_decomposition():
    t0 = time.time()
    ok = True
    total = 0
    for l in range(1, 6):
        rows = a2.decompose(l)
        sizes_ok = all(r["size"] == a2.a2_dim(r["j0"], r["j1"]) for r in rows)
        index_ok = [(r["i"], r["j0"], r["j1"]) for r in rows] == \
            sorted(a2.component_indices(l))
        ok = ok and sizes_ok and index_ok
        total += len(rows)
    elapsed = time.time() - t0
    ok = ok and elapsed < 30
    _report("{0,1}-decomposition for l=1..5", ok,
            f"{total} components, {elapsed:.2f}s")


def test_04_appendix_tables():
    t0 = time.time()
    n = a2.verify_appendix(5)
    elapsed = time.time() - t0
    ok = n > 0 and elapsed < 60
    _report("closed-form tables A-D for l<=5", ok,
            f"{n} tuples, {elapsed:.2f}s")


def test_05_operator_lemmas():
    counts = a2.verify_lemmas(4)
    ok = all(v > 0 for v in counts.values())
    _report("operator lemmas for l<=4", ok, str(counts))


def test_06_perfectness():
    t0 = time.time()
    ok = all(pf.check_P1(l)["status"] == "pass" for l in range(1, 4))
    for l in range(1, 7):
        ok = ok and pf.check_P2(l)["status"] == "pass"
        r = pf.check_P4_P5(l)
        ok = ok and r["status"] == "pass"
        ok = ok and r["minimal"] == pf.minimal_elements(l)
    ok = ok and pf.check_psi_positive(radius=8)["status"] == "pass"
    ok = ok and pf.perfectness_report(2)["P3"]["status"] == "skipped"
    elapsed = time.time() - t0
    ok = ok and elapsed < 120
    _report("perfectness axioms (P3 skipped)", ok, f"{elapsed:.2f}s")


def test_07_coherent_family():
    t0 = time.time()
    ok = ch.verify_all_embeddings(4)["status"] == "pass"
    ok = ok and ch.verify_cover(2)["status"] == "pass"
    elapsed = time.time() - t0
    ok = ok and elapsed < 30
    _report("coherent family embeddings and cover", ok, f"{elapsed:.2f}s")


def test_08_representation():
    rep = fr.build_v1()
    rels = fr.check_defining_relations(rep)
    ok = all(rels.values())
    gram, free_dim = fr.build_polarization(rep)
    ok = ok and free_dim == 1 and fr.check_polarization(rep, gram)
    ids = fr.verify_lowering_identities(rep)
    ok = ok and len(ids) == 14 and all(ids.values())
    ok = ok and fr.verify_highest(rep)
    _report("module relations, polarization, 14 identities", ok)


def test_09_rmatrix():
    t0 = time.time()
    rep = fr.build_v1()
    R = rm.build_R(rep)
    ok = all(rm.verify_intertwiner(R, rep).values())
    ok = ok and rm.vacuum_eigenvalue(R) == rm.a_2L1()
    dets = rm.verify_determinants()
    ok = ok and all(dets.values())
    samples = rm.default_ybe_samples()
    ok = ok and len(samples) >= 20
    ok = ok and rm.verify_yang_baxter(R, samples)["status"] == "pass"
    elapsed = time.time() - t0
    ok = ok and elapsed < 300
    _report("intertwiner, determinants, Yang-Baxter", ok,
            f"{len(samples)} samples, {elapsed:.1f}s")


def test_10_dimension_generating_series():
    # t^l coefficient of (1+t)/(1-t)^7 as exact integer series
    lmax = 8
    coeffs = [0] * (lmax + 1)
    # (1-t)^-7 has coefficients C(l+6, 6)
    from math import comb
    inv7 = [comb(l + 6, 6) for l in range(lmax + 1)]
    for l in range(lmax + 1):
        coeffs[l] = inv7[l] + (inv7[l - 1] if l else 0)
    sums = [sum(g2.g2_dim(j) for j in range(l + 1)) for l in range(lmax + 1)]
    ok = sums == coeffs
    _report("dimension generating identity for l<=8", ok, str(sums))

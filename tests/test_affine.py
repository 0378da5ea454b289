"""Affine crystal structure of B_l: the 0-action case dispatch against the
raw inequality systems, string lengths, the golden level-1 graph, and the
coordinate-reversal involution."""

import pytest

from d43crystal import affine as af
from d43crystal import g2crystal as g2


@pytest.mark.parametrize("l", range(1, 7))
def test_case_dispatch_matches_inequality_systems(l):
    for b in af.enumerate_Bl(l):
        fc = af.f_conditions(b)
        assert fc.count(True) == 1
        assert fc.index(True) + 1 == af.f_case(b)
        ec = af.e_conditions(b)
        assert ec.count(True) == 1
        assert ec.index(True) + 1 == af.e_case(b)


@pytest.mark.parametrize("l", range(1, 7))
def test_cardinality(l):
    elems = af.enumerate_Bl(l)
    assert len(elems) == af.bl_cardinality(l)
    assert len(set(elems)) == len(elems)


@pytest.mark.parametrize("l", range(1, 6))
def test_zero_string_lengths(l):
    ctx = af.LevelCtx.finite(l)
    for b in af.enumerate_Bl(l):
        k, cur = 0, b
        while True:
            cur = af.e0(cur, ctx)
            if cur is None:
                break
            k += 1
        assert k == af.eps0(b, ctx)
        k, cur = 0, b
        while True:
            cur = af.f0(cur, ctx)
            if cur is None:
                break
            k += 1
        assert k == af.phi0(b, ctx)


@pytest.mark.parametrize("l", range(1, 5))
def test_inverse_property_all_colors(l):
    ctx = af.LevelCtx.finite(l)
    for b in af.enumerate_Bl(l):
        for i in range(3):
            nb = af.apply_op("f", i, b, ctx)
            if nb is not None:
                assert af.apply_op("e", i, nb, ctx) == b
            nb = af.apply_op("e", i, b, ctx)
            if nb is not None:
                assert af.apply_op("f", i, nb, ctx) == b


@pytest.mark.parametrize("l", range(1, 5))
def test_weights_are_level_zero(l):
    ctx = af.LevelCtx.finite(l)
    for b in af.enumerate_Bl(l):
        assert af.level_of(af.weight(b, ctx)) == 0


def _graph(l):
    ctx = af.LevelCtx.finite(l)
    edges = set()
    for b in af.enumerate_Bl(l):
        for i in range(3):
            nb = af.apply_op("f", i, b, ctx)
            if nb is not None:
                edges.add((b, i, nb))
    return edges


def test_level1_golden_graph():
    name = {
        "1": (1, 0, 0, 0, 0, 0), "2": (0, 1, 0, 0, 0, 0),
        "3": (0, 0, 2, 0, 0, 0), "0": (0, 0, 1, 1, 0, 0),
        "3b": (0, 0, 0, 2, 0, 0), "2b": (0, 0, 0, 0, 1, 0),
        "1b": (0, 0, 0, 0, 0, 1), "phi": (0, 0, 0, 0, 0, 0),
    }
    want = set()
    for a, i, b in [
        ("1b", 0, "phi"), ("phi", 0, "1"), ("3b", 0, "2"), ("2b", 0, "3"),
        ("1", 1, "2"), ("3", 1, "0"), ("0", 1, "3b"), ("2b", 1, "1b"),
        ("2", 2, "3"), ("3b", 2, "2b"),
    ]:
        want.add((name[a], i, name[b]))
    assert _graph(1) == want


def test_level1_statistics():
    ctx = af.LevelCtx.finite(1)
    phi = (0, 0, 0, 0, 0, 0)
    assert af.weight((1, 0, 0, 0, 0, 0), ctx) == (-2, 1, 0)
    assert af.weight((0, 0, 0, 0, 0, 1), ctx) == (2, -1, 0)
    assert af.weight(phi, ctx) == (0, 0, 0)
    assert af.eps0(phi, ctx) == 1 and af.phi0(phi, ctx) == 1


@pytest.mark.parametrize("l", range(1, 5))
def test_involution_swaps_raising_and_lowering(l):
    ctx = af.LevelCtx.finite(l)
    for b in af.enumerate_Bl(l):
        bv = af.involution(b)
        assert ctx.admits(bv)
        for i in range(3):
            nb = af.apply_op("e", i, b, ctx)
            if nb is not None:
                assert af.involution(nb) == af.apply_op("f", i, bv, ctx)
            nb = af.apply_op("f", i, b, ctx)
            if nb is not None:
                assert af.involution(nb) == af.apply_op("e", i, bv, ctx)


@pytest.mark.parametrize("l", range(1, 5))
def test_absence_only_at_the_boundary(l):
    # f0 dies exactly when the coordinate update leaves the level-l set
    ctx = af.LevelCtx.finite(l)
    for b in af.enumerate_Bl(l):
        nb = af._apply_f_case(b, af.f_case(b))
        died = af.f0(b, ctx) is None
        assert died == (not ctx.admits(nb))


def test_nonneg_context_is_sum_unbounded():
    b = (5, 0, 0, 0, 0, 0)
    assert af.NONNEG.admits(b)
    assert not af.LevelCtx.finite(3).admits(b)
    assert af.f0(b, af.NONNEG) is not None


def test_operators_preserve_classical_level_within_Bl():
    ctx = af.LevelCtx.finite(2)
    for b in af.enumerate_Bl(2):
        s = g2.gsum(b)
        for i in (1, 2):
            nb = af.apply_op("f", i, b, ctx)
            if nb is not None:
                assert g2.gsum(nb) == s
        nb = af.f0(b, ctx)
        if nb is not None:
            assert abs(g2.gsum(nb) - s) <= 1


def test_enumerate_is_union_of_classical_layers():
    got = set(af.enumerate_Bl(2))
    want = set(g2.enumerate_g2(0)) | set(g2.enumerate_g2(1)) | set(g2.enumerate_g2(2))
    assert got == want

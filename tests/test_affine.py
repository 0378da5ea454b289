"""Affine crystal structure of B_l: the 0-action case dispatch against the
raw inequality systems, string lengths, the golden level-1 graph, the
coordinate-reversal involution, and apply_op against the earlier dispatch."""

from itertools import product

import pytest

from d43crystal import affine as af
from d43crystal import g2crystal as g2


# direct transcription of the inequality systems (F1)-(F6), a test oracle
# for the max-A case dispatch of affine.f_case and affine.e_case

def f_conditions(b):
    z1, z2, z3, z4 = af.zvec(b)
    t = z1 + z2 + z3 + 3 * z4
    return [
        t <= 0 and z1 + z2 + 3 * z4 <= 0 and z1 + z2 <= 0 and z1 <= 0,
        t <= 0 and z2 + 3 * z4 <= 0 and z2 <= 0 and z1 > 0,
        z1 + z3 + 3 * z4 <= 0 and z3 + 3 * z4 <= 0 and z4 <= 0 and z2 > 0 and z1 + z2 > 0,
        z1 + z2 + 3 * z4 > 0 and z2 + 3 * z4 > 0 and z4 > 0 and z3 <= 0 and z1 + z3 <= 0,
        t > 0 and z3 + 3 * z4 > 0 and z3 > 0 and z1 <= 0,
        t > 0 and z1 + z3 + 3 * z4 > 0 and z1 + z3 > 0 and z1 > 0,
    ]


def e_conditions(b):
    z1, z2, z3, z4 = af.zvec(b)
    t = z1 + z2 + z3 + 3 * z4
    return [
        t < 0 and z1 + z2 + 3 * z4 < 0 and z1 + z2 < 0 and z1 < 0,
        t < 0 and z2 + 3 * z4 < 0 and z2 < 0 and z1 >= 0,
        z1 + z3 + 3 * z4 < 0 and z3 + 3 * z4 < 0 and z4 < 0 and z2 >= 0 and z1 + z2 >= 0,
        z1 + z2 + 3 * z4 >= 0 and z2 + 3 * z4 >= 0 and z4 >= 0 and z3 < 0 and z1 + z3 < 0,
        t >= 0 and z3 + 3 * z4 >= 0 and z3 >= 0 and z1 < 0,
        t >= 0 and z1 + z3 + 3 * z4 >= 0 and z1 + z3 >= 0 and z1 >= 0,
    ]


@pytest.mark.parametrize("l", range(1, 7))
def test_case_dispatch_matches_inequality_systems(l):
    for b in af.enumerate_Bl(l):
        fc = f_conditions(b)
        assert fc.count(True) == 1
        assert fc.index(True) + 1 == af.f_case(b)
        ec = e_conditions(b)
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
            cur = af.apply_op("e", 0, cur, ctx)
            if cur is None:
                break
            k += 1
        assert k == af.eps0(b, ctx)
        k, cur = 0, b
        while True:
            cur = af.apply_op("f", 0, cur, ctx)
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
        died = af.apply_op("f", 0, b, ctx) is None
        assert died == (not ctx.admits(nb))


def test_nonneg_context_is_sum_unbounded():
    b = (5, 0, 0, 0, 0, 0)
    assert af.NONNEG.admits(b)
    assert not af.LevelCtx.finite(3).admits(b)
    assert af.apply_op("f", 0, b, af.NONNEG) is not None


def test_operators_preserve_classical_level_within_Bl():
    ctx = af.LevelCtx.finite(2)
    for b in af.enumerate_Bl(2):
        s = g2.gsum(b)
        for i in (1, 2):
            nb = af.apply_op("f", i, b, ctx)
            if nb is not None:
                assert g2.gsum(nb) == s
        nb = af.apply_op("f", 0, b, ctx)
        if nb is not None:
            assert abs(g2.gsum(nb) - s) <= 1


def test_enumerate_is_union_of_classical_layers():
    got = set(af.enumerate_Bl(2))
    want = set(g2.enumerate_g2(0)) | set(g2.enumerate_g2(1)) | set(g2.enumerate_g2(2))
    assert got == want


# ---------------------------------------------------------------------------
# the earlier operator dispatch, kept as a test-only oracle for apply_op: the
# case from zvec/alist, the coordinate update of that case, then the
# generator-based admissibility test


def oracle_alist(b):
    x1, x2, x3, x3b, x2b, x1b = b
    z1, z2, z3, z4 = (x1b - x1, x2b - x3b, x3 - x2, (x3b - x3) // 2)
    return (0, z1, z1 + z2, z1 + z2 + 3 * z4, z1 + z2 + z3 + 3 * z4,
            2 * z1 + z2 + z3 + 3 * z4)


def oracle_f_case(b):
    a = oracle_alist(b)
    return a.index(max(a)) + 1


def oracle_e_case(b):
    a = oracle_alist(b)
    return 6 - a[::-1].index(max(a))


def oracle_apply_f_case(b, i):
    x1, x2, x3, x3b, x2b, x1b = b
    return [(x1 + 1, x2, x3, x3b, x2b, x1b),
            (x1, x2, x3 + 1, x3b + 1, x2b, x1b - 1),
            (x1, x2, x3 + 2, x3b, x2b - 1, x1b),
            (x1, x2 + 1, x3, x3b - 2, x2b, x1b),
            (x1 + 1, x2, x3 - 1, x3b - 1, x2b, x1b),
            (x1, x2, x3, x3b, x2b, x1b - 1)][i - 1]


def oracle_apply_e_case(b, i):
    x1, x2, x3, x3b, x2b, x1b = b
    return [(x1 - 1, x2, x3, x3b, x2b, x1b),
            (x1, x2, x3 - 1, x3b - 1, x2b, x1b + 1),
            (x1, x2, x3 - 2, x3b, x2b + 1, x1b),
            (x1, x2 - 1, x3, x3b + 2, x2b, x1b),
            (x1 - 1, x2, x3 + 1, x3b + 1, x2b, x1b),
            (x1, x2, x3, x3b, x2b, x1b + 1)][i - 1]


def oracle_admits(ctx, b):
    if (b[2] - b[3]) % 2 != 0:
        return False
    if ctx.kind == af.LevelCtx.FREE:
        return True
    if any(v < 0 for v in b):
        return False
    if ctx.kind == af.LevelCtx.FINITE:
        return g2.gsum(b) <= ctx.level
    return True


_ORACLE_RAW = {("e", 1): g2.e1_raw, ("f", 1): g2.f1_raw,
               ("e", 2): g2.e2_raw, ("f", 2): g2.f2_raw}


def oracle_apply_op(kind, i, b, ctx):
    if i == 0 and kind == "f":
        nb = oracle_apply_f_case(b, oracle_f_case(b))
    elif i == 0:
        nb = oracle_apply_e_case(b, oracle_e_case(b))
    else:
        nb = _ORACLE_RAW[kind, i](b)
    return nb if oracle_admits(ctx, nb) else None


def oracle_phi0(b, ctx):
    base = ctx.level if ctx.kind == af.LevelCtx.FINITE else 0
    return base - g2.gsum(b) + max(oracle_alist(b))


def _assert_matches_oracle(points, ctx):
    for b in points:
        assert ctx.admits(b) == oracle_admits(ctx, b), (b, ctx)
        assert af.alist(b) == oracle_alist(b), b
        assert af.f_case(b) == oracle_f_case(b), b
        assert af.e_case(b) == oracle_e_case(b), b
        for kind in ("e", "f"):
            for i in range(3):
                assert af.apply_op(kind, i, b, ctx) == oracle_apply_op(
                    kind, i, b, ctx), (kind, i, b, ctx)
        phi0 = oracle_phi0(b, ctx)
        assert af.phi0(b, ctx) == phi0, (b, ctx)
        assert af.eps0(b, ctx) == phi0 - oracle_alist(b)[5], (b, ctx)


@pytest.mark.parametrize("l", range(0, 7))
def test_apply_op_matches_the_oracle_on_Bl(l):
    _assert_matches_oracle(af.enumerate_Bl(l), af.LevelCtx.finite(l))


# every tuple of [-2, 2]^6: negative coordinates, both parities, and sums
# on both sides of the finite bound
_BOX = list(product(range(-2, 3), repeat=6))


@pytest.mark.parametrize("ctx", [af.NONNEG, af.FREE, af.LevelCtx.finite(3)],
                         ids=repr)
def test_apply_op_matches_the_oracle_on_a_box(ctx):
    assert any((b[2] - b[3]) % 2 for b in _BOX)
    assert any(min(b) < 0 for b in _BOX)
    _assert_matches_oracle(_BOX, ctx)

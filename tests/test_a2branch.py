"""Rank-two branching: the tableau crystal, the distinguished elements,
the decomposition, the closed-form tables and the operator lemmas."""

import pytest

from d43crystal import a2branch as a2
from d43crystal import affine as af
from d43crystal import tensorcat as tc


def a2_lowest(j0, j1):
    return a2.A2Tab(j0, j1, j0, j0 + j1, j1)


def appendix_formula(table, l, i, j0, j1, p=None, q=None, r=None):
    """Evaluate the closed form for the requested table; all overlapping
    cases must agree.  Raises ValueError when no case matches."""
    if table == "A":
        forms = a2.table_a(l, i, j0, j1, p, q)
    elif table == "B":
        if j0 != i:
            raise ValueError("table B requires j0 = i")
        forms = a2.table_b(l, i, j1, p, q, r)
    elif table == "C":
        if p not in (None, j0):
            raise ValueError("table C requires p = j0")
        forms = a2.table_c(l, i, j0, j1, q, r)
    elif table == "D":
        if r not in (None, j0 + q - 2 * p):
            raise ValueError("table D requires r = j0 + q - 2p")
        forms = a2.table_d(l, i, j0, j1, p, q)
    else:
        raise ValueError(f"unknown table {table!r}")
    if not forms:
        raise ValueError(f"no case of table {table} matches the parameters")
    if any(x != forms[0] for x in forms):
        raise AssertionError(f"overlapping cases of table {table} disagree: {forms}")
    return forms[0]


@pytest.mark.parametrize("j0,j1", [(j0, j1) for j0 in range(9) for j1 in range(9)])
def test_a2_size_formula(j0, j1):
    assert len(a2.a2_elements(j0, j1)) == a2.a2_dim(j0, j1)


@pytest.mark.parametrize("j0,j1", [(j0, j1) for j0 in range(6) for j1 in range(6)])
def test_a2_inverse_property(j0, j1):
    for t in a2.a2_elements(j0, j1):
        for f, e in ((a2.a2_f0, a2.a2_e0), (a2.a2_f1, a2.a2_e1)):
            nt = f(t)
            if nt is not None:
                assert e(nt) == t
            nt = e(t)
            if nt is not None:
                assert f(nt) == t


@pytest.mark.parametrize("j0,j1", [(2, 3), (3, 2), (4, 4), (1, 5)])
def test_a2_eps_phi_are_string_lengths(j0, j1):
    for t in a2.a2_elements(j0, j1):
        e0, e1, p0, p1 = a2.a2_eps_phi(t)
        for want, op in ((e0, a2.a2_e0), (e1, a2.a2_e1),
                         (p0, a2.a2_f0), (p1, a2.a2_f1)):
            k, cur = 0, t
            while True:
                cur = op(cur)
                if cur is None:
                    break
                k += 1
            assert k == want


def test_a2_examples():
    t = a2.A2Tab(1, 1, 0, 0, 1)
    assert a2.a2_f1(t) == a2.A2Tab(1, 1, 1, 1, 0)
    top = a2.A2Tab(2, 3, 0, 0, 0)
    assert a2.a2_e0(top) is None and a2.a2_e1(top) is None
    assert a2.a2_eps_phi(top) == (0, 0, 2, 3)
    low = a2_lowest(2, 3)
    assert a2.a2_f0(low) is None and a2.a2_f1(low) is None
    assert a2.a2_eps_phi(low) == (3, 2, 0, 0)
    assert a2.a2_eps_phi(a2.A2Tab(2, 2, 1, 2, 0))[1] == 2


@pytest.mark.parametrize("j0,j1", [(1, 1), (2, 2), (2, 3), (3, 1)])
def test_a2_raise_from_lowest(j0, j1):
    low = a2_lowest(j0, j1)
    for t in a2.a2_elements(j0, j1):
        pp, qq, rr = a2.a2_raise(t)
        cur = low
        for _ in range(pp):
            cur = a2.a2_e0(cur)
        for _ in range(qq):
            cur = a2.a2_e1(cur)
        for _ in range(rr):
            cur = a2.a2_e0(cur)
        assert cur == t
    assert a2.a2_raise(a2_lowest(j0, j1)) == (0, 0, 0)
    assert a2.a2_raise(a2.A2Tab(j0, j1, 0, 0, 0)) == (j1, j0 + j1, j0)


def test_condition_C_enforced():
    with pytest.raises(ValueError):
        a2.A2Tab(1, 1, 2, 2, 0)
    with pytest.raises(ValueError):
        a2.A2Tab(1, 1, 0, 0, 2)


def test_bbar_values():
    assert a2.bbar(3, 0, 3, 3) == (0, 0, 0, 0, 3, 0)
    assert a2.bbar(1, 0, 1, 1) == (0, 0, 0, 0, 1, 0)
    # i=1 branch of the two-case formula with y0 = y1 = 0
    assert a2.bbar(2, 1, 1, 1) == (0, 0, 1, 1, 1, 0)
    with pytest.raises(ValueError):
        a2.bbar(2, 1, 2, 1)


@pytest.mark.parametrize("l", range(1, 5))
def test_bbar_is_zero_one_highest(l):
    ctx = af.LevelCtx.finite(l)
    for (i, j0, j1) in a2.component_indices(l):
        b = a2.bbar(l, i, j0, j1)
        assert ctx.admits(b)
        assert af.apply_op("e", 0, b, ctx) is None
        assert af.apply_op("e", 1, b, ctx) is None
        assert af.eps0(b, ctx) == 0 and af.eps(1, b, ctx) == 0
        assert af.phi0(b, ctx) == j0 and af.phi(1, b, ctx) == j1


@pytest.mark.parametrize("l", range(1, 9))
def test_index_set_sizes_sum_to_cardinality(l):
    total = sum(a2.a2_dim(j0, j1) for (_, j0, j1) in a2.component_indices(l))
    assert total == af.bl_cardinality(l)


def test_decompose_level_1_and_2():
    rows = a2.decompose(1)
    assert [(r["i"], r["j0"], r["j1"], r["size"]) for r in rows] == \
        [(0, 1, 1, 8)]
    rows = a2.decompose(2)
    assert [(r["i"], r["j0"], r["j1"], r["size"]) for r in rows] == \
        [(0, 2, 2, 27), (1, 1, 1, 8)]


def test_decompose_level_3_total():
    rows = a2.decompose(3)
    assert sum(r["size"] for r in rows) == 112


@pytest.mark.parametrize("change,word", [(lambda idx: idx[1:], "cover"),
                                         (lambda idx: idx + idx[-1:], "share")],
                         ids=["drop", "repeat"])
def test_decompose_needs_disjoint_images_that_cover(monkeypatch, change, word):
    # one index triple dropped leaves its component uncovered; one repeated
    # maps B(j0, j1) onto the same component twice
    l = 3
    indices = change(a2.component_indices(l))
    monkeypatch.setattr(a2, "component_indices", lambda level: indices)
    with pytest.raises(a2.DecompositionError, match=word):
        a2.decompose(l)


def test_appendix_formula_dispatch():
    assert appendix_formula("A", 3, 0, 3, 3, p=0, q=0) == (0, 0, 0, 0, 3, 0)
    # table C at q = r = 0 equals f0^{j0} applied to the base point
    want = a2.lower_pqr(a2.bbar(3, 0, 3, 3), 3, 0, 0)
    assert appendix_formula("C", 3, 0, 3, 3, q=0, r=0) == want
    # table D boundary r = j0 + q - 2p = 0 against iterated lowering
    got = appendix_formula("D", 2, 1, 1, 1, p=1, q=1)
    want = a2.lower_pqr(a2.bbar(2, 1, 1, 1), 1, 1, 0)
    assert got == want
    with pytest.raises(ValueError):
        appendix_formula("A", 3, 0, 3, 3, p=9, q=0)
    with pytest.raises(ValueError):
        appendix_formula("E", 3, 0, 3, 3, p=0, q=0)


def test_mutated_formula_is_detected():
    # a sign flip in one coordinate must trip the oracle comparison
    orig = a2.table_a

    def broken(l, i, j0, j1, p, q):
        forms = orig(l, i, j0, j1, p, q)
        return [tuple(v + (1 if k == 2 else 0) for k, v in enumerate(x))
                for x in forms]

    a2.table_a = broken
    try:
        with pytest.raises(AssertionError):
            a2.verify_appendix(2, tables="A")
    finally:
        a2.table_a = orig


@pytest.mark.parametrize("table", ["A", "B", "C", "D"])
def test_appendix_small(table):
    assert a2.verify_appendix(3, tables=table) > 0


def test_lemmas_small():
    counts = a2.verify_lemmas(3)
    assert all(v > 0 for v in counts.values())


def test_onion_example():
    lhs = a2.lower_pqr(a2.bbar(3, 0, 3, 3), 0, 1, 1)
    rhs = a2.lower_pqr(a2.bbar(2, 0, 2, 2), 0, 0, 0)
    assert lhs == rhs


def test_comm_example():
    base = a2.bbar(4, 0, 4, 4)
    lhs = a2.lower_pqr(base, 1, 0, 1)
    rhs = a2.lower_pqr(base, 2, 0, 0)
    assert lhs == rhs


def test_broken_e1_arrow_fails_step2(monkeypatch):
    # an e1 arrow of B_l that takes two steps at once breaks relation (iii')
    orig = af.apply_op

    def broken(kind, color, b, ctx):
        out = orig(kind, color, b, ctx)
        if (kind, color) == ("e", 1) and out is not None:
            return orig(kind, color, out, ctx)
        return out

    assert a2.verify_step2_relations(3) == 145
    monkeypatch.setattr(af, "apply_op", broken)
    # step2 reads the cached B_l table: rebuild it with the broken operator,
    # then drop it so that no later test sees it
    tc.level_crystal.cache_clear()
    try:
        with pytest.raises(AssertionError, match="e1 arrow mismatch"):
            a2.verify_step2_relations(3)
    finally:
        tc.level_crystal.cache_clear()


@pytest.mark.parametrize("l,want", [(1, 8), (2, 43), (3, 145), (4, 404),
                                    (5, 960), (6, 2073)])
def test_step2_counts_every_swapped_component(l, want):
    # from the index set alone: B(j1, j0) for each component with j0 <= j1
    count = sum(a2.a2_dim(j1, j0) for level in range(1, l + 1)
                for (_, j0, j1) in a2.component_indices(level) if j0 <= j1)
    assert a2.verify_step2_relations(l) == count == want


def _retarget(table, kind, color, a, target):
    """The table with the kind/color arrow at index a pointing at target."""
    col = list(getattr(table, kind)[color])
    col[a] = target
    cols = list(getattr(table, kind))
    cols[color] = tuple(col)
    return table._replace(**{kind: tuple(cols)})


def _f0_past_string_end(table):
    # an f0 arrow out of the end of a 0-string, back to its predecessor:
    # the components and the image walks stay as they were
    f0, e0 = table.f[0], table.e[0]
    a = next(a for a in range(len(f0)) if f0[a] < 0 and e0[a] >= 0)
    return _retarget(table, "f", 0, a, e0[a])


def _e1_two_steps(table):
    e1 = table.e[1]
    a = next(a for a in range(len(e1)) if e1[a] >= 0 and e1[e1[a]] >= 0)
    return _retarget(table, "e", 1, a, e1[e1[a]])


@pytest.mark.parametrize("wrong,name", [(_f0_past_string_end, "f0"),
                                        (_e1_two_steps, "e1")])
def test_decompose_reads_the_level_table(monkeypatch, wrong, name):
    # one wrong arrow in the cached B_l table must fail the decomposition,
    # so the table is what the A2 crystals are compared against
    l = 3
    bad = wrong(tc.level_crystal(l))
    monkeypatch.setattr(tc, "level_crystal", lambda level: bad)
    with pytest.raises(a2.DecompositionError, match=f"{name} arrow mismatch"):
        a2.decompose(l)


def test_invol2_walks_the_level_table(monkeypatch):
    # f1 out of bbar(2, 0, 2, 2) takes two steps at once
    l = 2
    table = tc.level_crystal(l)
    a = table.index[a2.bbar(l, 0, 2, 2)]
    bad = _retarget(table, "f", 1, a, table.f[1][table.f[1][a]])
    assert a2.verify_invol2(l) == 43
    monkeypatch.setattr(tc, "level_crystal", lambda level: bad)
    with pytest.raises(AssertionError, match="invol2 fails"):
        a2.verify_invol2(l)

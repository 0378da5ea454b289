"""The indexed table of B_l, the tensor rule on index pairs and its
{1,2}-highest pairs, the {0,1}-components of B_l, P1 by vacuum walks and
graph export.

The closure-based crystals, the tuple-pair tensor rule and the BFS that
the table replaced are kept below, renamed oracle_*, as the reference."""

from collections import deque

import pytest

from d43crystal import a2branch as a2
from d43crystal import affine as af
from d43crystal import perfectness as pf
from d43crystal import tensorcat as tc

# ---------------------------------------------------------------------------
# oracle: closures over affine.apply_op, tensor rule on tuple pairs, BFS


class OracleCrystal:
    """A finite crystal presented by its element list and statistics.

    op(kind, i, b) returns an element or None; eps/phi are totals.
    """

    def __init__(self, elements, op, eps, phi, wt):
        self.elements = list(elements)
        self.op = op
        self.eps = eps
        self.phi = phi
        self.wt = wt


def oracle_level_crystal(l):
    ctx = af.LevelCtx.finite(l)
    return OracleCrystal(
        af.enumerate_Bl(l),
        lambda kind, i, b: af.apply_op(kind, i, b, ctx),
        lambda i, b: af.eps(i, b, ctx),
        lambda i, b: af.phi(i, b, ctx),
        lambda b: af.weight(b, ctx),
    )


def oracle_tensor_f(i, pair, c1, c2):
    b1, b2 = pair
    if c1.phi(i, b1) > c2.eps(i, b2):
        nb = c1.op("f", i, b1)
        return None if nb is None else (nb, b2)
    nb = c2.op("f", i, b2)
    return None if nb is None else (b1, nb)


def oracle_tensor_e(i, pair, c1, c2):
    b1, b2 = pair
    if c1.phi(i, b1) >= c2.eps(i, b2):
        nb = c1.op("e", i, b1)
        return None if nb is None else (nb, b2)
    nb = c2.op("e", i, b2)
    return None if nb is None else (b1, nb)


def oracle_tensor_eps(i, pair, c1, c2):
    b1, b2 = pair
    return c1.eps(i, b1) + max(0, c2.eps(i, b2) - c1.phi(i, b1))


def oracle_tensor_phi(i, pair, c1, c2):
    b1, b2 = pair
    return c2.phi(i, b2) + max(0, c1.phi(i, b1) - c2.eps(i, b2))


def oracle_tensor_crystal(c1, c2):
    elements = [(a, b) for a in c1.elements for b in c2.elements]

    def op(kind, i, pair):
        if kind == "f":
            return oracle_tensor_f(i, pair, c1, c2)
        return oracle_tensor_e(i, pair, c1, c2)

    return OracleCrystal(
        elements,
        op,
        lambda i, pair: oracle_tensor_eps(i, pair, c1, c2),
        lambda i, pair: oracle_tensor_phi(i, pair, c1, c2),
        lambda pair: tuple(x + y for x, y in zip(c1.wt(pair[0]), c2.wt(pair[1]))),
    )


def oracle_connected_components(crystal, colors=(0, 1, 2)):
    """Partition of the element set under undirected arrows of the given
    colors.  Returns a list of frozensets."""
    remaining = set(crystal.elements)
    comps = []
    while remaining:
        start = remaining.pop()
        comp = {start}
        queue = deque([start])
        while queue:
            b = queue.popleft()
            for kind in ("e", "f"):
                for i in colors:
                    nb = crystal.op(kind, i, b)
                    if nb is not None and nb not in comp:
                        comp.add(nb)
                        remaining.discard(nb)
                        queue.append(nb)
        comps.append(frozenset(comp))
    return comps


def oracle_check_P1(l):
    """B_l (x) B_l is {0,1,2}-connected."""
    c = oracle_level_crystal(l)
    t = oracle_tensor_crystal(c, c)
    comps = oracle_connected_components(t)
    if len(comps) == 1:
        return {"status": "pass", "vertices": len(t.elements)}
    return {
        "status": "fail",
        "components": len(comps),
        "representatives": [sorted(comp)[0] for comp in comps],
    }


def _oracle_tensor(l):
    c = oracle_level_crystal(l)
    return c, oracle_tensor_crystal(c, c)


# ---------------------------------------------------------------------------
# the tensor rule, on the oracle


def test_signature_convention():
    # f0(phi (x) phi) = phi (x) 1 pins the tensor rule orientation
    _, t = _oracle_tensor(1)
    one = (1, 0, 0, 0, 0, 0)
    assert t.op("f", 0, (tc.PHI, tc.PHI)) == (tc.PHI, one)
    assert t.op("e", 0, (tc.PHI, tc.PHI)) == ((0, 0, 0, 0, 0, 1), tc.PHI)
    table = tc.level_crystal(1)
    vac = table.index[tc.PHI]
    assert tc.tensor_f(table, 0, vac, vac) == (vac, table.index[one])


@pytest.mark.parametrize("l", [1, 2])
def test_tensor_inverse_property(l):
    _, t = _oracle_tensor(l)
    for pair in t.elements:
        for i in range(3):
            np_ = t.op("f", i, pair)
            if np_ is not None:
                assert t.op("e", i, np_) == pair
            np_ = t.op("e", i, pair)
            if np_ is not None:
                assert t.op("f", i, np_) == pair


@pytest.mark.parametrize("l", [1, 2])
def test_tensor_string_lengths(l):
    _, t = _oracle_tensor(l)
    for pair in t.elements:
        for i in range(3):
            k, cur = 0, pair
            while True:
                cur = t.op("e", i, cur)
                if cur is None:
                    break
                k += 1
            assert k == t.eps(i, pair)
            k, cur = 0, pair
            while True:
                cur = t.op("f", i, cur)
                if cur is None:
                    break
                k += 1
            assert k == t.phi(i, pair)


@pytest.mark.parametrize("l", [1, 2])
def test_tensor_weight_identity(l):
    # wt = sum_i (phi_i - eps_i) Lambda_i holds in the tensor product
    _, t = _oracle_tensor(l)
    for pair in t.elements:
        w = t.wt(pair)
        assert w == tuple(t.phi(i, pair) - t.eps(i, pair) for i in range(3))


# ---------------------------------------------------------------------------
# the table against the oracle


@pytest.mark.parametrize("l", [0, 1, 2, 3])
def test_table_matches_oracle_crystal(l):
    table, c = tc.level_crystal(l), oracle_level_crystal(l)
    el = table.elements
    assert list(el) == c.elements
    assert all(table.index[b] == k for k, b in enumerate(el))
    for i in range(3):
        for a, b in enumerate(el):
            for kind, targets in (("f", table.f[i]), ("e", table.e[i])):
                nb = c.op(kind, i, b)
                assert targets[a] == (-1 if nb is None else table.index[nb])
            assert table.eps[i][a] == c.eps(i, b)
            assert table.phi[i][a] == c.phi(i, b)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_tensor_f_matches_oracle(l):
    table = tc.level_crystal(l)
    c = oracle_level_crystal(l)
    el = table.elements
    for a, b1 in enumerate(el):
        for b, b2 in enumerate(el):
            for i in range(3):
                got = tc.tensor_f(table, i, a, b)
                want = oracle_tensor_f(i, (b1, b2), c, c)
                assert (None if got is None else (el[got[0]], el[got[1]])) == want


def test_table_is_cached_per_level_and_immutable():
    tables = {l: tc.level_crystal(l) for l in (3, 1, 4, 0, 2)}
    for l, table in tables.items():
        assert tc.level_crystal(l) is table
        assert table.elements == tuple(af.enumerate_Bl(l))
        assert len(table.elements) == af.bl_cardinality(l)
        assert all(isinstance(col, tuple) for field in table[2:] for col in field)
    with pytest.raises(TypeError):
        tables[1].index[tc.PHI] = 1


@pytest.mark.parametrize("l", range(0, 7))
def test_table_satisfies_the_crystal_axioms(l):
    assert tc.axiom_failure(tc.level_crystal(l)) is None


# ---------------------------------------------------------------------------
# {0,1}-components of B_l: the decomposition against the BFS


@pytest.mark.parametrize("l", range(1, 6))
def test_decompose_rows_are_the_bfs_components(l):
    c = oracle_level_crystal(l)
    want = []
    for comp in oracle_connected_components(c, colors=(0, 1)):
        highest = [b for b in comp if c.eps(0, b) == c.eps(1, b) == 0]
        assert len(highest) == 1
        want.append((len(comp), highest[0]))
    got = [(row["size"], row["highest"]) for row in a2.decompose(l)]
    assert sorted(got) == sorted(want)


# ---------------------------------------------------------------------------
# P1: the highest pairs and their vacuum walks


def _no_incoming_12_arrow(table):
    """The pairs that no f_1 or f_2 arrow of tensor_f enters, by scanning
    every arrow of B_l (x) B_l."""
    n = len(table.elements)
    hit = {tc.tensor_f(table, i, a, b) for a in range(n) for b in range(n)
           for i in (1, 2)}
    return {(a, b) for a in range(n) for b in range(n)} - hit


@pytest.mark.parametrize("l,count", [(1, 7), (2, 30), (3, 95), (4, 248),
                                     (5, 565)])
def test_highest_pairs_are_the_pairs_without_incoming_12_arrows(l, count):
    table = tc.level_crystal(l)
    got = tc.highest_pairs(table)
    assert len(got) == len(set(got)) == count
    assert set(got) == _no_incoming_12_arrow(table)


@pytest.mark.parametrize("l", range(1, 5))
def test_check_P1_matches_oracle(l):
    got, want = pf.check_P1(l), oracle_check_P1(l)
    assert got["status"] == want["status"] == "pass"
    assert got["vertices"] == want["vertices"]
    assert got["method"] == "highest-pair walks"
    assert got["highest_pairs"] == len(tc.highest_pairs(tc.level_crystal(l)))
    assert got["walk_steps"] > 0


@pytest.mark.parametrize("l,steps", [(1, 80), (2, 676), (3, 3176),
                                     (4, 10962)])
def test_check_P1_counts_the_steps_of_the_element_walks(l, steps):
    # P1 walks on index pairs; the element-pair walks take the same steps
    table = tc.level_crystal(l)
    el = table.elements
    walks = sum(len(tc.connect_to_vacuum(l, (el[a], el[b])))
                for a, b in tc.highest_pairs(table))
    assert pf.check_P1(l)["walk_steps"] == walks == steps


@pytest.mark.parametrize("l", [1, 2, 3])
def test_check_P1_fails_on_a_wrong_tensor_rule(monkeypatch, l):
    def tensor_f_ge(table, i, a, b):
        # >= in place of >: f_i acts on a once phi_i(a) reaches eps_i(b)
        if table.phi[i][a] >= table.eps[i][b]:
            a = table.f[i][a]
        else:
            b = table.f[i][b]
        return None if a < 0 or b < 0 else (a, b)

    monkeypatch.setattr(tc, "tensor_f", tensor_f_ge)
    got = pf.check_P1(l)
    assert got["status"] == "fail"
    assert got["reason"] == "vacuum walk"
    assert "components" not in got


def test_check_P1_fails_on_a_cycling_tensor_rule(monkeypatch):
    # f_1 that returns its own pair never ends the saturation: the walk
    # must stop at its step budget instead of running forever
    orig = tc.tensor_f
    monkeypatch.setattr(tc, "tensor_f", lambda table, i, a, b:
                        (a, b) if i == 1 else orig(table, i, a, b))
    got = pf.check_P1(1)
    assert got["status"] == "fail"
    assert got["reason"] == "vacuum walk"
    assert got["error"] == "walk exceeded the step budget"


def _without_color_0(table):
    """A valid crystal table whose 0-strings all have length zero."""
    none = (-1,) * len(table.elements)
    zero = (0,) * len(table.elements)
    return table._replace(f=(none,) + table.f[1:], e=(none,) + table.e[1:],
                          eps=(zero,) + table.eps[1:],
                          phi=(zero,) + table.phi[1:])


def test_check_P1_reports_components_of_a_disconnected_square(monkeypatch):
    l = 1
    cut = _without_color_0(tc.level_crystal(l))
    assert tc.axiom_failure(cut) is None
    monkeypatch.setattr(tc, "level_crystal", lambda level: cut)
    got = pf.check_P1(l)
    assert got["status"] == "fail"
    assert got["reason"] == "vacuum walk"
    _, t = _oracle_tensor(l)
    comps = oracle_connected_components(t, colors=(1, 2))
    vacuum = next(comp for comp in comps if (tc.PHI, tc.PHI) in comp)
    assert got["pair"] not in vacuum


def _corrupt(table, field, i, a, value):
    col = list(getattr(table, field)[i])
    col[a] = value
    cols = list(getattr(table, field))
    cols[i] = tuple(col)
    return table._replace(**{field: tuple(cols)})


def _first_arrow(table, i):
    return next(a for a, t in enumerate(table.f[i]) if t >= 0)


@pytest.mark.parametrize("field", ["e", "phi"])
def test_check_P1_fails_on_a_broken_axiom(monkeypatch, field):
    l = 2
    table = tc.level_crystal(l)
    a = _first_arrow(table, 1)
    if field == "e":
        # e_1 of the f_1-target no longer returns to a
        t = table.f[1][a]
        bad = _corrupt(table, "e", 1, t, (a + 1) % len(table.elements))
    else:
        bad = _corrupt(table, "phi", 1, a, table.phi[1][a] + 1)
    assert tc.axiom_failure(bad) is not None
    monkeypatch.setattr(tc, "level_crystal", lambda level: bad)
    got = pf.check_P1(l)
    assert got["status"] == "fail"
    assert got["reason"] == "crystal axiom"
    assert got["color"] == 1


# ---------------------------------------------------------------------------
# the vacuum walk


@pytest.mark.parametrize("l", [1, 2])
def test_walk_reaches_vacuum_from_everywhere(l):
    table = tc.level_crystal(l)
    el, idx = table.elements, table.index
    for b1 in el:
        for b2 in el:
            cur = (b1, b2)
            for color, nxt in tc.connect_to_vacuum(l, cur):
                a, b = tc.tensor_f(table, color, idx[cur[0]], idx[cur[1]])
                assert (el[a], el[b]) == nxt
                cur = nxt
            assert cur == (tc.PHI, tc.PHI)


# ---------------------------------------------------------------------------
# graph export


def test_graph_edges_level1():
    c = tc.level_crystal(1)
    edges = tc.graph_edges(c)
    assert len(edges) == 10
    assert edges == sorted(edges)
    per_color = [sum(1 for _, i, _ in edges if i == color) for color in range(3)]
    assert per_color == [4, 4, 2]


def test_graph_json_schema():
    c = tc.level_crystal(1)
    doc = tc.graph_json(c)
    assert doc["schema"] == "crystal-graph/1"
    assert len(doc["nodes"]) == 8
    assert len(doc["edges"]) == 10
    names = set(doc["nodes"])
    for e in doc["edges"]:
        assert e["source"] in names and e["target"] in names
        assert e["label"] in (0, 1, 2)


def test_graph_dot_output():
    c = tc.level_crystal(1)
    dot = tc.graph_dot(c, name="b1")
    assert dot.startswith("digraph b1 {")
    assert dot.rstrip().endswith("}")
    assert dot.count("->") == 10

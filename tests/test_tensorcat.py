"""Tensor products, connectivity and graph export."""

import pytest

from d43crystal import affine as af
from d43crystal import tensorcat as tc


def _tensor(l):
    c = tc.level_crystal(l)
    return c, tc.tensor_crystal(c, c)


def test_signature_convention():
    # f0(phi (x) phi) = phi (x) 1 pins the tensor rule orientation
    _, t = _tensor(1)
    one = (1, 0, 0, 0, 0, 0)
    assert t.op("f", 0, (tc.PHI, tc.PHI)) == (tc.PHI, one)
    assert t.op("e", 0, (tc.PHI, tc.PHI)) == ((0, 0, 0, 0, 0, 1), tc.PHI)


@pytest.mark.parametrize("l", [1, 2])
def test_tensor_inverse_property(l):
    _, t = _tensor(l)
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
    _, t = _tensor(l)
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
    _, t = _tensor(l)
    for pair in t.elements:
        w = t.wt(pair)
        assert w == tuple(t.phi(i, pair) - t.eps(i, pair) for i in range(3))


@pytest.mark.parametrize("l", [1, 2])
def test_tensor_square_is_connected(l):
    _, t = _tensor(l)
    comps = tc.connected_components(t)
    assert len(comps) == 1
    assert len(comps[0]) == af.bl_cardinality(l) ** 2


def test_level_crystal_component_count_colors_01():
    c = tc.level_crystal(2)
    comps = tc.connected_components(c, colors=(0, 1))
    assert sorted(len(x) for x in comps) == [8, 27]


@pytest.mark.parametrize("l", [1, 2])
def test_walk_reaches_vacuum_from_everywhere(l):
    c, t = _tensor(l)
    for pair in t.elements:
        steps = tc.connect_to_vacuum(l, pair)
        cur = pair
        for color, nxt in steps:
            assert t.op("f", color, cur) == nxt
            cur = nxt
        assert cur == (tc.PHI, tc.PHI)


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


def test_pair_label():
    assert tc.pair_label((tc.PHI, (1, 0, 0, 0, 0, 0))) == \
        "(0,0,0,0,0,0)*(1,0,0,0,0,0)"

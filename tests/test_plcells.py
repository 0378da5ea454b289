"""Fourier-Motzkin elimination with Chvatal-Gomory rounding."""

import pytest

from d43crystal import coherent as ch
from d43crystal import plcells as pc


def test_contradictory_bounds_are_infeasible():
    assert pc.decide([pc.le((1,), -1), pc.ge((1,), 0)]) == pc.INFEASIBLE


def _without_rounding(monkeypatch):
    # plain Fourier-Motzkin, which decides feasibility over the rationals
    monkeypatch.setattr(pc, "_rounded", lambda a, c: (a, c))


def test_rounding_finds_no_integer_between_bounds(monkeypatch):
    # 1 <= 2x <= 1 has the rational solution x = 1/2 only
    rows = [pc.le((2,), 1), pc.ge((2,), 1)]
    assert pc.decide(rows) == pc.INFEASIBLE
    _without_rounding(monkeypatch)
    assert pc.decide(rows) == pc.UNDECIDED


@pytest.mark.parametrize("first,second", [(("f", 3), ("e", 2)),
                                          (("e", 2), ("f", 3))],
                         ids=["f4-then-e3", "e3-then-f4"])
def test_color_0_pairs_need_rounding(monkeypatch, first, second):
    # the 3 z4 term of alist leaves these two systems feasible over Q;
    # rounding proves them empty over Z
    rows = ch.pair_system(ch.operator_cells(first[0], 0)[first[1]],
                          ch.operator_cells(second[0], 0)[second[1]])
    assert pc.decide(rows) == pc.INFEASIBLE
    with monkeypatch.context() as m:
        _without_rounding(m)
        assert pc.decide(rows) == pc.UNDECIDED
    # over the row cap nothing is claimed
    monkeypatch.setattr(pc, "ROW_CAP", 2)
    assert pc.decide(rows) == pc.UNDECIDED


def test_a_feasible_system_is_undecided():
    rows = [pc.ge((1, 0), 0), pc.le((1, 1), 3), pc.ge((0, 1), -2)]
    assert pc.decide(rows) == pc.UNDECIDED
    assert pc.decide([]) == pc.UNDECIDED


def test_shifted_row_holds_at_the_shifted_point():
    row = pc.le((1, -2, 3), 4)
    z, dz = (5, 1, -1), (2, 3, -1)
    a, c = pc.shifted(row, dz)
    lhs = sum(x * y for x, y in zip(row[0], map(sum, zip(z, dz))))
    assert sum(x * y for x, y in zip(a, z)) - c == lhs - row[1]

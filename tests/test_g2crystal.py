"""Classical one-row crystal: enumeration, statistics, tableau rendering."""

import pytest

from d43crystal import affine as af
from d43crystal import g2crystal as g2


def op(kind, i):
    """The guarded operator on the nonnegative crystal."""
    return lambda b: af.apply_op(kind, i, b, af.NONNEG)


@pytest.mark.parametrize("j", range(6))
def test_enumeration_matches_dimension(j):
    elems = g2.enumerate_g2(j)
    assert len(elems) == g2.g2_dim(j)
    assert len(set(elems)) == len(elems)
    for b in elems:
        assert g2.valid_coords(b)
        assert g2.gsum(b) == j


def test_dimension_values():
    assert [g2.g2_dim(j) for j in range(6)] == [1, 7, 27, 77, 182, 378]
    # partial sums reproduce the level cardinalities
    for l in range(1, 7):
        total = sum(g2.g2_dim(j) for j in range(l + 1))
        assert total == (l + 1) * (l + 2) * (l + 3) ** 2 * (l + 4) * (l + 5) // 360


@pytest.mark.parametrize("j", range(5))
def test_inverse_property(j):
    for b in g2.enumerate_g2(j):
        for f, e in ((op("f", 1), op("e", 1)), (op("f", 2), op("e", 2))):
            nb = f(b)
            if nb is not None:
                assert e(nb) == b
            nb = e(b)
            if nb is not None:
                assert f(nb) == b


@pytest.mark.parametrize("j", range(5))
def test_eps_phi_are_string_lengths(j):
    for b in g2.enumerate_g2(j):
        for e, f, eps, phi in (
            (op("e", 1), op("f", 1), g2.eps1, g2.phi1),
            (op("e", 2), op("f", 2), g2.eps2, g2.phi2),
        ):
            k, cur = 0, b
            while True:
                cur = e(cur)
                if cur is None:
                    break
                k += 1
            assert k == eps(b)
            k, cur = 0, b
            while True:
                cur = f(cur)
                if cur is None:
                    break
                k += 1
            assert k == phi(b)


def test_operators_preserve_level():
    # the raw results, so that a raw operator breaking the parity of
    # x3 - x3b fails here instead of being dropped by the admissibility test
    for b in g2.enumerate_g2(3):
        for raw in (g2.e1_raw, g2.f1_raw, g2.e2_raw, g2.f2_raw):
            nb = raw(b)
            if min(nb) >= 0:
                assert g2.gsum(nb) == 3
                assert (nb[2] - nb[3]) % 2 == 0


def test_tableau_roundtrip():
    for j in range(4):
        for b in g2.enumerate_g2(j):
            word = g2.to_tableau(b)
            assert g2.from_tableau(word) == b
            assert len(word) == j
    assert g2.to_tableau((0, 0, 1, 1, 0, 0)) == ["0"]
    assert g2.to_tableau((1, 0, 2, 0, 0, 1)) == ["1", "3", "1b"]


def test_raw_operators_extend_to_negative_coordinates():
    b = (0, 0, 0, 0, 0, 0)
    assert af.apply_op("f", 1, b, af.NONNEG) is None
    assert g2.f1_raw(b) == (-1, 1, 0, 0, 0, 0)
    assert g2.e1_raw(g2.f1_raw(b)) == b

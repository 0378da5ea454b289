"""Perfectness axioms and the piecewise-linear level-bound function."""

import pytest

from d43crystal import affine as af
from d43crystal import perfectness as pf


@pytest.mark.parametrize("l", [1, 2])
def test_P1(l):
    assert pf.check_P1(l)["status"] == "pass"


@pytest.mark.parametrize("l", range(1, 7))
def test_P2(l):
    r = pf.check_P2(l)
    assert r["status"] == "pass"
    assert r["lambda0"] == (-2 * l, l, 0)


@pytest.mark.parametrize("l", range(1, 7))
def test_P4_P5(l):
    r = pf.check_P4_P5(l)
    assert r["status"] == "pass"
    assert r["minimal"] == pf.minimal_elements(l)


def test_minimal_elements_values():
    assert pf.minimal_elements(1) == [(0, 0, 0, 0, 0, 0)]
    assert pf.minimal_elements(2) == [(0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 1)]
    assert pf.minimal_elements(3) == [
        (0, 0, 0, 0, 0, 0), (0, 1, 1, 1, 1, 0), (1, 0, 0, 0, 0, 1)]
    # count equals the number of dominant weights of level <= l
    for l in range(1, 9):
        assert len(pf.minimal_elements(l)) == len(pf.dominant_level_weights(l))


def test_minimal_elements_are_fixed_by_the_involution():
    for l in range(1, 7):
        for b in pf.minimal_elements(l):
            assert af.involution(b) == b


def test_psi_small_box():
    r = pf.check_psi_positive(radius=4)
    assert r["status"] == "pass"


def test_psi_values():
    assert pf.psi(0, 0, 0, 0) == 0
    assert pf.psi(1, 0, 0, 0) == 1
    assert pf.psi(0, 0, 0, -1) == 3
    assert pf.psi(-1, -1, -1, -1) > 0
    # homogeneity of degree one
    assert pf.psi(4, -2, 6, 2) == 2 * pf.psi(2, -1, 3, 1)


@pytest.mark.parametrize("l", range(1, 5))
def test_psi_matches_level_defect(l):
    assert pf.check_psi_level_consistency(l)["status"] == "pass"


def test_report_shape():
    rep = pf.perfectness_report(2)
    assert rep["level"] == 2
    assert rep["P1"]["status"] == "pass"
    assert rep["P2"]["status"] == "pass"
    assert rep["P3"]["status"] == "skipped"
    assert rep["P4"]["status"] == "pass"
    assert rep["P5"]["status"] == "pass"
    assert rep["minimal"] == pf.minimal_elements(2)
    rep = pf.perfectness_report(5)
    assert rep["P1"]["status"] == "pass"
    rep = pf.perfectness_report(7)
    assert rep["P1"]["status"] == "pass"
    assert rep["P1"]["vertices"] == 2640 ** 2
    rep = pf.perfectness_report(13)
    assert rep["P1"]["status"] == "skipped"

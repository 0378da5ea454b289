"""Spectral decomposition of the tensor square and the intertwiner checks."""

from fractions import Fraction

import pytest

from d43crystal import rmatrix as rm
from d43crystal import fundrep as fr
from d43crystal.exactalg import QRat, Laurent


@pytest.fixture(scope="module")
def rep():
    return fr.build_v1()


@pytest.fixture(scope="module")
def comps(rep):
    return rm.build_components(rep)


@pytest.fixture(scope="module")
def R(rep, comps):
    return rm.build_R(rep, comps)


def test_component_dimensions(comps):
    assert {k: len(v) for k, v in comps.items()} == rm.EXPECTED_DIMS
    assert sum(rm.EXPECTED_DIMS.values()) == rm.N


def test_projections_resolve_identity(comps):
    projs = rm.build_projections(comps)
    for n in range(rm.N):
        total = [QRat(0)] * rm.N
        for cols in projs.values():
            for row, c in enumerate(cols[n]):
                total[row] = total[row] + c
        assert total == [QRat(1) if row == n else QRat(0)
                         for row in range(rm.N)]


def test_iota_well_defined(rep, comps):
    assert rm.verify_iota(rep, comps, [("L1_1", "L1_2"), ("L1_1", "L1_3"),
                                       ("0_1", "0_2")])


def test_vacuum_eigenvalue_is_a2L1(R):
    assert rm.vacuum_eigenvalue(R) == rm.a_2L1()


def test_phi_nonvanishing():
    assert rm.phi_nonvanishing(kmax=10)


def test_determinant_identities():
    dets = rm.verify_determinants()
    assert dets and all(dets.values()), dets


def test_intertwiner(R, rep):
    checks = rm.verify_intertwiner(R, rep)
    assert checks and all(checks.values()), checks


def test_R_Rswap_scalar(R):
    assert rm.verify_R_Rswap_scalar(R)


def test_coefficient_normalizations():
    # at x = y every crossing block is the vacuum scalar times the identity
    q, xy = Fraction(2), Fraction(3)
    a = rm.a_2L1().subst(q, (xy, xy))
    assert a != 0
    assert rm.a_L2().subst(q, (xy, xy)) == a
    m3 = [[e.subst(q, (xy, xy)) for e in row] for row in rm.a_L1()]
    assert m3 == [[a if r == c else 0 for c in range(3)] for r in range(3)]
    m2 = [[e.subst(q, (xy, xy)) for e in row] for row in rm.a_0()]
    assert m2 == [[a, 0], [0, a]]


def test_yang_baxter_sampled(R):
    samples = [
        (Fraction(2), Fraction(3), Fraction(5), Fraction(7)),
        (Fraction(1, 2), Fraction(2), Fraction(3, 2), Fraction(5, 3)),
        (Fraction(-3), Fraction(1, 3), Fraction(4), Fraction(7, 2)),
    ]
    for qval, xv, yv, zv in samples:
        assert rm.yang_baxter_residual(R, qval, xv, yv, zv) == 0


def test_yang_baxter_without_samples_fails(R):
    assert rm.verify_yang_baxter(R, []) == {"status": "fail", "samples": 0}


@pytest.mark.slow
def test_yang_baxter_symbolic(R):
    assert rm.verify_yang_baxter_symbolic(R)


def test_swapped_matrix(R):
    S = R.swapped()
    # swapping twice restores the original columns
    for n in range(rm.N):
        assert S.swapped().cols[n] == R.cols[n]


def test_entry_accessor(R):
    e = R.entry(0, 0)
    assert isinstance(e, Laurent)
    assert e == rm.a_2L1()

"""Spectral decomposition of the tensor square and the intertwiner checks."""

from fractions import Fraction

import pytest

from d43crystal import rmatrix as rm
from d43crystal import fundrep as fr
from d43crystal.exactalg import QRat, Laurent

YBE_POINTS = [
    (Fraction(2), Fraction(3), Fraction(5), Fraction(7)),
    (Fraction(1, 2), Fraction(2), Fraction(3, 2), Fraction(5, 3)),
    (Fraction(-3), Fraction(1, 3), Fraction(4), Fraction(7, 2)),
]
# negative and fractional q, with negative and fractional spectral values
YBE_SIGNED_POINTS = [
    (Fraction(-3, 2), Fraction(2, 3), Fraction(-5), Fraction(7, 4)),
    (Fraction(-2, 5), Fraction(-1, 3), Fraction(3, 2), Fraction(-9, 7)),
]


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
    for qval, xv, yv, zv in YBE_POINTS:
        assert rm.yang_baxter_residual(R, qval, xv, yv, zv) == 0


# ---------------------------------------------------------------------------
# the Fraction Yang-Baxter residual, kept as a test-only oracle for the
# integer residual in rmatrix


def fraction_eval_R(R, qval, xv, yv):
    """Dense-enough sparse columns of R at exact rational parameters."""
    cols = []
    for col in R.cols:
        c = {}
        for row, lp in col.items():
            v = lp.subst(qval, (xv, yv))
            if v:
                c[row] = v
        cols.append(c)
    return cols


def fraction_side_mul(a, b):
    out = []
    for col in b:
        acc = {}
        for mid, c in col.items():
            for row, c2 in a[mid].items():
                acc[row] = acc.get(row, 0) + c2 * c
        out.append({r: v for r, v in acc.items() if v})
    return out


def fraction_yang_baxter_residual(R, qval, xv, yv, zv):
    """Number of nonzero entries of LHS - RHS at one exact sample."""
    rxy = rm._lift12(fraction_eval_R(R, qval, xv, yv))
    rxz = rm._lift23(fraction_eval_R(R, qval, xv, zv))
    ryz = rm._lift12(fraction_eval_R(R, qval, yv, zv))
    rxy2 = rm._lift23(fraction_eval_R(R, qval, xv, yv))
    rxz2 = rm._lift12(fraction_eval_R(R, qval, xv, zv))
    ryz2 = rm._lift23(fraction_eval_R(R, qval, yv, zv))
    lhs = fraction_side_mul(ryz, fraction_side_mul(rxz, rxy))
    rhs = fraction_side_mul(rxy2, fraction_side_mul(rxz2, ryz2))
    bad = 0
    for cl, cr in zip(lhs, rhs):
        keys = set(cl) | set(cr)
        for kk in keys:
            if cl.get(kk, 0) != cr.get(kk, 0):
                bad += 1
    return bad


@pytest.mark.parametrize("point", YBE_POINTS + YBE_SIGNED_POINTS)
def test_yang_baxter_residual_matches_fraction_oracle(R, point):
    got = rm.yang_baxter_residual(R, *point)
    assert isinstance(got, int)
    assert got == fraction_yang_baxter_residual(R, *point) == 0


def _perturbed(R, col, row, add=None):
    """R with entry (row, col) increased by add, or deleted if add is None."""
    cols = [dict(c) for c in R.cols]
    if add is None:
        del cols[col][row]
    else:
        cols[col][row] = cols[col][row] + add
    return rm.RMatrix(cols)


@pytest.mark.parametrize("col,row,add", [
    # (q / (1 + q^2)) z added to a diagonal entry
    (9, 9, Laurent.mono((1, -1), QRat((0, 1), (1, 0, 1)))),
    # a deleted entry: here the RHS has nonzero entries where the LHS has
    # none, and the LHS where the RHS has none
    (3, 10, None),
])
def test_perturbed_yang_baxter_residual_matches_fraction_oracle(R, col, row,
                                                                add):
    bad = _perturbed(R, col, row, add)
    point = YBE_SIGNED_POINTS[0]
    got = rm.yang_baxter_residual(bad, *point)
    assert got > 0
    assert got == fraction_yang_baxter_residual(bad, *point)
    result = rm.verify_yang_baxter(bad, [point, YBE_POINTS[0]])
    assert result["status"] == "fail" and result["method"] == "sampled"
    assert result["samples"] == 1
    assert result["nonzero_entries"] == got


@pytest.mark.parametrize("point", YBE_SIGNED_POINTS)
def test_integer_evaluation_is_a_positive_multiple(R, point):
    qval, xv, yv, _ = point
    ints = rm._eval_int(R, rm._coeffs_at_q(R, qval), xv, yv)
    fracs = fraction_eval_R(R, qval, xv, yv)
    assert [set(c) for c in ints] == [set(c) for c in fracs]
    assert all(type(v) is int for c in ints for v in c.values())
    ratios = {v / fracs[k][row] for k, c in enumerate(ints)
              for row, v in c.items()}
    assert len(ratios) == 1 and ratios.pop() > 0


def test_verify_yang_baxter_reports_method(R):
    assert rm.verify_yang_baxter(R, YBE_POINTS[:1]) == {
        "status": "pass", "method": "sampled", "samples": 1}


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

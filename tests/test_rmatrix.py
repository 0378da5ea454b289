"""Spectral decomposition of the tensor square and the intertwiner checks."""

from fractions import Fraction

import pytest

from d43crystal import exactalg
from d43crystal import rmatrix as rm
from d43crystal import fundrep as fr
from d43crystal.exactalg import (
    QRat, Laurent, QR_ONE, QR_ZERO, integer_images, q_power,
)
from linear_oracle import solve_linear

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


def frame_projections(comps):
    """label -> T_{label<-label} = B . E_{label<-label} . B^-1, the
    projection onto the component along the others, as sparse columns."""
    frame, inv = rm._frame_cols(comps), rm.component_coords(comps)
    return {label: rm.sparse_mul(frame, rm.sparse_mul(
        rm._block_cols(comps, {(label, label): QR_ONE}), inv))
        for label in fr.HW_ORDER}


def test_projections_resolve_identity(comps):
    total = [dict() for _ in range(rm.N)]
    for proj in frame_projections(comps).values():
        assert any(proj)
        for n, col in enumerate(proj):
            for row, c in col.items():
                total[n][row] = total[n].get(row, QR_ZERO) + c
    assert [{row: c for row, c in col.items() if c} for col in total] == [
        {n: QR_ONE} for n in range(rm.N)]


def test_iota_well_defined(rep, comps):
    assert rm.verify_iota(rep, comps)
    # L1_3 with two basis vectors swapped: the identification is no longer
    # basis-aligned
    permuted = dict(comps)
    b = list(comps["L1_3"])
    b[1], b[2] = b[2], b[1]
    permuted["L1_3"] = b
    assert not rm.verify_iota(rep, permuted)
    # one L1_2 basis vector times q: no longer a module map.  (Scaling the
    # whole basis by q would still be one.)
    rescaled = dict(comps)
    b = list(comps["L1_2"])
    b[1] = {k: c * q_power(1) for k, c in b[1].items()}
    rescaled["L1_2"] = b
    assert not rm.verify_iota(rep, rescaled)
    # L1_2 vectors 2, 3 and 4 times q: this still commutes with f_1, and
    # only f_2 sees it
    b = list(comps["L1_2"])
    for j in (2, 3, 4):
        b[j] = {k: c * q_power(1) for k, c in b[j].items()}
    rescaled["L1_2"] = b
    assert not rm.verify_iota(rep, rescaled)
    whole = dict(comps)
    whole["L1_2"] = [{k: c * q_power(1) for k, c in col.items()}
                     for col in comps["L1_2"]]
    assert rm.verify_iota(rep, whole)


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
    assert oracle_verify_intertwiner(R, rep) == checks


def test_R_Rswap_scalar(R):
    assert rm.verify_R_Rswap_scalar(R)
    assert oracle_verify_R_Rswap_scalar(R)


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
# the earlier assembly of R from dense projection and transfer matrices,
# kept as a test-only oracle for the component frame B . A(z) . B^-1

N = rm.N
RMatrix, build_components = rm.RMatrix, rm.build_components
a_2L1, a_L2, a_L1, a_0 = rm.a_2L1, rm.a_L2, rm.a_L1, rm.a_0


def dense_comps(comps):
    """The components' sparse basis columns as dense QRat lists."""
    return {label: [[col.get(k, QR_ZERO) for k in range(N)] for col in basis]
            for label, basis in comps.items()}


def oracle_build_projections(comps):
    """Projection matrices (dense QRat, column-major lists of columns) onto
    each component along the others, computed weight block by weight block."""
    order = fr.HW_ORDER
    # group tensor indices by classical weight
    blocks = {}
    for k in range(N):
        blocks.setdefault(fr.tensor_weight(k), []).append(k)
    # tag every basis column with its component and position
    tagged = []
    for label in order:
        for pos, col in enumerate(comps[label]):
            w = None
            for k, c in enumerate(col):
                if c:
                    w = fr.tensor_weight(k)
                    break
            tagged.append((label, pos, w, col))
    proj_cols = {label: [[QR_ZERO] * N for _ in range(N)] for label in order}
    for w, idxs in blocks.items():
        members = [(label, pos, col) for label, pos, wt, col in tagged
                   if wt == w]
        if len(members) != len(idxs):
            raise ArithmeticError(
                f"weight block {w}: {len(members)} basis vectors for "
                f"{len(idxs)} coordinates")
        rows = [[col[k] for _, _, col in members] for k in idxs]
        for j, k in enumerate(idxs):
            rhs = [QR_ONE if kk == k else QR_ZERO for kk in idxs]
            sol = solve_linear(rows, rhs, QR_ZERO, QR_ONE)
            if sol.kind != "unique":
                raise ArithmeticError(f"weight block {w} is not a direct sum")
            for (label, pos, col), coeff in zip(members, sol.particular):
                if coeff:
                    target = proj_cols[label][k]
                    for kk in idxs:
                        if col[kk]:
                            target[kk] = target[kk] + coeff * col[kk]
    return proj_cols


def oracle_component_coords(comps):
    """coords[label]: N columns, each the coefficient vector (length dim)
    of the projection of the standard basis vector onto the component, in
    the component basis.  Derived from the same block solves as the
    projections but kept in basis coordinates for the iota maps."""
    order = fr.HW_ORDER
    blocks = {}
    for k in range(N):
        blocks.setdefault(fr.tensor_weight(k), []).append(k)
    tagged = []
    for label in order:
        for pos, col in enumerate(comps[label]):
            w = None
            for k, c in enumerate(col):
                if c:
                    w = fr.tensor_weight(k)
                    break
            tagged.append((label, pos, w, col))
    coords = {label: [[QR_ZERO] * len(comps[label]) for _ in range(N)]
              for label in order}
    for w, idxs in blocks.items():
        members = [(label, pos, col) for label, pos, wt, col in tagged
                   if wt == w]
        rows = [[col[k] for _, _, col in members] for k in idxs]
        for k in idxs:
            rhs = [QR_ONE if kk == k else QR_ZERO for kk in idxs]
            sol = solve_linear(rows, rhs, QR_ZERO, QR_ONE)
            if sol.kind != "unique":
                raise ArithmeticError(f"weight block {w} is not a direct sum")
            for (label, pos, _), coeff in zip(members, sol.particular):
                if coeff:
                    coords[label][k][pos] = coeff
    return coords


def oracle_transfer_matrix(comps, coords, src, dst):
    """64x64 QRat matrix of iota_{dst<-src} composed with P_src: project
    onto src, reinterpret the coordinates in the basis of dst."""
    basis = comps[dst]
    out = [[QR_ZERO] * N for _ in range(N)]  # list of columns
    for k in range(N):
        cvec = coords[src][k]
        col = out[k]
        for pos, coeff in enumerate(cvec):
            if coeff:
                b = basis[pos]
                for kk in range(N):
                    if b[kk]:
                        col[kk] = col[kk] + coeff * b[kk]
    return out


def oracle_accumulate(cols, qmat, scalar):
    """cols += scalar * qmat where qmat is a list of QRat columns."""
    for k in range(N):
        col = qmat[k]
        for kk in range(N):
            if col[kk]:
                add = scalar * col[kk]
                cur = cols[k].get(kk)
                s = add if cur is None else cur + add
                if s:
                    cols[k][kk] = s
                elif cur is not None:
                    del cols[k][kk]


def oracle_build_R(rep=None, comps=None):
    if rep is None:
        rep = fr.build_v1()
    if comps is None:
        comps = build_components(rep)
    comps = dense_comps(comps)
    proj = oracle_build_projections(comps)
    coords = oracle_component_coords(comps)
    cols = [dict() for _ in range(N)]
    oracle_accumulate(cols, proj["2L1"], a_2L1())
    oracle_accumulate(cols, proj["L2"], a_L2())
    al1 = a_L1()
    l1 = ("L1_1", "L1_2", "L1_3")
    for i in range(3):
        for j in range(3):
            if al1[i][j]:
                oracle_accumulate(
                    cols, oracle_transfer_matrix(comps, coords, l1[i], l1[j]),
                    al1[i][j])
    a0 = a_0()
    triv = ("0_1", "0_2")
    for i in range(2):
        for j in range(2):
            if a0[i][j]:
                oracle_accumulate(
                    cols,
                    oracle_transfer_matrix(comps, coords, triv[i], triv[j]),
                    a0[i][j])
    return RMatrix(cols)


def test_build_R_matches_projection_oracle(rep, comps, R):
    want = oracle_build_R(rep, comps)
    assert R.cols == want.cols
    assert sum(map(len, R.cols)) == 342


def oracle_frame_build_R(comps):
    """The earlier QRat assembly of R = B . A(z) . B^-1 in the frame."""
    a_inv = rm.sparse_mul(rm._block_cols(comps, rm._coefficients()),
                          rm.component_coords(comps))
    return RMatrix(rm.sparse_mul(rm._frame_cols(comps), a_inv))


def test_build_R_matches_the_frame_oracle(comps, R):
    want = oracle_frame_build_R(comps)
    assert len(R.cols) == len(want.cols) == N
    for k, (got, exp) in enumerate(zip(R.cols, want.cols)):
        assert got.keys() == exp.keys(), k
        for row, lp in got.items():
            assert type(lp) is Laurent and lp.arity == 2
            assert lp.terms.keys() == exp[row].terms.keys(), (k, row)
            for e, c in lp.terms.items():
                w = exp[row].terms[e]
                assert type(c) is QRat
                assert (c.num, c.den) == (w.num, w.den), (k, row, e)


def test_build_R_reduces_each_coefficient_once(comps, monkeypatch):
    """With B^-1 and A(z) given, build_R runs p_gcd once per lcm step of
    its clearing denominators and once per coefficient of R, and never
    while it sums."""
    coords, table = rm.component_coords(comps), rm._coefficients()
    monkeypatch.setattr(rm, "component_coords", lambda _: coords)
    monkeypatch.setattr(rm, "_coefficients", lambda: table)
    calls = []
    gcd = exactalg.p_gcd
    monkeypatch.setattr(exactalg, "p_gcd",
                        lambda a, b: calls.append(1) or gcd(a, b))
    R = rm.build_R(comps=comps)
    frame = rm._frame_cols(comps)
    lcm_steps = sum(len({c.den for c in group}) for group in (
        [c for col in frame for c in col.values()],
        [c for lp in table.values() for c in lp.terms.values()],
        *(list(col.values()) for col in coords)))
    terms = sum(len(lp.terms) for col in R.cols for lp in col.values())
    assert len(calls) == lcm_steps + terms


def test_component_coords_match_the_oracle(comps):
    coords = oracle_component_coords(dense_comps(comps))
    want = [{} for _ in range(N)]
    start = 0
    for label in fr.HW_ORDER:
        for k, vec in enumerate(coords[label]):
            want[k].update({start + p: c for p, c in enumerate(vec) if c})
        start += len(comps[label])
    assert rm.component_coords(comps) == want


def test_component_coords_rejects_a_dependent_block(comps):
    # the first L1_2 vector replaced by q times the first L1_1 vector, of
    # the same weight
    bad = dict(comps)
    bad["L1_2"] = [{k: c * q_power(1) for k, c in comps["L1_1"][0].items()}
                   ] + comps["L1_2"][1:]
    with pytest.raises(ArithmeticError, match="is not a direct sum"):
        rm.component_coords(bad)


def test_component_coords_rejects_a_short_weight_block(comps):
    bad = {**comps, "0_2": []}
    with pytest.raises(ArithmeticError, match=(
            r"weight block \(0, 0, 0\): 9 basis vectors for 10 coordinates")):
        rm.component_coords(bad)


def test_build_components_rejects_a_short_closure(rep):
    # without f_1 and f_2 nothing lowers v1 (x) v1
    zero = [{} for _ in range(fr.DIM)]
    flat = fr.Rep8(rep.E, [rep.F[0], zero, zero], rep.weights)
    with pytest.raises(ArithmeticError,
                       match="component 2L1 has dimension 1, expected 27"):
        rm.build_components(flat)


def test_build_components_rejects_a_dependent_basis(rep, monkeypatch):
    # vphi (x) vphi in place of the L1_2 highest vector: the lowering words
    # of L1_1 send it to zero
    hw = fr.highest_vectors()
    monkeypatch.setattr(fr, "highest_vectors",
                        lambda: dict(hw, L1_2=hw["0_1"]))
    with pytest.raises(ArithmeticError,
                       match="component L1_2 basis is dependent"):
        rm.build_components(rep)


@pytest.mark.parametrize("label", ["2L1", "0_2"])
def test_build_components_rejects_a_zero_highest_vector(rep, monkeypatch,
                                                        label):
    # closure_words builds the 2L1 basis, apply_words the 0_2 one
    hw = fr.highest_vectors()
    monkeypatch.setattr(fr, "highest_vectors", lambda: {**hw, label: {}})
    with pytest.raises(ArithmeticError,
                       match=f"component {label} basis is dependent"):
        rm.build_components(rep)


def test_oracle_projections_are_the_frame_projections(comps):
    want = oracle_build_projections(dense_comps(comps))
    for label, got in frame_projections(comps).items():
        assert got == [{row: c for row, c in enumerate(col) if c}
                       for col in want[label]]


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


# ---------------------------------------------------------------------------
# the QRat bodies of the intertwiner and R.R-swap checks, kept as test-only
# oracles for the decisions over Z in rmatrix


def oracle_verify_intertwiner(R, rep):
    out = {}
    for kind in ("e", "f", "t"):
        for i in range(3):
            a = fr.coproduct(rep, kind, i)
            b = fr.coproduct(rep, kind, i, swapped=True)
            out[f"{kind}{i}"] = rm._sparse_eq(
                rm.sparse_mul(R.cols, a), rm.sparse_mul(b, R.cols))
    return out


def oracle_verify_R_Rswap_scalar(R):
    prod = rm.sparse_mul(R.cols, R.swapped().cols)
    scalar = prod[0].get(0)
    if scalar is None:
        return False
    for k in range(N):
        col = prod[k]
        if set(col) - {k}:
            return False
        if col.get(k, Laurent(2)) != scalar:
            return False
    return True


def test_checks_over_Z_use_the_expected_evaluation_points(R):
    assert integer_images([[R.cols, R.swapped().cols]], 2)[1] == 29
    assert integer_images([[R.cols]], 3)[1] == 43


Z = (1, -1)  # the exponent of z = x/y
# two polynomials that vanish at q = 2^29, where R.R-swap and the
# intertwiner of the unperturbed R are evaluated: a perturbation that the
# evaluation would miss unless w grows with the perturbed coefficients
AIMED_AT_W = [QRat((-(2 ** 29), 1)), QRat((2 ** 60, 0, -4))]


@pytest.mark.parametrize("col,row,add,fails", [
    (9, 9, Laurent.mono(Z, QRat((0, 1), (1, 0, 1))), False),
    (3, 10, None, False),
    (0, 0, Laurent.mono(Z, QRat((1,), (1, 0, 1))), False),
    (9, 9, Laurent.mono(Z, AIMED_AT_W[0]), True),   # (q - 2^29) z
    (9, 9, Laurent.mono(Z, AIMED_AT_W[1]), True),   # (2^60 - 4q^2) z
])
def test_perturbed_R_checks_match_qrat_oracles(R, rep, col, row, add,
                                               fails):
    bad = _perturbed(R, col, row, add)
    inter = rm.verify_intertwiner(bad, rep)
    assert inter == oracle_verify_intertwiner(bad, rep)
    rrswap = rm.verify_R_Rswap_scalar(bad)
    assert rrswap is oracle_verify_R_Rswap_scalar(bad)
    if fails:
        assert not rrswap and not all(inter.values())


def test_aimed_perturbations_vanish_at_the_unperturbed_point():
    assert [c.subst_q(2 ** 29) for c in AIMED_AT_W] == [0, 0]


@pytest.mark.slow
@pytest.mark.parametrize("add", [
    Laurent.mono(Z, QRat((0, 1), (1, 0, 1))),
    Laurent.mono(Z, QRat((-(2 ** 43), 1))),    # vanishes at q = 2^43
])
def test_yang_baxter_symbolic_fails_on_a_perturbed_R(R, add):
    bad = _perturbed(R, 9, 9, add)
    assert rm.yang_baxter_residual(bad, *YBE_SIGNED_POINTS[0]) > 0
    assert not rm.verify_yang_baxter_symbolic(bad)


def test_swapped_matrix(R):
    S = R.swapped()
    # swapping twice restores the original columns
    for n in range(rm.N):
        assert S.swapped().cols[n] == R.cols[n]


def test_entry_accessor(R):
    e = R.entry(0, 0)
    assert isinstance(e, Laurent)
    assert e == rm.a_2L1()

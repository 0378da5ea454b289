"""Spectral decomposition of the intertwiner on V1_x (x) V1_y: the component
frame, the coefficient matrices, and the verification suite
(intertwining, determinant identities, vacuum eigenvalue, Yang-Baxter).

The 64 tensor basis vectors v_a (x) v_b are indexed by 8*a + b, and every
vector and matrix on the tensor square is in fundrep's sparse column
format.  R entries are Laurent polynomials in (x, y) that only involve the
ratio z = x/y.  R = B . A(z) . B^-1 is summed over Z[q], with each of its
coefficients reduced once.
"""

from fractions import Fraction
from itertools import accumulate
from math import lcm

from .exactalg import (
    P_ZERO, Echelon, Laurent, QRat, QR_ZERO, QR_ONE, clear_denominators,
    integer_images, lp2_poly_z, p_add, p_mul, q_power, sparse_mul,
)
from . import fundrep as fr

N = 64

EXPECTED_DIMS = {"2L1": 27, "L2": 14, "L1_1": 7, "L1_2": 7, "L1_3": 7,
                 "0_1": 1, "0_2": 1}


def build_components(rep=None):
    """Close each highest weight vector under Delta(f_1), Delta(f_2).

    Returns an ordered dict label -> list of sparse QRat basis columns.  The
    three 7-dimensional components and the two trivial ones use identical
    lowering words (recorded from the first of each group) so that the
    identification maps are basis-aligned.
    """
    if rep is None:
        rep = fr.build_v1()
    hw = fr.highest_vectors()
    lower = {i: fr.coproduct(rep, "f", i) for i in (1, 2)}

    def closure_words(label):
        """BFS lowering words that extend the span, starting from []."""
        ech = Echelon(N)
        start = hw[label]
        if ech.add(start) is not None:
            raise ArithmeticError(f"component {label} basis is dependent")
        words = [()]
        basis_vecs = [start]
        frontier = [(start, ())]
        while frontier:
            nxt = []
            for vec, word in frontier:
                for i in (1, 2):
                    nv = sparse_mul(lower[i], [vec])[0]
                    if nv and ech.add(nv) is None:
                        w = word + (i,)
                        words.append(w)
                        basis_vecs.append(nv)
                        nxt.append((nv, w))
            frontier = nxt
        return words, basis_vecs

    def apply_words(label, words):
        """The vectors w(hw[label]), which must be independent."""
        ech = Echelon(N)
        out = []
        for w in words:
            vec = hw[label]
            for i in w:
                vec = sparse_mul(lower[i], [vec])[0]
            if ech.add(vec) is not None:
                raise ArithmeticError(f"component {label} basis is dependent")
            out.append(vec)
        return out

    comps = {}
    _, comps["2L1"] = closure_words("2L1")
    _, comps["L2"] = closure_words("L2")
    words_l1, comps["L1_1"] = closure_words("L1_1")
    comps["L1_2"] = apply_words("L1_2", words_l1)
    comps["L1_3"] = apply_words("L1_3", words_l1)
    comps["0_1"] = apply_words("0_1", [()])
    comps["0_2"] = apply_words("0_2", [()])

    for label, basis in comps.items():
        if len(basis) != EXPECTED_DIMS[label]:
            raise ArithmeticError(
                f"component {label} has dimension {len(basis)}, "
                f"expected {EXPECTED_DIMS[label]}")
    return comps


def _frame_cols(comps):
    """B: the component basis vectors in HW_ORDER."""
    return [col for label in fr.HW_ORDER for col in comps[label]]


def component_coords(comps):
    """Sparse columns of B^-1: column k holds the coordinates of the
    standard basis vector k in the component frame.  Each weight block is
    one Gauss-Jordan pass over its frame columns, frame column j tagged
    with N + j: the stored column with pivot k is then e_k, and its tags
    are column k of B^-1."""
    blocks = {}
    for k in range(N):
        blocks.setdefault(fr.tensor_weight(k), []).append(k)
    members = {}
    frame = _frame_cols(comps)
    for j, col in enumerate(frame):
        members.setdefault(fr.tensor_weight(min(col)), []).append(j)
    inv = [None] * N
    for w, idxs in blocks.items():
        js = members.get(w, [])
        if len(js) != len(idxs):
            raise ArithmeticError(
                f"weight block {w}: {len(js)} basis vectors for "
                f"{len(idxs)} coordinates")
        ech = Echelon(N)
        for j in js:
            col = {k: frame[j][k] for k in idxs if k in frame[j]}
            if ech.add({**col, N + j: QR_ONE}) is not None:
                raise ArithmeticError(f"weight block {w} is not a direct sum")
        for k, col in ech.cols.items():
            inv[k] = {j - N: c for j, c in col.items() if j >= N}
    return inv


def _starts(comps):
    """label -> the frame coordinate of the component's first vector."""
    return dict(zip(fr.HW_ORDER, accumulate(
        (len(comps[label]) for label in fr.HW_ORDER), initial=0)))


def _block_cols(comps, table):
    """Sparse columns of the map on frame coordinates that sends position p
    of component src to position p of component dst, times table[src, dst]."""
    start = _starts(comps)
    cols = [dict() for _ in range(N)]
    for (src, dst), c in table.items():
        for p in range(len(comps[src])):
            cols[start[src] + p][start[dst] + p] = c
    return cols


IOTA_PAIRS = (("L1_1", "L1_2"), ("L1_1", "L1_3"), ("0_1", "0_2"))


def verify_iota(rep, comps):
    """Each basis-aligned identification (src, dst) in IOTA_PAIRS commutes
    with Delta(f_1), Delta(f_2): T = B . E_{dst<-src} . B^-1 satisfies
    T f_i = f_i T.  On src this is the word-independence of the iota maps;
    on every other component both sides vanish."""
    frame, inv = _frame_cols(comps), component_coords(comps)
    lower = [fr.coproduct(rep, "f", i) for i in (1, 2)]
    for src, dst in IOTA_PAIRS:
        T = sparse_mul(frame, sparse_mul(
            _block_cols(comps, {(src, dst): QR_ONE}), inv))
        for f in lower:
            if not _sparse_eq(sparse_mul(T, f), sparse_mul(f, T)):
                return False
    return True


# ---------------------------------------------------------------------------
# the coefficient polynomials, as Laurent polynomials in z = x/y


def _pz(*coeffs):
    return lp2_poly_z(list(coeffs))


def _qp(k):
    return q_power(k)


def a_2L1():
    # (1 - q^2 z)(1 - q^6 z)(1 + q^4 z + q^8 z^2)
    f1 = _pz(QR_ONE, -_qp(2))
    f2 = _pz(QR_ONE, -_qp(6))
    f3 = _pz(QR_ONE, _qp(4), _qp(8))
    return f1 * f2 * f3


def a_L2():
    f1 = _pz(-_qp(2), QR_ONE)
    f2 = _pz(QR_ONE, -_qp(6))
    f3 = _pz(QR_ONE, _qp(4), _qp(8))
    return f1 * f2 * f3


def a_L1():
    """3x3 coefficient matrix."""
    one = QR_ONE
    d = one + _qp(2)  # 1 + q^2
    a11 = _pz(QR_ZERO, (one - _qp(6)) / d) * _pz(one, QR_ZERO, -_qp(12))
    a12 = (_pz(one, -one) * _pz(one, -_qp(6))
           * _pz((one + _qp(2)) * _qp(2) / d,
                 (_qp(2) + _qp(6)) * _qp(2) / d,
                 (one + _qp(2)) * _qp(8) / d))
    a13 = (_pz(QR_ZERO, _qp(1) * (one - _qp(6)) / (d * d))
           * _pz(one, -one) * _pz(one, -_qp(6)))
    a31 = a13 * (d * d * (one + _qp(8)))
    inner = (_pz(-_qp(8), QR_ZERO, QR_ZERO, _qp(2)) * d
             + _pz(QR_ZERO, -_qp(4), one) * ((one - _qp(2)) * (one - _qp(6))))
    a33 = _pz(one, -_qp(6)) * inner * (QR_ONE / d)
    return [[a11, a12, a13], [a12, a11, a13], [a31, a31, a33]]


def a_0():
    """2x2 coefficient matrix."""
    one = QR_ONE
    d = one + _qp(2)
    a11 = _pz(
        (one + _qp(2)) * _qp(2) / d,
        -(one + _qp(8)) * _qp(2) / d,
        (one - _qp(4)) * (one - _qp(6)) * (one + _qp(8)) / d,
        -(one + _qp(8)) * _qp(8) / d,
        (one + _qp(2)) * _qp(14) / d,
    )
    c12 = _qp(1) * (one - _qp(6)) * (one - _qp(6)) / (d * (one - _qp(4)))
    a12 = _pz(QR_ZERO, c12, QR_ZERO, -c12)
    c21 = _qp(1) * (one - _qp(14)) * (one - _qp(4) + _qp(8))
    a21 = _pz(QR_ZERO, c21, QR_ZERO, -c21)
    # a22 = z^4 * a11(1/z)
    a22 = Laurent(2)
    for (ex, ey), c in a11.terms.items():
        k = ex  # z-degree
        a22 = a22 + Laurent.mono((4 - k, k - 4), c)
    return [[a11, a12], [a21, a22]]


# ---------------------------------------------------------------------------
# assembling R


class RMatrix:
    """Sparse column map: cols[k] is a dict row -> Laurent in (x, y)."""

    def __init__(self, cols):
        self.cols = cols

    def entry(self, row, col):
        return self.cols[col].get(row, Laurent(2))

    def swapped(self):
        """R(y, x): substitute z -> 1/z in every entry."""
        return RMatrix([
            {r: c.swap_xy() for r, c in col.items()} for col in self.cols
        ])


def _coefficients():
    """(src, dst) -> the coefficient of R from component src to component
    dst; a_L1[i][j] maps L1_{i+1} to L1_{j+1}, and likewise for a_0."""
    table = {("2L1", "2L1"): a_2L1(), ("L2", "L2"): a_L2()}
    for labels, mat in ((("L1_1", "L1_2", "L1_3"), a_L1()),
                        (("0_1", "0_2"), a_0())):
        for i, src in enumerate(labels):
            for j, dst in enumerate(labels):
                if mat[i][j]:
                    table[src, dst] = mat[i][j]
    return table


def build_R(rep=None, comps=None):
    """R = B . A(z) . B^-1 = sum over (src, dst) of a_{src,dst}(z) B_dst
    B^-1_src, summed over Z[q]: B, the coefficients of A and each column c
    of B^-1 are cleared by one denominator each (D_B, D_A, D_c), and each
    coefficient of column c is reduced once, as one QRat over D_A D_B D_c."""
    if comps is None:
        comps = build_components(rep)
    d_b, b_int = clear_denominators(
        {c for basis in comps.values() for col in basis for c in col.values()})
    table = _coefficients()
    d_a, a_int = clear_denominators(
        {c for lp in table.values() for c in lp.terms.values()})
    start = _starts(comps)
    cols = []
    for inv_col in component_coords(comps):
        d_c, c_int = clear_denominators(set(inv_col.values()))
        acc = {}
        for (src, dst), lp in table.items():
            v = {}  # column c of B_dst B^-1_src, cleared
            for p in range(len(comps[src])):
                c = inv_col.get(start[src] + p)
                if c:
                    for row, b in comps[dst][p].items():
                        v[row] = p_add(v.get(row, P_ZERO),
                                       p_mul(b_int[b], c_int[c]))
            for row, m in v.items():
                for e, a in lp.terms.items():
                    acc[row, e] = p_add(acc.get((row, e), P_ZERO),
                                        p_mul(m, a_int[a]))
        den = p_mul(p_mul(d_a, d_b), d_c)
        col = {}
        for (row, e), num in acc.items():
            if num:
                col.setdefault(row, Laurent(2)).terms[e] = QRat(num, den)
        cols.append(col)
    return RMatrix(cols)


# ---------------------------------------------------------------------------
# verification


def _sparse_eq(a_cols, b_cols):
    return all(a == b for a, b in zip(a_cols, b_cols))


def verify_intertwiner(R, rep=None):
    """R Delta_{x,y}(g) = Delta_{y,x}(g) R for all nine generators, decided
    over Z by integer_images with k = 2: R is cleared once, Delta(g) and
    its swap share one denominator, and one w serves all nine.  The images
    of each generator are made in turn and compared column by column, so
    one generator's images and one product column are held at a time."""
    if rep is None:
        rep = fr.build_v1()
    gens = [(kind, i) for kind in ("e", "f", "t") for i in range(3)]
    pairs = [[fr.coproduct(rep, kind, i),
              fr.coproduct(rep, kind, i, swapped=True)] for kind, i in gens]
    images, _ = integer_images([[R.cols]] + pairs, 2)
    (r,) = next(images)
    return {f"{kind}{i}": all(sparse_mul(r, [ca]) == sparse_mul(b, [cr])
                              for ca, cr in zip(a, r))
            for (kind, i), (a, b) in zip(gens, images)}


def vacuum_eigenvalue(R):
    """Scalar on v1 (x) v1; must be a_2L1 and the column must be diagonal."""
    col = R.cols[0]
    if set(col) != {0}:
        raise ArithmeticError("R does not act diagonally on the vacuum")
    return col[0]


def phi_nonvanishing(kmax=10):
    """a_2L1(q^{2k}) != 0 in Q(q) for k = 1..kmax: the vacuum eigenvalue
    does not vanish there.  This is not invertibility of R: at q = 3 its
    exact rank is 35 at z = q^2 and 63 at z = q^6."""
    phi = a_2L1()
    for k in range(1, kmax + 1):
        acc = QR_ZERO
        for (ex, _), c in phi.terms.items():
            acc = acc + c * q_power(2 * k * ex)
        if not acc:
            return False
    return True


def verify_determinants():
    """Cleared-denominator forms of the two determinant identities."""
    one = QR_ONE
    f2z = _pz(one, -_qp(2))   # 1 - q^2 z
    f6z = _pz(one, -_qp(6))   # 1 - q^6 z
    fq = _pz(one, _qp(4), _qp(8))      # 1 + q^4 z + q^8 z^2
    g2 = _pz(-_qp(2), one)    # z - q^2
    g6 = _pz(-_qp(6), one)    # z - q^6
    gq = _pz(_qp(8), _qp(4), one)      # z^2 + q^4 z + q^8
    top = a_2L1()

    m = a_L1()
    det3 = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    lhs = det3 * f2z * f2z * fq
    rhs = g2 * g2 * gq * top * top * top
    ok3 = lhs == rhs

    a = a_0()
    det2 = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    lhs = det2 * f2z * f6z * fq
    rhs = g2 * g6 * gq * top * top
    ok2 = lhs == rhs
    return {"det_L1": ok3, "det_0": ok2}


def verify_R_Rswap_scalar(R):
    """R(x,y) R(y,x) is a scalar multiple of the identity, decided over Z
    by integer_images with k = 2; R and R(y,x) share one denominator."""
    ((r, s),), _ = integer_images([[R.cols, R.swapped().cols]], 2)
    prod = sparse_mul(r, s)
    scalar = prod[0].get(0)
    if scalar is None:
        return False
    for k in range(N):
        col = prod[k]
        if set(col) - {k}:
            return False
        if col.get(k) != scalar:
            return False
    return True


# ---------------------------------------------------------------------------
# Yang-Baxter


def _over_lcm(values):
    """Fractions -> integers: each value times the positive lcm of all the
    denominators."""
    den = lcm(*(v.denominator for v in values.values()))
    return {k: v.numerator * (den // v.denominator) for k, v in values.items()}


def _coeffs_at_q(R, qval):
    """Each QRat coefficient of R at q = qval, times one common positive
    integer."""
    coeffs = {c for col in R.cols for lp in col.values()
              for c in lp.terms.values()}
    return _over_lcm({c: c.subst_q(qval) for c in coeffs})


def _eval_int(R, at_q, xv, yv):
    """Sparse integer columns of a positive multiple of R(xv, yv), given
    at_q = _coeffs_at_q(R, q)."""
    xv, yv = Fraction(xv), Fraction(yv)
    exps = {e for col in R.cols for lp in col.values() for e in lp.terms}
    mono = _over_lcm({e: xv ** e[0] * yv ** e[1] for e in exps})
    cols = []
    for col in R.cols:
        c = {}
        for row, lp in col.items():
            v = sum(at_q[coeff] * mono[e] for e, coeff in lp.terms.items())
            if v:
                c[row] = v
        cols.append(c)
    return cols


def _lift12(cols):
    """R (x) 1 on the 512-dimensional triple space, sparse columns."""
    out = [dict() for _ in range(512)]
    for k in range(64):
        for c in range(8):
            src = k * 8 + c
            for row, v in cols[k].items():
                out[src][row * 8 + c] = v
    return out


def _lift23(cols):
    """1 (x) R."""
    out = [dict() for _ in range(512)]
    for a in range(8):
        for k in range(64):
            src = a * 64 + k
            for row, v in cols[k].items():
                out[src][a * 64 + row] = v
    return out


def yang_baxter_residual(R, qval, xv, yv, zv):
    """Number of nonzero entries of LHS - RHS at one exact sample.

    R(x,y), R(x,z) and R(y,z) are each evaluated once and scaled to integer
    matrices by positive rationals s_xy, s_xz, s_yz.  Each side of the
    braid relation holds one factor of each pair, so both sides are scaled
    by the same s_xy * s_xz * s_yz and the nonzero pattern of LHS - RHS is
    unchanged; the 512-dimensional products then run over Z.
    """
    at_q = _coeffs_at_q(R, qval)
    rxy = _eval_int(R, at_q, xv, yv)
    rxz = _eval_int(R, at_q, xv, zv)
    ryz = _eval_int(R, at_q, yv, zv)
    lhs = sparse_mul(_lift12(ryz), sparse_mul(_lift23(rxz), _lift12(rxy)))
    rhs = sparse_mul(_lift23(rxy), sparse_mul(_lift12(rxz), _lift23(ryz)))
    bad = 0
    for cl, cr in zip(lhs, rhs):
        keys = set(cl) | set(cr)
        for kk in keys:
            if cl.get(kk, 0) != cr.get(kk, 0):
                bad += 1
    return bad


def default_ybe_samples():
    """20 generic exact (q, x, y, z) tuples avoiding the poles of the
    coefficient denominators (powers of 1+q^2 and 1-q^4)."""
    qs = [Fraction(2), Fraction(3), Fraction(3, 2), Fraction(5, 3),
          Fraction(7, 4)]
    spect = [(1, 2, 3), (1, 3, 7), (2, 5, 9), (3, 4, 11)]
    return [(qv, Fraction(x), Fraction(y), Fraction(z))
            for qv in qs for (x, y, z) in spect]


def verify_yang_baxter(R=None, samples=None):
    """Sampled Yang-Baxter check.  "samples" counts the points checked; a
    failure stops at its point.  An empty sample list is a failure, since it
    checks nothing."""
    if samples is None:
        samples = default_ybe_samples()
    if not samples:
        return {"status": "fail", "samples": 0}
    if R is None:
        R = build_R()
    for n, (qval, xv, yv, zv) in enumerate(samples, 1):
        bad = yang_baxter_residual(R, qval, xv, yv, zv)
        if bad:
            return {"status": "fail", "method": "sampled", "samples": n,
                    "sample": (qval, xv, yv, zv), "nonzero_entries": bad}
    return {"status": "pass", "method": "sampled", "samples": len(samples)}


# fully symbolic YBE in three spectral variables (slow path)


def _lift_arity3(lp, vars2):
    """Reinterpret an (x, y)-Laurent as arity 3 in (x, y, z) with the two
    active variable slots given by vars2."""
    out = Laurent(3)
    t = {}
    for e2, c in lp.terms.items():
        e = [0, 0, 0]
        e[vars2[0]] = e2[0]
        e[vars2[1]] = e2[1]
        t[tuple(e)] = c
    out.terms = t
    return out


def _symbolic_cols(cols, vars2, lift):
    return lift([{row: _lift_arity3(v, vars2) for row, v in col.items()}
                 for col in cols])


def verify_yang_baxter_symbolic(R=None):
    """Exact three-variable identity, decided over Z by integer_images with
    k = 3: R is cleared once, and each side holds one factor of each of
    R(x,y), R(x,z) and R(y,z)."""
    if R is None:
        R = build_R()
    ((r,),), _ = integer_images([[R.cols]], 3)
    rxy12 = _symbolic_cols(r, (0, 1), _lift12)
    rxz23 = _symbolic_cols(r, (0, 2), _lift23)
    ryz12 = _symbolic_cols(r, (1, 2), _lift12)
    rxy23 = _symbolic_cols(r, (0, 1), _lift23)
    rxz12 = _symbolic_cols(r, (0, 2), _lift12)
    ryz23 = _symbolic_cols(r, (1, 2), _lift23)
    lhs = sparse_mul(ryz12, sparse_mul(rxz23, rxy12))
    rhs = sparse_mul(rxy23, sparse_mul(rxz12, ryz23))
    return _sparse_eq(lhs, rhs)

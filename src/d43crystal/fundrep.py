"""The 8-dimensional fundamental module V1, its defining-relation checks,
the polarization, the spectral coproduct on V1_x (x) V1_y, and the highest
weight vectors of the tensor square with their lowering identities.

Basis order is (v1, v2, v3, v0, v3b, v2b, v1b, vphi), indices 0..7.

There are two formats.  On V1 the generators are dense 8x8 lists of QRat
with M[row][col]; columns are sources.  On V1_x (x) V1_y, v_a (x) v_b has
the flat index 8a + b, and both vectors and matrices are sparse: a vector
is a dict {8a+b: entry}, a matrix a list of 64 such columns, multiplied by
exactalg.sparse_mul.  Entries are QRat, except where the spectral variables
enter: Delta(e_0) and Delta(f_0) have Laurent entries in (x, y), and so
does every vector that one of them has acted on.
"""

from .exactalg import (
    Laurent, QR_ZERO, QR_ONE, Q_POW, mat_mul, q_factorial, q_int, q_power,
    solve_linear, sparse_mul,
)

DIM = 8
LABELS = ("1", "2", "3", "0", "3b", "2b", "1b", "phi")

# <h_i, alpha_j>
CARTAN = ((2, -1, 0), (-1, 2, -3), (0, -1, 2))

# weights on (Lambda_0, Lambda_1, Lambda_2); <h_i, Lambda_j> = delta_ij
WEIGHTS = (
    (-2, 1, 0),
    (-1, -1, 1),
    (-1, 2, -1),
    (0, 0, 0),
    (1, -2, 1),
    (1, 1, -1),
    (2, -1, 0),
    (0, 0, 0),
)


def qi_power(i, k):
    """q_i^k with q_0 = q_1 = q, q_2 = q^3."""
    return q_power(Q_POW[i] * k)


def _zeros():
    return [[QR_ZERO] * DIM for _ in range(DIM)]


class Rep8:
    def __init__(self, E, F, weights):
        self.E = E
        self.F = F
        self.weights = weights

    def t_matrix(self, i, power=1):
        m = _zeros()
        for k in range(DIM):
            m[k][k] = qi_power(i, power * self.weights[k][i])
        return m


def build_v1():
    two = q_int(2)
    three_over_two = q_int(3) / two
    inv_two = QR_ONE / two

    E = [_zeros() for _ in range(3)]
    F = [_zeros() for _ in range(3)]
    # e_0 v1 = vphi + (1/[2]) v0, e_0 v2 = v3b, e_0 v3 = v2b,
    # e_0 v0 = v1b, e_0 vphi = ([3]/[2]) v1b
    E[0][7][0] = QR_ONE
    E[0][3][0] = inv_two
    E[0][4][1] = QR_ONE
    E[0][5][2] = QR_ONE
    E[0][6][3] = QR_ONE
    E[0][6][7] = three_over_two
    # f_0 v1b = vphi + (1/[2]) v0, f_0 v2b = v3, f_0 v3b = v2,
    # f_0 v0 = v1, f_0 vphi = ([3]/[2]) v1
    F[0][7][6] = QR_ONE
    F[0][3][6] = inv_two
    F[0][2][5] = QR_ONE
    F[0][1][4] = QR_ONE
    F[0][0][3] = QR_ONE
    F[0][0][7] = three_over_two
    # e_1 v2 = v1, e_1 v0 = [2] v3, e_1 v3b = v0, e_1 v1b = v2b
    E[1][0][1] = QR_ONE
    E[1][2][3] = two
    E[1][3][4] = QR_ONE
    E[1][5][6] = QR_ONE
    # f_1 v2b = v1b, f_1 v0 = [2] v3b, f_1 v3 = v0, f_1 v1 = v2
    F[1][6][5] = QR_ONE
    F[1][4][3] = two
    F[1][3][2] = QR_ONE
    F[1][1][0] = QR_ONE
    # e_2 v3 = v2, e_2 v2b = v3b
    E[2][1][2] = QR_ONE
    E[2][4][5] = QR_ONE
    # f_2 v3b = v2b, f_2 v2 = v3
    F[2][5][4] = QR_ONE
    F[2][2][1] = QR_ONE
    return Rep8(E, F, WEIGHTS)


# ---------------------------------------------------------------------------
# defining relations


def _mm(a, b):
    return mat_mul(a, b, QR_ZERO)


def _msub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _mscale(a, c):
    return [[x * c for x in row] for row in a]


def _is_zero(m):
    return all(not x for row in m for x in row)


def _identity():
    m = _zeros()
    for k in range(DIM):
        m[k][k] = QR_ONE
    return m


def _serre_sum(rep, mats, i, j):
    """sum_n (-1)^n X_i^(n) X_j X_i^(l-n) with l = 1 - <h_i, alpha_j>."""
    l = 1 - CARTAN[i][j]
    powers = [_identity()]
    for _ in range(l):
        powers.append(_mm(powers[-1], mats[i]))
    acc = _zeros()
    sign = QR_ONE
    for n in range(l + 1):
        coeff = sign / (q_factorial(n, i) * q_factorial(l - n, i))
        term = _mscale(_mm(_mm(powers[n], mats[j]), powers[l - n]), coeff)
        acc = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(acc, term)]
        sign = -sign
    return acc


def check_defining_relations(rep):
    """Dict relation name -> bool; all must hold for a module structure."""
    out = {}
    tmats = [rep.t_matrix(i) for i in range(3)]
    tinvs = [rep.t_matrix(i, -1) for i in range(3)]
    for i in range(3):
        for j in range(3):
            out[f"t{i}t{j}=t{j}t{i}"] = _is_zero(
                _msub(_mm(tmats[i], tmats[j]), _mm(tmats[j], tmats[i])))
            lhs = _mm(_mm(tmats[i], rep.E[j]), tinvs[i])
            out[f"t{i}e{j}t{i}^-1"] = _is_zero(
                _msub(lhs, _mscale(rep.E[j], qi_power(i, CARTAN[i][j]))))
            lhs = _mm(_mm(tmats[i], rep.F[j]), tinvs[i])
            out[f"t{i}f{j}t{i}^-1"] = _is_zero(
                _msub(lhs, _mscale(rep.F[j], qi_power(i, -CARTAN[i][j]))))
            comm = _msub(_mm(rep.E[i], rep.F[j]), _mm(rep.F[j], rep.E[i]))
            if i == j:
                denom = qi_power(i, 1) - qi_power(i, -1)
                rhs = _mscale(_msub(tmats[i], tinvs[i]), QR_ONE / denom)
                out[f"[e{i},f{i}]"] = _is_zero(_msub(comm, rhs))
            else:
                out[f"[e{i},f{j}]=0"] = _is_zero(comm)
            if i != j:
                out[f"serre_e({i},{j})"] = _is_zero(_serre_sum(rep, rep.E, i, j))
                out[f"serre_f({i},{j})"] = _is_zero(_serre_sum(rep, rep.F, i, j))
    return out


# ---------------------------------------------------------------------------
# polarization


def build_polarization(rep):
    """The symmetric form with (t_i u, v) = (u, t_i v),
    (e_i u, v) = (u, q_i^-1 t_i^-1 f_i v), (f_i u, v) = (u, q_i^-1 t_i e_i v),
    normalized by (v1, v1) = 1, (u, vphi) = 0 off the trivial part,
    (vphi, vphi) = q[3]/[2].  Solved as a linear system; the solution must
    be unique."""
    n = DIM * DIM
    rows = []

    def var(u, v):
        return u * DIM + v

    def add_zero_combination(coeffs):
        row = [QR_ZERO] * n
        for idx, c in coeffs:
            row[idx] = row[idx] + c
        rows.append(row)

    # symmetry
    for u in range(DIM):
        for v in range(u + 1, DIM):
            add_zero_combination([(var(u, v), QR_ONE), (var(v, u), -QR_ONE)])
    for i in range(3):
        # adjoints of e_i and f_i; the t_i identity follows from these two
        adj_e = _mscale(_mm(rep.t_matrix(i, -1), rep.F[i]), qi_power(i, -1))
        adj_f = _mscale(_mm(rep.t_matrix(i, 1), rep.E[i]), qi_power(i, -1))
        for op, adj in ((rep.E[i], adj_e), (rep.F[i], adj_f)):
            for u in range(DIM):
                for v in range(DIM):
                    # (op u, v) - (u, adj v) = 0
                    coeffs = []
                    for r in range(DIM):
                        if op[r][u]:
                            coeffs.append((var(r, v), op[r][u]))
                        if adj[r][v]:
                            coeffs.append((var(u, r), -adj[r][v]))
                    if coeffs:
                        add_zero_combination(coeffs)
    # the kernel of the homogeneous system spans the invariant forms; the
    # normalization fixes the coordinates of the form in that basis
    kernel = solve_linear(rows, [QR_ZERO] * len(rows), QR_ZERO, QR_ONE).kernel
    free_dim = len(kernel)
    norm = ([(var(0, 0), QR_ONE)] + [(var(u, 7), QR_ZERO) for u in range(DIM - 1)]
            + [(var(7, 7), q_power(1) * q_int(3) / q_int(2))])
    sol = solve_linear([[vec[k] for vec in kernel] for k, _ in norm],
                       [value for _, value in norm], QR_ZERO, QR_ONE)
    if sol.kind != "unique":
        raise ArithmeticError(
            f"polarization not unique: {sol.kind}, free dim {free_dim}")
    form = [sum((c * vec[k] for c, vec in zip(sol.particular, kernel)), QR_ZERO)
            for k in range(n)]
    gram = [[form[var(u, v)] for v in range(DIM)] for u in range(DIM)]
    return gram, free_dim


def check_polarization(rep, gram):
    """Exact matrix identities G = G^T, E_i^T G = G (q_i^-1 T_i^-1 F_i),
    F_i^T G = G (q_i^-1 T_i E_i)."""
    gt = [list(col) for col in zip(*gram)]
    if gt != gram:
        return False
    for i in range(3):
        et = [list(col) for col in zip(*rep.E[i])]
        ft = [list(col) for col in zip(*rep.F[i])]
        adj_e = _mscale(_mm(rep.t_matrix(i, -1), rep.F[i]), qi_power(i, -1))
        adj_f = _mscale(_mm(rep.t_matrix(i, 1), rep.E[i]), qi_power(i, -1))
        if not _is_zero(_msub(_mm(et, gram), _mm(gram, adj_e))):
            return False
        if not _is_zero(_msub(_mm(ft, gram), _mm(gram, adj_f))):
            return False
    return True


# ---------------------------------------------------------------------------
# spectral coproduct on V1_x (x) V1_y


def coproduct(rep, kind, i, swapped=False):
    """Delta(g) for g = e_i, f_i or t_i (kind "e", "f" or "t") on
    V1_x (x) V1_y, as 64 sparse columns {8a+b: entry}:

        Delta(e_i) = e_i (x) t_i^-1 + 1 (x) e_i,
        Delta(f_i) = f_i (x) 1 + t_i (x) f_i,
        Delta(t_i) = t_i (x) t_i.

    e_0 carries the spectral variable of the factor it acts on and f_0 its
    inverse, so their entries are Laurent in (x, y); all other entries are
    QRat.  With swapped=True the first factor carries y and the second x."""
    w = rep.weights
    if kind == "t":
        return [{k: qi_power(i, w[k // DIM][i] + w[k % DIM][i])}
                for k in range(DIM * DIM)]
    mat = (rep.E if kind == "e" else rep.F)[i]
    if i == 0:
        s = 1 if kind == "e" else -1
        mx, my = Laurent.mono((s, 0)), Laurent.mono((0, s))
        m1, m2 = (my, mx) if swapped else (mx, my)
    cols = []
    for a in range(DIM):
        for b in range(DIM):
            if kind == "e":
                c1, c2 = qi_power(i, -w[b][i]), QR_ONE
            else:
                c1, c2 = QR_ONE, qi_power(i, w[a][i])
            if i == 0:
                c1, c2 = c1 * m1, c2 * m2
            # e_i and f_i have no diagonal entries, so the two terms
            # never share a row
            col = {DIM * r + b: mat[r][a] * c1
                   for r in range(DIM) if mat[r][a]}
            col.update((DIM * a + r, mat[r][b] * c2)
                       for r in range(DIM) if mat[r][b])
            cols.append(col)
    return cols


def tensor_weight(k):
    """Weight of v_a (x) v_b, k = 8a + b."""
    a, b = divmod(k, DIM)
    return tuple(x + y for x, y in zip(WEIGHTS[a], WEIGHTS[b]))


# ---------------------------------------------------------------------------
# highest weight vectors of the tensor square


def highest_vectors():
    """The seven G2-highest vectors, keyed by component label, as QRat
    columns {8a+b: entry}."""
    q = q_power
    two = q_int(2)
    u = {}
    u["2L1"] = {(0, 0): QR_ONE}
    u["L2"] = {(0, 1): QR_ONE, (1, 0): -q(1)}
    u["L1_1"] = {(0, 7): QR_ONE}
    u["L1_2"] = {(7, 0): QR_ONE}
    u["L1_3"] = {
        (0, 3): QR_ONE,
        (3, 0): -q(6),
        (1, 2): -(q(2) * two),
        (2, 1): q(5) * two,
    }
    u["0_1"] = {(7, 7): QR_ONE}
    u["0_2"] = {
        (0, 6): QR_ONE,
        (6, 0): q(10),
        (1, 5): -q(1),
        (5, 1): -q(9),
        (2, 4): q(4),
        (4, 2): q(6),
        (3, 3): -(q(4) / two),
    }
    return {label: {DIM * a + b: c for (a, b), c in vec.items()}
            for label, vec in u.items()}


HW_ORDER = ("2L1", "L2", "L1_1", "L1_2", "L1_3", "0_1", "0_2")

# classical weight carried by each component label, on (L0, L1, L2)
HW_WEIGHTS = {
    "2L1": (-4, 2, 0), "L2": (-3, 0, 1), "L1_1": (-2, 1, 0),
    "L1_2": (-2, 1, 0), "L1_3": (-2, 1, 0), "0_1": (0, 0, 0), "0_2": (0, 0, 0),
}


def lowering_identities():
    """The 14 (word, source label, scalar) triples; each asserts
    word(source) = scalar * u_{2L1} in V1_x (x) V1_y."""
    q = q_power
    two, three = q_int(2), q_int(3)
    X = Laurent.mono((1, 0))
    Y = Laurent.mono((0, 1))
    iX = Laurent.mono((-1, 0))
    iY = Laurent.mono((0, -1))
    iXY = iX * iY

    def c(v):
        return Laurent.const(2, v)

    ids = [
        ([0, 1, 2], "L2", c(q(-1)) * iXY * (X - c(q(2)) * Y)),
        ([0], "L1_1", c(q(-2) * three / two) * iY),
        ([0], "L1_2", c(three / two) * iX),
        ([0], "L1_3", c(q(-2)) * iXY * (X - c(q(8)) * Y)),
        ([0, 0, 1, 2, 1], "L1_1", c(q(-1) * three) * iXY),
        ([0, 0, 1, 2, 1], "L1_2", c(q(-1) * three) * iXY),
        ([0, 0, 1, 2, 1], "L1_3",
         c(q(-2) * two) * iXY * iXY
         * (c(two) * (X * X - c(q(8)) * Y * Y)
            - c(q(3) * (QR_ONE - q(2))) * X * Y)),
        ([0, 0, 0, 1, 2, 1, 1, 2, 1], "L1_1",
         c(two * three * three) * iX * iXY),
        ([0, 0, 0, 1, 2, 1, 1, 2, 1], "L1_2",
         c(q(-2) * two * three * three) * iY * iXY),
        ([0, 0, 0, 1, 2, 1, 1, 2, 1], "L1_3",
         c(q(-2) * two * two * three) * iXY * iXY * (X - c(q(8)) * Y)),
        ([0, 0], "0_1", c(q(-1) * three * three / two) * iXY),
        ([0, 0], "0_2",
         c(q(-4)) * iXY * iXY
         * (c(two) * (X * X + c(q(14)) * Y * Y) - c(q(7)) * X * Y)),
        ([0, 0, 0, 1, 2, 1, 1, 2, 1, 0], "0_1",
         c(q(-2) * three * three * three) * iXY * iXY * iXY
         * (X * X + c(q(2)) * Y * Y)),
        ([0, 0, 0, 1, 2, 1, 1, 2, 1, 0], "0_2",
         c(q(-4) * two * three) * iXY * iXY * iXY
         * ((X - c(q(6)) * Y) * (X - c(q(8)) * Y)
            + c(q(2) * three * (QR_ONE + q(10))) * X * Y)),
    ]
    return ids


def verify_lowering_identities(rep=None):
    """Evaluate all 14 identities symbolically; dict index -> bool."""
    if rep is None:
        rep = build_v1()
    hw = highest_vectors()
    lower = [coproduct(rep, "f", i) for i in range(3)]
    out = {}
    for k, (word, label, scalar) in enumerate(lowering_identities(), 1):
        vec = hw[label]
        for i in reversed(word):  # operator order: rightmost acts first
            vec = sparse_mul(lower[i], [vec])[0]
        # u_2L1 is v1 (x) v1, flat index 0
        out[k] = vec == {0: scalar}
    return out


def verify_highest(rep=None):
    """Delta(e_1) and Delta(e_2) kill every listed vector, and the tensor
    weight matches the component label."""
    if rep is None:
        rep = build_v1()
    raising = [coproduct(rep, "e", i) for i in (1, 2)]
    for label, vec in highest_vectors().items():
        if any(sparse_mul(e, [vec])[0] for e in raising):
            return False
        want = HW_WEIGHTS[label]
        for key in vec:
            if tensor_weight(key) != want:
                return False
    return True


def gram_entries_integral(gram):
    """Each entry lies in Z[q, q^-1] localized at denominators with
    constant term 1 (after stripping powers of q)."""
    for row in gram:
        for x in row:
            den = x.den
            v = 0
            while v < len(den) and den[v] == 0:
                v += 1
            if abs(den[v]) != 1:
                return False
    return True

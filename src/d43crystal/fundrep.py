"""The 8-dimensional fundamental module V1, its defining-relation checks,
the polarization, the spectral coproduct on V1_x (x) V1_y, and the highest
weight vectors of the tensor square with their lowering identities.

Basis order is (v1, v2, v3, v0, v3b, v2b, v1b, vphi), indices 0..7.

Every matrix is a list of sparse columns {row: entry} (columns are
sources), multiplied, tensored and combined by exactalg.sparse_mul, kron
and lincomb.  On V1 there are 8 columns; on V1_x (x) V1_y, v_a (x) v_b has
the flat index 8a + b and a vector is one such column.  Entries are QRat,
except where the spectral variables enter: Delta(e_0) and Delta(f_0) have
Laurent entries in (x, y), and so does every vector that one of them has
acted on.
"""

from .exactalg import (
    Laurent, QR_ZERO, QR_ONE, Q_POW, kernel, kron, lincomb, q_factorial, q_int,
    q_power, sparse_mul,
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

# the identity on V1
ONE = [{k: QR_ONE} for k in range(DIM)]


def qi_power(i, k):
    """q_i^k with q_0 = q_1 = q, q_2 = q^3."""
    return q_power(Q_POW[i] * k)


class Rep8:
    def __init__(self, E, F, weights):
        self.E = E
        self.F = F
        self.weights = weights

    def t_matrix(self, i, power=1):
        return [{k: qi_power(i, power * self.weights[k][i])}
                for k in range(DIM)]


def _columns(entries):
    """8 sparse columns from {(row, col): entry}."""
    cols = [{} for _ in range(DIM)]
    for (r, c), x in entries.items():
        cols[c][r] = x
    return cols


def build_v1():
    two = q_int(2)
    three_over_two = q_int(3) / two
    inv_two = QR_ONE / two

    E = [
        # e_0 v1 = vphi + (1/[2]) v0, e_0 v2 = v3b, e_0 v3 = v2b,
        # e_0 v0 = v1b, e_0 vphi = ([3]/[2]) v1b
        {(7, 0): QR_ONE, (3, 0): inv_two, (4, 1): QR_ONE, (5, 2): QR_ONE,
         (6, 3): QR_ONE, (6, 7): three_over_two},
        # e_1 v2 = v1, e_1 v0 = [2] v3, e_1 v3b = v0, e_1 v1b = v2b
        {(0, 1): QR_ONE, (2, 3): two, (3, 4): QR_ONE, (5, 6): QR_ONE},
        # e_2 v3 = v2, e_2 v2b = v3b
        {(1, 2): QR_ONE, (4, 5): QR_ONE},
    ]
    F = [
        # f_0 v1b = vphi + (1/[2]) v0, f_0 v2b = v3, f_0 v3b = v2,
        # f_0 v0 = v1, f_0 vphi = ([3]/[2]) v1
        {(7, 6): QR_ONE, (3, 6): inv_two, (2, 5): QR_ONE, (1, 4): QR_ONE,
         (0, 3): QR_ONE, (0, 7): three_over_two},
        # f_1 v2b = v1b, f_1 v0 = [2] v3b, f_1 v3 = v0, f_1 v1 = v2
        {(6, 5): QR_ONE, (4, 3): two, (3, 2): QR_ONE, (1, 0): QR_ONE},
        # f_2 v3b = v2b, f_2 v2 = v3
        {(5, 4): QR_ONE, (2, 1): QR_ONE},
    ]
    return Rep8([_columns(m) for m in E], [_columns(m) for m in F], WEIGHTS)


# ---------------------------------------------------------------------------
# defining relations


def _serre_sum(mats, i, j):
    """sum_n (-1)^n X_i^(n) X_j X_i^(l-n) with l = 1 - <h_i, alpha_j>."""
    l = 1 - CARTAN[i][j]
    powers = [ONE]
    for _ in range(l):
        powers.append(sparse_mul(powers[-1], mats[i]))
    terms = []
    sign = QR_ONE
    for n in range(l + 1):
        coeff = sign / (q_factorial(n, i) * q_factorial(l - n, i))
        terms.append((coeff, sparse_mul(sparse_mul(powers[n], mats[j]),
                                        powers[l - n])))
        sign = -sign
    return lincomb(terms)


def check_defining_relations(rep):
    """Dict relation name -> bool; all must hold for a module structure.
    Sides are compared with == and zero tested as all columns empty, which
    is exact because no matrix stores a zero entry."""
    out = {}
    tmats = [rep.t_matrix(i) for i in range(3)]
    tinvs = [rep.t_matrix(i, -1) for i in range(3)]
    for i in range(3):
        for j in range(3):
            out[f"t{i}t{j}=t{j}t{i}"] = (sparse_mul(tmats[i], tmats[j])
                                         == sparse_mul(tmats[j], tmats[i]))
            for name, mat, k in (("e", rep.E[j], CARTAN[i][j]),
                                 ("f", rep.F[j], -CARTAN[i][j])):
                lhs = sparse_mul(sparse_mul(tmats[i], mat), tinvs[i])
                out[f"t{i}{name}{j}t{i}^-1"] = (
                    lhs == lincomb([(qi_power(i, k), mat)]))
            comm = lincomb([(QR_ONE, sparse_mul(rep.E[i], rep.F[j])),
                            (-QR_ONE, sparse_mul(rep.F[j], rep.E[i]))])
            if i == j:
                c = QR_ONE / (qi_power(i, 1) - qi_power(i, -1))
                out[f"[e{i},f{i}]"] = comm == lincomb([(c, tmats[i]),
                                                       (-c, tinvs[i])])
            else:
                out[f"[e{i},f{j}]=0"] = not any(comm)
            if i != j:
                out[f"serre_e({i},{j})"] = not any(_serre_sum(rep.E, i, j))
                out[f"serre_f({i},{j})"] = not any(_serre_sum(rep.F, i, j))
    return out


# ---------------------------------------------------------------------------
# polarization


def _adjoints(rep, i):
    """The adjoints q_i^-1 t_i^-1 f_i of e_i and q_i^-1 t_i e_i of f_i
    under the polarization."""
    c = qi_power(i, -1)
    return (lincomb([(c, sparse_mul(rep.t_matrix(i, -1), rep.F[i]))]),
            lincomb([(c, sparse_mul(rep.t_matrix(i, 1), rep.E[i]))]))


def build_polarization(rep):
    """The symmetric form with (t_i u, v) = (u, t_i v),
    (e_i u, v) = (u, q_i^-1 t_i^-1 f_i v), (f_i u, v) = (u, q_i^-1 t_i e_i v),
    normalized by (v1, v1) = 1, (u, vphi) = 0 off the trivial part,
    (vphi, vphi) = q[3]/[2].  Solved as a linear system; the solution must
    be unique.  Returns the gram matrix as 8 sparse columns, column v
    holding (u, v) at row u, and the dimension of the invariant forms."""
    # with the form as the vector g, g[8u + v] = (u, v), the conditions
    # are g = swap(g) and (op^T (x) 1 - 1 (x) adj^T) g = 0 for op = e_i, f_i
    # (the t_i identity follows from these two); block b of the stacked
    # system holds its equations at the keys b * DIM^2 + 8u + v
    n = DIM * DIM

    def var(u, v):
        return u * DIM + v

    swap = [{var(v, u): QR_ONE} for u in range(DIM) for v in range(DIM)]
    blocks = [lincomb([(QR_ONE, kron(ONE, ONE)), (-QR_ONE, swap)])]
    for i in range(3):
        for op, adj in zip((rep.E[i], rep.F[i]), _adjoints(rep, i)):
            blocks.append(lincomb([(QR_ONE, kron(_transpose(op), ONE)),
                                   (-QR_ONE, kron(ONE, _transpose(adj)))]))
    cols = [{b * n + r: c for b, block in enumerate(blocks)
             for r, c in block[k].items()} for k in range(n)]
    # the kernel of the homogeneous system spans the invariant forms; the
    # normalization fixes the coordinates (x_1 .. x_f) of the form in that
    # basis as the kernel of [K_1 .. K_f | -value] on its nine rows, which
    # must be one vector with a nonzero last entry
    forms = kernel(cols, len(blocks) * n)
    free_dim = len(forms)
    norm = ([(var(0, 0), QR_ONE)] + [(var(u, 7), QR_ZERO) for u in range(DIM - 1)]
            + [(var(7, 7), q_power(1) * q_int(3) / q_int(2))])
    norm_cols = [{r: form[k] for r, (k, _) in enumerate(norm) if k in form}
                 for form in forms]
    norm_cols.append({r: -value for r, (_, value) in enumerate(norm) if value})
    sol = kernel(norm_cols, len(norm))
    if len(sol) != 1 or free_dim not in sol[0]:
        raise ArithmeticError(
            f"polarization not unique: normalization kernel dim {len(sol)}, "
            f"free dim {free_dim}")
    (x,) = sol
    scale = QR_ONE / x.pop(free_dim)
    form = sparse_mul(forms, [{i: c * scale for i, c in x.items()}])[0]
    gram = [{u: form[var(u, v)] for u in range(DIM) if var(u, v) in form}
            for v in range(DIM)]
    return gram, free_dim


def _transpose(cols):
    out = [{} for _ in cols]
    for j, col in enumerate(cols):
        for r, x in col.items():
            out[r][j] = x
    return out


def check_polarization(rep, gram):
    """Exact matrix identities E_i^T G = G (q_i^-1 T_i^-1 F_i) and
    F_i^T G = G (q_i^-1 T_i E_i), with G as 8 sparse columns.  V1 is
    irreducible, so by Schur's lemma the forms that satisfy these adjoint
    identities span at most one dimension; the symmetric form of
    build_polarization (free_dim = 1) spans it.  Every G that passes is
    thus symmetric, and a G = G^T test could never decide the verdict."""
    for i in range(3):
        for op, adj in zip((rep.E[i], rep.F[i]), _adjoints(rep, i)):
            if sparse_mul(_transpose(op), gram) != sparse_mul(gram, adj):
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
    t = rep.t_matrix(i)
    if kind == "t":
        return kron(t, t)
    m1 = m2 = QR_ONE
    if i == 0:
        s = 1 if kind == "e" else -1
        m1, m2 = Laurent.mono((s, 0)), Laurent.mono((0, s))
        if swapped:
            m1, m2 = m2, m1
    if kind == "e":
        e = rep.E[i]
        return lincomb([(m1, kron(e, rep.t_matrix(i, -1))), (m2, kron(ONE, e))])
    f = rep.F[i]
    return lincomb([(m1, kron(f, ONE)), (m2, kron(t, f))])


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
    for col in gram:
        for x in col.values():
            den = x.den
            v = 0
            while v < len(den) and den[v] == 0:
                v += 1
            if abs(den[v]) != 1:
                return False
    return True

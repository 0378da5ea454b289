"""Defining relations, the polarization, and the tensor-square lowering
identities of the 8-dimensional module."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from d43crystal import fundrep as fr
from d43crystal.exactalg import (
    Laurent, QR_ONE, QR_ZERO, kron, lincomb, q_factorial, q_int, q_power,
    sparse_mul,
)
from d43crystal.fundrep import CARTAN, DIM, qi_power
from linear_oracle import solve_linear


@pytest.fixture(scope="module")
def rep():
    return fr.build_v1()


@pytest.fixture(scope="module")
def gram(rep):
    return fr.build_polarization(rep)


def test_defining_relations(rep):
    rels = fr.check_defining_relations(rep)
    bad = [k for k, v in rels.items() if not v]
    assert not bad, bad
    # both Serre families are present in the report
    assert "serre_e(1,2)" in rels and "serre_f(2,1)" in rels


def test_weights_sum_to_zero(rep):
    # the module is self-dual: weights come in opposite pairs
    total = [0, 0, 0]
    for w in rep.weights:
        for i in range(3):
            total[i] += w[i]
    assert total == [0, 0, 0]
    ws = sorted(rep.weights)
    assert sorted(tuple(-v for v in w) for w in rep.weights) == ws


def test_polarization_unique(gram):
    g, free_dim = gram
    # the invariant form is unique up to scalar
    assert free_dim == 1


def test_polarization_identities(rep, gram):
    assert fr.check_polarization(rep, gram[0])


def test_polarization_values(gram):
    g = gram[0]
    assert g[0][0] == QR_ONE
    assert g[7][7] == q_power(1) * q_int(3) / q_int(2)
    # off-diagonal pairings against the lowest-weight line vanish
    assert all(7 not in g[u] for u in range(7))


# ---------------------------------------------------------------------------
# the dense 8x8 module layer, kept as a test-only oracle: each oracle takes
# a Rep8 and reads it through dense() at entry


def dense(cols, zero=QR_ZERO):
    """The dense matrix M[row][col] of square sparse columns."""
    return [[col.get(r, zero) for col in cols] for r in range(len(cols))]


def dense_rep(rep):
    return SimpleNamespace(
        E=[dense(m) for m in rep.E], F=[dense(m) for m in rep.F],
        weights=rep.weights,
        t_matrix=lambda i, power=1: dense(rep.t_matrix(i, power)))


def _zeros():
    return [[QR_ZERO] * DIM for _ in range(DIM)]


def mat_mul(a, b, zero):
    """Dense product of two lists-of-lists with compatible shapes."""
    n, k = len(a), len(b)
    m = len(b[0])
    out = []
    for i in range(n):
        row = []
        ai = a[i]
        for j in range(m):
            acc = zero
            for t in range(k):
                v = ai[t]
                if v:
                    acc = acc + v * b[t][j]
            row.append(acc)
        out.append(row)
    return out


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


def oracle_check_defining_relations(rep):
    """Dict relation name -> bool; all must hold for a module structure."""
    rep = dense_rep(rep)
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


def oracle_dense_build_polarization(rep):
    """The symmetric form with (t_i u, v) = (u, t_i v),
    (e_i u, v) = (u, q_i^-1 t_i^-1 f_i v), (f_i u, v) = (u, q_i^-1 t_i e_i v),
    normalized by (v1, v1) = 1, (u, vphi) = 0 off the trivial part,
    (vphi, vphi) = q[3]/[2].  Solved as a linear system; the solution must
    be unique."""
    rep = dense_rep(rep)
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


def oracle_check_polarization(rep, gram):
    """Exact matrix identities G = G^T, E_i^T G = G (q_i^-1 T_i^-1 F_i),
    F_i^T G = G (q_i^-1 T_i E_i)."""
    rep, gram = dense_rep(rep), dense(gram)
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


def _perturbed(rep, gen, i, row, col):
    """rep with one generator entry multiplied by q."""
    mats = {"E": [[dict(c) for c in m] for m in rep.E],
            "F": [[dict(c) for c in m] for m in rep.F]}
    mats[gen][i][col][row] = mats[gen][i][col][row] * q_power(1)
    return fr.Rep8(mats["E"], mats["F"], rep.weights)


def test_relations_match_dense_oracle(rep):
    got = fr.check_defining_relations(rep)
    assert len(got) == 48
    assert list(got.items()) == list(oracle_check_defining_relations(rep).items())


@pytest.mark.parametrize("gen,i,row,col,fails", [
    ("E", 1, 0, 1, 4), ("F", 0, 3, 6, None), ("F", 2, 5, 4, None)])
def test_perturbed_generator_matches_dense_oracle(rep, gram, gen, i, row,
                                                  col, fails):
    bad = _perturbed(rep, gen, i, row, col)
    got = fr.check_defining_relations(bad)
    assert list(got.items()) == list(oracle_check_defining_relations(bad).items())
    failed = sum(not v for v in got.values())
    assert failed > 0 and (fails is None or failed == fails)
    assert fr.check_polarization(bad, gram[0]) is False
    assert oracle_check_polarization(bad, gram[0]) is False


def test_gram_matches_dense_oracle(rep, gram):
    g, free_dim = gram
    assert (dense(g), free_dim) == oracle_dense_build_polarization(rep)
    assert oracle_check_polarization(rep, g) is True


@pytest.mark.parametrize("entries", [
    {(0, 0): None},                      # (v1, v1) times q
    {(6, 6): None},                      # (v1b, v1b) times q
    {(0, 1): QR_ONE},                    # asymmetric off-diagonal entry
    {(0, 1): QR_ONE, (1, 0): QR_ONE},    # symmetric, not invariant
])
def test_perturbed_gram_matches_dense_oracle(rep, gram, entries):
    bad = [dict(col) for col in gram[0]]
    for (u, v), x in entries.items():
        bad[v][u] = bad[v][u] * q_power(1) if x is None else x
    assert fr.check_polarization(rep, bad) is False
    assert oracle_check_polarization(rep, bad) is False


# the polarization as solved before the normalization moved into the
# kernel coordinates: the whole system twice, kept as the oracle
def oracle_build_polarization(rep):
    """The symmetric form with (t_i u, v) = (u, t_i v),
    (e_i u, v) = (u, q_i^-1 t_i^-1 f_i v), (f_i u, v) = (u, q_i^-1 t_i e_i v),
    normalized by (v1, v1) = 1, (u, vphi) = 0 off the trivial part,
    (vphi, vphi) = q[3]/[2].  Solved as a linear system; the solution must
    be unique."""
    rep = dense_rep(rep)
    n = DIM * DIM
    rows, rhs = [], []

    def var(u, v):
        return u * DIM + v

    def add_zero_combination(coeffs):
        row = [QR_ZERO] * n
        for idx, c in coeffs:
            row[idx] = row[idx] + c
        rows.append(row)
        rhs.append(QR_ZERO)

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
    # kernel dimension of the homogeneous system is the number of
    # independent invariant forms; record it before normalizing
    hom = solve_linear(rows, rhs, QR_ZERO, QR_ONE)
    free_dim = len(hom.kernel)

    row = [QR_ZERO] * n
    row[var(0, 0)] = QR_ONE
    rows.append(row)
    rhs.append(QR_ONE)
    for u in range(DIM - 1):
        row = [QR_ZERO] * n
        row[var(u, 7)] = QR_ONE
        rows.append(row)
        rhs.append(QR_ZERO)
    row = [QR_ZERO] * n
    row[var(7, 7)] = QR_ONE
    rows.append(row)
    rhs.append(q_power(1) * q_int(3) / q_int(2))

    sol = solve_linear(rows, rhs, QR_ZERO, QR_ONE)
    if sol.kind != "unique":
        raise ArithmeticError(
            f"polarization not unique: {sol.kind}, free dim {free_dim}")
    gram = [[sol.particular[var(u, v)] for v in range(DIM)] for u in range(DIM)]
    return gram, free_dim


def test_polarization_matches_two_solve_oracle(rep, gram):
    g, free_dim = gram
    assert (dense(g), free_dim) == oracle_build_polarization(rep)


def test_polarization_not_unique_raises(rep):
    # with e_i = f_i = 0 every symmetric form is invariant: 36 of them, and
    # the nine normalization rows cannot single one out
    zero = [{} for _ in range(DIM)]
    flat = SimpleNamespace(E=[zero] * 3, F=[zero] * 3, t_matrix=rep.t_matrix)
    with pytest.raises(ArithmeticError, match="free dim 36"):
        fr.build_polarization(flat)


def test_gram_entries_integral(gram):
    assert fr.gram_entries_integral(gram[0])


def test_highest_vectors(rep):
    assert fr.verify_highest(rep)
    hw = fr.highest_vectors()
    assert set(hw) == set(fr.HW_ORDER)
    assert len(hw["0_2"]) == 7


def test_lowering_identities(rep):
    results = fr.verify_lowering_identities(rep)
    assert len(results) == 14
    bad = [k for k, v in results.items() if not v]
    assert not bad, bad


def _apply(mat, vec):
    return sparse_mul(mat, [vec])[0]


def test_spectral_action_shapes(rep):
    hw = fr.highest_vectors()
    f0, e0 = fr.coproduct(rep, "f", 0), fr.coproduct(rep, "e", 0)
    # Delta(f_0) of the vacuum-component vector stays weight homogeneous
    v = _apply(f0, hw["0_1"])
    wts = {fr.tensor_weight(k) for k in v}
    assert len(wts) == 1
    # e after f lands back in the original weight space
    w = _apply(e0, _apply(f0, hw["L1_1"]))
    assert {fr.tensor_weight(k) for k in w} <= {fr.tensor_weight(7)}


def test_spectral_substitution(rep):
    # spectral exponents substitute consistently to exact rationals
    hw = fr.highest_vectors()
    v = _apply(fr.coproduct(rep, "f", 0), hw["2L1"])
    qv, xv, yv = Fraction(2), Fraction(3), Fraction(5, 2)
    for coeff in v.values():
        coeff.subst(qv, (xv, yv))


# ---------------------------------------------------------------------------
# the earlier dict-vector action of the coproduct, kept as a test-only
# oracle for fr.coproduct
#
# Vectors are dicts (a, b) -> Laurent in (x, y); e_0 carries the spectral
# variable of its factor, f_0 its inverse; e_1, e_2, f_1, f_2 are unscaled.


def _spectral(i, factor, lowering):
    """Monomial carried by the index-0 operators; factor 0 is x, 1 is y."""
    if i != 0:
        return None
    e = [0, 0]
    e[factor] = -1 if lowering else 1
    return Laurent.mono(tuple(e))


def _add_term(acc, key, coeff):
    cur = acc.get(key)
    s = coeff if cur is None else cur + coeff
    if s:
        acc[key] = s
    elif cur is not None:
        del acc[key]


def act_e(rep, i, vec, swapped=False):
    """Delta(e_i) = e_i (x) t_i^-1 + 1 (x) e_i on V1_x (x) V1_y; with
    swapped=True the first factor carries y and the second x."""
    first, second = (1, 0) if swapped else (0, 1)
    out = {}
    for (a, b), c in vec.items():
        mono = _spectral(i, first, False)
        tcoef = qi_power(i, -rep.weights[b][i])
        for r in range(DIM):
            ent = rep.E[i][r][a]
            if ent:
                coeff = c * (ent * tcoef)
                if mono is not None:
                    coeff = coeff * mono
                _add_term(out, (r, b), coeff)
        mono = _spectral(i, second, False)
        for r in range(DIM):
            ent = rep.E[i][r][b]
            if ent:
                coeff = c * ent
                if mono is not None:
                    coeff = coeff * mono
                _add_term(out, (a, r), coeff)
    return out


def act_f(rep, i, vec, swapped=False):
    """Delta(f_i) = f_i (x) 1 + t_i (x) f_i."""
    first, second = (1, 0) if swapped else (0, 1)
    out = {}
    for (a, b), c in vec.items():
        mono = _spectral(i, first, True)
        for r in range(DIM):
            ent = rep.F[i][r][a]
            if ent:
                coeff = c * ent
                if mono is not None:
                    coeff = coeff * mono
                _add_term(out, (r, b), coeff)
        mono = _spectral(i, second, True)
        tcoef = qi_power(i, rep.weights[a][i])
        for r in range(DIM):
            ent = rep.F[i][r][b]
            if ent:
                coeff = c * (ent * tcoef)
                if mono is not None:
                    coeff = coeff * mono
                _add_term(out, (a, r), coeff)
    return out


def act_t(rep, i, vec):
    out = {}
    for (a, b), c in vec.items():
        out[(a, b)] = c * qi_power(i, rep.weights[a][i] + rep.weights[b][i])
    return out


def _laurent_cols(cols):
    """Lift QRat entries to constant Laurents, so that they compare with
    (and add to) the Laurent entries of the index-0 generators."""
    return [{k: c if isinstance(c, Laurent) else Laurent.const(2, c)
             for k, c in col.items()} for col in cols]


@pytest.mark.parametrize("swapped", [False, True])
@pytest.mark.parametrize("kind", ["e", "f", "t"])
@pytest.mark.parametrize("i", range(3))
def test_coproduct_matches_dict_action(rep, kind, i, swapped):
    got = _laurent_cols(fr.coproduct(rep, kind, i, swapped))
    assert len(got) == DIM * DIM
    drep = dense_rep(rep)
    for k in range(DIM * DIM):
        vec = {divmod(k, DIM): Laurent.const(2, QR_ONE)}
        if kind == "e":
            out = act_e(drep, i, vec, swapped=swapped)
        elif kind == "f":
            out = act_f(drep, i, vec, swapped=swapped)
        else:
            out = act_t(drep, i, vec)
        assert got[k] == {DIM * a + b: c for (a, b), c in out.items()}, k


@pytest.mark.parametrize("swapped", [False, True])
def test_coproduct_is_a_homomorphism(rep, swapped):
    # [Delta e_i, Delta f_j] = delta_ij (Delta t_i - Delta t_i^-1)
    # / (q_i - q_i^-1): the spectral monomials of e_0 and f_0 cancel
    e = [_laurent_cols(fr.coproduct(rep, "e", i, swapped)) for i in range(3)]
    f = [_laurent_cols(fr.coproduct(rep, "f", i, swapped)) for i in range(3)]
    for i in range(3):
        t = fr.coproduct(rep, "t", i, swapped)
        t_inv = [{k: QR_ONE / c for k, c in col.items()} for col in t]
        c = QR_ONE / (qi_power(i, 1) - qi_power(i, -1))
        rhs = _laurent_cols(lincomb([(c, t), (-c, t_inv)]))
        for j in range(3):
            comm = lincomb([(QR_ONE, sparse_mul(e[i], f[j])),
                            (-QR_ONE, sparse_mul(f[j], e[i]))])
            want = rhs if i == j else [{} for _ in range(DIM * DIM)]
            assert comm == want, (i, j)


# ---------------------------------------------------------------------------
# the sparse column algebra against dense oracles, and its canonical form


def _dense_kron(a, b):
    n = len(b)
    size = len(a) * n
    return [[a[r // n][c // n] * b[r % n][c % n] for c in range(size)]
            for r in range(size)]


def _dense_lincomb(terms, zero):
    n = len(terms[0][1])
    out = [[zero] * n for _ in range(n)]
    for c, m in terms:
        out = [[x + y * c for x, y in zip(ro, rm)] for ro, rm in zip(out, m)]
    return out


def _sparse(m):
    """Sparse columns of a dense square M[row][col]."""
    return [{r: m[r][c] for r in range(len(m)) if m[r][c]}
            for c in range(len(m))]


L0 = Laurent(2)


def _lp(*terms):
    return Laurent(2, {e: c for e, c in terms})


# (zero, a 2x2, a 3x3, coefficients) per entry type; zeros are interleaved
# so that the sparse and dense layouts differ
ALGEBRA_CASES = {
    "int": (0, [[1, 0], [-2, 3]], [[0, 4, 0], [5, 0, -1], [0, 2, 7]],
            (3, -3, 1)),
    "QRat": (QR_ZERO, [[q_int(2), QR_ZERO], [q_power(-1), QR_ONE]],
             [[QR_ZERO, q_power(2), QR_ZERO], [q_int(3) / q_int(2), QR_ZERO,
                                               -QR_ONE],
              [QR_ZERO, q_int(2, 2), q_power(-3)]],
             (q_power(1), -q_power(1), q_int(2))),
    "Laurent": (L0, [[_lp(((1, 0), QR_ONE)), L0],
                     [_lp(((0, -1), q_int(2)), ((1, 1), QR_ONE)),
                      _lp(((0, 0), q_power(1)))]],
                [[L0, _lp(((0, 1), QR_ONE)), L0],
                 [_lp(((2, 0), -QR_ONE)), L0, _lp(((0, 0), q_int(3)))],
                 [L0, L0, _lp(((-1, 1), q_power(-2)))]],
                (_lp(((1, 0), QR_ONE)), _lp(((1, 0), -QR_ONE)),
                 _lp(((0, 0), QR_ONE), ((0, 1), q_int(2))))),
}


@pytest.mark.parametrize("kind", sorted(ALGEBRA_CASES))
def test_kron_matches_dense_oracle(kind):
    zero, a, b, _ = ALGEBRA_CASES[kind]
    for x, y in ((a, b), (b, a), (a, a)):
        got = kron(_sparse(x), _sparse(y))
        assert got == _sparse(_dense_kron(x, y))
        assert dense(got, zero) == _dense_kron(x, y)


@pytest.mark.parametrize("kind", sorted(ALGEBRA_CASES))
def test_lincomb_matches_dense_oracle(kind):
    zero, _, b, (c1, c2, c3) = ALGEBRA_CASES[kind]
    bt = [list(row) for row in zip(*b)]
    for terms in ([(c1, b)], [(c1, b), (c3, bt)], [(c3, b), (c1, bt), (c2, b)]):
        got = lincomb([(c, _sparse(m)) for c, m in terms])
        assert dense(got, zero) == _dense_lincomb(terms, zero)
        assert got == _sparse(_dense_lincomb(terms, zero))
    # c1 + c2 = 0, so the combination cancels to the empty columns
    assert lincomb([(c1, _sparse(b)), (c2, _sparse(b))]) == [{}, {}, {}]


def _stores_zero(cols):
    return any(not x for col in cols for x in col.values())


def test_no_zero_entry_is_stored(rep, gram):
    # check_defining_relations and check_polarization compare with ==, which
    # needs every matrix in this canonical form
    mats = rep.E + rep.F + [rep.t_matrix(i, p) for i in range(3) for p in (-1, 0, 1)]
    mats += [fr.coproduct(rep, kind, i, s)
             for kind in "eft" for i in range(3) for s in (False, True)]
    mats += [gram[0], lincomb([(QR_ONE, rep.E[0]), (q_int(2), rep.F[0])]),
             lincomb([(QR_ONE, rep.E[1]), (-QR_ONE, rep.E[1])])]
    assert not [k for k, m in enumerate(mats) if _stores_zero(m)]

"""Defining relations, the polarization, and the tensor-square lowering
identities of the 8-dimensional module."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from d43crystal import fundrep as fr
from d43crystal.exactalg import (
    Laurent, QR_ONE, QR_ZERO, q_int, q_power, solve_linear, sparse_mul,
)
from d43crystal.fundrep import DIM, _mm, _mscale, qi_power


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
    assert all(g[u][7] == QR_ZERO for u in range(7))


# the polarization as solved before the normalization moved into the
# kernel coordinates: the whole system twice, kept as the oracle
def oracle_build_polarization(rep):
    """The symmetric form with (t_i u, v) = (u, t_i v),
    (e_i u, v) = (u, q_i^-1 t_i^-1 f_i v), (f_i u, v) = (u, q_i^-1 t_i e_i v),
    normalized by (v1, v1) = 1, (u, vphi) = 0 off the trivial part,
    (vphi, vphi) = q[3]/[2].  Solved as a linear system; the solution must
    be unique."""
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
    assert gram == oracle_build_polarization(rep)


def test_polarization_not_unique_raises(rep):
    # with e_i = f_i = 0 every symmetric form is invariant: 36 of them, and
    # the nine normalization rows cannot single one out
    zero = [[QR_ZERO] * DIM for _ in range(DIM)]
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
    for k in range(DIM * DIM):
        vec = {divmod(k, DIM): Laurent.const(2, QR_ONE)}
        if kind == "e":
            out = act_e(rep, i, vec, swapped=swapped)
        elif kind == "f":
            out = act_f(rep, i, vec, swapped=swapped)
        else:
            out = act_t(rep, i, vec)
        assert got[k] == {DIM * a + b: c for (a, b), c in out.items()}, k


def _sub(a, b):
    """a - b for sparse columns whose entries are all of one type."""
    out = [dict(col) for col in a]
    for col, bcol in zip(out, b):
        for k, c in bcol.items():
            s = col[k] - c if k in col else -c
            if s:
                col[k] = s
            else:
                del col[k]
    return out


@pytest.mark.parametrize("swapped", [False, True])
def test_coproduct_is_a_homomorphism(rep, swapped):
    # [Delta e_i, Delta f_j] = delta_ij (Delta t_i - Delta t_i^-1)
    # / (q_i - q_i^-1): the spectral monomials of e_0 and f_0 cancel
    e = [_laurent_cols(fr.coproduct(rep, "e", i, swapped)) for i in range(3)]
    f = [_laurent_cols(fr.coproduct(rep, "f", i, swapped)) for i in range(3)]
    for i in range(3):
        t = fr.coproduct(rep, "t", i, swapped)
        t_inv = [{k: c.inv() for k, c in col.items()} for col in t]
        rhs = _laurent_cols(_sub(t, t_inv))
        rhs = [{k: c * (QR_ONE / (qi_power(i, 1) - qi_power(i, -1)))
                for k, c in col.items()} for col in rhs]
        for j in range(3):
            comm = _sub(sparse_mul(e[i], f[j]), sparse_mul(f[j], e[i]))
            want = rhs if i == j else [{} for _ in range(DIM * DIM)]
            assert comm == want, (i, j)

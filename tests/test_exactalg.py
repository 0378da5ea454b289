"""Field axioms and canonical-form invariants of the exact arithmetic layer."""

from fractions import Fraction
from math import gcd as int_gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d43crystal.exactalg import (
    Echelon, Laurent, P_ZERO, QRat, QR_ONE, QR_ZERO, integer_images, kernel,
    lp2_poly_z, p_add, p_content, p_divexact, p_gcd, p_mul, p_neg,
    p_primitive, p_trim, q_factorial, q_int, q_power, sparse_mul,
)
from linear_oracle import solve_linear

small_poly = st.lists(st.integers(-9, 9), min_size=0, max_size=5).map(p_trim)
nonzero_poly = small_poly.filter(lambda p: bool(p))


# ---------------------------------------------------------------------------
# reference kernel: Euclid over Fraction, the differential oracle for the
# integer-only p_gcd and p_divexact


def fraction_gcd(a, b):
    """gcd in Z[q], primitive with positive leading coefficient."""
    if not a:
        return p_primitive(b)
    if not b:
        return p_primitive(a)
    # monic Euclid over Q, then take the primitive part
    fa = [Fraction(c) for c in a]
    fb = [Fraction(c) for c in b]
    while fb:
        if len(fa) < len(fb):
            fa, fb = fb, fa
            continue
        # fa -= (lead fa / lead fb) q^(deg difference) * fb
        while len(fa) >= len(fb) and fa:
            k = len(fa) - len(fb)
            m = fa[-1] / fb[-1]
            for i, c in enumerate(fb):
                fa[i + k] -= m * c
            while fa and fa[-1] == 0:
                fa.pop()
        fa, fb = fb, fa
    # fa is the gcd over Q; clear denominators
    den = 1
    for c in fa:
        den = den * c.denominator // int_gcd(den, c.denominator)
    return p_primitive([int(c * den) for c in fa])


def fraction_divexact(a, b):
    """Exact division in Z[q]; raises if not divisible."""
    if not a:
        return P_ZERO
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    fa = [Fraction(c) for c in a]
    out = [Fraction(0)] * (len(a) - len(b) + 1)
    while fa:
        if len(fa) < len(b):
            raise ArithmeticError("inexact polynomial division")
        k = len(fa) - len(b)
        m = fa[-1] / Fraction(b[-1])
        out[k] = m
        for i, c in enumerate(b):
            fa[i + k] -= m * c
        while fa and fa[-1] == 0:
            fa.pop()
    res = []
    for c in out:
        if c.denominator != 1:
            raise ArithmeticError("inexact polynomial division")
        res.append(int(c))
    return p_trim(res)


def fraction_subst_q(a, value):
    """a at q = value by Horner over Fraction: the oracle for the integer
    evaluation in QRat.subst_q."""
    def p_eval(p, x):
        acc = 0
        for c in reversed(p):
            acc = acc * x + c
        return acc

    den = p_eval(a.den, value)
    if den == 0:
        raise ZeroDivisionError("denominator vanishes at sample point")
    return Fraction(p_eval(a.num, value), 1) / den


def reference_reduce(num, den):
    """Canonical (num, den) of num/den computed with the reference kernel."""
    if not num:
        return (), (1,)
    g = fraction_gcd(num, den)
    num, den = fraction_divexact(num, g), fraction_divexact(den, g)
    c = int_gcd(p_content(num), p_content(den))
    num = tuple(v // c for v in num)
    den = tuple(v // c for v in den)
    if den[-1] < 0:
        num, den = p_neg(num), p_neg(den)
    return num, den


def polys(max_deg, bound):
    return st.lists(st.integers(-bound, bound), min_size=1,
                    max_size=max_deg + 1).map(p_trim).filter(bool)


@st.composite
def shared_factor(draw):
    """q^k times an integer content times a polynomial whose leading
    coefficient may be negative."""
    k = draw(st.integers(0, 3))
    content = draw(st.integers(1, 60)) * draw(st.sampled_from([1, -1]))
    return (0,) * k + p_mul((content,), draw(polys(4, 50)))


@st.composite
def q_shifted(draw, max_deg, bound):
    return (0,) * draw(st.integers(0, 3)) + draw(polys(max_deg, bound))


# factors of the R-matrix denominators and a few more, so that random
# fractions share factors across products and sums
FACTORS = [(0, 1), (2,), (-3,), (1, 0, 1), (1, 0, 0, 0, -1), (1, 1, 1),
           (-1, 2), (1, 0, 1, 0, 1)]


@st.composite
def factored_poly(draw):
    p = draw(polys(3, 9))
    for f in draw(st.lists(st.sampled_from(FACTORS), max_size=3)):
        p = p_mul(p, f)
    return p


@st.composite
def fractions_in_q(draw):
    """An unreduced (num, den) pair; den is 1 a quarter of the time, so the
    denominator-1 paths of QRat are exercised too."""
    num = draw(st.one_of(st.just(()), factored_poly()))
    den = draw(st.one_of(st.just((1,)), factored_poly(), factored_poly(),
                         factored_poly()))
    return num, den


@st.composite
def qrats(draw):
    return QRat(draw(small_poly), draw(nonzero_poly))


@given(qrats(), qrats(), qrats())
@settings(max_examples=200, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + QR_ZERO == a
    assert a * QR_ONE == a
    assert a - a == QR_ZERO
    if a:
        assert a * (QR_ONE / a) == QR_ONE


@given(qrats(), qrats())
@settings(max_examples=100, deadline=None)
def test_division(a, b):
    if b:
        assert (a / b) * b == a


@given(qrats())
@settings(max_examples=100, deadline=None)
def test_canonical_form(a):
    assert a.den
    assert a.den[-1] > 0
    if a.num:
        assert p_gcd(a.num, a.den) == (1,)
    else:
        assert a.den == (1,)


@given(nonzero_poly, nonzero_poly)
@settings(max_examples=100, deadline=None)
def test_gcd_divides(a, b):
    g = p_gcd(a, b)
    assert p_mul(p_divexact(a, g), g) == a
    assert p_mul(p_divexact(b, g), g) == b


@given(qrats(), st.sampled_from([Fraction(2), Fraction(3, 2), Fraction(-5, 4)]))
@settings(max_examples=100, deadline=None)
def test_subst_is_homomorphic(a, qv):
    try:
        va = a.subst_q(qv)
    except ZeroDivisionError:
        return
    b = a + a
    assert b.subst_q(qv) == 2 * va


@pytest.mark.parametrize("m,i", [(m, i) for m in range(8) for i in (0, 1, 2)])
def test_qint_bar_invariant(m, i):
    # [m]_i is symmetric under q -> 1/q
    v = q_int(m, i)
    for qv in (Fraction(2), Fraction(3, 2), Fraction(-5, 7)):
        assert v.subst_q(qv) == v.subst_q(1 / qv)


def test_qint_values():
    # [2] = q + 1/q, [3] = q^2 + 1 + 1/q^2, [2]_2 = q^3 + q^-3
    q = Fraction(3)
    assert q_int(2).subst_q(q) == q + 1 / q
    assert q_int(3).subst_q(q) == q * q + 1 + 1 / (q * q)
    assert q_int(2, 2).subst_q(q) == q ** 3 + q ** -3
    assert q_factorial(3).subst_q(q) == (q + 1 / q) * (q * q + 1 + 1 / (q * q))
    assert q_int(0) == QR_ZERO and q_int(1) == QR_ONE


def test_qpower_and_inverse():
    assert q_power(3) * q_power(-3) == QR_ONE
    assert q_power(-2).subst_q(Fraction(2)) == Fraction(1, 4)


def test_laurent_ring():
    z = lp2_poly_z([0, 1])
    p = lp2_poly_z([1, 2, 1])
    assert z * z + z * QRat(2) + Laurent.const(2, 1) == p
    assert p.swap_xy().swap_xy() == p
    assert p.subst(Fraction(1), (Fraction(3), Fraction(2))) == Fraction(25, 4)


def test_qrat_times_laurent_is_the_scalar_product():
    z = lp2_poly_z([1, 2])
    c = QRat((1, 1), (0, 0, 3))
    assert isinstance(c * z, Laurent)
    assert c * z == z * c
    assert (c * z).terms == {e: v * c for e, v in z.terms.items()}
    assert QR_ZERO * z == Laurent(2)


def test_constant_factor_scales_on_the_same_exponent_tuples():
    z = lp2_poly_z([1, 2, QRat((0, 1), (1, 0, 1))])
    c = QRat((1, 1), (0, 0, 3))
    const = Laurent.const(2, c)
    for prod in (z * const, const * z):
        assert prod.terms == {e: v * c for e, v in z.terms.items()}
        assert {id(e) for e in prod.terms} == {id(e) for e in z.terms}
    assert const * const == Laurent.const(2, c * c)
    # int coefficients, as in the images of integer_images
    assert (Laurent(2, {(0, 0): 3}) * Laurent(2, {(1, -1): 5, (0, 0): -2})
            == Laurent(2, {(1, -1): 15, (0, 0): -6}))


def test_echelon_solves_a_unique_system():
    # [[1, q], [q, 1]] x = [1 + q^2, 2q] has the one solution x = [1, q]
    one, q = QR_ONE, QRat((0, 1))
    cols = [{0: one, 1: q}, {0: q, 1: one}]
    rhs = {0: one + q * q, 1: q + q}
    (x,) = kernel(cols + [{r: -c for r, c in rhs.items()}], 2)
    assert {j: c / x[2] for j, c in x.items()} == {0: one, 1: q, 2: one}
    # the tagged pass over [A | I] leaves A^-1 in the tags
    ech = Echelon(2)
    assert [ech.add({**col, 2 + j: one}) for j, col in enumerate(cols)] == [
        None, None]
    inv = [{j - 2: c for j, c in ech.cols[k].items() if j >= 2}
           for k in range(2)]
    assert sparse_mul(inv, [rhs]) == [{0: one, 1: q}]


def test_kernel_of_singular_and_inconsistent_systems():
    one = QR_ONE
    # [[1, 1], [1, 1]] x = [1, 0] is inconsistent: no kernel vector of
    # [A | -b] has a nonzero last entry
    null = kernel([{0: one, 1: one}, {0: one, 1: one}, {0: -one}], 2)
    assert null == [{0: -one, 1: one}]
    # [1, 1] x = 1 has a one-dimensional solution set
    null = kernel([{0: one}, {0: one}, {0: -one}], 1)
    assert null == [{0: -one, 1: one}, {0: one, 2: one}]
    # a dependent column leaves its tags, a column without tags nothing
    ech = Echelon(1)
    assert ech.add({0: one + one}) is None
    assert ech.cols == {0: {0: one}}
    assert ech.add({0: one, 1: one}) == {1: one}
    assert ech.add({0: -one}) == {}


# ---------------------------------------------------------------------------
# Echelon and kernel against the dense solve_linear oracle


@st.composite
def qrat_matrices(draw, n, m=None):
    """Sparse QRat columns of an m x n matrix, m <= 4 unless given, with
    many zero entries and, often, a column that combines the earlier
    ones."""
    if m is None:
        m = draw(st.integers(1, 4))
    entry = st.one_of(st.just(QR_ZERO), st.just(QR_ZERO), qrats())
    cols = [{r: c for r in range(m) if (c := draw(entry))} for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        j = draw(st.integers(1, n - 1))
        cs = draw(st.lists(qrats(), min_size=j, max_size=j))
        cols[j] = sparse_mul(cols, [{i: c for i, c in enumerate(cs) if c}])[0]
    return m, cols


def _dense_rows(m, cols):
    return [[col.get(r, QR_ZERO) for col in cols] for r in range(m)]


def _fully_reduced(ech):
    return all(col.get(piv) == QR_ONE and not (set(col) & set(ech.cols) - {piv})
               and piv < ech.cut for piv, col in ech.cols.items())


@given(st.integers(1, 4).flatmap(qrat_matrices))
@settings(max_examples=150, deadline=None)
def test_kernel_matches_the_dense_oracle(case):
    m, cols = case
    null = kernel(cols, m)
    oracle = solve_linear(_dense_rows(m, cols), [QR_ZERO] * m, QR_ZERO, QR_ONE)
    assert len(null) == len(oracle.kernel)
    for vec in null:
        # each vector is annihilated, and is 1 at its largest index, which
        # no other vector shares: a basis
        assert sparse_mul(cols, [vec]) == [{}]
        assert vec[max(vec)] == QR_ONE
    assert len({max(vec) for vec in null}) == len(null)


@given(st.integers(1, 4).flatmap(lambda n: qrat_matrices(n, n)))
@settings(max_examples=150, deadline=None)
def test_block_inverse_matches_the_dense_oracle(case):
    n, cols = case
    ech = Echelon(n)
    rests = [ech.add({**col, n + j: QR_ONE}) for j, col in enumerate(cols)]
    assert _fully_reduced(ech)
    rows = _dense_rows(n, cols)
    sols = [solve_linear(rows, [QR_ONE if r == k else QR_ZERO for r in range(n)],
                         QR_ZERO, QR_ONE) for k in range(n)]
    if any(rest is not None for rest in rests):
        assert any(sol.kind != "unique" for sol in sols)
        return
    for k, sol in enumerate(sols):
        assert sol.kind == "unique"
        assert ech.cols[k] == {k: QR_ONE} | {
            n + j: c for j, c in enumerate(sol.particular) if c}


@given(shared_factor(), q_shifted(8, 10**6), q_shifted(8, 10**6))
@settings(max_examples=300, deadline=None)
def test_gcd_matches_reference_on_shared_factor(c, a, b):
    a, b = p_mul(c, a), p_mul(c, b)
    g = p_gcd(a, b)
    assert g == fraction_gcd(a, b)
    assert p_divexact(a, g) == fraction_divexact(a, g)
    assert p_divexact(b, g) == fraction_divexact(b, g)


@given(q_shifted(12, 10**6), q_shifted(12, 10**6))
@settings(max_examples=200, deadline=None)
def test_gcd_matches_reference_on_large_polys(a, b):
    assert p_gcd(a, b) == fraction_gcd(a, b)
    assert p_gcd(b, ()) == fraction_gcd(b, ()) == fraction_gcd((), b)


@given(q_shifted(12, 10**6), shared_factor())
@settings(max_examples=200, deadline=None)
def test_divexact_product(a, b):
    ab = p_mul(a, b)
    assert p_divexact(ab, b) == fraction_divexact(ab, b) == a
    assert p_divexact(ab, a) == b


@given(fractions_in_q(), fractions_in_q())
@settings(max_examples=300, deadline=None)
def test_qrat_canonical_forms_match_reference(x, y):
    (n1, d1), (n2, d2) = x, y
    a, b = QRat(n1, d1), QRat(n2, d2)
    assert (a.num, a.den) == reference_reduce(n1, d1)
    prod = a * b
    assert (prod.num, prod.den) == reference_reduce(p_mul(n1, n2),
                                                    p_mul(d1, d2))
    total = a + b
    assert (total.num, total.den) == reference_reduce(
        p_add(p_mul(n1, d2), p_mul(n2, d1)), p_mul(d1, d2))
    diff = a - b
    assert (diff.num, diff.den) == reference_reduce(
        p_add(p_mul(n1, d2), p_neg(p_mul(n2, d1))), p_mul(d1, d2))


@pytest.mark.parametrize("divide", [p_divexact, fraction_divexact])
def test_divexact_error_contract(divide):
    with pytest.raises(ArithmeticError):
        divide((1, 2), (2,))            # quotient not integral
    with pytest.raises(ArithmeticError):
        divide((1, 0, 1), (1, 1))       # nonzero remainder
    with pytest.raises(ArithmeticError):
        divide((1, 1), (1, 0, 1))       # divisor of higher degree
    with pytest.raises(ZeroDivisionError):
        divide((1, 1), ())
    assert divide((), (1, 1)) == ()


@given(fractions_in_q(),
       st.fractions(min_value=-5, max_value=5, max_denominator=12)
       | st.integers(-4, 4))
@settings(max_examples=300, deadline=None)
def test_subst_q_matches_reference(x, qv):
    a = QRat(*x)
    try:
        want = fraction_subst_q(a, Fraction(qv))
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            a.subst_q(qv)
        return
    got = a.subst_q(qv)
    assert isinstance(got, Fraction)
    assert got == want


# ---------------------------------------------------------------------------
# integer_images against the QRat product


def _laurent1(draw):
    """A Laurent polynomial in one variable with one or two QRat
    coefficients of mixed denominators."""
    terms = {}
    for _ in range(draw(st.integers(1, 2))):
        terms[(draw(st.integers(-1, 1)),)] = QRat(*draw(fractions_in_q()))
    return Laurent(1, terms)


@st.composite
def mixed_matrices(draw, n):
    """n x n sparse columns holding QRats and Laurent polynomials over
    them; the two kinds of entry are mixed within one matrix."""
    cols = []
    for _ in range(n):
        col = {}
        for row in range(n):
            kind = draw(st.sampled_from(("zero", "qrat", "laurent")))
            if kind == "qrat":
                v = QRat(*draw(fractions_in_q()))
            elif kind == "laurent":
                v = _laurent1(draw)
            else:
                continue
            if v:
                col[row] = v
        cols.append(col)
    return cols


@st.composite
def bumps(draw):
    """Nothing, a random Laurent polynomial, or (q - 2^m) z: a polynomial
    that an evaluation at q = 2^m would miss."""
    kind = draw(st.sampled_from(("none", "laurent", "aimed")))
    if kind == "none":
        return Laurent(1)
    if kind == "laurent":
        return _laurent1(draw)
    return Laurent(1, {(1,): QRat((-(2 ** draw(st.integers(1, 64))), 1))})


def _as_laurent(m):
    return [{row: v if isinstance(v, Laurent) else Laurent.const(1, v)
             for row, v in col.items()} for col in m]


@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(mixed_matrices(n), mixed_matrices(n), bumps())))
@settings(max_examples=150, deadline=None)
def test_integer_images_decide_a_product_as_qrat_does(case):
    a, b, bump = case
    n = len(a)
    # C = A B, perhaps with its (0, 0) entry moved; A B = C I over QRat
    c = sparse_mul(_as_laurent(a), _as_laurent(b))
    c0 = c[0].get(0, Laurent(1)) + bump
    c[0] = {**c[0], 0: c0} if c0 else {r: v for r, v in c[0].items() if r}
    ident = [{j: QR_ONE} for j in range(n)]
    ((ia, ic), (ib, ii)), _ = integer_images([[a, c], [b, ident]], 2)
    images = [ia, ib, ic, ii]
    assert [[set(col) for col in m] for m in images] == [
        [set(col) for col in m] for m in (a, b, c, ident)]
    assert all(type(x) is int for m in images for col in m
               for v in col.values() for x in v.terms.values())
    want = sparse_mul(_as_laurent(a), _as_laurent(b)) == c
    assert (sparse_mul(ia, ib) == sparse_mul(ic, ii)) == want


@pytest.mark.parametrize("n,c", [(1, QRat(8)), (8, QR_ONE)])
def test_integer_images_bound_counts_factors_and_repeated_entries(n, c):
    """(cJ)(cJ) = qJ is false, with J the n x n all-ones matrix, but
    n c^2 = 2^6 for n = 1, c = 8 and 2^3 for n = 8, c = 1.  A w that left
    out the factor count k, or counted a repeated coefficient once, would
    evaluate at q = 2^6 or 2^3 and find the two sides equal."""
    def filled(v):
        return [{r: v for r in range(n)} for _ in range(n)]

    ident = [{j: QR_ONE} for j in range(n)]
    ((ia, iq), (ib, ii)), _ = integer_images(
        [[filled(c), filled(QRat((0, 1)))], [filled(c), ident]], 2)
    assert sparse_mul(ia, ib) != sparse_mul(iq, ii)

"""Exact arithmetic kernel: rational functions in q, sparse Laurent
polynomials in spectral variables, Gauss-Jordan elimination over Q(q),
and the algebra of sparse column matrices.

A matrix is a list of sparse columns {row: entry} with no zero entry
stored, so two matrices are equal exactly when their column lists are.
sparse_mul multiplies two of them, kron takes their Kronecker product and
lincomb a linear combination.  Echelon is the one eliminator: it keeps
the columns added to it fully reduced, each with a 1 at its pivot.  Keys
at or above its cut are tags that record which combination of the added
columns a stored column is, so a tagged pass over [B | I] leaves B^-1 in
the tags, and kernel reads a kernel basis off the tags of the columns
that reduce to zero.

Integer polynomials in q are plain tuples of ints, low degree first, with
no trailing zeros; () is the zero polynomial.  The polynomial kernel is
fraction-free: p_gcd splits off the common power of q and runs a primitive
remainder sequence over Z, and p_divexact is integer long division that
raises as soon as a quotient coefficient is not an integer.  QRat keeps
every value as a reduced fraction of two such polynomials; the product,
sum or difference of two values with denominator 1 needs no gcd.

clear_denominators scales QRats by the lcm D of their denominators, so
sums of products run over Z[q] with no gcd.  integer_images decides a
matrix identity over Q(q) without QRat arithmetic: each matrix is cleared
that way, and every coefficient is evaluated at q = 2^w.  With N the
largest total coefficient 1-norm of a cleared matrix and k factors in the
longest product, w = (2 N^k).bit_length() + 1 keeps every coefficient of
the difference of the two sides below 2^(w-1) in absolute value, where
evaluation at 2^w is injective, so == on the integer images is exact.
All arithmetic is exact; no floating point appears anywhere in this
package.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd as int_gcd
from operator import add


# ---------------------------------------------------------------------------
# integer-coefficient polynomials in q (tuples, low degree first)

P_ZERO = ()
P_ONE = (1,)


def p_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def p_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return p_trim(out)


def p_neg(a):
    return tuple(-c for c in a)


def p_sub(a, b):
    return p_add(a, p_neg(b))


def p_mul(a, b):
    if not a or not b:
        return P_ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return p_trim(out)


def p_content(a):
    return int_gcd(*a)


def p_primitive(a):
    """Primitive part with positive leading coefficient."""
    if not a:
        return P_ZERO
    g = p_content(a)
    if a[-1] < 0:
        g = -g
    if g == 1:
        return tuple(a)
    return tuple([c // g for c in a])


def p_eval_hom(a, n, d):
    """d^deg(a) * a(n/d), an integer: Horner on the homogenized a."""
    acc, dk = 0, 1
    for c in reversed(a):
        acc = acc * n + c * dk
        dk *= d
    return acc


def _prem(a, b):
    """A constant multiple of the pseudo-remainder of a by b, as a trimmed
    list; each step scales by lead(b)/g and subtracts lead(r)/g, where g is
    the gcd of the two leading coefficients."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    tail = b[:-1]
    while len(r) > db:
        lr = r.pop()
        g = int_gcd(lr, lb)
        m, s = lb // g, lr // g
        if m != 1:
            r = [c * m for c in r]
        k = len(r) - db
        for i, c in enumerate(tail):
            r[k + i] -= s * c
        while r and not r[-1]:
            r.pop()
    return r


def p_gcd(a, b):
    """gcd in Z[q], primitive with positive leading coefficient.

    The common power of q is split off first; the q-free parts then run a
    primitive polynomial remainder sequence over Z (Collins 1967, Brown
    1971), which takes the primitive part of every pseudo-remainder."""
    if not a:
        return p_primitive(b)
    if not b:
        return p_primitive(a)
    if len(a) == 1 or len(b) == 1:
        return P_ONE
    va = vb = 0
    while not a[va]:
        va += 1
    while not b[vb]:
        vb += 1
    shift = (0,) * min(va, vb)
    a = p_primitive(a[va:])
    b = p_primitive(b[vb:])
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            return shift + b
        a, b = b, p_primitive(r)
    return shift + P_ONE


def p_divexact(a, b):
    """Exact division in Z[q]; raises ArithmeticError unless b divides a
    with an integer quotient."""
    if not a:
        return P_ZERO
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if b == P_ONE:
        return tuple(a)
    r = list(a)
    db = len(b) - 1
    if len(r) <= db:
        raise ArithmeticError("inexact polynomial division")
    lb = b[-1]
    out = [0] * (len(r) - db)
    for k in range(len(out) - 1, -1, -1):
        c, rem = divmod(r[k + db], lb)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        if c:
            out[k] = c
            for i in range(db):
                r[k + i] -= c * b[i]
    if any(r[:db]):
        raise ArithmeticError("inexact polynomial division")
    return tuple(out)


# ---------------------------------------------------------------------------
# QRat: canonical fractions of integer polynomials in q


class QRat:
    """Rational function in q over Z, in canonical reduced form.

    Invariants: gcd(num, den) = 1 in Z[q] (including integer content),
    den has positive leading coefficient and is never zero.  Structural
    equality is mathematical equality.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=P_ONE, _reduced=False):
        if isinstance(num, int):
            num = (num,) if num else P_ZERO
        if isinstance(den, int):
            den = (den,) if den else P_ZERO
        if not den:
            raise ZeroDivisionError("QRat with zero denominator")
        if not _reduced:
            num, den = _qr_reduce(num, den)
        self.num = num
        self.den = den
        self._hash = None

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if not isinstance(other, QRat):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __add__(self, other):
        if self.den == other.den:
            if self.den == P_ONE:
                return QRat(p_add(self.num, other.num), P_ONE, _reduced=True)
            return QRat(p_add(self.num, other.num), self.den)
        return QRat(
            p_add(p_mul(self.num, other.den), p_mul(other.num, self.den)),
            p_mul(self.den, other.den),
        )

    def __sub__(self, other):
        if self.den == other.den:
            if self.den == P_ONE:
                return QRat(p_sub(self.num, other.num), P_ONE, _reduced=True)
            return QRat(p_sub(self.num, other.num), self.den)
        return QRat(
            p_sub(p_mul(self.num, other.den), p_mul(other.num, self.den)),
            p_mul(self.den, other.den),
        )

    def __neg__(self):
        return QRat(p_neg(self.num), self.den, _reduced=True)

    def __mul__(self, other):
        if not isinstance(other, QRat):
            return NotImplemented  # a Laurent scales itself by self
        if not self.num or not other.num:
            return QR_ZERO
        if self.den == P_ONE and other.den == P_ONE:
            return QRat(p_mul(self.num, other.num), P_ONE, _reduced=True)
        # cross-reduce before multiplying to keep degrees low; the primitive
        # parts end up coprime but the integer content still needs clearing
        g1 = p_gcd(self.num, other.den)
        g2 = p_gcd(other.num, self.den)
        n = p_mul(p_divexact(self.num, g1), p_divexact(other.num, g2))
        d = p_mul(p_divexact(self.den, g2), p_divexact(other.den, g1))
        c = int_gcd(p_content(n), p_content(d))
        if c > 1:
            n = tuple(v // c for v in n)
            d = tuple(v // c for v in d)
        if d[-1] < 0:
            n, d = p_neg(n), p_neg(d)
        return QRat(n, d, _reduced=True)

    def __truediv__(self, other):
        if not other.num:
            raise ZeroDivisionError("QRat division by zero")
        return self * QRat(other.den, other.num)

    def subst_q(self, value):
        """Evaluate at an exact rational q-value n/d, over the integers."""
        value = Fraction(value)
        n, d = value.numerator, value.denominator
        num = p_eval_hom(self.num, n, d)
        den = p_eval_hom(self.den, n, d)
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at sample point")
        # num(q) / den(q) = num * d^deg(den) / (den * d^deg(num))
        shift = len(self.den) - len(self.num)
        if shift >= 0:
            return Fraction(num * d ** shift, den)
        return Fraction(num, den * d ** -shift)

    def __repr__(self):
        return f"QRat({self.num!r}, {self.den!r})"

    def __str__(self):
        def side(p):
            terms = []
            for i, c in enumerate(p):
                if not c:
                    continue
                if i == 0:
                    terms.append(str(c))
                elif i == 1:
                    terms.append(f"{c}*q" if c not in (1, -1) else ("-q" if c == -1 else "q"))
                else:
                    terms.append(
                        f"{c}*q^{i}" if c not in (1, -1) else (f"-q^{i}" if c == -1 else f"q^{i}")
                    )
            return " + ".join(terms).replace("+ -", "- ") if terms else "0"

        if self.den == P_ONE:
            return side(self.num)
        return f"({side(self.num)})/({side(self.den)})"


def _qr_reduce(num, den):
    if not num:
        return P_ZERO, P_ONE
    g = p_gcd(num, den)
    if g != P_ONE:
        num = p_divexact(num, g)
        den = p_divexact(den, g)
    # p_gcd is primitive, so shared integer content survives it
    c = int_gcd(p_content(num), p_content(den))
    if c > 1:
        num = tuple(v // c for v in num)
        den = tuple(v // c for v in den)
    if den[-1] < 0:
        num, den = p_neg(num), p_neg(den)
    return num, den


QR_ZERO = QRat(0)
QR_ONE = QRat(1)


# quantum integers; node indices 0,1 use q, node 2 uses q^3
Q_POW = {0: 1, 1: 1, 2: 3}


@lru_cache(maxsize=None)
def q_int(m, i=0):
    """[m]_i = (q_i^m - q_i^-m)/(q_i - q_i^-1) with q_0 = q_1 = q, q_2 = q^3."""
    if m < 0:
        raise ValueError("q_int needs m >= 0")
    k = Q_POW[i]
    # q^(k(m-1)) * [m]_i = 1 + q^2k + ... + q^(2k(m-1))
    num = [0] * (2 * k * (m - 1) + 1) if m else []
    for j in range(m):
        num[2 * k * j] = 1
    den = [0] * (k * (m - 1) + 1) if m else [1]
    if m:
        den[-1] = 1
    else:
        den = [1]
    return QRat(tuple(num), tuple(den))


@lru_cache(maxsize=None)
def q_factorial(n, i=0):
    """[n]_i! = prod_{m=1..n} [m]_i."""
    if n < 0:
        raise ValueError("q_factorial needs n >= 0")
    acc = QR_ONE
    for m in range(1, n + 1):
        acc = acc * q_int(m, i)
    return acc


def q_power(k):
    """q^k as a QRat, any integer k."""
    if k >= 0:
        return QRat((0,) * k + (1,))
    return QRat(P_ONE, (0,) * (-k) + (1,))


# ---------------------------------------------------------------------------
# sparse Laurent polynomials in several variables over QRat


class Laurent:
    """Sparse Laurent polynomial: map from exponent tuples to QRat.

    No zero coefficients are stored.  Arity is fixed per value; the two
    spectral variables x, y use arity 2 (LPoly2).
    """

    __slots__ = ("arity", "terms", "_hash")

    def __init__(self, arity, terms=None):
        self.arity = arity
        t = {}
        if terms:
            for e, c in terms.items():
                if c:
                    t[e] = c
        self.terms = t
        self._hash = None

    @classmethod
    def const(cls, arity, c):
        if isinstance(c, int):
            c = QRat(c)
        return cls(arity, {(0,) * arity: c})

    @classmethod
    def mono(cls, exps, c=QR_ONE):
        if isinstance(c, int):
            c = QRat(c)
        return cls(len(exps), {tuple(exps): c})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.arity, frozenset(self.terms.items())))
        return self._hash

    def __add__(self, other):
        t = dict(self.terms)
        for e, c in other.terms.items():
            acc = t.get(e)
            s = c if acc is None else acc + c
            if s:
                t[e] = s
            elif acc is not None:
                del t[e]
        out = Laurent(self.arity)
        out.terms = t
        return out

    def __neg__(self):
        out = Laurent(self.arity)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def _scaled(self, c):
        """self times the coefficient c, on self's exponent tuples."""
        out = Laurent(self.arity)
        if c:
            out.terms = {e: v * c for e, v in self.terms.items()}
        return out

    def __mul__(self, other):
        if isinstance(other, QRat):
            return self._scaled(other)
        # a constant factor scales the other one
        zero = (0,) * self.arity
        if len(other.terms) == 1 and zero in other.terms:
            return self._scaled(other.terms[zero])
        if len(self.terms) == 1 and zero in self.terms:
            return other._scaled(self.terms[zero])
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                p = c1 * c2
                acc = t.get(e)
                s = p if acc is None else acc + p
                if s:
                    t[e] = s
                elif acc is not None:
                    del t[e]
        out = Laurent(self.arity)
        out.terms = t
        return out

    __rmul__ = __mul__

    def subst(self, qval, values):
        """Exact evaluation at rational q and rational variable values."""
        acc = Fraction(0)
        for e, c in self.terms.items():
            m = c.subst_q(qval)
            for exp, v in zip(e, values):
                m *= Fraction(v) ** exp
            acc += m
        return acc

    def swap_xy(self):
        """Exchange the two variables (arity 2 only)."""
        out = Laurent(self.arity)
        out.terms = {(b, a): c for (a, b), c in self.terms.items()}
        return out

    def __repr__(self):
        if not self.terms:
            return "Laurent(0)"
        bits = [f"{e}:{c}" for e, c in sorted(self.terms.items())]
        return "Laurent(" + ", ".join(bits) + ")"


def lp2_poly_z(coeffs):
    """Polynomial in z = x/y with QRat (or int) coefficients, low degree first."""
    t = {}
    for k, c in enumerate(coeffs):
        if isinstance(c, int):
            c = QRat(c)
        if c:
            t[(k, -k)] = c
    return Laurent(2, t)


# ---------------------------------------------------------------------------
# exact linear algebra over Q(q)


class Echelon:
    """Sparse Gauss-Jordan elimination of QRat columns.

    Keys below cut are coordinates; keys at cut or above are tags, which
    ride along with the arithmetic and record which combination of the
    added columns a stored column is.  Every stored column has a 1 at its
    pivot, a coordinate key, and no other pivot among its keys."""

    def __init__(self, cut):
        self.cut = cut
        self.cols = {}  # pivot -> stored column

    def add(self, col):
        """Reduce col by the stored columns.  If a coordinate survives,
        store the remainder with a 1 at its lowest coordinate, clear that
        key from every other stored column and return None; otherwise
        return the remainder, which holds tags only."""
        col = dict(col)
        for piv, stored in self.cols.items():
            c = col.get(piv)
            if c:
                _sub_multiple(col, c, stored)
        piv = min((k for k in col if k < self.cut), default=None)
        if piv is None:
            return col
        inv = QR_ONE / col[piv]
        col = {k: v * inv for k, v in col.items()}
        for stored in self.cols.values():
            c = stored.get(piv)
            if c:
                _sub_multiple(stored, c, col)
        self.cols[piv] = col
        return None


def _sub_multiple(col, c, other):
    """col -= c * other in place, dropping the entries that cancel."""
    for k, v in other.items():
        s = col[k] - c * v if k in col else -(c * v)
        if s:
            col[k] = s
        else:
            del col[k]


def kernel(cols, cut):
    """A basis of the kernel of the matrix with sparse columns cols, whose
    keys are below cut, as sparse vectors {column index: entry}: column j
    is tagged with {cut + j: 1}, and each column that reduces to zero on
    the coordinates leaves its tags as one kernel vector."""
    ech = Echelon(cut)
    out = []
    for j, col in enumerate(cols):
        rest = ech.add({**col, cut + j: QR_ONE})
        if rest is not None:
            out.append({k - cut: c for k, c in rest.items()})
    return out


# ---------------------------------------------------------------------------
# sparse column matrices


def sparse_mul(a_cols, b_cols):
    """(a . b) as sparse columns: apply b first, then a.  Entries may be
    ints, Fractions, QRats or Laurents (a QRat times a Laurent is a
    Laurent); an entry that cancels to zero is dropped."""
    out = []
    for col in b_cols:
        acc = {}
        for mid, c in col.items():
            for row, c2 in a_cols[mid].items():
                p = c2 * c
                cur = acc.get(row)
                s = p if cur is None else cur + p
                if s:
                    acc[row] = s
                elif cur is not None:
                    del acc[row]
        out.append(acc)
    return out


def kron(a_cols, b_cols):
    """a (x) b as sparse columns, for a square b of n columns: column
    j_a*n + j_b holds a[r_a][j_a] * b[r_b][j_b] at row r_a*n + r_b.  A
    product of two nonzero entries is nonzero, so no zero is stored."""
    n = len(b_cols)
    return [{ra * n + rb: ca * cb for ra, ca in acol.items()
             for rb, cb in bcol.items()}
            for acol in a_cols for bcol in b_cols]


def lincomb(terms):
    """sum_k c_k M_k for terms [(c_k, M_k)] with equally many columns, as
    one sparse_mul of the stacked columns [M_1 | M_2 | ...] by the columns
    {k*n + j: c_k}; an entry that cancels is dropped there."""
    n = len(terms[0][1])
    stacked = [col for _, m in terms for col in m]
    return sparse_mul(stacked, [{k * n + j: c for k, (c, _) in enumerate(terms)}
                                for j in range(n)])


# ---------------------------------------------------------------------------
# deciding matrix identities over Z


def clear_denominators(coeffs):
    """D, the lcm in Z[q] of the denominators of the QRats coeffs, and
    {c: c * D} over Z.  gcd(D, d) is the primitive gcd times the gcd of the
    contents, since both have positive leading coefficients."""
    den = P_ONE
    for d in {c.den for c in coeffs}:
        g = p_mul(p_gcd(den, d), (int_gcd(p_content(den), p_content(d)),))
        den = p_mul(p_divexact(den, g), d)
    return den, {c: p_mul(c.num, p_divexact(den, c.den)) for c in coeffs}


def integer_images(groups, k):
    """Integer images of the matrices of one identity between products of
    at most k factors, and the exponent w of the evaluation point 2^w.

    groups is a list of groups of sparse column matrices with QRat or
    Laurent-over-QRat entries.  Each group is scaled by one common
    denominator D in Z[q], the lcm of its QRat denominators, so that every
    coefficient becomes a polynomial over Z; matrices that stand at the
    same place on the two sides of the identity go in one group, so that
    both sides carry the same scale.  Each cleared coefficient is then
    evaluated at q = 2^w.  w is fixed by all the groups at once, but the
    images are yielded one group at a time, each in the shape of its group
    with Laurent entries whose coefficients are ints, so a caller that
    compares group by group never holds them all.

    Let N be the largest total coefficient 1-norm of a cleared matrix.  N
    bounds the coefficient 1-norm of every column, also of a lift of the
    matrix to a larger tensor power, so every coefficient of a product of
    k cleared factors is at most N^k in absolute value, and of the
    difference of two such products at most 2 N^k < 2^(w-1) for
    w = (2 N^k).bit_length() + 1.  A polynomial over Z with coefficients
    below 2^(w-1) in absolute value vanishes at 2^w only if it is zero,
    because balanced base-2^w digits are unique.  Evaluation at 2^w is a
    ring map, so == on products of the images decides the identity over
    Q(q) exactly (Kronecker substitution; von zur Gathen and Gerhard,
    Modern Computer Algebra, 8.4).
    """
    arity = max((v.arity for group in groups for m in group for col in m
                 for v in col.values() if isinstance(v, Laurent)), default=0)
    zero = (0,) * arity

    def terms(v):
        return v.terms.items() if isinstance(v, Laurent) else ((zero, v),)

    cleared, norm = [], 0
    for group in groups:
        _, polys = clear_denominators(
            {c for m in group for col in m for v in col.values()
             for _, c in terms(v)})
        cleared.append(polys)
        size = {c: sum(map(abs, p)) for c, p in polys.items()}
        for m in group:
            norm = max(norm, sum(size[c] for col in m for v in col.values()
                                 for _, c in terms(v)))
    w = (2 * norm ** k).bit_length() + 1

    def images():
        for group, polys in zip(groups, cleared):
            at = {c: p_eval_hom(p, 1 << w, 1) for c, p in polys.items()}
            yield [[{row: Laurent(arity, {e: at[c] for e, c in terms(v)})
                     for row, v in col.items()} for col in m] for m in group]
    return images(), w

"""Affine crystals B_l, B_{>=0} and the limit crystal: the six-case
0-action, eps_0/phi_0, classical weights and enumeration.

Level contexts:
  Finite(l)   -- coordinates >= 0 and gsum(b) <= l,
  NONNEG      -- coordinates >= 0, no sum bound,
  FREE        -- any integers with the parity constraint; operators total.
"""

from . import g2crystal as g2
from .g2crystal import gsum


class LevelCtx:
    FINITE = "finite"
    NONNEG = "nonneg"
    FREE = "free"

    def __init__(self, kind, level=None):
        if kind == self.FINITE and (level is None or level < 0):
            raise ValueError("finite context needs a nonnegative level")
        self.kind = kind
        self.level = level

    @classmethod
    def finite(cls, l):
        return cls(cls.FINITE, l)

    def admits(self, b):
        if (b[2] - b[3]) % 2 != 0:
            return False
        if self.kind == self.FREE:
            return True
        if any(v < 0 for v in b):
            return False
        if self.kind == self.FINITE:
            return gsum(b) <= self.level
        return True

    def __repr__(self):
        if self.kind == self.FINITE:
            return f"LevelCtx.finite({self.level})"
        return f"LevelCtx({self.kind!r})"


NONNEG = LevelCtx(LevelCtx.NONNEG)
FREE = LevelCtx(LevelCtx.FREE)


def zvec(b):
    x1, x2, x3, x3b, x2b, x1b = b
    return (x1b - x1, x2b - x3b, x3 - x2, (x3b - x3) // 2)


def alist(b):
    z1, z2, z3, z4 = zvec(b)
    return (
        0,
        z1,
        z1 + z2,
        z1 + z2 + 3 * z4,
        z1 + z2 + z3 + 3 * z4,
        2 * z1 + z2 + z3 + 3 * z4,
    )


def f_case(b):
    """1-based index i with A_i = max A and A_j < A_i for j < i."""
    a = alist(b)
    m = max(a)
    return a.index(m) + 1


def e_case(b):
    """1-based index i with A_i = max A and A_j < A_i for j > i."""
    a = alist(b)
    m = max(a)
    return 6 - a[::-1].index(m)


# raw coordinate updates for the six cases

def _apply_f_case(b, i):
    x1, x2, x3, x3b, x2b, x1b = b
    if i == 1:
        return (x1 + 1, x2, x3, x3b, x2b, x1b)
    if i == 2:
        return (x1, x2, x3 + 1, x3b + 1, x2b, x1b - 1)
    if i == 3:
        return (x1, x2, x3 + 2, x3b, x2b - 1, x1b)
    if i == 4:
        return (x1, x2 + 1, x3, x3b - 2, x2b, x1b)
    if i == 5:
        return (x1 + 1, x2, x3 - 1, x3b - 1, x2b, x1b)
    return (x1, x2, x3, x3b, x2b, x1b - 1)


def _apply_e_case(b, i):
    x1, x2, x3, x3b, x2b, x1b = b
    if i == 1:
        return (x1 - 1, x2, x3, x3b, x2b, x1b)
    if i == 2:
        return (x1, x2, x3 - 1, x3b - 1, x2b, x1b + 1)
    if i == 3:
        return (x1, x2, x3 - 2, x3b, x2b + 1, x1b)
    if i == 4:
        return (x1, x2 - 1, x3, x3b + 2, x2b, x1b)
    if i == 5:
        return (x1 - 1, x2, x3 + 1, x3b + 1, x2b, x1b)
    return (x1, x2, x3, x3b, x2b, x1b + 1)


def f0(b, ctx):
    nb = _apply_f_case(b, f_case(b))
    return nb if ctx.admits(nb) else None


def e0(b, ctx):
    nb = _apply_e_case(b, e_case(b))
    return nb if ctx.admits(nb) else None


_RAW = {("e", 1): g2.e1_raw, ("f", 1): g2.f1_raw,
        ("e", 2): g2.e2_raw, ("f", 2): g2.f2_raw}


def apply_op(kind, i, b, ctx):
    """kind 'e' or 'f', color i in {0,1,2}."""
    if i == 0:
        return e0(b, ctx) if kind == "e" else f0(b, ctx)
    nb = _RAW[kind, i](b)
    return nb if ctx.admits(nb) else None


def phi0(b, ctx):
    base = ctx.level if ctx.kind == LevelCtx.FINITE else 0
    return base - gsum(b) + max(alist(b))


def eps0(b, ctx):
    return phi0(b, ctx) - alist(b)[5]


def eps(i, b, ctx):
    if i == 0:
        return eps0(b, ctx)
    return g2.eps1(b) if i == 1 else g2.eps2(b)


def phi(i, b, ctx):
    if i == 0:
        return phi0(b, ctx)
    return g2.phi1(b) if i == 1 else g2.phi2(b)


def weight(b, ctx):
    """(phi_i - eps_i) on (Lambda_0, Lambda_1, Lambda_2); always level 0."""
    return tuple(phi(i, b, ctx) - eps(i, b, ctx) for i in range(3))


def level_of(w):
    """Pairing with the canonical central element c = h0 + 2h1 + 3h2."""
    return w[0] + 2 * w[1] + 3 * w[2]


def enumerate_Bl(l):
    """Union of the level-j classical crystals, j = 0..l, sorted."""
    out = []
    for j in range(l + 1):
        out.extend(g2.enumerate_g2(j))
    out.sort()
    return out


def bl_cardinality(l):
    n = (l + 1) * (l + 2) * (l + 3) ** 2 * (l + 4) * (l + 5)
    assert n % 360 == 0
    return n // 360


def involution(b):
    """Coordinate reversal b -> (x1b, x2b, x3b, x3, x2, x1)."""
    return tuple(reversed(b))


# direct transcription of the inequality systems (F1)-(F6); the max-A
# dispatch above is the implementation, these are kept as a test oracle.

def f_conditions(b):
    z1, z2, z3, z4 = zvec(b)
    t = z1 + z2 + z3 + 3 * z4
    return [
        t <= 0 and z1 + z2 + 3 * z4 <= 0 and z1 + z2 <= 0 and z1 <= 0,
        t <= 0 and z2 + 3 * z4 <= 0 and z2 <= 0 and z1 > 0,
        z1 + z3 + 3 * z4 <= 0 and z3 + 3 * z4 <= 0 and z4 <= 0 and z2 > 0 and z1 + z2 > 0,
        z1 + z2 + 3 * z4 > 0 and z2 + 3 * z4 > 0 and z4 > 0 and z3 <= 0 and z1 + z3 <= 0,
        t > 0 and z3 + 3 * z4 > 0 and z3 > 0 and z1 <= 0,
        t > 0 and z1 + z3 + 3 * z4 > 0 and z1 + z3 > 0 and z1 > 0,
    ]


def e_conditions(b):
    z1, z2, z3, z4 = zvec(b)
    t = z1 + z2 + z3 + 3 * z4
    return [
        t < 0 and z1 + z2 + 3 * z4 < 0 and z1 + z2 < 0 and z1 < 0,
        t < 0 and z2 + 3 * z4 < 0 and z2 < 0 and z1 >= 0,
        z1 + z3 + 3 * z4 < 0 and z3 + 3 * z4 < 0 and z4 < 0 and z2 >= 0 and z1 + z2 >= 0,
        z1 + z2 + 3 * z4 >= 0 and z2 + 3 * z4 >= 0 and z4 >= 0 and z3 < 0 and z1 + z3 < 0,
        t >= 0 and z3 + 3 * z4 >= 0 and z3 >= 0 and z1 < 0,
        t >= 0 and z1 + z3 + 3 * z4 >= 0 and z1 + z3 >= 0 and z1 >= 0,
    ]

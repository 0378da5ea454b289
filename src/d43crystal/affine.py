"""Affine crystals B_l, B_{>=0} and the limit crystal: the six-case
0-action, eps_0/phi_0, classical weights and enumeration.

Level contexts:
  Finite(l)   -- coordinates >= 0 and gsum(b) <= l,
  NONNEG      -- coordinates >= 0, no sum bound,
  FREE        -- any integers with the parity constraint; operators total.
"""

from functools import lru_cache

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
    @lru_cache(maxsize=None)
    def finite(cls, l):
        """The level-l context; one shared object per level."""
        return cls(cls.FINITE, l)

    def admits(self, b):
        if (b[2] - b[3]) & 1:
            return False
        if self.kind == self.FREE:
            return True
        if min(b) < 0:
            return False
        return self.kind == self.NONNEG or gsum(b) <= self.level

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
    """(0, z1, z1 + z2, z1 + z2 + 3 z4, z1 + z2 + z3 + 3 z4,
    2 z1 + z2 + z3 + 3 z4) at z = zvec(b), read off b in one pass."""
    x1, x2, x3, x3b, x2b, x1b = b
    z1 = x1b - x1
    a2 = z1 + x2b - x3b
    a3 = a2 + 3 * ((x3b - x3) // 2)
    a4 = a3 + x3 - x2
    return (0, z1, a2, a3, a4, a4 + z1)


def f_case(b):
    """1-based index i with A_i = max A and A_j < A_i for j < i."""
    a = alist(b)
    return a.index(max(a)) + 1


def e_case(b):
    """1-based index i with A_i = max A and A_j < A_i for j > i."""
    a = alist(b)
    return 6 - a[::-1].index(max(a))


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


def f0_raw(b):
    """f_0 before the admissibility test: the update of case f_case(b)."""
    return _apply_f_case(b, f_case(b))


def e0_raw(b):
    """e_0 before the admissibility test: the update of case e_case(b)."""
    return _apply_e_case(b, e_case(b))


# raw operators by kind, then by color
_RAW = {"e": (e0_raw, g2.e1_raw, g2.e2_raw),
        "f": (f0_raw, g2.f1_raw, g2.f2_raw)}


def apply_op(kind, i, b, ctx):
    """kind 'e' or 'f', color i in {0,1,2}."""
    nb = _RAW[kind][i](b)
    return nb if ctx.admits(nb) else None


def _phi0(b, ctx, a):
    base = ctx.level if ctx.kind == LevelCtx.FINITE else 0
    return base - gsum(b) + max(a)


def phi0(b, ctx):
    return _phi0(b, ctx, alist(b))


def eps0(b, ctx):
    a = alist(b)
    return _phi0(b, ctx, a) - a[5]


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

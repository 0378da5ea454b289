"""A2 tableau crystal, the distinguished {0,1}-highest elements of B_l,
the full {0,1}-decomposition, and the closed-form coordinate tables for
iterated lowering words together with their exhaustive verification.

A2Tab(j0, j1, p, q, r) stands for the element obtained from the highest
weight vector of the A2 crystal with highest weight j0*L0 + j1*L1 by
applying f0^p, then f1^q, then f0^r, subject to condition (C):
0 <= p <= j0, p <= q <= j1 + p, 0 <= r <= j0 + q - 2p.
"""

from dataclasses import dataclass

from . import affine as af
from . import tensorcat as tc
from .g2crystal import pos


@dataclass(frozen=True)
class A2Tab:
    j0: int
    j1: int
    p: int
    q: int
    r: int

    def __post_init__(self):
        if not tab_condition(self.j0, self.j1, self.p, self.q, self.r):
            raise ValueError(f"condition (C) violated: {self}")


def tab_condition(j0, j1, p, q, r):
    return 0 <= p <= j0 and p <= q <= j1 + p and 0 <= r <= j0 + q - 2 * p


def a2_elements(j0, j1):
    out = []
    for p in range(j0 + 1):
        for q in range(p, j1 + p + 1):
            for r in range(j0 + q - 2 * p + 1):
                out.append(A2Tab(j0, j1, p, q, r))
    return out


def a2_dim(j0, j1):
    return (1 + j0) * (1 + j1) * (2 + j0 + j1) // 2


def a2_e0(t):
    if t.r > 0:
        return A2Tab(t.j0, t.j1, t.p, t.q, t.r - 1)
    return None


def a2_f0(t):
    if t.r < t.j0 + t.q - 2 * t.p:
        return A2Tab(t.j0, t.j1, t.p, t.q, t.r + 1)
    return None


def a2_e1(t):
    if t.p - t.q + t.r >= 0:
        if t.p > 0:
            return A2Tab(t.j0, t.j1, t.p - 1, t.q - 1, t.r + 1)
        return None
    return A2Tab(t.j0, t.j1, t.p, t.q - 1, t.r)


def a2_f1(t):
    if t.p <= t.q < t.p + t.r:
        return A2Tab(t.j0, t.j1, t.p + 1, t.q + 1, t.r - 1)
    if t.q < t.j1 + t.p:
        return A2Tab(t.j0, t.j1, t.p, t.q + 1, t.r)
    return None


def a2_eps_phi(t):
    eps0 = t.r
    phi0 = t.j0 - 2 * t.p + t.q - t.r
    eps1 = t.p + pos(t.q - t.p - t.r)
    phi1 = pos(t.p - t.q + t.r) + t.j1 + t.p - t.q
    return (eps0, eps1, phi0, phi1)


def a2_raise(t):
    """(p', q', r') such that e0^r' e1^q' e0^p' lowest = t."""
    return (t.j1 - t.q + t.p, t.j0 + t.j1 - t.q, t.j0 + t.q - 2 * t.p - t.r)


# ---------------------------------------------------------------------------
# distinguished {0,1}-highest representatives in B_l


def component_indices(l):
    """All (i, j0, j1) indexing the {0,1}-components of B_l."""
    out = []
    for i in range(l // 2 + 1):
        for j0 in range(i, l - i + 1):
            if (j0 - (l - i)) % 3:
                continue
            for j1 in range(i, l - i + 1):
                if (j1 - (l - i)) % 3:
                    continue
                out.append((i, j0, j1))
    return out


def bbar(l, i, j0, j1):
    """The {0,1}-highest element of the (l, i, j0, j1) component."""
    if not (0 <= i <= l // 2 and i <= j0 <= l - i and i <= j1 <= l - i):
        raise ValueError(f"invalid component index ({l},{i},{j0},{j1})")
    if (j0 - (l - i)) % 3 or (j1 - (l - i)) % 3:
        raise ValueError(f"invalid component index ({l},{i},{j0},{j1})")
    y0 = (l - i - j0) // 3
    y1 = (l - i - j1) // 3
    if j0 <= j1:
        return (0, y1, -2 * y1 + 3 * y0 + i, y0 + i, y0 + j0, 0)
    return (0, y0, y0 + i, 2 * y1 - y0 + i, -y1 + 2 * y0 + j0, 0)


def nonneg_f(color, b):
    """f_color on the unbounded nonnegative crystal; None where undefined."""
    return af.apply_op("f", color, b, af.NONNEG)


def table_f(table):
    """f_color on the indices of a LevelTable; None where undefined."""
    def step(color, a):
        a = table.f[color][a]
        return a if a >= 0 else None
    return step


def lower_pqr(x, p, q, r, step=nonneg_f):
    """f0^r f1^q f0^p applied to x by step(color, x), or None once a step
    is undefined."""
    for color, count in ((0, p), (1, q), (0, r)):
        for _ in range(count):
            x = step(color, x)
            if x is None:
                return None
    return x


# ---------------------------------------------------------------------------
# decomposition of B_l under {0,1}-arrows


class DecompositionError(AssertionError):
    pass


def decompose(l):
    """The {0,1}-decomposition of B_l, read from its cached LevelTable only.
    For each index triple (i, j0, j1), B(j0,j1) maps into B_l by
    t(p,q,r) -> f0^r f1^q f0^p bbar(l,i,j0,j1), defined and injective, and
    eps, phi and the e0, f0, e1, f1 arrows transfer along the map.

    That decides the partition.  Each image is f-connected from bbar and,
    by the arrow transfer, closed under e0, f0, e1 and f1, so it is exactly
    one {0,1}-component; by the eps transfer bbar is its only
    {0,1}-highest element.  Images that are pairwise disjoint and cover B_l
    are then all the components, one per index triple.

    Returns a list of dicts {i, j0, j1, size, highest} sorted by index.
    """
    table = tc.level_crystal(l)
    owner = {}
    result = []
    for (i, j0, j1) in component_indices(l):
        image = _component_image(table, l, i, j0, j1)
        _check_transfer(table, l, i, j0, j1, image)
        name = f"({l},{i},{j0},{j1})"
        for a in image.values():
            if a in owner:
                raise DecompositionError(
                    f"{name} and {owner[a]} share {table.elements[a]}")
            owner[a] = name
        result.append({"i": i, "j0": j0, "j1": j1, "size": len(image),
                       "highest": bbar(l, i, j0, j1)})
    if len(owner) != len(table.elements):
        raise DecompositionError(
            f"the components of B_{l} cover {len(owner)} of its "
            f"{len(table.elements)} elements")
    return result


def _component_image(table, l, i, j0, j1):
    """The map t(p,q,r) -> f0^r f1^q f0^p bbar(l,i,j0,j1) from the A2 crystal
    B(j0,j1) to the indices of the B_l table; every image must be defined
    and the map injective."""
    start, step = table.index[bbar(l, i, j0, j1)], table_f(table)
    image = {}
    seen = set()
    for t in a2_elements(j0, j1):
        a = lower_pqr(start, t.p, t.q, t.r, step)
        if a is None:
            raise DecompositionError(f"({l},{i},{j0},{j1}): image of {t} undefined")
        if a in seen:
            raise DecompositionError(f"({l},{i},{j0},{j1}): map not injective at {t}")
        seen.add(a)
        image[t] = a
    return image


def _check_transfer(table, l, i, j0, j1, image):
    """eps0, eps1, phi0, phi1 and the e0, f0, e1, f1 arrows of B(j0,j1)
    transfer along image to those of the B_l table (-1 where an arrow is
    undefined), so image is a {0,1}-crystal isomorphism onto its range."""
    eps, phi = table.eps, table.phi
    arrows = (("e0", table.e[0], a2_e0), ("f0", table.f[0], a2_f0),
              ("e1", table.e[1], a2_e1), ("f1", table.f[1], a2_f1))
    for t, a in image.items():
        e0v, e1v, p0v, p1v = a2_eps_phi(t)
        if (eps[0][a], eps[1][a]) != (e0v, e1v):
            raise DecompositionError(f"({l},{i},{j0},{j1}): eps mismatch at {t}")
        if (phi[0][a], phi[1][a]) != (p0v, p1v):
            raise DecompositionError(f"({l},{i},{j0},{j1}): phi mismatch at {t}")
        for name, targets, op in arrows:
            tt = op(t)
            if targets[a] != (-1 if tt is None else image[tt]):
                raise DecompositionError(
                    f"({l},{i},{j0},{j1}): {name} arrow mismatch at {t}"
                )


# ---------------------------------------------------------------------------
# closed-form coordinate tables (verified against iterated lowering)


def table_a(l, i, j0, j1, p, q):
    """All matching closed forms for f1^q f0^p bbar (j0 <= j1 required)."""
    if j0 > j1:
        raise ValueError("table A requires j0 <= j1")
    y0 = (l - i - j0) // 3
    y1 = (l - i - j1) // 3
    out = []
    if 0 <= p <= i:
        if 0 <= q <= j0 - i + p:
            out.append((p, y1, 3 * y0 - 2 * y1 + i - p, y0 + i - p, y0 + j0 - q, q))
        if j0 - i + p <= q <= j1:
            out.append((p, y1, 3 * y0 - 2 * y1 - q + j0,
                        y0 + 2 * i - 2 * p + q - j0, y0 + i - p, j0 - i + p))
        if j1 <= q <= j1 + p:
            out.append((p - q + j1, y1 + q - j1, y1,
                        y0 + 2 * i - 2 * p + j1 - j0, y0 + i - p, j0 - i + p))
    if i <= p <= j0:
        if 0 <= q <= j0 - p + i:
            out.append((i, y1, 2 * p - 2 * i + 3 * y0 - 2 * y1, y0,
                        y0 + j0 - p + i - q, q))
        if j0 - p + i <= q <= p - i + j1:
            out.append((i, y1, 3 * y0 - 2 * y1 - i + j0 + p - q,
                        y0 + q - j0 + p - i, y0, j0 - p + i))
        if p - i + j1 <= q <= j1 + p:
            out.append((p + j1 - q, y1 + q - p + i - j1, y1,
                        2 * p - 2 * i + j1 - j0 + y0, y0, j0 - p + i))
    return out


def table_b(l, i, j1, p, q, r):
    """All matching closed forms for f0^r f1^q f0^p bbar with j0 = i."""
    y0 = (l - 2 * i) // 3
    y1 = (l - i - j1) // 3
    out = []
    if p <= i and p <= q and r <= i + q - 2 * p:
        case_i = (p + r, y1, j1 + y1 - q - r, y0 + i - 2 * p + q - r, y0 + i - p, p)
        case_iii = (j1 + p - q, y1 - j1 + q + r, y1,
                    y0 + j1 + i - 2 * p - 2 * r, y0 + i - p, p)
        # fractional bounds are compared after clearing denominators
        if 2 * q <= 2 * p + (j1 - i) and 0 <= r <= i + q - 2 * p:
            out.append(case_i)
        if 2 * p + (j1 - i) <= 2 * q <= 2 * j1 and 0 <= r <= j1 - q:
            out.append(case_i)
        if 2 * p + (j1 - i) <= 2 * q and 3 * q <= 3 * p + 2 * (j1 - i) \
                and j1 - q <= r <= i + q - 2 * p:
            out.append(case_iii)
        if 3 * p + 2 * (j1 - i) <= 3 * q <= 3 * j1 and j1 - q <= r \
                and 3 * r <= 3 * (i - p) + 2 * (j1 - i):
            out.append(case_iii)
        if 3 * p + 2 * (j1 - i) <= 3 * q <= 3 * j1 \
                and 3 * (i - p) + 2 * (j1 - i) <= 3 * r <= 3 * (i + q - 2 * p):
            out.append((j1 + p - q, 2 * y1 - y0 - p + q,
                        2 * y0 - y1 - 2 * j1 + 2 * p + 2 * r, y1,
                        y1 + j1 + i - 2 * p - r, p))
        if j1 <= q <= j1 + p and 3 * r <= 3 * (i - p) + 2 * (j1 - i):
            out.append(case_iii)
        if j1 <= q <= j1 + p and 3 * (i - p) + 2 * (j1 - i) <= 3 * r \
                and r <= j1 + i - 2 * p:
            out.append((j1 + p - q, 2 * y1 - y0 - p + q,
                        2 * y1 - y0 - j1 - i + 2 * p + 2 * r, y1,
                        y1 + j1 + i - 2 * p - r, p))
        if j1 <= q <= j1 + p and j1 + i - 2 * p <= r <= i + q - 2 * p:
            out.append((j1 + p - q, 2 * y1 - y0 - p + q, 2 * y1 - y0 + r,
                        y1 - j1 - i + 2 * p + r, y1, j1 + i - p - r))
    if p <= i and p <= q and r >= i + q - 2 * p:
        if p <= q and 2 * q <= 2 * p + (j1 - i):
            out.append((p + r, y1, y1 + j1 - i + 2 * p - 2 * q, y0, y0 + i - p, p))
        if 2 * p + (j1 - i) <= 2 * q and 3 * q <= 3 * p + 2 * (j1 - i):
            out.append((j1 - i + 3 * p - 2 * q + r, y1 - j1 + i - 2 * p + 2 * q, y1,
                        y0 + j1 - i + 2 * p - 2 * q, y0 + i - p, p))
        if 3 * p + 2 * (j1 - i) <= 3 * q <= 3 * j1:
            out.append((j1 - i + 3 * p - 2 * q + r, 2 * y1 - y0 - p + q,
                        2 * y0 - y1 - 2 * j1 + 2 * i - 2 * p + 2 * q, y1,
                        y1 + j1 - q, p))
        if j1 <= q <= j1 + p:
            out.append((j1 - i + 3 * p - 2 * q + r, 2 * y1 - y0 - p + q,
                        2 * y1 - y0 + i + q - 2 * p, y1 - j1 + q, y1, j1 + p - q))
    return out


def table_c(l, i, j0, j1, q, r):
    """All matching closed forms for f0^r f1^q f0^{j0} bbar (j0 <= j1)."""
    if j0 > j1:
        raise ValueError("table C requires j0 <= j1")
    y0 = (l - i - j0) // 3
    y1 = (l - i - j1) // 3
    out = []
    if 0 <= q <= i:
        out.append((i + r, y1, y1 + j0 + j1 - 2 * i, y0, y0 + i - q, q))
    if i <= q <= j0:
        out.append((i + r, y1, y1 + j0 + j1 - i - q, y0 - i + q, y0, i))
    case_iii = (j0 + j1 - q, y1 - j0 - j1 + i + q + r, y1,
                y0 + j0 + j1 - 2 * i - 2 * r, y0, i)
    case_v = (j0 + j1 - q, 2 * y1 - y0 - j0 + q, 2 * y0 - y1 - 2 * j1 + 2 * i + 2 * r,
              y1, y1 + j1 - i - r, i)
    if j0 <= q <= j0 + j1 - i:
        cond_i = (2 * q <= 2 * j0 + (j1 - i) and 0 <= r <= q - j0) or \
                 (2 * j0 + (j1 - i) <= 2 * q and 0 <= r <= j0 + j1 - i - q)
        if cond_i:
            out.append((i + r, y1, y1 + j0 + j1 - i - q - r, y0 - i + q - r, y0, i))
        if 2 * q <= 2 * j0 + (j1 - i) and r >= q - j0:
            out.append((i + r, y1, y1 + 2 * j0 + j1 - i - 2 * q, y0 + j0 - i, y0, i))
        cond_iii = (2 * j0 + (j1 - i) <= 2 * q and 3 * q <= 4 * j0 + 2 * j1 - 3 * i
                    and j0 + j1 - i - q <= r <= q - j0) or \
                   (4 * j0 + 2 * j1 - 3 * i <= 3 * q and j0 + j1 - i - q <= r
                    and 3 * r <= j0 + 2 * j1 - 3 * i)
        if cond_iii:
            out.append(case_iii)
        if 2 * j0 + (j1 - i) <= 2 * q and 3 * q <= 4 * j0 + 2 * j1 - 3 * i \
                and r >= q - j0:
            out.append((2 * j0 + j1 - 2 * q + r, y1 - 2 * j0 - j1 + i + 2 * q, y1,
                        y0 + 3 * j0 + j1 - 2 * i - 2 * q, y0, i))
        if 4 * j0 + 2 * j1 - 3 * i <= 3 * q and q <= j0 + j1 - i \
                and j0 + 2 * j1 - 3 * i <= 3 * r and r <= q - j0:
            out.append(case_v)
        if 4 * j0 + 2 * j1 - 3 * i <= 3 * q and q <= j0 + j1 - i and r >= q - j0:
            out.append((2 * j0 + j1 - 2 * q + r, 2 * y1 - y0 - j0 + q,
                        2 * y0 - y1 - 2 * j0 - 2 * j1 + 2 * i + 2 * q, y1,
                        y1 + j0 + j1 - i - q, i))
    if j0 + j1 - i <= q <= j0 + j1:
        if 3 * r <= j0 + 2 * j1 - 3 * i:
            out.append(case_iii)
        if j0 + 2 * j1 - 3 * i <= 3 * r and r <= j1 - i:
            out.append(case_v)
        if j1 - i <= r <= q - j0:
            out.append((j0 + j1 - q, 2 * y1 - y0 - j0 + q, 2 * y0 - y1 - j1 + i + r,
                        y1 - j1 + i + r, y1, j1 - r))
        if r >= q - j0:
            out.append((2 * j0 + j1 - 2 * q + r, 2 * y1 - y0 - j0 + q,
                        2 * y0 - y1 - j0 - j1 + i + q, y1 - j0 - j1 + i + q, y1,
                        j0 + j1 - q))
    return out


def table_d(l, i, j0, j1, p, q):
    """All matching closed forms for f0^{j0+q-2p} f1^q f0^p bbar (j0 <= j1)."""
    if j0 > j1:
        raise ValueError("table D requires j0 <= j1")
    y0 = (l - i - j0) // 3
    y1 = (l - i - j1) // 3
    out = []
    u = q - p + i
    if 0 <= p <= i:
        if i <= u and 2 * u <= j0 + j1:
            out.append((i - p + q, y1, y1 + j0 + j1 - 2 * i + 2 * p - 2 * q, y0,
                        y0 + i - p, p))
        if j0 + j1 <= 2 * u and 3 * u <= j0 + 2 * j1:
            out.append((j0 + j1 - i + p - q, y1 - j0 - j1 + 2 * i - 2 * p + 2 * q, y1,
                        y0 + j0 + j1 - 2 * i + 2 * p - 2 * q, y0 + i - p, p))
        if 3 * u >= j0 + 2 * j1 and q <= j1:
            out.append((j0 + j1 - i + p - q, 2 * y1 - y0 - j0 + i - p + q,
                        2 * y0 - y1 - 2 * j1 + 2 * i - 2 * p + 2 * q, y1,
                        y1 + j1 - q, p))
        if j1 <= q <= j1 + p:
            out.append((j0 + j1 - i + p - q, 2 * y1 - y0 - j0 + i - p + q,
                        2 * y1 - y0 - j0 + 2 * i - 2 * p + q, y1 - j1 + q, y1,
                        j1 + p - q))
    if i <= p <= j0:
        if 2 * p <= 2 * q and 2 * q <= j0 + j1 + p - i:
            out.append((i - p + q, y1, y1 + j0 + j1 - i + p - 2 * q, y0 - i + p, y0, i))
        if 2 * q >= j0 + j1 + p - i and 3 * u <= j0 + 2 * j1:
            out.append((j0 + j1 - q, y1 - j0 - j1 + i - p + 2 * q, y1,
                        y0 + j0 + j1 - 2 * i + 2 * p - 2 * q, y0, i))
        if j0 + 2 * j1 <= 3 * u and u <= j1:
            out.append((j0 + j1 - q, 2 * y1 - y0 - j0 + q,
                        2 * y0 - y1 - 2 * j1 + 2 * i - 2 * p + 2 * q, y1,
                        y1 + j1 - i + p - q, i))
        if j1 <= u <= j1 + i:
            out.append((j0 + j1 - q, 2 * y1 - y0 - j0 + q,
                        2 * y0 - y1 - j1 + i - p + q, y1 - j1 + i - p + q, y1,
                        j1 + p - q))
    return out


def verify_lemmas(l_max):
    """Exhaustive check of the operator identities; returns counts."""
    return {
        "onion": verify_onion(l_max),
        "comm": verify_comm(l_max),
        "invol2": verify_invol2(l_max),
        "step2": verify_step2_relations(l_max),
    }


def _oracle(l, i, j0, j1, p, q, r):
    return lower_pqr(bbar(l, i, j0, j1), p, q, r)


def verify_appendix(l_max, tables="ABCD"):
    """Check every closed form against iterated lowering on the unbounded
    nonnegative crystal.  In tables B and C, r runs three steps past its
    condition-(C) range.  Returns the number of parameter tuples checked;
    raises AssertionError with a full parameter dump on the first mismatch.
    """
    checked = 0
    for l in range(1, l_max + 1):
        for (i, j0, j1) in component_indices(l):
            if "A" in tables and j0 <= j1:
                for p in range(j0 + 1):
                    for q in range(j1 + p + 1):
                        forms = table_a(l, i, j0, j1, p, q)
                        checked += _compare("A", forms, l, i, j0, j1, p, q, 0)
            if "B" in tables and j0 == i:
                for p in range(i + 1):
                    for q in range(p, j1 + p + 1):
                        r_hi = i + q - 2 * p + 3
                        for r in range(r_hi + 1):
                            forms = table_b(l, i, j1, p, q, r)
                            checked += _compare("B", forms, l, i, i, j1, p, q, r)
            if "C" in tables and j0 <= j1:
                for q in range(j0 + j1 + 1):
                    for r in range(j0 + j1 + 4):
                        forms = table_c(l, i, j0, j1, q, r)
                        checked += _compare("C", forms, l, i, j0, j1, j0, q, r)
            if "D" in tables and j0 <= j1:
                for p in range(j0 + 1):
                    for q in range(p, j1 + p + 1):
                        r = j0 + q - 2 * p
                        forms = table_d(l, i, j0, j1, p, q)
                        checked += _compare("D", forms, l, i, j0, j1, p, q, r)
    return checked


def _compare(table, forms, l, i, j0, j1, p, q, r):
    want = _oracle(l, i, j0, j1, p, q, r)
    if not forms:
        raise AssertionError(
            f"table {table}: no case matches l={l} i={i} j0={j0} j1={j1} "
            f"p={p} q={q} r={r} (oracle gives {want})"
        )
    for x in forms:
        if x != want:
            raise AssertionError(
                f"table {table}: l={l} i={i} j0={j0} j1={j1} p={p} q={q} r={r}: "
                f"formula {x} != oracle {want}"
            )
    return 1


# ---------------------------------------------------------------------------
# operator identities on the unbounded crystal and on B_l


def verify_onion(l_max):
    """f0 f1^q f0^p bbar(l,i,j0,j1) = f1^(q-1) f0^p bbar(l-1,i,j0-1,j1-1)
    for i < j0 <= j1, p < j0, p < q <= j1 + p, on the unbounded crystal."""
    checked = 0
    for l in range(2, l_max + 1):
        for (i, j0, j1) in component_indices(l):
            if not (i < j0 <= j1):
                continue
            for p in range(j0):
                for q in range(p + 1, j1 + p + 1):
                    lhs = lower_pqr(bbar(l, i, j0, j1), p, q, 1)
                    rhs = lower_pqr(bbar(l - 1, i, j0 - 1, j1 - 1), p, q - 1, 0)
                    if lhs != rhs:
                        raise AssertionError(
                            f"onion fails at l={l} i={i} j0={j0} j1={j1} p={p} q={q}"
                        )
                    checked += 1
    return checked


def verify_comm(l_max):
    """f0 f1^q f0^p bbar = f1^q f0^(p+1) bbar for q <= p < j0 <= j1."""
    checked = 0
    for l in range(1, l_max + 1):
        for (i, j0, j1) in component_indices(l):
            if j0 > j1:
                continue
            for p in range(j0):
                for q in range(p + 1):
                    base = bbar(l, i, j0, j1)
                    lhs = lower_pqr(base, p, q, 1)
                    rhs = lower_pqr(base, p + 1, q, 0)
                    if lhs != rhs:
                        raise AssertionError(
                            f"comm fails at l={l} i={i} j0={j0} j1={j1} p={p} q={q}"
                        )
                    checked += 1
    return checked


def verify_invol2(l_max):
    """(f0^r f1^q f0^p bbar(j0,j1))^v = f0^r' f1^q' f0^p' bbar(j1,j0)
    in B_l, for j0 <= j1 and all (p,q,r) satisfying (C), walked on the
    B_l table."""
    checked = 0
    for l in range(1, l_max + 1):
        table = tc.level_crystal(l)
        el, step = table.elements, table_f(table)
        for (i, j0, j1) in component_indices(l):
            if j0 > j1:
                continue
            start = table.index[bbar(l, i, j0, j1)]
            swapped = table.index[bbar(l, i, j1, j0)]
            for t in a2_elements(j0, j1):
                lhs = lower_pqr(start, t.p, t.q, t.r, step)
                rhs = lower_pqr(swapped, *a2_raise(t), step)
                if lhs is None or rhs is None or af.involution(el[lhs]) != el[rhs]:
                    raise AssertionError(
                        f"invol2 fails at l={l} i={i} j0={j0} j1={j1} {t}"
                    )
                checked += 1
    return checked


def verify_step2_relations(l_max):
    """Relations (i')-(v') for the swapped-index components in B_l: for
    j0 <= j1 the map from B(j1,j0) onto the component (l,i,j1,j0) is defined
    everywhere and injective, and its eps/phi and four arrows transfer.
    (i') is definedness, (ii') and (iii') are the e0 and e1 arrows, (iv')
    and (v') are ends of the f0 and f1 strings.  decompose(l) runs exactly
    this check on every component and raises DecompositionError where it
    fails, so the count is the size of its rows with j0 >= j1.  Returns the
    number of elements checked."""
    return sum(row["size"] for l in range(1, l_max + 1)
               for row in decompose(l) if row["j0"] >= row["j1"])

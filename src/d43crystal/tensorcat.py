"""B_l as one indexed table, the tensor rule on index pairs of
B_l (x) B_l and its {1,2}-highest pairs, the deterministic walk joining
any element of B_l (x) B_l to phi (x) phi, and graph export.
"""

from collections import namedtuple
from functools import lru_cache
from types import MappingProxyType

from . import affine as af

PHI = (0, 0, 0, 0, 0, 0)
COLORS = (0, 1, 2)

# elements sorted, index: element -> position; f, e (target index, -1 where
# undefined), eps and phi are tuples indexed by color, then by position
LevelTable = namedtuple("LevelTable", "elements index f e eps phi")


@lru_cache(maxsize=None)
def level_crystal(l):
    """B_l as a LevelTable, built once per level."""
    ctx = af.LevelCtx.finite(l)
    elements = tuple(af.enumerate_Bl(l))
    index = {b: k for k, b in enumerate(elements)}

    def targets(kind, i):
        return tuple(-1 if nb is None else index[nb] for nb in
                     (af.apply_op(kind, i, b, ctx) for b in elements))

    return LevelTable(
        elements, MappingProxyType(index),
        tuple(targets("f", i) for i in COLORS),
        tuple(targets("e", i) for i in COLORS),
        tuple(tuple(af.eps(i, b, ctx) for b in elements) for i in COLORS),
        tuple(tuple(af.phi(i, b, ctx) for b in elements) for i in COLORS),
    )


def axiom_failure(table):
    """The first (axiom, color, element) at which the table breaks a
    crystal axiom, or None.  The axioms: f_i is defined exactly where
    phi_i > 0 and e_i exactly where eps_i > 0; e_i and f_i invert each
    other; one f_i step lowers phi_i by 1 and raises eps_i by 1.  They
    carry over to B_l (x) B_l by the tensor rule."""
    for i in COLORS:
        f, e, eps, phi = table.f[i], table.e[i], table.eps[i], table.phi[i]
        for a, b in enumerate(table.elements):
            if (f[a] >= 0) != (phi[a] > 0):
                return "f defined iff phi > 0", i, b
            if (e[a] >= 0) != (eps[a] > 0):
                return "e defined iff eps > 0", i, b
            if (f[a] >= 0 and e[f[a]] != a) or (e[a] >= 0 and f[e[a]] != a):
                return "e and f inverse", i, b
            if f[a] >= 0 and (phi[f[a]], eps[f[a]]) != (phi[a] - 1, eps[a] + 1):
                return "f step changes phi by -1 and eps by +1", i, b
    return None


# ---------------------------------------------------------------------------
# the tensor rule on index pairs


def tensor_f(table, i, a, b):
    """f_i on the pair (a, b) of B_l (x) B_l: it acts on a if
    phi_i(a) > eps_i(b), otherwise on b.  Returns an index pair or None."""
    if table.phi[i][a] > table.eps[i][b]:
        a = table.f[i][a]
    else:
        b = table.f[i][b]
    return None if a < 0 or b < 0 else (a, b)


def highest_pairs(table):
    """The pairs (a, b) with eps_i(a) = 0 and eps_i(b) <= phi_i(a), i = 1, 2.
    On a table that passes axiom_failure, exactly the pairs that no f_1/f_2
    arrow of tensor_f enters: one enters from (e_i a, b) iff eps_i(a) > 0 and
    phi_i(a) >= eps_i(b), and from (a, e_i b) iff phi_i(a) < eps_i(b)."""
    (_, eps1, eps2), (_, phi1, phi2) = table.eps, table.phi
    by_eps = {}
    for b, key in enumerate(zip(eps1, eps2)):
        by_eps.setdefault(key, []).append(b)
    return [(a, b) for a in range(len(eps1)) if eps1[a] == eps2[a] == 0
            for (e1, e2), bs in by_eps.items()
            if e1 <= phi1[a] and e2 <= phi2[a] for b in bs]


# ---------------------------------------------------------------------------
# the deterministic walk to phi (x) phi in B_l (x) B_l


def vacuum_walk(table, l, cur):
    """Return the list of (color, index pair) lowering steps taking the
    index pair cur of the B_l table to (phi, phi) in B_l (x) B_l.  Raises
    RuntimeError if the walk fails to terminate within 200 (l+1)^2 steps."""
    el = table.elements
    budget = 200 * (l + 1) ** 2
    steps = []

    def pairs(cur):
        return el[cur[0]], el[cur[1]]

    def lower(i, cur):
        cur = tensor_f(table, i, *cur)
        if cur is not None:
            steps.append((i, cur))
        return cur

    def saturate(cur):
        for _ in range(budget + 1):
            nxt = lower(1, cur) or lower(2, cur)
            if nxt is None:
                return cur
            cur = nxt
        raise RuntimeError("walk exceeded the step budget")

    cur = saturate(cur)
    # now the right factor is a string of barred ones
    right = el[cur[1]]
    m = right[5]
    if right != (0, 0, 0, 0, 0, m):
        raise RuntimeError(f"saturation did not reach a barred-one string: {pairs(cur)}")
    gamma = m + max(0, table.phi[0][cur[0]] - l + m)
    for _ in range(gamma):
        cur = lower(0, cur)
        if cur is None:
            raise RuntimeError("0-string ended early during the gamma step")
    if el[cur[1]] != PHI:
        raise RuntimeError(f"gamma step did not empty the right factor: {pairs(cur)}")
    cur = saturate(cur)
    left = el[cur[0]]
    mprime = left[5]
    if left != (0, 0, 0, 0, 0, mprime) or el[cur[1]] != PHI:
        raise RuntimeError(f"second saturation failed: {pairs(cur)}")
    for _ in range(mprime):
        cur = lower(0, cur)
        if cur is None:
            raise RuntimeError("final 0-steps ended early")
    if pairs(cur) != (PHI, PHI):
        raise RuntimeError(f"walk ended at {pairs(cur)}, not the vacuum")
    if len(steps) > budget:
        raise RuntimeError("walk exceeded the step budget")
    return steps


def connect_to_vacuum(l, pair):
    """vacuum_walk from the element pair pair, with its steps as (color,
    element pair)."""
    table = level_crystal(l)
    el, index = table.elements, table.index
    return [(i, (el[a], el[b])) for i, (a, b) in
            vacuum_walk(table, l, (index[pair[0]], index[pair[1]]))]


# ---------------------------------------------------------------------------
# graph export


def coord_label(b):
    return "(" + ",".join(str(v) for v in b) + ")"


def graph_edges(table, colors=COLORS):
    """Sorted (source, color, target) triples of f-arrows."""
    el = table.elements
    return sorted((el[a], i, el[t]) for i in colors
                  for a, t in enumerate(table.f[i]) if t >= 0)


def graph_json(table, colors=COLORS, label=coord_label):
    return {
        "schema": "crystal-graph/1",
        "nodes": [label(b) for b in table.elements],
        "edges": [
            {"source": label(a), "label": i, "target": label(b)}
            for a, i, b in graph_edges(table, colors)
        ],
    }


def graph_dot(table, colors=COLORS, label=coord_label, name="crystal"):
    lines = [f"digraph {name} {{"]
    for b in table.elements:
        lines.append(f'  "{label(b)}";')
    for a, i, b in graph_edges(table, colors):
        lines.append(f'  "{label(a)}" -> "{label(b)}" [label={i}];')
    lines.append("}")
    return "\n".join(lines) + "\n"

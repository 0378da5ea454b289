"""Tensor products of two crystals, connected components of colored graphs,
and the deterministic walk joining any element of B_l (x) B_l to
phi (x) phi.
"""

from collections import deque

from . import affine as af

PHI = (0, 0, 0, 0, 0, 0)


class Crystal:
    """A finite crystal presented by its element list and statistics.

    op(kind, i, b) returns an element or None; eps/phi are totals.
    """

    def __init__(self, elements, op, eps, phi, wt):
        self.elements = list(elements)
        self.op = op
        self.eps = eps
        self.phi = phi
        self.wt = wt


def level_crystal(l):
    ctx = af.LevelCtx.finite(l)
    return Crystal(
        af.enumerate_Bl(l),
        lambda kind, i, b: af.apply_op(kind, i, b, ctx),
        lambda i, b: af.eps(i, b, ctx),
        lambda i, b: af.phi(i, b, ctx),
        lambda b: af.weight(b, ctx),
    )


# ---------------------------------------------------------------------------
# tensor product of two crystals


def tensor_f(i, pair, c1, c2):
    b1, b2 = pair
    if c1.phi(i, b1) > c2.eps(i, b2):
        nb = c1.op("f", i, b1)
        return None if nb is None else (nb, b2)
    nb = c2.op("f", i, b2)
    return None if nb is None else (b1, nb)


def tensor_e(i, pair, c1, c2):
    b1, b2 = pair
    if c1.phi(i, b1) >= c2.eps(i, b2):
        nb = c1.op("e", i, b1)
        return None if nb is None else (nb, b2)
    nb = c2.op("e", i, b2)
    return None if nb is None else (b1, nb)


def tensor_eps(i, pair, c1, c2):
    b1, b2 = pair
    return c1.eps(i, b1) + max(0, c2.eps(i, b2) - c1.phi(i, b1))


def tensor_phi(i, pair, c1, c2):
    b1, b2 = pair
    return c2.phi(i, b2) + max(0, c1.phi(i, b1) - c2.eps(i, b2))


def tensor_crystal(c1, c2):
    elements = [(a, b) for a in c1.elements for b in c2.elements]

    def op(kind, i, pair):
        if kind == "f":
            return tensor_f(i, pair, c1, c2)
        return tensor_e(i, pair, c1, c2)

    return Crystal(
        elements,
        op,
        lambda i, pair: tensor_eps(i, pair, c1, c2),
        lambda i, pair: tensor_phi(i, pair, c1, c2),
        lambda pair: tuple(x + y for x, y in zip(c1.wt(pair[0]), c2.wt(pair[1]))),
    )


# ---------------------------------------------------------------------------
# connected components


def connected_components(crystal, colors=(0, 1, 2)):
    """Partition of the element set under undirected arrows of the given
    colors.  Returns a list of frozensets."""
    remaining = set(crystal.elements)
    comps = []
    while remaining:
        start = remaining.pop()
        comp = {start}
        queue = deque([start])
        while queue:
            b = queue.popleft()
            for kind in ("e", "f"):
                for i in colors:
                    nb = crystal.op(kind, i, b)
                    if nb is not None and nb not in comp:
                        comp.add(nb)
                        remaining.discard(nb)
                        queue.append(nb)
        comps.append(frozenset(comp))
    return comps


# ---------------------------------------------------------------------------
# the deterministic walk to phi (x) phi in B_l (x) B_l


def connect_to_vacuum(l, pair):
    """Return the list of (color, pair) lowering steps taking pair to
    (phi, phi) in B_l (x) B_l.  Raises if the walk fails to terminate
    within 200 (l+1)^2 steps."""
    c = level_crystal(l)
    steps = []

    def saturate(cur):
        while True:
            for i in (1, 2):
                nxt = tensor_f(i, cur, c, c)
                if nxt is not None:
                    steps.append((i, nxt))
                    cur = nxt
                    break
            else:
                return cur

    cur = saturate(pair)
    # now the right factor is a string of barred ones
    b, right = cur
    m = right[5]
    if right != (0, 0, 0, 0, 0, m):
        raise RuntimeError(f"saturation did not reach a barred-one string: {cur}")
    gamma = m + max(0, c.phi(0, b) - l + m)
    for _ in range(gamma):
        cur = tensor_f(0, cur, c, c)
        if cur is None:
            raise RuntimeError("0-string ended early during the gamma step")
        steps.append((0, cur))
    if cur[1] != PHI:
        raise RuntimeError(f"gamma step did not empty the right factor: {cur}")
    cur = saturate(cur)
    mprime = cur[0][5]
    if cur[0] != (0, 0, 0, 0, 0, mprime) or cur[1] != PHI:
        raise RuntimeError(f"second saturation failed: {cur}")
    for _ in range(mprime):
        cur = tensor_f(0, cur, c, c)
        if cur is None:
            raise RuntimeError("final 0-steps ended early")
        steps.append((0, cur))
    if cur != (PHI, PHI):
        raise RuntimeError(f"walk ended at {cur}, not the vacuum")
    if len(steps) > 200 * (l + 1) ** 2:
        raise RuntimeError("walk exceeded the step budget")
    return steps


# ---------------------------------------------------------------------------
# graph export


def coord_label(b):
    return "(" + ",".join(str(v) for v in b) + ")"


def pair_label(pair):
    return coord_label(pair[0]) + "*" + coord_label(pair[1])


def graph_edges(crystal, colors=(0, 1, 2)):
    """Sorted (source, color, target) triples of f-arrows."""
    edges = []
    for b in crystal.elements:
        for i in colors:
            nb = crystal.op("f", i, b)
            if nb is not None:
                edges.append((b, i, nb))
    edges.sort()
    return edges


def graph_json(crystal, colors=(0, 1, 2), label=coord_label):
    nodes = sorted(crystal.elements)
    return {
        "schema": "crystal-graph/1",
        "nodes": [label(b) for b in nodes],
        "edges": [
            {"source": label(a), "label": i, "target": label(b)}
            for a, i, b in graph_edges(crystal, colors)
        ],
    }


def graph_dot(crystal, colors=(0, 1, 2), label=coord_label, name="crystal"):
    lines = [f"digraph {name} {{"]
    for b in sorted(crystal.elements):
        lines.append(f'  "{label(b)}";')
    for a, i, b in graph_edges(crystal, colors):
        lines.append(f'  "{label(a)}" -> "{label(b)}" [label={i}];')
    lines.append("}")
    return "\n".join(lines) + "\n"

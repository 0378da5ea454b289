"""The limit crystal on all-integer coordinate tuples and the embeddings
from the shifted finite-level crystals that exhibit {B_l} as a coherent
family.  The limit crystal is B_l's operators and statistics in the FREE
level context.
"""

from itertools import product

from . import affine as af
from . import tensorcat as tc
from .g2crystal import gsum
from .perfectness import minimal_elements, eps_weight, phi_weight

B_INF = (0, 0, 0, 0, 0, 0)


def f_embed(l, b0, b):
    """Image of b in B_l under the embedding attached to the minimal
    element b0 = (alpha, beta, beta, beta, beta, alpha)."""
    alpha, beta = b0[0], b0[1]
    x1, x2, x3, x3b, x2b, x1b = b
    return (x1 - alpha, x2 - beta, x3 - beta, x3b - beta, x2b - beta,
            x1b - alpha)


def f_embed_inverse(l, b0, nu):
    """Preimage in B_l, or None when it falls outside."""
    alpha, beta = b0[0], b0[1]
    b = (nu[0] + alpha, nu[1] + beta, nu[2] + beta, nu[3] + beta,
         nu[4] + beta, nu[5] + alpha)
    return b if af.LevelCtx.finite(l).admits(b) else None


def verify_embedding(l, b0):
    """Commutation with all operators, matching statistics, injectivity.

    The shifted crystal T_lam (x) B_l (x) T_-mu, with lam = eps(b0) and
    mu = phi(b0), has the arrows of B_l and the statistics eps - lam,
    phi - mu and wt + lam - mu; these must be the limit crystal's at the
    image of each element.  The weight needs no check of its own: af.weight
    is phi - eps in every level context, so matching eps and phi match
    wt + lam - mu = (phi - mu) - (eps - lam) as well.  The B_l side is read
    from its LevelTable, the limit side computed in the FREE context."""
    if b0 not in minimal_elements(l):
        raise ValueError(f"{b0} is not minimal in B_{l}")
    ctx = af.LevelCtx.finite(l)
    lam, mu = eps_weight(b0, ctx), phi_weight(b0, ctx)
    table = tc.level_crystal(l)
    images = [f_embed(l, b0, b) for b in table.elements]
    preimage = {}
    for a, (b, nu) in enumerate(zip(table.elements, images)):
        if nu in preimage:
            return {"status": "fail", "reason": "not injective",
                    "elements": (preimage[nu], b)}
        preimage[nu] = b
        for i in tc.COLORS:
            if table.eps[i][a] - lam[i] != af.eps(i, nu, af.FREE):
                return {"status": "fail", "element": b, "color": i,
                        "reason": "eps"}
            if table.phi[i][a] - mu[i] != af.phi(i, nu, af.FREE):
                return {"status": "fail", "element": b, "color": i,
                        "reason": "phi"}
            for kind, targets in (("e", table.e[i]), ("f", table.f[i])):
                t = targets[a]
                if t >= 0 and images[t] != af.apply_op(kind, i, nu, af.FREE):
                    return {"status": "fail", "element": b, "color": i,
                            "reason": kind}
    if f_embed(l, b0, b0) != B_INF:
        return {"status": "fail", "reason": "b0 does not map to the origin"}
    return {"status": "pass", "elements": len(preimage)}


def verify_all_embeddings(l_max):
    report = {}
    for l in range(1, l_max + 1):
        for b0 in minimal_elements(l):
            r = verify_embedding(l, b0)
            report[(l, b0)] = r
            if r["status"] != "pass":
                return {"status": "fail", "at": (l, b0), "detail": r}
    return {"status": "pass", "embeddings": len(report)}


def cover_witness(nu, l_max):
    """Smallest l <= l_max such that nu is in the image of some embedding,
    with the first minimal element b0 of B_l whose image holds nu.

    nu + b0 has nonnegative coordinates exactly when alpha >= -nu1, -nu1b
    and beta >= -nu2, -nu3, -nu3b, -nu2b, and it lies in B_l when also
    gsum(nu) + 2 alpha + 3 beta <= l; b0 itself needs 2 alpha + 3 beta <= l.
    The smallest alpha and beta give the smallest l."""
    alpha = max(0, -nu[0], -nu[5])
    beta = max(0, -nu[1], -nu[2], -nu[3], -nu[4])
    l = max(1, 2 * alpha + 3 * beta + max(0, gsum(nu)))
    b0 = (alpha, beta, beta, beta, beta, alpha)
    if l <= l_max and f_embed_inverse(l, b0, nu) is not None:
        return (l, b0)
    return None


def _box(radius):
    """Parity-admissible integer tuples in the box [-radius, radius]^6."""
    rng = range(-radius, radius + 1)
    return (nu for nu in product(rng, repeat=6) if (nu[2] - nu[3]) % 2 == 0)


def verify_cover(radius):
    """Every parity-admissible integer tuple in the box [-radius, radius]^6
    lies in the image of some embedding with l <= l_max = 10 radius + 1,
    which bounds the witness level 2 alpha + 3 beta + gsum(nu) over the box
    (alpha <= radius, beta <= radius, gsum(nu) <= 5 radius)."""
    l_max = 10 * radius + 1
    checked = 0
    for nu in _box(radius):
        if cover_witness(nu, l_max) is None:
            return {"status": "fail", "element": nu, "l_max": l_max}
        checked += 1
    return {"status": "pass", "checked": checked, "l_max": l_max}


def verify_limit_point():
    """wt, eps and phi all vanish at the distinguished element."""
    ok = af.weight(B_INF, af.FREE) == (0, 0, 0) and all(
        af.eps(i, B_INF, af.FREE) == 0 and af.phi(i, B_INF, af.FREE) == 0
        for i in range(3))
    return {"status": "pass" if ok else "fail"}


def verify_totality(radius=3):
    """Operators never die on the limit crystal and invert each other, at
    every point of the box and every color; "checked" counts the pairs."""
    op, free = af.apply_op, af.FREE
    checked = 0
    for nu in _box(radius):
        for i in tc.COLORS:
            down = op("f", i, nu, free)
            up = op("e", i, nu, free)
            if down is None or up is None:
                return {"status": "fail", "element": nu, "color": i,
                        "reason": "operator undefined"}
            if op("e", i, down, free) != nu:
                return {"status": "fail", "element": nu, "color": i,
                        "reason": "e.f != id"}
            if op("f", i, up, free) != nu:
                return {"status": "fail", "element": nu, "color": i,
                        "reason": "f.e != id"}
        checked += len(tc.COLORS)
    return {"status": "pass", "checked": checked}

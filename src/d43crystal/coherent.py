"""The limit crystal on all-integer coordinate tuples and the embeddings
from the shifted finite-level crystals that exhibit {B_l} as a coherent
family.
"""

from . import affine as af
from . import tensorcat as tc
from .perfectness import minimal_elements, eps_weight, phi_weight

B_INF = (0, 0, 0, 0, 0, 0)


def inf_op(kind, i, b):
    """Operators on the limit crystal; always defined."""
    nb = af.apply_op(kind, i, b, af.FREE)
    assert nb is not None
    return nb


def inf_eps(i, b):
    return af.eps(i, b, af.FREE)


def inf_phi(i, b):
    return af.phi(i, b, af.FREE)


def inf_weight(b):
    return af.weight(b, af.FREE)


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


def shifted_level_crystal(l, b0):
    """T_{eps(b0)} (x) B_l (x) T_{-phi(b0)} as a Crystal."""
    ctx = af.LevelCtx.finite(l)
    lam = eps_weight(b0, ctx)
    mu = tuple(-v for v in phi_weight(b0, ctx))
    return tc.shift_crystal(lam, mu, tc.level_crystal(l))


def verify_embedding(l, b0):
    """Commutation with all operators, matching statistics, injectivity."""
    if b0 not in minimal_elements(l):
        raise ValueError(f"{b0} is not minimal in B_{l}")
    shifted = shifted_level_crystal(l, b0)
    images = {}
    for b in shifted.elements:
        nu = f_embed(l, b0, b)
        if nu in images:
            return {"status": "fail", "reason": "not injective",
                    "elements": (images[nu], b)}
        images[nu] = b
        if shifted.wt(b) != inf_weight(nu):
            return {"status": "fail", "element": b, "reason": "weight"}
        for i in range(3):
            if shifted.eps(i, b) != inf_eps(i, nu):
                return {"status": "fail", "element": b, "color": i,
                        "reason": "eps"}
            if shifted.phi(i, b) != inf_phi(i, nu):
                return {"status": "fail", "element": b, "color": i,
                        "reason": "phi"}
            for kind in ("e", "f"):
                nb = shifted.op(kind, i, b)
                if nb is not None and f_embed(l, b0, nb) != inf_op(kind, i, nu):
                    return {"status": "fail", "element": b, "color": i,
                            "reason": kind}
    if f_embed(l, b0, b0) != B_INF:
        return {"status": "fail", "reason": "b0 does not map to the origin"}
    return {"status": "pass", "elements": len(images)}


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
    """Smallest l <= l_max such that nu is in the image of some embedding."""
    for l in range(1, l_max + 1):
        for b0 in minimal_elements(l):
            if f_embed_inverse(l, b0, nu) is not None:
                return (l, b0)
    return None


def verify_cover(radius, l_max=None):
    """Every parity-admissible integer tuple in the box [-radius, radius]^6
    lies in the image of some embedding with l <= l_max."""
    if l_max is None:
        l_max = 10 * radius + 1
    rng = range(-radius, radius + 1)
    checked = 0
    for nu1 in rng:
        for nu2 in rng:
            for nu3 in rng:
                for nu3b in rng:
                    if (nu3 - nu3b) % 2:
                        continue
                    for nu2b in rng:
                        for nu1b in rng:
                            nu = (nu1, nu2, nu3, nu3b, nu2b, nu1b)
                            if cover_witness(nu, l_max) is None:
                                return {"status": "fail", "element": nu,
                                        "l_max": l_max}
                            checked += 1
    return {"status": "pass", "checked": checked, "l_max": l_max}


def verify_limit_point():
    """wt, eps and phi all vanish at the distinguished element."""
    ok = inf_weight(B_INF) == (0, 0, 0) and all(
        inf_eps(i, B_INF) == 0 and inf_phi(i, B_INF) == 0 for i in range(3))
    return {"status": "pass" if ok else "fail"}


def verify_totality(radius=3):
    """Operators never die on the limit crystal and invert each other."""
    rng = range(-radius, radius + 1)
    for nu1 in rng:
        for nu2 in rng:
            for nu3 in rng:
                for nu3b in rng:
                    if (nu3 - nu3b) % 2:
                        continue
                    for nu2b in rng:
                        for nu1b in rng:
                            nu = (nu1, nu2, nu3, nu3b, nu2b, nu1b)
                            for i in range(3):
                                down = inf_op("f", i, nu)
                                up = inf_op("e", i, nu)
                                if inf_op("e", i, down) != nu:
                                    return {"status": "fail", "element": nu,
                                            "color": i, "reason": "e.f != id"}
                                if inf_op("f", i, up) != nu:
                                    return {"status": "fail", "element": nu,
                                            "color": i, "reason": "f.e != id"}
    return {"status": "pass"}

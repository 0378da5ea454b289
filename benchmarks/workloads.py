"""The four benchmark workloads, their seeded inputs and known answers.

Each workload has a set-up step, which builds the inputs that stay fixed
while the verdict is timed, and a verdict step, which calls the public
functions of d43crystal and compares every result with a known answer.
Only the standard library and d43crystal are imported.

Why these workloads:

- rmatrix-exact: the exact kernel (p_gcd/p_divexact behind QRat) does
  nearly all the work of the module and R-matrix proofs.
- ybe-sampled: the same R-matrix layer evaluated at rational points with
  Fraction arithmetic and 512-dimensional sparse products; build_R is
  set-up, so a kernel change moves setup_s here but not verdict_s.
- crystal-perfect: graph traversal of B_5 (x) B_5 and vacuum walks; memory
  goes to the visited set and the exact kernel is not used.
- crystal-coherent: the same crystal operators applied one element at a
  time, with no tensor product; the only workload covering coherent and
  a2branch.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction

from d43crystal import a2branch, affine, coherent, fundrep, perfectness
from d43crystal import rmatrix, tensorcat


@dataclass(frozen=True)
class Scale:
    """Input sizes of the crystal and sampling workloads, with the known
    answers that go with them.  The R-matrix proofs have no size."""

    p1_level: int
    perfect_lmax: int
    walk_level: int
    walks: int
    embed_lmax: int
    box: int
    decompose_lmax: int
    appendix_lmax: int
    lemma_lmax: int
    ybe_points: int
    p1_vertices: int
    embeddings: int
    appendix_tuples: int
    lemma_counts: dict = field(hash=False)

    @property
    def cover_points(self):
        """Parity-admissible tuples in [-box, box]^6: the four free
        coordinates times the (nu3, nu3b) pairs of equal parity."""
        return (2 * self.box + 1) ** 4 * ((self.box + 1) ** 2 + self.box ** 2)


SCALES = {
    "full": Scale(
        p1_level=5, perfect_lmax=6, walk_level=4, walks=100, embed_lmax=6,
        box=3, decompose_lmax=6, appendix_lmax=6, lemma_lmax=5, ybe_points=12,
        p1_vertices=672 ** 2, embeddings=22, appendix_tuples=3402,
        lemma_counts={"onion": 111, "comm": 74, "invol2": 960, "step2": 960},
    ),
    # the self-test size: l = 2, box 1, one YBE point
    "tiny": Scale(
        p1_level=2, perfect_lmax=2, walk_level=2, walks=3, embed_lmax=2,
        box=1, decompose_lmax=2, appendix_lmax=2, lemma_lmax=2, ybe_points=1,
        p1_vertices=35 ** 2, embeddings=3, appendix_tuples=135,
        lemma_counts={"onion": 4, "comm": 5, "invol2": 43, "step2": 43},
    ),
}

# known answers of the R-matrix layer, which do not depend on the scale
RELATIONS = 48          # t-commutation, t-conjugation, [e, f] and q-Serre
FREE_DIM = 1            # the invariant form is unique up to scale
LOWERING = 14           # lowering identities of the seven components
GENERATORS = 9          # e_i, f_i, t_i for i = 0, 1, 2
DETERMINANTS = 2        # det_L1 and det_0
R_NNZ = 342             # nonzero entries of the assembled R
COMPONENT_DIMS = dict(rmatrix.EXPECTED_DIMS)
VACUUM = (0, 0, 0, 0, 0, 0)


class Checks:
    """Known-answer comparisons of one run.  expect_some fails on a zero
    count or an empty list whatever the known answer, so a run that checks
    nothing cannot pass."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, name, got, want):
        self.attempted += 1
        if got != want:
            self.failures.append({"check": name, "got": repr(got),
                                  "want": repr(want)})

    def expect_some(self, name, got, want):
        self.expect(name, got, want if got else "a nonzero count")


# ---------------------------------------------------------------------------
# seeded inputs

# magnitudes (q, x, y, z) of small height: |q| != 1, so 1 + q^2 and 1 - q^4
# (the R denominators) do not vanish; x, y, z are nonzero and no two are
# equal or reciprocal, so they stay pairwise distinct under sign and inversion
YBE_BASES = [tuple(map(Fraction, b)) for b in (
    ("2", "1", "2", "3"), ("3", "1", "3", "7"), ("3/2", "2", "5", "9"),
    ("5/3", "3", "4", "11"), ("7/4", "1", "5/2", "4"), ("5/2", "2", "7/3", "5"),
    ("4/3", "1", "2", "3"), ("7/3", "1", "3", "7"), ("5/4", "2", "5", "9"),
    ("7/5", "3", "4", "11"), ("8/3", "1", "5/2", "4"), ("9/4", "2", "7/3", "5"),
)]


def ybe_points(rng, n):
    """The first n of YBE_BASES, each with seeded signs, seeded inversions
    and a seeded order of x, y, z.  Every seed thus checks other points of
    the same heights, so the cost per seed stays steady."""
    points = []
    for base in YBE_BASES[:n]:
        q, *xyz = (c ** rng.choice((1, -1)) * rng.choice((1, -1)) for c in base)
        rng.shuffle(xyz)
        points.append((q, *xyz))
    return points


def walk_pairs(rng, level, n):
    """n start pairs in B_level (x) B_level, none of them the vacuum."""
    elements = affine.enumerate_Bl(level)
    pairs = []
    while len(pairs) < n:
        pair = (rng.choice(elements), rng.choice(elements))
        if pair != (VACUUM, VACUUM):
            pairs.append(pair)
    return pairs


# ---------------------------------------------------------------------------
# rmatrix-exact


def rmatrix_exact_setup(scale, rng):
    return {}


def rmatrix_exact(inputs, scale, checks):
    rep = fundrep.build_v1()
    rels = fundrep.check_defining_relations(rep)
    checks.expect_some("relations.held", sum(rels.values()), RELATIONS)
    checks.expect("relations.total", len(rels), RELATIONS)
    gram, free_dim = fundrep.build_polarization(rep)
    checks.expect("polarization.free_dim", free_dim, FREE_DIM)
    checks.expect("polarization.adjoint", fundrep.check_polarization(rep, gram),
                  True)
    lowering = fundrep.verify_lowering_identities(rep)
    checks.expect_some("lowering.held", sum(lowering.values()), LOWERING)
    comps = rmatrix.build_components(rep)
    checks.expect("components.dims",
                  {label: len(basis) for label, basis in comps.items()},
                  COMPONENT_DIMS)
    R = rmatrix.build_R(rep, comps)
    checks.expect_some("R.nnz", sum(len(col) for col in R.cols), R_NNZ)
    inter = rmatrix.verify_intertwiner(R, rep)
    checks.expect_some("intertwiner.held", sum(inter.values()), GENERATORS)
    checks.expect("vacuum_eigenvalue", rmatrix.vacuum_eigenvalue(R),
                  rmatrix.a_2L1())
    dets = rmatrix.verify_determinants()
    checks.expect_some("determinants.held", sum(dets.values()), DETERMINANTS)
    checks.expect("R_Rswap_scalar", rmatrix.verify_R_Rswap_scalar(R), True)


# ---------------------------------------------------------------------------
# ybe-sampled


def ybe_sampled_setup(scale, rng):
    rep = fundrep.build_v1()
    R = rmatrix.build_R(rep, rmatrix.build_components(rep))
    return {"R": R, "points": ybe_points(rng, scale.ybe_points)}


def ybe_sampled(inputs, scale, checks):
    checks.expect_some("R.nnz", sum(len(col) for col in inputs["R"].cols), R_NNZ)
    result = rmatrix.verify_yang_baxter(inputs["R"], inputs["points"])
    checks.expect("ybe.status", result["status"], "pass")
    checks.expect_some("ybe.samples", result.get("samples", 0), scale.ybe_points)


# ---------------------------------------------------------------------------
# crystal-perfect


def crystal_perfect_setup(scale, rng):
    return {"pairs": walk_pairs(rng, scale.walk_level, scale.walks)}


def crystal_perfect(inputs, scale, checks):
    p1 = perfectness.check_P1(scale.p1_level)
    checks.expect("P1.status", p1["status"], "pass")
    checks.expect_some("P1.vertices", p1.get("vertices", 0), scale.p1_vertices)
    for l in range(1, scale.perfect_lmax + 1):
        checks.expect(f"P2.l{l}", perfectness.check_P2(l)["status"], "pass")
        checks.expect(f"P45.l{l}", perfectness.check_P4_P5(l)["status"], "pass")
    ended = 0
    for pair in inputs["pairs"]:
        walk = tensorcat.connect_to_vacuum(scale.walk_level, pair)
        ended += walk[-1][1] == (VACUUM, VACUUM)
    checks.expect_some("walks.at_vacuum", ended, scale.walks)


# ---------------------------------------------------------------------------
# crystal-coherent


def crystal_coherent_setup(scale, rng):
    return {}


def crystal_coherent(inputs, scale, checks):
    emb = coherent.verify_all_embeddings(scale.embed_lmax)
    checks.expect("embeddings.status", emb["status"], "pass")
    checks.expect_some("embeddings.count", emb.get("embeddings", 0), scale.embeddings)
    cover = coherent.verify_cover(scale.box)
    checks.expect("cover.status", cover["status"], "pass")
    checks.expect_some("cover.checked", cover.get("checked", 0), scale.cover_points)
    checks.expect("totality.status",
                  coherent.verify_totality(scale.box)["status"], "pass")
    for l in range(1, scale.decompose_lmax + 1):
        rows = a2branch.decompose(l)
        checks.expect_some(f"decompose.l{l}",
                     [(r["i"], r["j0"], r["j1"]) for r in rows],
                     sorted(a2branch.component_indices(l)))
    checks.expect_some("appendix.tuples", a2branch.verify_appendix(scale.appendix_lmax),
                 scale.appendix_tuples)
    checks.expect("lemmas.counts", a2branch.verify_lemmas(scale.lemma_lmax),
                  scale.lemma_counts)


WORKLOADS = {
    "rmatrix-exact": (rmatrix_exact_setup, rmatrix_exact),
    "ybe-sampled": (ybe_sampled_setup, ybe_sampled),
    "crystal-perfect": (crystal_perfect_setup, crystal_perfect),
    "crystal-coherent": (crystal_coherent_setup, crystal_coherent),
}

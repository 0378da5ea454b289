"""Limit crystal totality and the coherent-family embeddings."""

from itertools import product

import pytest

from d43crystal import affine as af
from d43crystal import coherent as ch
from d43crystal import perfectness as pf
from d43crystal import tensorcat as tc


def test_limit_point():
    assert ch.verify_limit_point()["status"] == "pass"


def test_totality_small():
    r = ch.verify_totality(radius=2)
    assert r["status"] == "pass"
    # parity-admissible points of [-2, 2]^6 times the three colors
    assert r["checked"] == 3 * 5 ** 4 * (3 ** 2 + 2 ** 2)


def test_totality_reports_an_undefined_operator(monkeypatch):
    apply_op = af.apply_op

    def dies_on_f2(kind, i, b, ctx):
        return None if (kind, i) == ("f", 2) else apply_op(kind, i, b, ctx)

    monkeypatch.setattr(af, "apply_op", dies_on_f2)
    r = ch.verify_totality(radius=1)
    assert r["status"] == "fail"
    assert r["reason"] == "operator undefined"
    assert r["color"] == 2


def _shifted(op, broken, shift=(0, 0, 0, 0, 0, 1)):
    """apply_op whose defined results are moved by shift wherever
    broken(kind, i, b, ctx) holds; the shift keeps parity-admissibility."""
    def patched(kind, i, b, ctx):
        nb = op(kind, i, b, ctx)
        if nb is None or not broken(kind, i, b, ctx):
            return nb
        return tuple(x + d for x, d in zip(nb, shift))
    return patched


def test_totality_reports_e_after_f(monkeypatch):
    monkeypatch.setattr(af, "apply_op", _shifted(
        af.apply_op, lambda kind, i, b, ctx: (kind, i) == ("e", 2)))
    r = ch.verify_totality(radius=1)
    assert r["status"] == "fail"
    assert r["reason"] == "e.f != id"
    assert r["color"] == 2


def test_totality_reports_f_after_e(monkeypatch):
    # e_1 stays the inverse of f_1 on every f_1-image of the box, so e.f
    # holds everywhere; off those images it is wrong, and f.e breaks there
    op = af.apply_op
    box = list(ch._box(1))
    images = {op("f", 1, nu, af.FREE) for nu in box}
    assert set(box) - images
    monkeypatch.setattr(af, "apply_op", _shifted(
        op, lambda kind, i, b, ctx: (kind, i) == ("e", 1) and b not in images))
    r = ch.verify_totality(radius=1)
    assert r["status"] == "fail"
    assert r["reason"] == "f.e != id"
    assert r["color"] == 1
    assert r["element"] not in images


def test_operators_move_off_the_origin():
    def op(kind, i, b):
        return af.apply_op(kind, i, b, af.FREE)

    assert op("f", 0, ch.B_INF) != ch.B_INF
    assert op("e", 0, op("f", 0, ch.B_INF)) == ch.B_INF
    assert op("f", 1, ch.B_INF) == (-1, 1, 0, 0, 0, 0)


@pytest.mark.parametrize("l", range(1, 5))
def test_embeddings(l):
    for b0 in pf.minimal_elements(l):
        r = ch.verify_embedding(l, b0)
        assert r["status"] == "pass", r


def test_embedding_detects_shifted_eps(monkeypatch):
    eps_weight = pf.eps_weight
    monkeypatch.setattr(
        ch, "eps_weight",
        lambda b, ctx: tuple(v + 1 for v in eps_weight(b, ctx)))
    r = ch.verify_embedding(2, (0, 0, 0, 0, 0, 0))
    assert r["status"] == "fail"
    assert r["reason"] == "eps"


@pytest.mark.parametrize("kind", ["e", "f"])
def test_embedding_detects_a_broken_free_operator(monkeypatch, kind):
    monkeypatch.setattr(af, "apply_op", _shifted(
        af.apply_op,
        lambda k, i, b, ctx: (k, i) == (kind, 1) and ctx is af.FREE))
    r = ch.verify_embedding(3, (1, 0, 0, 0, 0, 1))
    assert r["status"] == "fail"
    assert (r["reason"], r["color"]) == (kind, 1)


def test_embedding_reads_the_level_table(monkeypatch):
    # one wrong f_2 target in the cached B_l table must fail the check,
    # so the table is what the embedding is compared against
    table = tc.level_crystal(2)
    f2 = list(table.f[2])
    a = next(a for a, t in enumerate(f2) if t >= 0)
    f2[a] = (f2[a] + 1) % len(f2)
    wrong = table._replace(f=(table.f[0], table.f[1], tuple(f2)))
    monkeypatch.setattr(tc, "level_crystal", lambda l: wrong)
    for b0 in pf.minimal_elements(2):
        r = ch.verify_embedding(2, b0)
        assert r["status"] == "fail"
        assert r["element"] == table.elements[a]
        assert (r["reason"], r["color"]) == ("f", 2)


def test_embedding_rejects_non_minimal():
    with pytest.raises(ValueError):
        ch.verify_embedding(2, (0, 1, 0, 0, 0, 0))


def test_embed_inverse_roundtrip():
    b0 = (1, 0, 0, 0, 0, 1)
    import d43crystal.affine as af
    for b in af.enumerate_Bl(3):
        nu = ch.f_embed(3, b0, b)
        assert ch.f_embed_inverse(3, b0, nu) == b
    # a point outside every level-3 image
    assert ch.f_embed_inverse(3, b0, (9, 0, 0, 0, 0, 0)) is None


def test_cover_small_box():
    r = ch.verify_cover(1)
    assert r["status"] == "pass"
    assert r["checked"] > 0


def test_cover_witness():
    assert ch.cover_witness(ch.B_INF, 1) == (1, (0, 0, 0, 0, 0, 0))
    w = ch.cover_witness((-1, -1, -1, -1, -1, -1), 20)
    assert w is not None
    l, b0 = w
    assert ch.f_embed_inverse(l, b0, (-1, -1, -1, -1, -1, -1)) is not None


def oracle_cover_witness(nu, l_max):
    """The search over every (l, b0) that the closed form replaced."""
    for l in range(1, l_max + 1):
        for b0 in pf.minimal_elements(l):
            if ch.f_embed_inverse(l, b0, nu) is not None:
                return (l, b0)
    return None


@pytest.mark.parametrize("l_max", [1, 3, 8, 21])
def test_cover_witness_matches_search_oracle(l_max):
    box = [nu for nu in product(range(-2, 3), repeat=6)
           if (nu[2] - nu[3]) % 2 == 0]
    assert len(box) == 8125
    found = 0
    for nu in box:
        want = oracle_cover_witness(nu, l_max)
        assert ch.cover_witness(nu, l_max) == want, nu
        found += want is not None
    # l_max = 1 leaves most of the box uncovered; 21 covers all of it
    assert 0 < found <= len(box)
    assert (found == len(box)) == (l_max == 21)


def test_cover_witness_rejects_odd_parity():
    for nu in product(range(-1, 2), repeat=6):
        if (nu[2] - nu[3]) % 2:
            assert ch.cover_witness(nu, 8) is None
            assert oracle_cover_witness(nu, 8) is None

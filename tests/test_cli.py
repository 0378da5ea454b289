"""Command-line interface: output formats, determinism, exit codes."""

import json

import pytest

from d43crystal import cli
from d43crystal import fundrep as fr
from d43crystal import perfectness as pf
from d43crystal import rmatrix as rm
from d43crystal import tensorcat as tc


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_level_1(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--level", "1")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 8
    assert "0,0,0,0,0,0 phi" in lines
    assert "1,0,0,0,0,0 1" in lines


def test_enumerate_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "enumerate", "--level", "2")
    _, out2, _ = run_cli(capsys, "enumerate", "--level", "2")
    assert out1 == out2
    assert len(out1.strip().splitlines()) == 35


def test_graph_dot(capsys):
    code, out, _ = run_cli(capsys, "graph", "--level", "1")
    assert code == 0
    assert out.startswith("digraph B1 {")
    assert out.count("->") == 10


def test_graph_json(capsys):
    code, out, _ = run_cli(capsys, "graph", "--level", "1",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "d43crystal/1"
    assert doc["level"] == 1
    assert len(doc["nodes"]) == 8
    assert len(doc["edges"]) == 10


def test_graph_arrow_subset(capsys):
    code, out, _ = run_cli(capsys, "graph", "--level", "1",
                           "--format", "json", "--arrows", "12")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["edges"]) == 6
    assert all(e["label"] in (1, 2) for e in doc["edges"])


def test_graph_bad_arrows(capsys):
    code, _, err = run_cli(capsys, "graph", "--level", "1", "--arrows", "19")
    assert code == 2
    assert "error" in err


def test_decompose_text(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--level", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i=0 j0=2 j1=2 size=27 highest=0,0,0,0,2,0"
    assert lines[1].startswith("i=1 j0=1 j1=1 size=8")


def test_decompose_json(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--level", "3",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "d43crystal/1"
    assert sum(c["size"] for c in doc["components"]) == 112


def test_tensor_connected(capsys):
    code, out, _ = run_cli(capsys, "tensor", "--level", "1",
                           "--check-connected")
    assert code == 0
    doc = json.loads(out)
    assert doc["connected"] == "pass"
    assert doc["vertices"] == 64
    assert doc["components"] == 1
    assert (doc["highest_pairs"], doc["walk_steps"]) == (7, 80)


def test_tensor_walk_failure_leaves_components_null(capsys, monkeypatch):
    monkeypatch.setattr(pf, "check_P1", lambda l: {
        "status": "fail", "reason": "vacuum walk", "pair": (tc.PHI, tc.PHI),
        "error": "final 0-steps ended early"})
    code, out, _ = run_cli(capsys, "tensor", "--level", "1",
                           "--check-connected")
    assert code == 1
    doc = json.loads(out)
    assert doc["connected"] == "fail"
    assert doc["components"] is None
    assert doc["highest_pairs"] is None


def test_check_perfect(capsys):
    code, out, _ = run_cli(capsys, "check", "perfect", "--level", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["P1"] == "pass"
    assert doc["P3"] == "skipped"
    assert [0, 0, 0, 0, 0, 0] in doc["minimal"]
    assert (doc["P1_method"], doc["P1_highest_pairs"],
            doc["P1_walk_steps"]) == ("highest-pair walks", 30, 676)


def test_check_perfect_failed_P1_reports_no_counts(capsys, monkeypatch):
    monkeypatch.setattr(pf, "check_P1", lambda l: {
        "status": "fail", "reason": "crystal axiom", "axiom": "e.f",
        "color": 0, "element": tc.PHI})
    code, out, _ = run_cli(capsys, "check", "perfect", "--level", "2")
    assert code == 1
    doc = json.loads(out)
    assert doc["P1"] == "fail"
    assert (doc["P1_method"], doc["P1_highest_pairs"],
            doc["P1_walk_steps"]) == (None, None, None)


def test_check_perfect_level_7_checks_P1(capsys):
    code, out, _ = run_cli(capsys, "check", "perfect", "--level", "7")
    assert code == 0
    assert json.loads(out)["P1"] == "pass"


def test_verify_lemmas(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemmas", "--lmax", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["checks"] == {
        "lemma_onion_checked": 47, "lemma_comm_checked": 35,
        "lemma_invol2_checked": 404, "lemma_step2_checked": 404}


def test_verify_appendix(capsys):
    code, out, _ = run_cli(capsys, "verify", "appendix", "--lmax", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["checks"]["appendix_tuples_checked"] > 0


def test_verify_coherent(capsys):
    code, out, _ = run_cli(capsys, "verify", "coherent", "--level", "2",
                           "--box", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"] == {"embeddings": True, "cover": True,
                             "limit_point": True, "embeddings_checked": 3,
                             "cover_points_checked": 405, "totality": True,
                             "totality_checked": 121,
                             "totality_method": "piecewise-linear proof"}


def test_verify_relations(capsys):
    code, out, _ = run_cli(capsys, "verify", "relations")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"


def test_usage_errors(capsys):
    assert cli.run(["bogus"]) == 2
    capsys.readouterr()
    assert cli.run(["enumerate"]) == 2
    capsys.readouterr()
    assert cli.run([]) == 2
    capsys.readouterr()


def test_jobs_flag(capsys):
    # there is no --jobs option
    code, out, _ = run_cli(capsys, "--jobs", "2", "verify", "lemmas",
                           "--lmax", "2")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("samples", ["0", "-5", "21", "x"])
def test_verify_rmatrix_rejects_sample_count(capsys, samples):
    code, out, err = run_cli(capsys, "verify", "rmatrix", "--samples", samples)
    assert code == 2
    assert out == ""
    assert "--samples" in err


def test_verify_rmatrix_one_sample(capsys):
    code, out, _ = run_cli(capsys, "verify", "rmatrix", "--samples", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["checks"]["yang_baxter_sampled"] is True
    assert doc["checks"]["yang_baxter_samples"] == 1
    assert doc["checks"]["R_Rswap_scalar"] is True
    assert doc["checks"]["highest_vectors"] is True
    assert doc["checks"]["iota"] is True
    assert all(doc["checks"].values())


def test_verify_rmatrix_inverts_the_frame_once(capsys, monkeypatch):
    coords, calls = rm.component_coords, []
    monkeypatch.setattr(rm, "component_coords",
                        lambda comps: calls.append(1) or coords(comps))
    code, _, _ = run_cli(capsys, "verify", "rmatrix", "--samples", "1")
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("module,stage,message", [
    (fr, "build_polarization", "invariant form is not unique"),
    (rm, "vacuum_eigenvalue", "R does not act diagonally on the vacuum"),
], ids=["polarization", "vacuum"])
def test_verify_rmatrix_reports_an_arithmetic_error(capsys, monkeypatch,
                                                    module, stage, message):
    def fail(*args):
        raise ArithmeticError(message)
    monkeypatch.setattr(module, stage, fail)
    code, out, _ = run_cli(capsys, "verify", "rmatrix", "--samples", "1")
    assert code == 1
    assert json.loads(out) == {"schema": cli.SCHEMA, "suite": "rmatrix",
                               "status": "fail", "error": message}


@pytest.mark.parametrize("module,stage,key", [
    (fr, "verify_highest", "highest_vectors"), (rm, "verify_iota", "iota"),
], ids=["highest_vectors", "iota"])
def test_verify_rmatrix_fails_on_a_false_check(capsys, monkeypatch, module,
                                               stage, key):
    monkeypatch.setattr(module, stage, lambda *args: False)
    code, out, _ = run_cli(capsys, "verify", "rmatrix", "--samples", "1")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    assert doc["checks"][key] is False


@pytest.mark.parametrize("argv,option", [
    (["verify", "appendix", "--lmax", "0"], "--lmax"),
    (["verify", "lemmas", "--lmax", "-3"], "--lmax"),
    (["verify", "lemmas", "--lmax", "1"], "--lmax"),
    (["verify", "coherent", "--level", "0", "--box", "0"], "--level"),
    (["verify", "coherent", "--level", "2", "--box", "-1"], "--box"),
    (["enumerate", "--level", "-1"], "--level"),
    (["graph", "--level", "-1"], "--level"),
    (["decompose", "--level", "-2"], "--level"),
    (["tensor", "--level", "-1"], "--level"),
    (["check", "perfect", "--level", "0"], "--level"),
])
def test_empty_ranges_are_usage_errors(capsys, argv, option):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert option in err


def test_smallest_ranges_still_check_something(capsys):
    code, out, _ = run_cli(capsys, "verify", "appendix", "--lmax", "1")
    assert code == 0
    assert json.loads(out)["checks"]["appendix_tuples_checked"] == 27
    code, out, _ = run_cli(capsys, "verify", "lemmas", "--lmax", "2")
    assert code == 0
    assert all(v > 0 for v in json.loads(out)["checks"].values())
    code, out, _ = run_cli(capsys, "verify", "coherent", "--level", "1",
                           "--box", "0")
    assert code == 0
    assert json.loads(out)["status"] == "pass"
    code, out, _ = run_cli(capsys, "enumerate", "--level", "0")
    assert code == 0
    assert out == "0,0,0,0,0,0 phi\n"


@pytest.mark.parametrize("suite,patch", [
    ("appendix", ("verify_appendix", lambda lmax: 0)),
    ("lemmas", ("verify_lemmas", lambda lmax: {"onion": 3, "comm": 0})),
])
def test_zero_count_is_a_failure(capsys, monkeypatch, suite, patch):
    monkeypatch.setattr(cli.a2, *patch)
    code, out, _ = run_cli(capsys, "verify", suite)
    assert code == 1
    assert json.loads(out)["status"] == "fail"


def test_coherent_zero_cover_count_is_a_failure(capsys, monkeypatch):
    monkeypatch.setattr(cli.ch, "verify_cover",
                        lambda radius: {"status": "pass", "checked": 0})
    code, out, _ = run_cli(capsys, "verify", "coherent", "--level", "1",
                           "--box", "0")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    assert doc["checks"]["cover_points_checked"] == 0


def test_coherent_zero_totality_count_is_a_failure(capsys, monkeypatch):
    monkeypatch.setattr(cli.ch, "verify_totality",
                        lambda radius: {"status": "pass", "checked": 0})
    code, out, _ = run_cli(capsys, "verify", "coherent", "--level", "1",
                           "--box", "0")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    assert doc["checks"]["totality"] is True
    assert doc["checks"]["totality_checked"] == 0


def test_coherent_failed_totality_is_a_failure(capsys, monkeypatch):
    monkeypatch.setattr(cli.ch, "verify_totality",
                        lambda radius: {"status": "fail", "reason": "e.f != id"})
    code, out, _ = run_cli(capsys, "verify", "coherent", "--level", "1",
                           "--box", "0")
    assert code == 1
    doc = json.loads(out)
    assert doc["checks"]["totality"] is False
    assert doc["checks"]["totality_checked"] == 0

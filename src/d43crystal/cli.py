"""Command-line front end: enumeration, graph export, decomposition and the
verification suites.  Exit status 0 when all requested checks pass, 1 on a
check failure, 2 on usage errors.
"""

import argparse
import json
import sys

from . import affine as af
from . import a2branch as a2
from . import coherent as ch
from . import g2crystal as g2
from . import perfectness as pf
from . import tensorcat as tc

SCHEMA = "d43crystal/1"


def _print_json(payload):
    print(json.dumps(payload, indent=2, sort_keys=False))


def _tableau_str(b):
    word = g2.to_tableau(b)
    return "".join(word) if word else "phi"


def cmd_enumerate(args):
    for b in af.enumerate_Bl(args.level):
        print(",".join(str(v) for v in b), _tableau_str(b))
    return 0


def _arrow_colors(spec_str):
    colors = sorted(set(int(c) for c in spec_str))
    if any(c not in (0, 1, 2) for c in colors):
        raise ValueError("arrow colors must be among 0, 1, 2")
    return tuple(colors)


def cmd_graph(args):
    crystal = tc.level_crystal(args.level)
    colors = _arrow_colors(args.arrows)
    if args.format == "dot":
        sys.stdout.write(tc.graph_dot(crystal, colors, label=_tableau_str,
                                      name=f"B{args.level}"))
    else:
        payload = tc.graph_json(crystal, colors, label=_tableau_str)
        payload["schema"] = SCHEMA
        payload["level"] = args.level
        _print_json(payload)
    return 0


def cmd_decompose(args):
    try:
        rows = a2.decompose(args.level)
    except a2.DecompositionError as exc:
        print(f"decomposition failed: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        _print_json({
            "schema": SCHEMA,
            "level": args.level,
            "components": [
                {"i": r["i"], "j0": r["j0"], "j1": r["j1"], "size": r["size"],
                 "highest": list(r["highest"])}
                for r in rows
            ],
        })
    else:
        for r in rows:
            print(f"i={r['i']} j0={r['j0']} j1={r['j1']} size={r['size']} "
                  f"highest={','.join(str(v) for v in r['highest'])}")
    return 0


def cmd_tensor(args):
    payload = {"schema": SCHEMA, "level": args.level,
               "vertices": af.bl_cardinality(args.level) ** 2}
    if not args.check_connected:
        _print_json(payload)
        return 0
    p1 = pf.check_P1(args.level)
    ok = p1["status"] == "pass"
    # a failed check leaves the components uncounted
    payload["components"] = 1 if ok else None
    payload["connected"] = p1["status"]
    payload["highest_pairs"] = p1.get("highest_pairs")
    payload["walk_steps"] = p1.get("walk_steps")
    _print_json(payload)
    return 0 if ok else 1


def cmd_check_perfect(args):
    report = pf.perfectness_report(args.level)
    payload = {
        "schema": SCHEMA,
        "level": args.level,
        "P1": report["P1"]["status"],
        "P2": report["P2"]["status"],
        "P3": report["P3"]["status"],
        "P4": report["P4"]["status"],
        "P5": report["P5"]["status"],
        "minimal": [list(b) for b in report["minimal"]],
    }
    _print_json(payload)
    ok = all(payload[k] in ("pass", "skipped") for k in
             ("P1", "P2", "P3", "P4", "P5"))
    return 0 if ok else 1


def _bounded_int(text, low, high=None):
    try:
        n = int(text)
    except ValueError:
        n = None
    if n is None or n < low or (high is not None and n > high):
        bound = f"at least {low}" if high is None else f"from {low} to {high}"
        raise argparse.ArgumentTypeError(f"must be an integer {bound}")
    return n


def _at_least(low):
    """argparse type: an integer >= low, so that no range is empty."""
    return lambda text: _bounded_int(text, low)


def _sample_count(text):
    """--samples: how many of the default Yang-Baxter points to check."""
    from . import rmatrix as rm
    return _bounded_int(text, 1, len(rm.default_ybe_samples()))


def _verify_rmatrix(args):
    from . import fundrep as fr
    from . import rmatrix as rm
    rep = fr.build_v1()
    checks = {}
    rels = fr.check_defining_relations(rep)
    checks["defining_relations"] = all(rels.values())
    gram, _ = fr.build_polarization(rep)
    checks["polarization"] = fr.check_polarization(rep, gram)
    checks["lowering_identities"] = all(
        fr.verify_lowering_identities(rep).values())
    checks["highest_vectors"] = fr.verify_highest(rep)
    comps = rm.build_components(rep)
    checks["iota"] = rm.verify_iota(rep, comps)
    R = rm.build_R(rep, comps)
    checks["intertwiner"] = all(rm.verify_intertwiner(R, rep).values())
    checks["vacuum_eigenvalue"] = rm.vacuum_eigenvalue(R) == rm.a_2L1()
    checks["phi_nonvanishing"] = rm.phi_nonvanishing()
    checks.update(rm.verify_determinants())
    checks["R_Rswap_scalar"] = rm.verify_R_Rswap_scalar(R)
    if args.symbolic_ybe:
        checks["yang_baxter_symbolic"] = rm.verify_yang_baxter_symbolic(R)
    else:
        ybe = rm.verify_yang_baxter(R, rm.default_ybe_samples()[: args.samples])
        checks["yang_baxter_sampled"] = ybe["status"] == "pass"
        checks["yang_baxter_samples"] = ybe["samples"]
    return checks


def _verify_appendix(args):
    n = a2.verify_appendix(args.lmax)
    return {"appendix_tuples_checked": n}


def _verify_lemmas(args):
    return {f"lemma_{k}_checked": v
            for k, v in a2.verify_lemmas(args.lmax).items()}


def _verify_coherent(args):
    emb = ch.verify_all_embeddings(args.level)
    cover = ch.verify_cover(args.box)
    totality = ch.verify_totality(args.box)
    return {
        "embeddings": emb["status"] == "pass",
        "cover": cover["status"] == "pass",
        "limit_point": ch.verify_limit_point()["status"] == "pass",
        # a failed run reports no count
        "embeddings_checked": emb.get("embeddings", 0),
        "cover_points_checked": cover.get("checked", 0),
        "totality": totality["status"] == "pass",
        "totality_checked": totality.get("checked", 0),
    }


def _verify_relations(args):
    from . import fundrep as fr
    return fr.check_defining_relations(fr.build_v1())


def cmd_verify(args):
    suites = {
        "rmatrix": _verify_rmatrix,
        "appendix": _verify_appendix,
        "lemmas": _verify_lemmas,
        "coherent": _verify_coherent,
        "relations": _verify_relations,
    }
    runner = suites[args.suite]
    try:
        checks = runner(args)
    except (AssertionError, ArithmeticError) as exc:
        _print_json({"schema": SCHEMA, "suite": args.suite,
                     "status": "fail", "error": str(exc)})
        return 1
    # a false check or a zero count fails: a suite that checked nothing
    # must not pass
    ok = bool(checks) and all(checks.values())
    _print_json({"schema": SCHEMA, "suite": args.suite,
                 "status": "pass" if ok else "fail", "checks": checks})
    return 0 if ok else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="d43crystal",
        description="Exact verification suite for the level-l perfect "
                    "crystals of the twisted affine type with a triple arrow.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("enumerate", help="list the elements of B_l")
    sp.add_argument("--level", type=_at_least(0), required=True)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("graph", help="export the crystal graph of B_l")
    sp.add_argument("--level", type=_at_least(0), required=True)
    sp.add_argument("--format", choices=("dot", "json"), default="dot")
    sp.add_argument("--arrows", default="012",
                    help="arrow colors to include, e.g. 01")
    sp.set_defaults(func=cmd_graph)

    sp = sub.add_parser("decompose",
                        help="{0,1}-component inventory of B_l")
    sp.add_argument("--level", type=_at_least(0), required=True)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("tensor", help="B_l tensor B_l analysis")
    sp.add_argument("--level", type=_at_least(0), required=True)
    sp.add_argument("--check-connected", action="store_true")
    sp.set_defaults(func=cmd_tensor)

    sp = sub.add_parser("check", help="axiom checks")
    csub = sp.add_subparsers(dest="what", required=True)
    cp = csub.add_parser("perfect", help="perfectness axioms for B_l")
    # perfectness is a statement about positive levels
    cp.add_argument("--level", type=_at_least(1), required=True)
    cp.set_defaults(func=cmd_check_perfect)

    sp = sub.add_parser("verify", help="verification suites")
    vsub = sp.add_subparsers(dest="suite", required=True)
    vp = vsub.add_parser("rmatrix")
    vp.add_argument("--symbolic-ybe", action="store_true")
    vp.add_argument("--samples", type=_sample_count, default=20,
                    help="how many default Yang-Baxter points to check")
    vp.set_defaults(func=cmd_verify)
    vp = vsub.add_parser("appendix")
    vp.add_argument("--lmax", type=_at_least(1), default=4)
    vp.set_defaults(func=cmd_verify)
    vp = vsub.add_parser("lemmas")
    # at l_max = 1 the onion lemma has no instance
    vp.add_argument("--lmax", type=_at_least(2), default=4)
    vp.set_defaults(func=cmd_verify)
    vp = vsub.add_parser("coherent")
    vp.add_argument("--level", type=_at_least(1), default=4)
    vp.add_argument("--box", type=_at_least(0), default=2)
    vp.set_defaults(func=cmd_verify)
    vp = vsub.add_parser("relations")
    vp.set_defaults(func=cmd_verify)
    return p


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()

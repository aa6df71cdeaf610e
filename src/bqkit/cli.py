"""The ``bq`` command line tool.

Exit codes: 0 on success/confirmed, 1 on refuted or violations, 2 on
unknown or truncated outcomes, 3 on input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .cover import (TRUNCATED, FiniteGroup, check_covering, is_galois,
                    lift_dilatation, lift_transvection, make_grading,
                    smash_product, theorem_b_pipeline, universal_cover)
from .dsl import parse_path, parse_source, parse_walk
from .errors import BqError, ParseError
from .gamma import (CONFIRMED, REFUTED, check_surjection, explore_gamma,
                    find_sources)
from .homotopy import HOMOTOPIC, NOT_HOMOTOPIC, homotopy_relation
from .quiver import Bypass, enumerate_paths
from .transform import Transvection, make_dilatation

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_source(fh.read())


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3 (input error), not argparse's 2 (Unknown)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, "%s: error: %s\n" % (self.prog, message))


def _radius(text):
    """A ``--radius`` value: a nonnegative integer."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(
            "expected a nonnegative integer, got %r" % text)
    return int(text)


def _emit(args, payload, human):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


def _pi1_payload(gp):
    rank, torsion = gp.abelian_invariants
    return {"abelian_rank": rank, "torsion": list(torsion)}


def cmd_check(args):
    ws = _load(args.file)
    lines = []
    for name, q in ws.quivers.items():
        lines.append("quiver %s: %d vertices, %d arrows, %d paths"
                     % (name, len(q.vertices), len(q.arrows),
                        len(enumerate_paths(q))))
    for name in ws.ideal_decls:
        ideal = ws.ideal(name, args.char)
        lines.append("ideal %s over %s (char %d): admissible, total dim %d, "
                     "radical length %d"
                     % (name, ideal.quiver.name, ideal.field.char,
                        ideal.total_dim(), ideal.radical_length))
    print("\n".join(lines))
    return EXIT_OK


def cmd_paths(args):
    ws = _load(args.file)
    name = args.quiver or next(iter(ws.quivers), None)
    if name is None:
        raise ParseError("%s declares no quiver" % args.file)
    q = ws.quiver(name)
    for p in enumerate_paths(q):
        print("%s: %s -> %s" % (p.to_text(), p.source, p.target))
    return EXIT_OK


def cmd_groebner(args):
    ws = _load(args.file)
    ideal = ws.ideal(args.ideal, args.char)
    payload = {}
    lines = []
    for x, y in ideal.hom_pairs():
        rels = [r.to_text(ideal.field) for r in ideal.groebner_basis(x, y)]
        payload["%s->%s" % (x, y)] = rels
        lines.append("hom(%s, %s):" % (x, y))
        lines.extend("  %s" % r for r in rels)
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_pi1(args):
    ws = _load(args.file)
    ideal = ws.ideal(args.ideal, args.char)
    h = homotopy_relation(ideal, args.base)
    gp = h.presentation
    rank, torsion = gp.abelian_invariants
    human = ("generators: %s\nrelators: %d\nabelian invariants: rank %d, "
             "torsion %s" % (", ".join(gp.generators) or "(none)",
                             len(gp.relators), rank, list(torsion)))
    _emit(args, _pi1_payload(gp), human)
    return EXIT_OK


def cmd_homotopic(args):
    ws = _load(args.file)
    ideal = ws.ideal(args.ideal, args.char)
    h = homotopy_relation(ideal, args.base)
    q = ideal.quiver
    u = parse_walk(q, args.u)
    v = parse_walk(q, args.v)
    d = h.decide(u, v, cap=args.cap)
    if d.status == HOMOTOPIC:
        print("Homotopic")
        if d.chain is None:
            print("  certified by the completed coset action (order %d)"
                  % d.certificate["order"])
        else:
            for step in d.chain:
                print("  %s -> %s" % (step.kind, step.result.to_text()))
        return EXIT_OK
    if d.status == NOT_HOMOTOPIC:
        print("NotHomotopic (certificate: %s)" % d.certificate["kind"])
        return EXIT_REFUTED
    print("Unknown (the %s cap ended the search)" % d.cap)
    if d.coset_cap is not None:
        print("  the coset enumeration stopped at its cap of %d cosets"
              % d.coset_cap)
    return EXIT_UNKNOWN


def _gamma_payload(gamma):
    return {
        "vertices": [
            {"index": v.index,
             "abelian_rank": v.abelian_invariants[0],
             "torsion": list(v.abelian_invariants[1]),
             "ideal": v.ideal.describe()}
            for v in gamma.vertices
        ],
        "edges": [
            {"from": e.source, "to": e.target,
             "transvection": e.transvection.to_text(gamma.vertices[0].ideal.field)}
            for e in gamma.edges
        ],
        "sources": [v.index for v in gamma.sources()],
        "diagnostics": gamma.diagnostics,
    }


def _gamma_dot(gamma):
    fld = gamma.vertices[0].ideal.field
    lines = ["digraph gamma {"]
    for v in gamma.vertices:
        rank, torsion = v.abelian_invariants
        label = "v%d: rank %d, torsion %s" % (v.index, rank, list(torsion))
        lines.append('  v%d [label="%s"];' % (v.index, label))
    for e in gamma.edges:
        lines.append('  v%d -> v%d [label="%s"];'
                     % (e.source, e.target, e.transvection.to_text(fld)))
    lines.append("}")
    return "\n".join(lines)


def cmd_gamma(args):
    ws = _load(args.file)
    ideal = ws.ideal(args.ideal, args.char)
    gamma = explore_gamma(ideal)
    payload = _gamma_payload(gamma)
    human = "%d vertices, %d edges, %d source(s)" % (
        len(gamma.vertices), len(gamma.edges), len(gamma.sources()))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(_gamma_dot(gamma) + "\n")
    _emit(args, payload, human)
    return EXIT_OK


def cmd_source(args):
    ws = _load(args.file)
    ideal = ws.ideal(args.ideal, args.char)
    gamma = explore_gamma(ideal)
    sources = find_sources(gamma)
    for v in sources:
        rank, torsion = v.abelian_invariants
        print("source: %s (pi1 rank %d, torsion %s)"
              % (v.ideal.describe(), rank, list(torsion)))
    for diag in gamma.diagnostics:
        print("warning: %s" % diag)
    return EXIT_OK


def cmd_surjection(args):
    ws = _load(args.file)
    src = ws.ideal(args.source, args.char)
    tgt = ws.ideal(args.target, args.char)
    result = check_surjection(src, tgt)
    payload = {
        "status": result.status,
        "source": {"abelian_rank": result.source_invariants[0],
                   "torsion": list(result.source_invariants[1])},
        "target": {"abelian_rank": result.target_invariants[0],
                   "torsion": list(result.target_invariants[1])},
    }
    if result.witness:
        payload["witness"] = [p.to_text() for p in result.witness]
    _emit(args, payload, "surjection %s" % result.status)
    if result.status == CONFIRMED:
        return EXIT_OK
    if result.status == REFUTED:
        return EXIT_REFUTED
    return EXIT_UNKNOWN


def _cover_dot(cov):
    lines = ["digraph cover {"]
    for v in cov.total.vertices:
        lines.append('  "%s" [label="%s | %s"];' % (v, v, cov.vertex_map[v]))
    for e in cov.total.arrows:
        lines.append('  "%s" -> "%s" [label="%s"];'
                     % (e.source, e.target, cov.arrow_map[e.name]))
    lines.append("}")
    return "\n".join(lines)


def cover_to_text(cov):
    """Export a cover as DSL plus a projection block."""
    fld = cov.field
    lines = ["# %s cover of %s (%s)" % (cov.kind, cov.base_quiver.name,
                                        "complete" if cov.complete
                                        else "truncated at radius %s" % cov.radius)]
    lines.append("quiver %s {" % cov.total.name)
    lines.append("  vertices: %s;" % " ".join(cov.total.vertices))
    for a in cov.total.arrows:
        lines.append("  arrow %s: %s -> %s;" % (a.name, a.source, a.target))
    lines.append("}")
    lines.append("ideal %s_ideal over %s(%d) {" % (cov.total.name,
                                                   cov.total.name, fld.char))
    for rel in cov.relations:
        lines.append("  rel %s;" % rel.to_text(fld))
    lines.append("}")
    lines.append("projection {")
    for v in cov.total.vertices:
        lines.append("  %s -> %s;" % (v, cov.vertex_map[v]))
    for a in cov.total.arrows:
        lines.append("  %s -> %s;" % (a.name, cov.arrow_map[a.name]))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cover_exit_and_report(args, cov):
    report = check_covering(cov)
    galois = is_galois(cov)
    payload = cov.to_dict()
    payload["covering_ok"] = report.ok
    payload["violations"] = report.violations
    payload["rim_lifts"] = report.rim_lifts
    payload["galois"] = galois.status
    payload["group_order"] = galois.group_order
    human = "%s cover: %d vertices, %s, covering %s, %s" % (
        cov.kind, len(cov.total.vertices),
        "complete" if cov.complete else "truncated",
        "ok" if report.ok else "VIOLATED",
        galois.status + ("" if galois.group_order is None
                         else " (order %d)" % galois.group_order))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(_cover_dot(cov) + "\n")
    if getattr(args, "export", None):
        with open(args.export, "w", encoding="utf-8") as fh:
            fh.write(cover_to_text(cov))
    _emit(args, payload, human)
    if not report.ok:
        return EXIT_REFUTED
    if galois.status == TRUNCATED:
        return EXIT_UNKNOWN
    return EXIT_OK


def cmd_cover(args):
    ws = _load(args.file)
    ideal = ws.ideal(args.ideal, args.char)
    cov = universal_cover(ideal, args.base, args.radius)
    return _cover_exit_and_report(args, cov)


def _parse_group(text):
    text = text.strip()
    if text in ("1", "trivial"):
        return FiniteGroup.trivial()
    order = text[1:].lstrip("/")
    if text[:1] in ("Z", "z") and order.isascii() and order.isdigit():
        return FiniteGroup.cyclic(int(order))
    raise BqError("unknown group %r (use 'trivial' or 'Z<n>')" % text)


def _parse_assignments(text):
    """``name=value,...`` as {name: value}; the empty text gives {}."""
    values = {}
    for chunk in text.split(",") if text else ():
        name, eq, val = chunk.partition("=")
        if not eq:
            raise BqError("expected name=value, got %r" % chunk.strip())
        values[name.strip()] = val.strip()
    return values


def cmd_smash(args):
    ws = _load(args.file)
    ideal = ws.ideal(args.ideal, args.char)
    group = _parse_group(args.group)
    grading = make_grading(ideal.quiver, group, _parse_assignments(args.degrees))
    cov = smash_product(ideal, grading)
    return _cover_exit_and_report(args, cov)


def _parse_transvection(quiver, fld, text):
    parts = text.split(":")
    if len(parts) != 3:
        raise BqError("expected arrow:path:tau, got %r" % text)
    arrow, path_text, tau_text = parts
    return Transvection(Bypass(arrow, parse_path(quiver, path_text)),
                        fld.parse(tau_text))


def cmd_lift(args):
    ws = _load(args.file)
    ideal = ws.ideal(args.ideal, args.char)
    cov = universal_cover(ideal, args.base, args.radius)
    fld = ideal.field
    if args.transvection:
        t = _parse_transvection(ideal.quiver, fld, args.transvection)
        m = lift_transvection(cov, t)
    else:
        scales = {name: fld.parse(val)
                  for name, val in _parse_assignments(args.dilatation).items()}
        m = lift_dilatation(cov, make_dilatation(ideal.quiver, fld, scales))
    payload = {"base_map": m.base_label, "checks": _jsonable(m.checks),
               "target_complete": m.target.complete}
    _emit(args, payload,
          "lift of %s: squares %s, relations %s" % (
              m.base_label, m.checks.get("squares"), m.checks.get("relations")))
    return EXIT_OK


def cmd_pipeline(args):
    ws = _load(args.file)
    privileged = ws.ideal(args.ideal, args.char)
    target_ideal = ws.ideal(args.target, args.char) if args.target else privileged
    group = _parse_group(args.group)
    grading = make_grading(target_ideal.quiver, group,
                           _parse_assignments(args.degrees))
    target = smash_product(target_ideal, grading)
    res = theorem_b_pipeline(privileged, target, radius=args.radius)
    payload = {
        "chain": [step.to_text(privileged.field) for step in res.chain],
        "group_order": res.group_order,
        "chord_images": res.chord_images,
        "surjective": res.surjective,
        "kernel": _jsonable(res.kernel_report),
        "commutes": res.commutes,
    }
    _emit(args, payload,
          "pipeline: chain length %d, group order %d, surjective %s, commutes %s"
          % (len(res.chain), res.group_order, res.surjective, res.commutes))
    return EXIT_OK if res.commutes and res.surjective else EXIT_REFUTED


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    return value


def compute_example_report():
    """The bundled scenario outcomes, as one JSON-able document."""
    # imported here, not at the top: on Python 3.13 importlib.resources
    # loads inspect, which no other command needs
    from importlib import resources

    data = resources.files("bqkit") / "data" / "examples"
    ws1 = parse_source((data / "exple1.bq").read_text(encoding="utf-8"))
    ws2 = parse_source((data / "twobypass.bq").read_text(encoding="utf-8"))
    report = {}

    q1 = ws1.quiver("exple1")
    ideal_I = ws1.ideal("I")
    ideal_J = ws1.ideal("J")
    h_I = homotopy_relation(ideal_I)
    h_J = homotopy_relation(ideal_J)
    a = parse_walk(q1, "a")
    cb = parse_walk(q1, "c*b")
    gamma1 = explore_gamma(ideal_I)
    grading = make_grading(q1, FiniteGroup.cyclic(2), {"a": "1"})
    smash1 = smash_product(ideal_I, grading)
    galois1 = is_galois(smash1)
    report["exple1"] = {
        "pi1_I": _pi1_payload(h_I.presentation),
        "pi1_J": _pi1_payload(h_J.presentation),
        "homotopic_a_cb_under_I": h_I.decide(a, cb).status,
        "homotopic_a_cb_under_J": h_J.decide(a, cb).status,
        "gamma": {"vertices": len(gamma1.vertices),
                  "edges": len(gamma1.edges),
                  "sources": len(gamma1.sources())},
        "surjection_I_J": check_surjection(ideal_I, ideal_J).status,
        "smash_z2": {"vertices": len(smash1.total.vertices),
                     "covering_ok": check_covering(smash1).ok,
                     "galois": galois1.status,
                     "group_order": galois1.group_order},
    }

    ideal_I0 = ws2.ideal("I0")
    ideal_I1 = ws2.ideal("I1")
    ideal_I2 = ws2.ideal("I2")
    gamma0 = explore_gamma(ideal_I2)
    cov0 = universal_cover(ideal_I0, radius=8)
    galois0 = is_galois(cov0)
    report["twobypass_char0"] = {
        "pi1_I0": _pi1_payload(homotopy_relation(ideal_I0).presentation),
        "pi1_I1": _pi1_payload(homotopy_relation(ideal_I1).presentation),
        "pi1_I2": _pi1_payload(homotopy_relation(ideal_I2).presentation),
        "gamma_from_I2": {"vertices": len(gamma0.vertices),
                          "edges": len(gamma0.edges),
                          "sources": len(gamma0.sources())},
        "surjection_I0_I1": check_surjection(ideal_I0, ideal_I1).status,
        "cover_I0": {"vertices": len(cov0.total.vertices),
                     "complete": cov0.complete,
                     "covering_ok": check_covering(cov0).ok,
                     "galois": galois0.status,
                     "group_order": galois0.group_order,
                     "fibers": {x: len(cov0.fiber(x))
                                for x in cov0.base_quiver.vertices}},
    }

    i0p = ws2.ideal("I0", char=2)
    i1p = ws2.ideal("I1", char=2)
    i2p = ws2.ideal("I2", char=2)
    gamma2 = explore_gamma(i1p)
    report["twobypass_char2"] = {
        "pi1_I0": _pi1_payload(homotopy_relation(i0p).presentation),
        "pi1_I1": _pi1_payload(homotopy_relation(i1p).presentation),
        "pi1_I2": _pi1_payload(homotopy_relation(i2p).presentation),
        "gamma_from_I1": {"vertices": len(gamma2.vertices),
                          "edges": len(gamma2.edges),
                          "sources": len(gamma2.sources())},
        "surjection_I2_I0": check_surjection(i2p, i0p).status,
    }
    return report


def cmd_examples(args):
    from importlib import resources

    report = compute_example_report()
    golden_file = resources.files("bqkit") / "data" / "golden" / "examples.json"
    if args.write_golden:
        import pathlib
        pathlib.Path(str(golden_file)).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print("golden file rewritten")
        return EXIT_OK
    golden = json.loads(golden_file.read_text(encoding="utf-8"))
    fresh = json.loads(json.dumps(report))  # normalize tuples
    if fresh == golden:
        print("examples match the golden outcomes")
        return EXIT_OK
    print("MISMATCH against golden outcomes:")
    _diff("", golden, fresh)
    return EXIT_REFUTED


def _diff(prefix, golden, fresh):
    if isinstance(golden, dict) and isinstance(fresh, dict):
        for key in sorted(set(golden) | set(fresh)):
            _diff("%s.%s" % (prefix, key), golden.get(key), fresh.get(key))
    elif golden != fresh:
        print("  %s: golden=%r fresh=%r" % (prefix, golden, fresh))


def build_parser():
    parser = _Parser(
        prog="bq", description="exact computations with bound quivers")
    sub = parser.add_subparsers(dest="command", required=True)

    def on_ideal(name, func, help, base=False, json=True):
        """A command on one ideal of a source file; ``--base`` and
        ``--json`` only where they are read."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("file", help="DSL source file")
        p.add_argument("--ideal", required=True, help="ideal name")
        p.add_argument("--char", type=int, default=None,
                       help="override the field characteristic")
        if base:
            p.add_argument("--base", default=None, help="base point vertex")
        if json:
            p.add_argument("--json", action="store_true")
        return p

    p = sub.add_parser("check", help="parse and validate a source file")
    p.add_argument("file")
    p.add_argument("--char", type=int, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("paths", help="list all paths of a quiver")
    p.add_argument("file")
    p.add_argument("--quiver", default=None)
    p.set_defaults(func=cmd_paths)

    on_ideal("groebner", cmd_groebner, "per hom-pair echelon bases")
    on_ideal("pi1", cmd_pi1, "fundamental group presentation", base=True)

    p = on_ideal("homotopic", cmd_homotopic, "decide a walk pair",
                 base=True, json=False)
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--cap", type=int, default=None)

    p = on_ideal("gamma", cmd_gamma, "explore the homotopy-relation quiver")
    p.add_argument("--dot", default=None)

    on_ideal("source", cmd_source, "find the privileged sources", json=False)

    p = sub.add_parser("surjection", help="check pi1(source) ->> pi1(target)")
    p.add_argument("file")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--char", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_surjection)

    p = on_ideal("cover", cmd_cover, "universal cover", base=True)
    p.add_argument("--radius", type=_radius, default=None)
    p.add_argument("--dot", default=None)
    p.add_argument("--export", default=None)

    p = on_ideal("smash", cmd_smash, "smash product from a grading")
    p.add_argument("--group", required=True, help="trivial or Z<n>")
    p.add_argument("--degrees", default="", help="a=1,b=0,...")
    p.add_argument("--dot", default=None)
    p.add_argument("--export", default=None)

    p = on_ideal("lift", cmd_lift, "lift a transvection or dilatation",
                 base=True)
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--transvection", help="arrow:path:tau")
    kind.add_argument("--dilatation", help="a=2,b=1")
    p.add_argument("--radius", type=_radius, default=None)

    p = on_ideal("pipeline", cmd_pipeline, "factor a Galois cover through "
                                           "the privileged universal cover")
    p.add_argument("--target", default=None, help="target ideal (default: same)")
    p.add_argument("--group", default="trivial")
    p.add_argument("--degrees", default="")
    p.add_argument("--radius", type=_radius, default=None)

    p = sub.add_parser("examples", help="run the bundled scenarios against "
                                        "their golden outcomes")
    p.add_argument("--write-golden", action="store_true")
    p.set_defaults(func=cmd_examples)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BqError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

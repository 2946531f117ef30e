"""Command-line surface: emit inequality systems, enumerate lattice
points, draw crystal graphs, verify, and compute dimensions.

Exit status: 0 on success, 1 on a validation error (bad arguments,
unsupported table request, malformed lambda) or when a size cap below is
exceeded, 2 when `verify` finds a failing check.

Size caps honour environment variables: CRYSTALPOLY_CLOSURE_CAP caps the
substitution closure (default 100000 forms), CRYSTALPOLY_ENUM_CAP caps
lattice-point enumeration (default 10000000 points), and
CRYSTALPOLY_BFS_CAP caps operator-generated crystal searches (default
1000000 nodes).
"""

import argparse
import json
import sys

from .forms import ClosureCapExceeded, LinearForm, closure, lambda_form, \
    render_form, xi_form
from .polytope import build, crystal_graph, enumerate_binf_truncated, \
    enumerate_blambda, verify
from .rootdata import cartan_matrix, check_dominant, weyl_dim
from .tables import UnsupportedTableError
from .zcrystal import BfsCapExceeded, IotaSequence, ZVector

_EPILOG = """\
environment:
  CRYSTALPOLY_CLOSURE_CAP   max forms per substitution closure (default 100000)
  CRYSTALPOLY_ENUM_CAP      max enumerated lattice points (default 10000000)
  CRYSTALPOLY_BFS_CAP       max operator-generated crystal nodes (default 1000000)
"""


class CliError(Exception):
    """Validation failure; rendered to stderr with exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _build_parser():
    parser = _Parser(
        prog="crystalpoly",
        description=__doc__.splitlines()[0],
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def common(p, lam_help="highest weight, comma-separated integers"):
        p.add_argument("--type", required=True, dest="type_label",
                       help="Lie type letter, optionally with the rank "
                            "attached (B, B3, F4, E8, ...)")
        p.add_argument("--rank", type=int,
                       help="rank (optional when attached to --type)")
        p.add_argument("--lambda", dest="lam", help=lam_help)

    p = sub.add_parser("emit", help="print the inequality system")
    common(p)
    p.add_argument("--object", choices=("binf", "blambda"), default="binf")
    p.add_argument("--source", choices=("closure", "table"),
                   default="closure")
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("enumerate", help="list the lattice points")
    common(p)
    p.add_argument("--object", choices=("binf", "blambda"), default="binf")
    p.add_argument("--source", choices=("closure", "table"),
                   default="closure")
    p.add_argument("--depth", type=int,
                   help="truncation depth (binf only, required there)")
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("graph", help="print the B(lambda) crystal graph")
    common(p)
    p.add_argument("--format", choices=("json", "text", "dot"),
                   default="text")

    p = sub.add_parser("verify", help="run the verification harness")
    common(p, lam_help="optionally also check B(lambda) for this weight")
    p.add_argument("--depth", type=int, default=4,
                   help="B(infinity) truncation depth (default 4)")
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("dim", help="Weyl dimension of V(lambda)")
    common(p)
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("closure", help="close one generator family under "
                                       "the substitution operators")
    common(p, lam_help=argparse.SUPPRESS)
    p.add_argument("--object", choices=("binf", "blambda"), default="binf")
    p.add_argument("--node", type=int,
                   help="seed node i: closes xi^(i) (binf) or the "
                        "lambda-bearing seed (blambda); default is the "
                        "first-column B(infinity) family")
    p.add_argument("--format", choices=("json", "text"), default="text")
    return parser


def _cartan_from(args):
    label = args.type_label.strip()
    rank = args.rank
    head = label.rstrip("0123456789")
    if head != label:
        attached = int(label[len(head):])
        if rank is not None and rank != attached:
            raise CliError("--rank %d contradicts --type %s" % (rank, label))
        rank = attached
        label = head
    if rank is None:
        raise CliError("missing rank: pass --rank or attach it to --type")
    try:
        return cartan_matrix(label.upper(), rank)
    except ValueError as err:
        raise CliError(str(err))


def _lambda_from(args, cartan, required):
    text = getattr(args, "lam", None)
    if text is None:
        if required:
            raise CliError("this request needs --lambda")
        return None
    try:
        lam = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise CliError("malformed --lambda %r: expected comma-separated "
                       "integers" % text)
    try:
        return check_dominant(cartan, lam)
    except ValueError as err:
        raise CliError(str(err))


def _form_payload(form):
    coeffs = [{"j": j, "i": i, "c": c}
              for (j, i), c in sorted(form.coeffs.items())]
    return {"constant_abs": form.const,
            "constant_lambda": list(form.lam),
            "coeffs": coeffs}


def _form_sort_key(form):
    return (tuple(sorted(form.coeffs.items())), form.lam, form.const)


def forms_payload(cartan, object_, lam, source, forms, **extra):
    """The canonical JSON document for a FormSet (deterministic order)."""
    payload = {"type": cartan.type_label, "rank": cartan.rank,
               "object": object_,
               "lambda": list(lam) if lam is not None else None,
               "source": source}
    payload.update(extra)
    payload["forms"] = [_form_payload(f)
                        for f in sorted(forms, key=_form_sort_key)]
    return payload


def _dump(payload):
    return json.dumps(payload, indent=2)


def _part_text(part):
    terms = []
    for (j, i), c in sorted(part.items()):
        terms.append("x[%d;%d]" % (j, i) if c == 1
                     else "%d*x[%d;%d]" % (c, j, i))
    return " + ".join(terms)


def _chain_lines(forms):
    """Telescoping rendering: difference forms whose negative part is the
    next form's positive part collapse into one `>=` chain."""
    plain = []
    links = []                   # (pos part, neg part) with c > 0 entries
    for f in sorted(forms, key=_form_sort_key):
        if any(f.lam) or f.const:
            plain.append(render_form(f) + " ≥ 0")
            continue
        pos = {cell: c for cell, c in f.coeffs.items() if c > 0}
        neg = {cell: -c for cell, c in f.coeffs.items() if c < 0}
        if pos and neg:
            links.append((pos, neg))
        elif pos:
            plain.append(_part_text(pos) + " ≥ 0")
        else:
            plain.append("0 ≥ " + _part_text(neg))

    def key(part):
        return tuple(sorted(part.items()))

    by_pos = {}
    for idx, (pos, _) in enumerate(links):
        by_pos.setdefault(key(pos), []).append(idx)
    succ = {}
    has_pred = set()
    for idx, (_, neg) in enumerate(links):
        nxt = by_pos.get(key(neg), [])
        if len(nxt) == 1 and nxt[0] != idx:
            succ[idx] = nxt[0]
            has_pred.add(nxt[0])
    lines = []
    used = set()
    for idx in range(len(links)):
        if idx in has_pred:
            continue
        parts = [links[idx][0], links[idx][1]]
        used.add(idx)
        cur = idx
        while cur in succ and succ[cur] not in used:
            cur = succ[cur]
            used.add(cur)
            parts.append(links[cur][1])
        lines.append(" ≥ ".join(_part_text(p) for p in parts))
    for idx in range(len(links)):
        if idx not in used:     # unreached link (e.g. part of a cycle)
            pos, neg = links[idx]
            lines.append(_part_text(pos) + " ≥ " + _part_text(neg))
    return sorted(lines) + sorted(plain)


def _forms_text(cartan, forms):
    if cartan.type_label in ("B", "C", "D"):
        return _chain_lines(forms)
    lines = []
    for f in sorted(forms, key=_form_sort_key):
        lines.append(render_form(f) + " ≥ 0")
    return lines


def _point_payload(x):
    return [{"j": j, "i": i, "v": v} for (j, i), v in x.key()]


def _point_text(x):
    if not x.entries:
        return "0"
    return " ".join("x[%d;%d]=%d" % (j, i, v) for (j, i), v in x.key())


def _sorted_points(points):
    return sorted(points, key=ZVector.key)


def _cmd_emit(args, out):
    cartan = _cartan_from(args)
    lam = _lambda_from(args, cartan, required=args.object == "blambda")
    poly = build(cartan, args.object, lam, source=args.source)
    if args.format == "json":
        out.write(_dump(forms_payload(cartan, args.object, lam, args.source,
                                      poly.forms)) + "\n")
    else:
        for line in _forms_text(cartan, poly.forms):
            out.write(line + "\n")
    return 0


def _cmd_enumerate(args, out):
    cartan = _cartan_from(args)
    lam = _lambda_from(args, cartan, required=args.object == "blambda")
    if args.object == "binf":
        if args.depth is None:
            raise CliError("enumerating B(infinity) needs --depth")
        if lam is not None:
            raise CliError("--lambda only applies to --object blambda")
        poly = build(cartan, "binf", source=args.source)
        points = _sorted_points(enumerate_binf_truncated(poly, args.depth))
    else:
        if args.depth is not None:
            raise CliError("--depth only applies to --object binf")
        poly = build(cartan, "blambda", lam, source=args.source)
        points = _sorted_points(enumerate_blambda(poly))
    if args.format == "json":
        payload = {"type": cartan.type_label, "rank": cartan.rank,
                   "object": args.object,
                   "lambda": list(lam) if lam is not None else None,
                   "source": args.source, "depth": args.depth,
                   "count": len(points),
                   "points": [_point_payload(x) for x in points]}
        out.write(_dump(payload) + "\n")
    else:
        out.write("count %d\n" % len(points))
        for x in points:
            out.write(_point_text(x) + "\n")
    return 0


def _cmd_graph(args, out):
    cartan = _cartan_from(args)
    lam = _lambda_from(args, cartan, required=True)
    nodes, edges = crystal_graph(cartan, lam)
    index = {x: k for k, x in enumerate(nodes)}
    if args.format == "json":
        payload = {"type": cartan.type_label, "rank": cartan.rank,
                   "lambda": list(lam),
                   "nodes": [_point_payload(x) for x in nodes],
                   "edges": [{"source": index[a], "i": i,
                              "target": index[b]} for a, i, b in edges]}
        out.write(_dump(payload) + "\n")
    elif args.format == "dot":
        out.write("digraph crystal {\n")
        out.write("  rankdir=TB;\n")
        for k, x in enumerate(nodes):
            out.write('  n%d [label="%s"];\n' % (k, _point_text(x)))
        for a, i, b in edges:
            out.write('  n%d -> n%d [label="%d"];\n'
                      % (index[a], index[b], i))
        out.write("}\n")
    else:
        out.write("nodes %d edges %d\n" % (len(nodes), len(edges)))
        for a, i, b in edges:
            out.write("%s --%d--> %s\n" % (_point_text(a), i, _point_text(b)))
    return 0


def _cmd_verify(args, out):
    cartan = _cartan_from(args)
    lam = _lambda_from(args, cartan, required=False)
    reports = verify(cartan, lam=lam, depth=args.depth)
    failed = any(not r.passed for r in reports)
    if args.format == "json":
        payload = {"type": cartan.type_label, "rank": cartan.rank,
                   "lambda": list(lam) if lam is not None else None,
                   "depth": args.depth,
                   "reports": [{"name": r.name, "status": r.status(),
                                "counts": r.counts,
                                "witnesses": list(r.witnesses),
                                "note": r.note} for r in reports]}
        out.write(_dump(payload) + "\n")
    else:
        for r in reports:
            counts = " ".join("%s=%s" % kv for kv in sorted(r.counts.items()))
            note = (" (%s)" % r.note) if r.note else ""
            out.write("%-4s %s %s%s\n" % (r.status(), r.name, counts, note))
            for w in r.witnesses:
                out.write("     ! %s\n" % w)
    return 2 if failed else 0


def _cmd_dim(args, out):
    cartan = _cartan_from(args)
    lam = _lambda_from(args, cartan, required=True)
    dim = weyl_dim(cartan, lam)
    if args.format == "json":
        out.write(_dump({"type": cartan.type_label, "rank": cartan.rank,
                         "lambda": list(lam), "dim": dim}) + "\n")
    else:
        out.write("%d\n" % dim)
    return 0


def _cmd_closure(args, out):
    cartan = _cartan_from(args)
    iota = IotaSequence(cartan)
    node = args.node
    if node is not None and not 1 <= node <= cartan.rank:
        raise CliError("--node must lie in 1..%d" % cartan.rank)
    if args.object == "binf":
        seed = LinearForm(cartan.rank, {(1, 1): 1}) if node is None \
            else xi_form(iota, node)
        fs = closure(iota, [seed], "S")
    else:
        if node is None:
            raise CliError("closing a lambda-bearing family needs --node")
        fs = closure(iota, [lambda_form(iota, node)], "Shat")
    if args.format == "json":
        out.write(_dump(forms_payload(cartan, args.object, None, "closure",
                                      fs, node=node)) + "\n")
    else:
        for line in _forms_text(cartan, fs):
            out.write(line + "\n")
    return 0


_COMMANDS = {
    "emit": _cmd_emit,
    "enumerate": _cmd_enumerate,
    "graph": _cmd_graph,
    "verify": _cmd_verify,
    "dim": _cmd_dim,
    "closure": _cmd_closure,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, sys.stdout)
    except (CliError, UnsupportedTableError, ValueError,
            ClosureCapExceeded, BfsCapExceeded) as err:
        print("error: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

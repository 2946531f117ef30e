"""Command-line surface: emit inequality systems, enumerate lattice
points, draw crystal graphs, verify, and compute dimensions.

Exit status: 0 on success, 1 on a validation error (bad arguments,
unsupported table request, malformed lambda or cap value), when a size
cap is exceeded or when stdout is closed early, 2 when `verify` finds a
failing check.  `crystalpoly --help` lists the size caps, their
environment variables and defaults.

JSON output is what json.dumps(payload, indent=2) gives, byte for byte,
and every document is written by _write_json.  The lists that grow with
the crystal (`emit` and `closure` forms, `enumerate` points, `graph`
nodes and edges) are written straight from the objects, one template per
list element shape, because with `indent` set json.dumps runs the
pure-Python encoder.
"""

import argparse
import functools
import json
import os
import sys
from itertools import islice, repeat

from .forms import ENTRY_JSON, ENTRY_TEXT, FIRST, TERM_JSON, TERM_TEXTS, \
    LinearForm, closure, node_family, render_form, xi_form
from .polytope import build, crystal_graph, enumerate_binf_truncated, \
    enumerate_blambda, verify
from .rootdata import CAPS, CapExceeded, cartan_matrix, check_dominant, \
    weyl_dim
from .tables import UnsupportedTableError
from .zcrystal import IotaSequence

_EPILOG = "environment:\n" + "".join(
    "  %-26s%s (default %d)\n" % (cap.env, cap.help, cap.default)
    for cap in CAPS.values())


class CliError(Exception):
    """Validation failure; rendered to stderr with exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


@functools.cache
def _build_parser():
    """Built on the first call and reused: parse_args keeps no state."""
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
        if lam_help is not None:
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
    common(p, lam_help=None)    # no --lambda: closure forms keep it symbolic
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
    return cartan_matrix(label.upper(), rank)


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
    return check_dominant(cartan, lam)


# One `%` template per list element shape, indented for an element of a
# list that is a member of the top-level object.  The {j, i, c} terms of
# a form and the {j, i, v} entries of a point come ready-made from the
# per-rank text tables forms.TERM_TEXTS.
_EDGE = '    {\n      "source": %d,\n      "i": %d,\n      "target": %d\n    }'
_FORM = ('    {\n      "constant_abs": %d,\n      "constant_lambda": %s,\n'
         '      "coeffs": %s\n    }')
_BATCH = 256                    # list elements per write


def _point_json(key, texts):
    """A point's key as the list of its {j, i, v} entries in flat
    order, read from the TermTexts `texts` of its rank."""
    if not key:
        return "    []"
    return "    [\n%s\n    ]" % ",\n".join(
        map(ENTRY_JSON, map(texts.__getitem__, key)))


class _LamTexts(dict):
    """lambda part -> its "constant_lambda" text, made on first use; one
    per document (a B(lambda) system has at most n+1 distinct parts)."""

    def __missing__(self, lam):
        text = self[lam] = "[\n        %s\n      ]" % ",\n        ".join(
            map(str, lam)) if lam else "[]"
        return text


def _form_json(pair, lams):
    """The form f.shift_rows(d) of a pair (f, d) as {constant_abs,
    constant_lambda, coeffs: [{j, i, c}]}: each term (k, c) of f read at
    (k + d*rank, c) in TERM_TEXTS, its lambda part from the document's
    _LamTexts `lams`.  No shifted form is made."""
    form, d = pair
    terms = form.terms
    if not terms:
        return _FORM % (form.const, lams[form.lam], "[]")
    texts = TERM_TEXTS[form.rank]
    if d:
        off = d * form.rank
        found = [texts[k + off, c] for k, c in terms]
    else:
        found = map(texts.__getitem__, terms)
    return _FORM % (form.const, lams[form.lam], "[\n%s\n      ]"
                    % ",\n".join(map(TERM_JSON, found)))


def _write_json(out, fields, lists):
    """Write the object {fields..., lists...} and a newline to `out`, byte
    for byte as json.dumps(..., indent=2) + "\n" would.

    `fields` are (name, value) pairs, at least one, each value rendered by
    json.dumps.  `lists` are (name, elements) pairs, each element a string
    rendered by _point_json, _form_json or the _EDGE template.  The lists
    are written in batches of _BATCH elements, so no string holds the
    whole document.

    The last write is kept short (the closing brackets): an unbuffered
    stdout passes each write to one os.write, and a pipe whose reader has
    gone may take part of a long write without an error, but refuses a
    write of at most PIPE_BUF bytes whole with EPIPE.  So a batch cut
    short is always followed by a write that raises BrokenPipeError.
    """
    head = "{\n" + ",\n".join(
        "  %s: %s" % (json.dumps(name),
                      json.dumps(value, indent=2).replace("\n", "\n  "))
        for name, value in fields)
    for name, elements in lists:
        head += ',\n  "%s": [' % name
        elements, sep = iter(elements), "\n"
        while batch := list(islice(elements, _BATCH)):
            out.write(head + sep + ",\n".join(batch))
            head, sep = "", ",\n"
        head += "]" if sep == "\n" else "\n  ]"
    out.write(head + "\n}\n")


def _write_forms(out, args, cartan, lam, source, pairs, **extra):
    """A system given as (f, d) pairs in key order, each standing for
    f.shift_rows(d), as the canonical JSON document or as the text lines
    of _forms_text; returns the exit status 0."""
    if args.format == "text":
        for line in _forms_text(cartan, pairs):
            out.write(line + "\n")
        return 0
    fields = [("type", cartan.type_label), ("rank", cartan.rank),
              ("object", args.object),
              ("lambda", list(lam) if lam is not None else None),
              ("source", source), *extra.items()]
    _write_json(out, fields,
                [("forms", map(_form_json, pairs, repeat(_LamTexts())))])
    return 0


def _part_text(part, texts):
    """A part, sorted (k, c) pairs with c > 0, as `x[j;i]` terms read from
    the TermTexts `texts` of its rank."""
    return " + ".join(map(FIRST, map(texts.__getitem__, part)))


def _chain_lines(pairs, n):
    """Telescoping rendering of a system of rank n given as (f, d) pairs,
    each term (k, c) of f read at (k + d*n, c): difference forms whose
    negative part is the next form's positive part collapse into one `>=`
    chain."""
    texts = TERM_TEXTS[n]
    plain = []
    links = []                   # (pos part, neg part) with c > 0 entries
    for f, d in pairs:
        off = d * n
        pos = tuple((k + off, c) for k, c in f.terms if c > 0)
        neg = tuple((k + off, -c) for k, c in f.terms if c < 0)
        if any(f.lam) or f.const:
            plain.append(render_form(f, d) + " ≥ 0")
        elif pos and neg:
            links.append((pos, neg))
        else:
            plain.append(_part_text(pos, texts) + " ≥ 0" if pos
                         else "0 ≥ " + _part_text(neg, texts))

    by_pos = {}
    for idx, (pos, _) in enumerate(links):
        by_pos.setdefault(pos, []).append(idx)
    succ = {}
    for idx, (_, neg) in enumerate(links):
        nxt = by_pos.get(neg, [])
        if len(nxt) == 1 and nxt[0] != idx:
            succ[idx] = nxt[0]
    has_pred = set(succ.values())
    lines, used = [], set()
    for idx in range(len(links)):
        if idx in has_pred:
            continue
        parts, cur = list(links[idx]), idx
        used.add(idx)
        while succ.get(cur, idx) not in used:
            cur = succ[cur]
            used.add(cur)
            parts.append(links[cur][1])
        lines.append(" ≥ ".join(_part_text(p, texts) for p in parts))
    # an unreached link (e.g. part of a cycle) is a line of its own
    lines += [" ≥ ".join(_part_text(p, texts) for p in links[idx])
              for idx in range(len(links)) if idx not in used]
    return sorted(lines) + sorted(plain)


def _forms_text(cartan, pairs):
    """The text lines of a system given as (f, d) pairs in key order:
    chains for B, C and D, else one form per line in that order."""
    if cartan.type_label in ("B", "C", "D"):
        return _chain_lines(pairs, cartan.rank)
    return [render_form(f, d) + " ≥ 0" for f, d in pairs]


def _point_text(key, texts):
    return " ".join(map(ENTRY_TEXT, map(texts.__getitem__, key))) or "0"


def _cmd_emit(args, out):
    cartan = _cartan_from(args)
    lam = _lambda_from(args, cartan, required=args.object == "blambda")
    poly = build(cartan, args.object, lam, source=args.source)
    return _write_forms(out, args, cartan, lam, args.source, poly.pairs())


def _cmd_enumerate(args, out):
    cartan = _cartan_from(args)
    lam = _lambda_from(args, cartan, required=args.object == "blambda")
    binf = args.object == "binf"
    if binf and args.depth is None:
        raise CliError("enumerating B(infinity) needs --depth")
    if not binf and args.depth is not None:
        raise CliError("--depth only applies to --object binf")
    poly = build(cartan, args.object, lam, source=args.source)
    points = sorted(enumerate_binf_truncated(poly, args.depth) if binf
                    else enumerate_blambda(poly))
    texts = TERM_TEXTS[cartan.rank]
    if args.format == "json":
        _write_json(out, [("type", cartan.type_label), ("rank", cartan.rank),
                          ("object", args.object),
                          ("lambda", list(lam) if lam is not None else None),
                          ("source", args.source), ("depth", args.depth),
                          ("count", len(points))],
                    [("points", map(_point_json, points, repeat(texts)))])
    else:
        out.write("count %d\n" % len(points))
        for key in points:
            out.write(_point_text(key, texts) + "\n")
    return 0


def _cmd_graph(args, out):
    cartan = _cartan_from(args)
    lam = _lambda_from(args, cartan, required=True)
    nodes, edges = crystal_graph(cartan, lam)
    texts = TERM_TEXTS[cartan.rank]
    if args.format == "json":
        _write_json(out, [("type", cartan.type_label), ("rank", cartan.rank),
                          ("lambda", list(lam))],
                    [("nodes", map(_point_json, nodes, repeat(texts))),
                     ("edges", map(_EDGE.__mod__, edges))])
        return 0
    labels = [_point_text(key, texts) for key in nodes]
    if args.format == "dot":
        out.write("digraph crystal {\n  rankdir=TB;\n")
        for k, label in enumerate(labels):
            out.write('  n%d [label="%s"];\n' % (k, label))
        for a, i, b in edges:
            out.write('  n%d -> n%d [label="%d"];\n' % (a, b, i))
        out.write("}\n")
    else:
        out.write("nodes %d edges %d\n" % (len(nodes), len(edges)))
        for a, i, b in edges:
            out.write("%s --%d--> %s\n" % (labels[a], i, labels[b]))
    return 0


def _cmd_verify(args, out):
    cartan = _cartan_from(args)
    lam = _lambda_from(args, cartan, required=False)
    reports = verify(cartan, lam=lam, depth=args.depth)
    failed = any(not r.passed for r in reports)
    if args.format == "json":
        _write_json(out, [("type", cartan.type_label), ("rank", cartan.rank),
                          ("lambda", list(lam) if lam is not None else None),
                          ("depth", args.depth),
                          ("reports", [{"name": r.name, "status": r.status(),
                                        "counts": r.counts,
                                        "witnesses": list(r.witnesses),
                                        "note": r.note} for r in reports])],
                    ())
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
        _write_json(out, [("type", cartan.type_label), ("rank", cartan.rank),
                          ("lambda", list(lam)), ("dim", dim)], ())
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
        fs = closure(iota, [seed])
    else:
        if node is None:
            raise CliError("closing a lambda-bearing family needs --node")
        fs = node_family(iota, node)
    return _write_forms(out, args, cartan, None, "closure",
                        zip(fs, repeat(0)), node=node)


_COMMANDS = {
    "emit": _cmd_emit,
    "enumerate": _cmd_enumerate,
    "graph": _cmd_graph,
    "verify": _cmd_verify,
    "dim": _cmd_dim,
    "closure": _cmd_closure,
}


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        status = _COMMANDS[args.command](args, sys.stdout)
        sys.stdout.flush()
        return status
    except (CliError, UnsupportedTableError, ValueError, CapExceeded) as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout (`... | head`): point stdout at devnull
        # so the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())

import ast
import hashlib
import importlib.util
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from functools import partial
from itertools import repeat
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from crystalpoly import cli, forms
from crystalpoly.forms import LinearForm, FormSet, render_form
from crystalpoly.rootdata import cartan_matrix, cell_triples
from crystalpoly.zcrystal import ZVector
from reference import minus, pair_form, vectors

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_TERM = re.compile(r"(?:(\d+)\*)?x\[(\d+);(\d+)\]")


def _part(text):
    """Parse one side of a chain: '0', 'x[1;2]', or '2*x[2;3] + x[3;1]'."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for piece in text.split(" + "):
        m = _TERM.fullmatch(piece.strip())
        assert m, piece
        out[(int(m.group(2)), int(m.group(3)))] = int(m.group(1) or 1)
    return out


def _decode_chains(text):
    """Rebuild the coefficient-dict multiset from chain-format output."""
    forms = []
    for line in text.splitlines():
        parts = [_part(p) for p in line.split(" ≥ ")]
        for left, right in zip(parts, parts[1:]):
            d = dict(left)
            for cell, c in right.items():
                d[cell] = d.get(cell, 0) - c
            forms.append(tuple(sorted((k, v) for k, v in d.items() if v)))
    return sorted(forms)


def test_emit_text_and_json_describe_the_same_forms(capsys):
    code, text, _ = run(capsys, "emit", "--type", "B3", "--source", "table")
    assert code == 0
    code, out, _ = run(capsys, "emit", "--type", "B3", "--source", "table",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    from_json = sorted(
        tuple(sorted(((e["j"], e["i"]), e["c"]) for e in f["coeffs"]))
        for f in payload["forms"])
    assert _decode_chains(text) == from_json


# References for the JSON renderer: the documents as lists of dicts, to be
# rendered by json.dumps(..., indent=2).

def point_ref(x):
    return [{"j": j, "i": i, "v": v}
            for (j, i), v in sorted(x.entries.items())]


def edge_ref(source, i, target):
    return {"source": source, "i": i, "target": target}


def form_ref(form):
    return {"constant_abs": form.const,
            "constant_lambda": list(form.lam),
            "coeffs": [{"j": j, "i": i, "c": c}
                       for (j, i), c in sorted(form.coeffs.items())]}


def forms_payload_ref(cartan, object_, lam, source, forms, **extra):
    payload = {"type": cartan.type_label, "rank": cartan.rank,
               "object": object_,
               "lambda": list(lam) if lam is not None else None,
               "source": source}
    payload.update(extra)
    payload["forms"] = [form_ref(f)
                        for f in sorted(forms, key=LinearForm.key)]
    return payload


def test_emit_json_round_trips_byte_identically(capsys):
    code, out, _ = run(capsys, "emit", "--type", "C3", "--object", "blambda",
                       "--lambda", "1,0,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    rebuilt = [LinearForm(payload["rank"],
                          {(e["j"], e["i"]): e["c"] for e in f["coeffs"]},
                          lam=f["constant_lambda"], const=f["constant_abs"])
               for f in payload["forms"]]
    again = forms_payload_ref(
        cartan_matrix(payload["type"], payload["rank"]), payload["object"],
        tuple(payload["lambda"]), payload["source"], FormSet(rebuilt))
    assert json.dumps(again, indent=2) + "\n" == out


_VALUES = st.integers(-150, 150)
_HEADER = st.lists(
    st.tuples(st.sampled_from(("type", "rank", "object", "lambda", "source",
                               "node", "depth", "count")),
              st.one_of(st.none(), _VALUES, st.sampled_from(("A", "binf")),
                        st.lists(_VALUES, max_size=4))),
    min_size=1, max_size=6, unique_by=lambda field: field[0])


@st.composite
def zvectors(draw):
    # cells lie in rows >= 1 and columns 1..rank, as for linear_forms
    rank = draw(st.integers(1, 8))
    cells = st.tuples(st.integers(1, 12), st.integers(1, rank))
    return ZVector(rank, draw(st.dictionaries(cells, _VALUES, max_size=4)))


@st.composite
def linear_forms(draw):
    # a form's cells lie in rows >= 1 and columns 1..rank (the constructor
    # rejects any other cell), so the rank is at least 1
    rank = draw(st.integers(1, 3))
    cells = st.tuples(st.integers(1, 12), st.integers(1, rank))
    return LinearForm(rank, draw(st.dictionaries(cells, _VALUES, max_size=4)),
                      lam=draw(st.lists(_VALUES, min_size=rank,
                                        max_size=rank)),
                      const=draw(_VALUES))


@st.composite
def form_pairs(draw):
    # (f, d) as Polyhedron.pairs gives them: a form with a lambda part or
    # constant only at d = 0, a coordinate-only form at any shift
    f = draw(linear_forms())
    if draw(st.booleans()):
        return f, 0
    return LinearForm(f.rank, f.coeffs), draw(st.integers(0, 3))


def point_json(x):
    """cli._point_json of a ZVector, read from the text table of its
    rank."""
    return cli._point_json(x.key(), forms.TERM_TEXTS[x.rank])


_EDGES = st.tuples(st.integers(0, 5000), st.integers(1, 8),
                   st.integers(0, 5000))
# (name, element strategy, renderer, reference) of each list shape; a
# renderer maps the elements of one document to their texts, and the
# forms of a document share one lambda-part memo
_SHAPES = {
    "points": (zvectors(), partial(map, point_json), point_ref),
    "nodes": (zvectors(), partial(map, point_json), point_ref),
    "edges": (_EDGES, partial(map, cli._EDGE.__mod__),
              lambda e: edge_ref(*e)),
    "forms": (form_pairs(),
              lambda pairs: map(cli._form_json, pairs,
                                repeat(cli._LamTexts())),
              lambda pair: form_ref(pair_form(pair))),
}


@settings(deadline=None, max_examples=200)
@given(_HEADER, st.lists(st.sampled_from(sorted(_SHAPES)), min_size=1,
                         max_size=2, unique=True),
       st.integers(1, 4), st.data())
def test_json_renderer_matches_json_dumps(header, names, batch, data):
    payload = dict(header)
    lists = []
    for name in names:
        elements, render, ref = _SHAPES[name]
        items = data.draw(st.lists(elements, max_size=9))
        payload[name] = [ref(x) for x in items]
        lists.append((name, render(items)))
    out = io.StringIO()
    with mock.patch.object(cli, "_BATCH", batch):
        cli._write_json(out, header, lists)
    assert out.getvalue() == json.dumps(payload, indent=2) + "\n"


def entries_rendered_anew(x):
    """Reference: _point_json before its memo, each {j, i, v} entry
    formatted from its decoded triple."""
    if not x.key():
        return "    []"
    return "    [\n%s\n    ]" % ",\n".join(
        forms._ENTRY_JSON % triple
        for triple in cell_triples(x.rank, x.key()))


@settings(deadline=None, max_examples=200)
@given(st.lists(zvectors(), max_size=8))
def test_point_json_matches_the_entries_rendered_anew(vectors):
    # ranks 1..8, rows 1..12, values of both signs; the memos of earlier
    # examples are kept, as in a process that renders many documents
    for x in vectors:
        assert point_json(x) == entries_rendered_anew(x)


def test_point_json_keeps_one_entry_memo_per_rank():
    # flat position 3 is (2;1) at rank 2 and (1;3) at rank 3
    a, b = ZVector(2, {(2, 1): -7}), ZVector(3, {(1, 3): -7})
    assert a.key() == b.key() == ((3, -7),)
    for x, (j, i) in [(a, (2, 1)), (b, (1, 3)), (a, (2, 1)), (b, (1, 3))]:
        text = point_json(x)
        assert text == entries_rendered_anew(x)
        assert json.loads(text) == [{"j": j, "i": i, "v": -7}]


def test_point_json_memo_stays_bounded():
    # more distinct entries than a memo keeps: it is emptied and refilled
    vectors = [ZVector(1, {(j, 1): v})
               for j in (1, 2) for v in range(-3000, 3000) if v]
    for x in vectors + vectors[:10]:
        assert point_json(x) == entries_rendered_anew(x)
    assert 0 < len(forms.TERM_TEXTS[1]) <= forms._TEXT_MEMO


def test_form_and_point_texts_keep_one_term_table_per_rank():
    # flat position 3 is (2;1) at rank 2 and (1;3) at rank 3
    a, b = LinearForm(2, {(2, 1): -7}), LinearForm(3, {(1, 3): -7})
    assert a.terms == b.terms == ((3, -7),)
    lams = cli._LamTexts()
    for f, (j, i) in [(a, (2, 1)), (b, (1, 3)), (a, (2, 1)), (b, (1, 3))]:
        cell = "x[%d;%d]" % (j, i)
        assert render_form(f) == "-7*" + cell
        assert render_form(LinearForm(f.rank, {(1, 1): 1, (j, i): -7})) \
            == "x[1;1] - 7*" + cell
        assert json.loads(cli._form_json((f, 0), lams))["coeffs"] == \
            [{"j": j, "i": i, "c": -7}]
        assert json.loads(cli._form_json((f, 2), lams))["coeffs"] == \
            [{"j": j + 2, "i": i, "c": -7}]
        assert cli._part_text(((3, 7),), forms.TERM_TEXTS[f.rank]) == \
            "7*" + cell
        assert cli._point_text(ZVector(f.rank, {(j, i): -7}).key(),
                               forms.TERM_TEXTS[f.rank]) == cell + "=-7"


def test_emit_and_closure_match_the_benchmark_digests(capsys):
    digests = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    assert len(digests) == 9
    for command, digest in digests.items():
        code, out, err = run(capsys, *command.split())
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, \
            command


@pytest.mark.parametrize("argv", [
    ("emit", "--type", "E8", "--format", "json"),
    ("emit", "--type", "D6", "--format", "text"),
    ("emit", "--type", "F4", "--object", "blambda", "--lambda", "0,0,0,1",
     "--source", "table", "--format", "text"),
])
def test_emit_makes_no_form_once_built(capsys, monkeypatch, argv):
    # emit renders (f, d) pairs straight from the blocks: once build has
    # returned, no form is shifted and none is made from a key
    expected = run(capsys, *argv)
    real_build = cli.build

    def refuse(*args, **kwargs):
        raise AssertionError("a form was made after build")

    def build(*args, **kwargs):
        poly = real_build(*args, **kwargs)
        monkeypatch.setattr(LinearForm, "shift_rows", refuse)
        monkeypatch.setattr(forms, "_form", refuse)
        return poly

    monkeypatch.setattr(cli, "build", build)
    assert run(capsys, *argv) == expected
    assert expected[0] == 0 and expected[1]


def test_form_json_renders_each_lambda_part_once_per_document(capsys):
    # every document gets a memo of its own, filled once per distinct
    # lambda part: 7 parts in the E6 B(lambda) system (0 and the n
    # lambda_i), the part 0 alone in a B(infinity) system
    made = []

    class Counted(cli._LamTexts):
        def __init__(self):
            super().__init__()
            self.misses = 0
            made.append(self)

        def __missing__(self, lam):
            self.misses += 1
            return super().__missing__(lam)

    blambda = ("emit", "--type", "E6", "--object", "blambda", "--lambda",
               "1,0,0,0,0,1", "--format", "json")
    with mock.patch.object(cli, "_LamTexts", Counted):
        for argv in (blambda, blambda, ("emit", "--type", "E6", "--format",
                                        "json")):
            assert run(capsys, *argv)[0] == 0
    assert [(len(memo), memo.misses) for memo in made] == \
        [(7, 7), (7, 7), (1, 1)]


def test_render_paths_match_the_recorded_digests(capsys):
    # SHA-256 of stdout of requests that the benchmark's digests leave
    # out, recorded before the term and entry texts came from one
    # per-rank table: B(lambda) text with lambda parts (E6, F4), closure
    # JSON, the B/C/D chains of a B(lambda), G2 (coefficient 3), the text
    # of `enumerate` and the dot graph of a rank-4 type
    digests = json.loads((ROOT / "tests" / "render_digests.json")
                         .read_text())
    assert len(digests) == 13
    for command, digest in digests.items():
        code, out, err = run(capsys, *command.split())
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, \
            command


def _perfbench(name):
    """perfbench/<name>.py, loaded from its file without touching
    sys.path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, ROOT / "perfbench" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_still_resolves():
    # `perfbench/run.py --trace 1` wraps these by name; a function that is
    # renamed or deleted breaks Tracer.install()
    tracer = _perfbench("tracer")
    assert tracer.TRACED
    for modname, func, *_ in tracer.TRACED:
        module = importlib.import_module(modname)
        assert callable(getattr(module, func, None)), (modname, func)
    for modname in tracer.MODULES:
        importlib.import_module(modname)
    spans = tracer.Tracer()
    try:
        spans.install()
    finally:
        assert spans.restore() == []


def test_verify_and_graph_search_through_the_traced_entries(capsys):
    # the benchmark's per-layer metrics read the oracle's search from the
    # spans of generate_binf and generate_blambda, sized by the set, and
    # the graph pass from crystal_graph's; a request that goes round them
    # reads 0 there
    from crystalpoly.rootdata import weyl_dim
    from crystalpoly.zcrystal import IotaSequence, generate_binf
    tracer = _perfbench("tracer")
    spans = tracer.Tracer()
    spans.install()
    try:
        for argv in (("verify", "--type", "B2", "--lambda", "1,1",
                      "--depth", "2"),
                     ("graph", "--type", "G2", "--lambda", "1,0")):
            assert run(capsys, *argv)[0] == 0
    finally:
        assert spans.restore() == []
    sizes = {}
    for span in spans.take():
        sizes.setdefault(span[tracer.NAME], []).append(span[tracer.SIZE])
    b2 = cartan_matrix("B", 2)
    binf = len(generate_binf(IotaSequence(b2), 2))
    blam = [weyl_dim(b2, (1, 1)), weyl_dim(cartan_matrix("G", 2), (1, 0))]
    assert sizes["zcrystal.generate_binf"] == [binf]
    assert sizes["zcrystal.generate_blambda"] == blam
    assert sizes["polytope.axiom_report"] == [binf, blam[0]]
    assert len(sizes["polytope.crystal_graph"]) == 1


def test_oracle_requests_match_the_recorded_digests(capsys):
    # SHA-256 of stdout of every blambda-oracle request (verify and graph)
    # at seeds 1 and 1009, recorded before vectors moved to flat positions;
    # the benchmark's own gate checks only counts for these requests
    digests = json.loads((ROOT / "tests" / "oracle_digests.json")
                         .read_text())
    workloads = _perfbench("workloads")
    argvs = {" ".join(r["argv"]): r["argv"] for seed in (1, 1009)
             for r in workloads.requests("blambda-oracle", seed)}
    assert sorted(argvs) == sorted(digests)
    assert {argv[0] for argv in argvs.values()} == {"verify", "graph"}
    for command, argv in argvs.items():
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
            digests[command], command


def test_exceptional_requests_match_the_recorded_digests(capsys):
    # SHA-256 of stdout of every binf-exceptional request (E6-E8 verify
    # and E8 enumerate), recorded before verify enumerated equal systems
    # once; the benchmark's own gate checks only verdicts and counts
    digests = json.loads((ROOT / "tests" / "exceptional_digests.json")
                         .read_text())
    workloads = _perfbench("workloads")
    argvs = {" ".join(r["argv"]): r["argv"] for seed in (1, 1009)
             for r in workloads.requests("binf-exceptional", seed)}
    assert sorted(argvs) == sorted(digests)
    assert {argv[0] for argv in argvs.values()} == {"verify", "enumerate"}
    for command, argv in argvs.items():
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
            digests[command], command


_GOLDENS = ROOT / "tests" / "goldens"


@pytest.mark.parametrize("name,argv", [
    ("graph-B2-11.json", ("graph", "--type", "B2", "--lambda", "1,1",
                          "--format", "json")),
    ("graph-B2-11.txt", ("graph", "--type", "B2", "--lambda", "1,1")),
    ("graph-B2-11.dot", ("graph", "--type", "B2", "--lambda", "1,1",
                         "--format", "dot")),
    ("graph-G2-10.json", ("graph", "--type", "G2", "--lambda", "1,0",
                          "--format", "json")),
    ("graph-G2-10.txt", ("graph", "--type", "G2", "--lambda", "1,0",
                         "--format", "text")),
    ("graph-G2-10.dot", ("graph", "--type", "G2", "--lambda", "1,0",
                         "--format", "dot")),
    ("enumerate-C3-110.json", ("enumerate", "--type", "C3", "--object",
                               "blambda", "--lambda", "1,1,0",
                               "--format", "json")),
])
def test_rank_two_and_three_goldens(capsys, name, argv):
    # at rank >= 2 a flat position differs from its row, so these catch a
    # slip in writing (j;i) cells or in ordering and numbering edges
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == (_GOLDENS / name).read_bytes().decode("utf-8")


def test_emit_unchained_types_print_one_form_per_line(capsys):
    code, text, _ = run(capsys, "emit", "--type", "F4", "--source", "table")
    assert code == 0
    code, out, _ = run(capsys, "emit", "--type", "F4", "--source", "table",
                       "--format", "json")
    lines = [l for l in text.splitlines() if l]
    assert len(lines) == len(json.loads(out)["forms"])
    assert all(l.endswith("≥ 0") or l.startswith("0 ≥")
               for l in lines)


def test_emit_accepts_attached_or_separate_rank(capsys):
    _, a, _ = run(capsys, "emit", "--type", "B3")
    _, b, _ = run(capsys, "emit", "--type", "B", "--rank", "3")
    assert a == b
    code, _, err = run(capsys, "emit", "--type", "B3", "--rank", "4")
    assert code == 1 and "contradicts" in err


def test_sources_emit_identical_systems(capsys):
    _, a, _ = run(capsys, "emit", "--type", "D4", "--format", "json",
                  "--source", "closure")
    _, b, _ = run(capsys, "emit", "--type", "D4", "--format", "json",
                  "--source", "table")
    assert json.loads(a)["forms"] == json.loads(b)["forms"]


def test_dim_command(capsys):
    code, out, _ = run(capsys, "dim", "--type", "B2", "--lambda", "1,1")
    assert code == 0 and out == "16\n"
    code, out, _ = run(capsys, "dim", "--type", "B2", "--lambda", "1,1",
                       "--format", "json")
    assert json.loads(out) == {"type": "B", "rank": 2, "lambda": [1, 1],
                               "dim": 16}


@pytest.mark.parametrize("argv", [
    ("verify", "--type", "B2", "--lambda", "1,1", "--depth", "3"),
    ("verify", "--type", "G2", "--depth", "3"),
    ("dim", "--type", "F4", "--lambda", "1,0,0,1"),
])
def test_verify_and_dim_json_bytes_are_json_dumps(capsys, argv):
    # these documents hold fields only; their bytes must stay those of
    # json.dumps(indent=2), nested reports, SKIP notes and all
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2) + "\n"
    if argv[0] == "verify":
        assert all(r["status"] in ("PASS", "SKIP")
                   for r in payload["reports"])
        assert len(payload["reports"]) > 5
    else:
        assert payload["dim"] == 1053


def test_enumerate_blambda_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--type", "B2", "--object",
                       "blambda", "--lambda", "1,0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "count 5"
    assert lines[1] == "0"
    assert len(lines) == 6


def test_enumerate_binf_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--type", "A2", "--depth", "2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["object"] == "binf" and payload["depth"] == 2
    assert payload["count"] == len(payload["points"]) == 7
    assert payload["points"][0] == []
    # points are sorted and sparse
    assert all(p == sorted(p, key=lambda e: (e["j"], e["i"]))
               for p in payload["points"])


def test_graph_dot_golden(capsys):
    code, out, _ = run(capsys, "graph", "--type", "A1", "--lambda", "2",
                       "--format", "dot")
    assert code == 0
    assert out == (
        'digraph crystal {\n'
        '  rankdir=TB;\n'
        '  n0 [label="0"];\n'
        '  n1 [label="x[1;1]=1"];\n'
        '  n2 [label="x[1;1]=2"];\n'
        '  n0 -> n1 [label="1"];\n'
        '  n1 -> n2 [label="1"];\n'
        '}\n')


def test_graph_json_golden(capsys):
    code, out, _ = run(capsys, "graph", "--type", "A1", "--lambda", "2",
                       "--format", "json")
    assert code == 0
    assert out == (
        '{\n  "type": "A",\n  "rank": 1,\n  "lambda": [\n    2\n  ],\n'
        '  "nodes": [\n    [],\n'
        '    [\n      {\n        "j": 1,\n        "i": 1,\n        "v": 1\n'
        '      }\n    ],\n'
        '    [\n      {\n        "j": 1,\n        "i": 1,\n        "v": 2\n'
        '      }\n    ]\n  ],\n'
        '  "edges": [\n'
        '    {\n      "source": 0,\n      "i": 1,\n      "target": 1\n    },\n'
        '    {\n      "source": 1,\n      "i": 1,\n      "target": 2\n    }\n'
        '  ]\n}\n')


def test_enumerate_json_golden(capsys):
    code, out, _ = run(capsys, "enumerate", "--type", "A2", "--depth", "1",
                       "--format", "json")
    assert code == 0
    assert out == (
        '{\n  "type": "A",\n  "rank": 2,\n  "object": "binf",\n'
        '  "lambda": null,\n  "source": "closure",\n  "depth": 1,\n'
        '  "count": 3,\n  "points": [\n    [],\n'
        '    [\n      {\n        "j": 1,\n        "i": 1,\n        "v": 1\n'
        '      }\n    ],\n'
        '    [\n      {\n        "j": 1,\n        "i": 2,\n        "v": 1\n'
        '      }\n    ]\n  ]\n}\n')


def test_graph_calls_f_tilde_only_inside_the_search(capsys, monkeypatch):
    import crystalpoly.polytope as polytope_module
    import crystalpoly.zcrystal as zcrystal_module
    real_f, real_search = zcrystal_module.f_tilde, \
        polytope_module.generate_blambda
    calls = {True: 0, False: 0}     # keyed by "inside generate_blambda"
    inside = [False]

    def f_tilde(*args):
        calls[inside[0]] += 1
        return real_f(*args)

    def generate_blambda(*args, **kwargs):
        inside[0] = True
        try:
            return real_search(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(zcrystal_module, "f_tilde", f_tilde)
    monkeypatch.setattr(polytope_module, "generate_blambda", generate_blambda)
    code, out, _ = run(capsys, "graph", "--type", "B3", "--lambda", "1,0,1",
                       "--format", "json")
    assert code == 0
    assert calls[False] == 0
    # the search makes its steps on keys, with no operator call, and each
    # edge once: one per pair (x, i) on which f_i acts
    assert calls[True] == 0
    edges = json.loads(out)["edges"]
    iota = zcrystal_module.IotaSequence(cartan_matrix("B", 3))
    acting = sum(zcrystal_module.CrystalNode(iota, x, (1, 0, 1)).f(i)
                 is not None for x in vectors(3, real_search(iota, (1, 0, 1)))
                 for i in (1, 2, 3))
    assert len({(e["source"], e["i"]) for e in edges}) == len(edges) \
        == acting > 0


@pytest.mark.parametrize("argv,kernels", [
    (["emit", "--type", "D6"], 0),
    (["emit", "--type", "F4", "--object", "blambda", "--lambda", "0,0,0,1",
      "--source", "table"], 0),
    (["closure", "--type", "E6", "--object", "blambda", "--node", "6"], 0),
    (["closure", "--type", "E7", "--node", "7"], 0),
    (["verify", "--type", "B3", "--lambda", "1,0,1", "--depth", "2"], 1),
    (["verify", "--type", "G2", "--depth", "3"], 1),
    (["graph", "--type", "B3", "--lambda", "1,0,1", "--format", "json"], 1),
])
def test_only_oracle_requests_compile_a_signature_kernel(capsys, monkeypatch,
                                                         argv, kernels):
    # the kernel is made on the first table an IotaSequence scans, not
    # when one is made: emit and closure make one and scan nothing
    import crystalpoly.zcrystal as zcrystal_module
    real = zcrystal_module._scan_kernel
    made = []

    def counted(rank, steps):
        made.append(rank)
        return real(rank, steps)

    monkeypatch.setattr(zcrystal_module, "_scan_kernel", counted)
    for request in (1, 2):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out
        # no cache outlives a request: each one makes its own kernel
        assert len(made) == kernels * request, argv


def test_graph_json_and_text(capsys):
    code, out, _ = run(capsys, "graph", "--type", "B2", "--lambda", "0,1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["nodes"]) == 4
    assert all(set(e) == {"source", "i", "target"} for e in payload["edges"])
    code, out, _ = run(capsys, "graph", "--type", "B2", "--lambda", "0,1")
    assert code == 0
    assert out.splitlines()[0] == "nodes 4 edges 3"


def test_verify_command_all_green(capsys):
    code, out, _ = run(capsys, "verify", "--type", "B2", "--lambda", "1,1",
                       "--depth", "3")
    assert code == 0
    lines = out.splitlines()
    assert all(l.startswith(("PASS", "SKIP")) or l.startswith("     !")
               for l in lines)
    assert any("a:table-vs-closure" in l for l in lines)
    assert any("c:blambda-oracle" in l for l in lines)


def test_verify_command_json(capsys):
    code, out, _ = run(capsys, "verify", "--type", "G2", "--depth", "3",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    statuses = {r["name"]: r["status"] for r in payload["reports"]}
    assert statuses["a:table-vs-closure"] == "SKIP"
    assert statuses["b:binf-oracle"] == "PASS"


def test_verify_b4_all_ones_within_budget(capsys):
    # 65,536 nodes in B(lambda): every check of verify, end to end
    start = time.monotonic()
    code, out, _ = run(capsys, "verify", "--type", "B4", "--lambda",
                       "1,1,1,1")
    elapsed = time.monotonic() - start
    assert code == 0
    assert out == (
        "PASS a:table-vs-closure closure=32 table=32\n"
        "PASS b:binf-oracle bfs=138 closure=138 table=138\n"
        "PASS c:blambda-oracle bfs=65536 closure=65536 table=65536 "
        "weyl_dim=65536\n"
        "PASS d:positivity forms=8\n"
        "PASS d:strict-positivity families=4\n"
        "PASS d:ample forms=53\n"
        "PASS e:support-region positive_roots=16 region=16\n"
        "PASS f:crystal-axioms(binf) nodes=138\n"
        "PASS f:crystal-axioms(blambda) nodes=65536\n"
        "PASS g:nonnegativity points=65950\n")
    assert elapsed < 60.0


def test_verify_failure_exits_2(capsys, monkeypatch):
    # the tampered table system goes in as one block of all its rows
    import crystalpoly.polytope as polytope_module
    from crystalpoly.tables import binf_table

    def tampered(type_label, rank):
        forms = list(binf_table(type_label, rank))
        return FormSet(forms[1:]), 1

    monkeypatch.setattr(polytope_module, "binf_block", tampered)
    code, out, _ = run(capsys, "verify", "--type", "B2", "--depth", "3")
    assert code == 2
    assert any(l.startswith("FAIL a:table-vs-closure")
               for l in out.splitlines())
    assert "!" in out


def test_closure_command(capsys):
    code, out, _ = run(capsys, "closure", "--type", "B2")
    assert code == 0
    assert _decode_chains(out) == _decode_chains(
        "x[1;1] ≥ 0\nx[1;2] ≥ x[2;1] ≥ x[2;2]\n0 ≥ x[3;1]")
    code, out, _ = run(capsys, "closure", "--type", "B2", "--object",
                       "blambda", "--node", "1")
    assert code == 0 and out == "L1 - x[1;1] ≥ 0\n"
    code, out, _ = run(capsys, "closure", "--type", "B2", "--node", "2",
                       "--format", "json")
    assert json.loads(out)["node"] == 2


@pytest.mark.parametrize("argv,needle", [
    (("emit", "--type", "B2", "--object", "blambda"), "--lambda"),
    (("emit", "--type", "B2", "--object", "blambda", "--lambda", "1,x"),
     "malformed"),
    (("emit", "--type", "B2", "--object", "blambda", "--lambda", "1,2,3"),
     "rank"),
    (("emit", "--type", "B2", "--object", "blambda", "--lambda=-1,0"),
     "dominant"),
    (("emit", "--type", "E7", "--object", "blambda",
      "--lambda", "1,0,0,0,0,0,0", "--source", "table"), "closure"),
    (("emit", "--type", "Q9"), "unknown type"),
    (("emit", "--type", "B"), "rank"),
    (("emit", "--type", "B2", "--format", "dot"), "invalid choice"),
    (("enumerate", "--type", "B2"), "--depth"),
    (("enumerate", "--type", "B2", "--object", "blambda", "--lambda", "0,1",
      "--depth", "3"), "--depth"),
    (("graph", "--type", "B3"), "--lambda"),
    (("closure", "--type", "B2", "--object", "blambda"), "--node"),
    (("closure", "--type", "B2", "--node", "9"), "--node"),
    # closure forms keep lambda symbolic, so a weight would be ignored
    (("closure", "--type", "B2", "--object", "blambda", "--node", "2",
      "--lambda", "1,0"), "unrecognized arguments: --lambda 1,0"),
])
def test_validation_errors_exit_1(capsys, argv, needle):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert needle in err


@pytest.mark.parametrize("var,argv,needle", [
    ("CRYSTALPOLY_CLOSURE_CAP", ("emit", "--type", "E6"),
     "cap of 5 forms (CRYSTALPOLY_CLOSURE_CAP) after reaching 6 forms"),
    ("CRYSTALPOLY_BFS_CAP", ("graph", "--type", "A2", "--lambda", "2,2"),
     "cap of 5 nodes (CRYSTALPOLY_BFS_CAP) after reaching"),
    ("CRYSTALPOLY_BFS_CAP", ("verify", "--type", "A2", "--depth", "3"),
     "cap of 5 nodes (CRYSTALPOLY_BFS_CAP) after reaching"),
    ("CRYSTALPOLY_ENUM_CAP", ("enumerate", "--type", "B2", "--depth", "3"),
     "cap of 5 points (CRYSTALPOLY_ENUM_CAP) after reaching 6 points"),
    # the closure cap names the family: its first generator and operator
    ("CRYSTALPOLY_CLOSURE_CAP", ("emit", "--type", "E6"),
     "after reaching 6 forms while closing x[1;1] under S;"),
    ("CRYSTALPOLY_CLOSURE_CAP", ("closure", "--type", "B3", "--object",
                                 "blambda", "--node", "3"),
     "cap of 5 forms (CRYSTALPOLY_CLOSURE_CAP) after reaching 6 forms "
     "while closing L3 + 2*x[1;2] - x[1;3] under S;"),
])
def test_cap_errors_exit_1(capsys, monkeypatch, var, argv, needle):
    monkeypatch.setenv(var, "5")
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and needle in err
    assert "Traceback" not in err


@pytest.mark.parametrize("label,rank,seed", [
    ("B", 18, "L18 + 2*x[1;17] - x[1;18]"),
    ("C", 18, "L18 + x[1;17] - x[1;18]"),
    ("D", 19, "L18 + x[1;17] - x[1;18]"),
])
def test_b_lambda_past_rank_17_needs_a_higher_closure_cap(
        capsys, monkeypatch, label, rank, seed):
    # every B(lambda) build closes the node families whatever lambda is;
    # the last one of B_n and C_n has 2^n - 1 forms and each spin family
    # of D_n 2^(n-1) - 1, more than the default cap of 150,000 from B18,
    # C18 and D19 (node 18) on
    monkeypatch.delenv("CRYSTALPOLY_CLOSURE_CAP", raising=False)
    code, out, err = run(capsys, "verify", "--type", "%s%d" % (label, rank),
                         "--lambda", ",".join(["1"] + ["0"] * (rank - 1)),
                         "--depth", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: closure exceeded the cap of 150000 forms "
                          "(CRYSTALPOLY_CLOSURE_CAP)")
    assert "while closing %s under S" % seed in err


def test_lambda_on_a_binf_request_exits_1(capsys):
    # emit and enumerate leave the check to build, so both say the same
    for argv in (("emit", "--type", "B2", "--lambda", "1,0"),
                 ("enumerate", "--type", "B2", "--depth", "1", "--lambda",
                  "1,0")):
        assert run(capsys, *argv) == \
            (1, "", "error: lambda only applies to object 'blambda'\n"), argv


def test_closure_of_a_node_family_without_strict_positivity_exits_1(
        capsys, monkeypatch):
    # a seed with -x[1;2] added meets a second first-row event at node 1
    import crystalpoly.forms as forms_module
    real = forms_module.lambda_form

    def seed(iota, i):
        return minus(real(iota, i), LinearForm(iota.rank, {(1, 2): 1}))

    monkeypatch.setattr(forms_module, "lambda_form", seed)
    code, out, err = run(capsys, "closure", "--type", "A2", "--object",
                         "blambda", "--node", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: node 1 is not strictly positive: "
                          "L1 - x[1;1] - x[1;2], in the S-closure of "
                          "L1 - x[1;1] - x[1;2], has coefficient -1 at "
                          "x[1;2]")
    assert "Traceback" not in err


@pytest.mark.parametrize("var,argv", [
    ("CRYSTALPOLY_CLOSURE_CAP", ("emit", "--type", "A1")),
    ("CRYSTALPOLY_ENUM_CAP", ("enumerate", "--type", "A1", "--depth", "1")),
    ("CRYSTALPOLY_BFS_CAP", ("graph", "--type", "A1", "--lambda", "1")),
])
@pytest.mark.parametrize("value", ["abc", "1e5", "-3"])
def test_malformed_cap_values_exit_1(capsys, monkeypatch, var, argv, value):
    monkeypatch.setenv(var, value)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: %s must be a nonnegative integer, got '%s'\n" \
        % (var, value)


def _src_env():
    """The environment with this checkout's sources first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def _run_with_closed_stdout(unbuffered):
    """(exit status, stderr) of a large JSON emit whose reader closes the
    pipe after the first line.

    The JSON is about 1.7 MB, more than a pipe holds, so the writer is
    still writing when the reader goes away.  An unbuffered stdout passes
    each write straight to the pipe, which may take part of it silently.
    """
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "crystalpoly.cli", "emit", "--type", "E8",
         "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    return proc.returncode, err


def test_closed_stdout_exits_1_without_a_traceback():
    assert _run_with_closed_stdout(unbuffered=False) == (1, b"")


def test_closed_unbuffered_stdout_exits_1_without_a_traceback():
    assert _run_with_closed_stdout(unbuffered=True) == (1, b"")


@pytest.mark.parametrize("argv,code", [
    (("verify", "--type", "B2", "--lambda", "1,1"), 0),
    (("verify", "--type", "B2", "--lambda", "1,x"), 1),
])
def test_python_o_gives_the_same_output(argv, code):
    # no check of the program may live in an `assert`, which -O removes
    def outcome(*flags):
        r = subprocess.run([sys.executable, *flags, "-m", "crystalpoly.cli",
                            *argv], capture_output=True, env=_src_env(),
                           timeout=120)
        return r.returncode, r.stdout, r.stderr

    plain = outcome()
    assert plain[0] == code and plain[1 + code]   # stdout, or stderr
    assert outcome("-O") == plain


def test_python_o_keeps_the_witness_check():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", "from crystalpoly.polytope import "
         "VerifyReport; VerifyReport('x', False)"],
        capture_output=True, text=True, env=_src_env(), timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.rstrip().endswith(
        "ValueError: failing check 'x' needs a witness")


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_python_o_keeps_the_crystal_point_check(flags):
    # e_1 would lower the empty slot (1;1) to -1: raising needs x_k >= 1
    proc = subprocess.run(
        [sys.executable, *flags, "-c",
         "from crystalpoly.rootdata import cartan_matrix\n"
         "from crystalpoly.zcrystal import IotaSequence, ZVector, e_tilde\n"
         "iota = IotaSequence(cartan_matrix('A', 2))\n"
         "print(e_tilde(iota, ZVector(2, {(2, 1): 1}), 1))"],
        capture_output=True, text=True, env=_src_env(), timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.rstrip().endswith(
        "ValueError: e_1 raises at the empty slot (1;1) of "
        "ZVector((2;1):1): not a crystal point")


def test_the_package_holds_no_assert_statement():
    # python -O drops every assert, so a check in src/ must raise
    package = ROOT / "src" / "crystalpoly"
    found = [("%s:%d" % (path.name, node.lineno))
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert len(list(package.glob("*.py"))) > 5
    assert found == []


_HELP = """\
usage: crystalpoly [-h] command ...

Command-line surface: emit inequality systems, enumerate lattice

positional arguments:
  command
    emit      print the inequality system
    enumerate
              list the lattice points
    graph     print the B(lambda) crystal graph
    verify    run the verification harness
    dim       Weyl dimension of V(lambda)
    closure   close one generator family under the substitution operators

options:
  -h, --help  show this help message and exit

environment:
  CRYSTALPOLY_CLOSURE_CAP   max forms per substitution closure (default 150000)
  CRYSTALPOLY_ENUM_CAP      max enumerated lattice points (default 10000000)
  CRYSTALPOLY_BFS_CAP       max operator-generated crystal nodes (default 1000000)
"""


def test_help_golden(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        cli.main(["--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out == _HELP


def _readme_examples():
    """(argv, output) of each `$ crystalpoly ...` line of the README that
    is followed by its output."""
    readme = ROOT / "README.md"
    examples = []
    command = None
    for line in readme.read_text(encoding="utf-8").splitlines():
        if command is not None and line and not line.startswith(("#", "`")):
            examples[-1][1].append(line)
            continue
        command = None
        if line.startswith("$ crystalpoly "):
            command = shlex.split(line)[2:]
            examples.append((command, []))
    return [pytest.param(argv, "".join(l + "\n" for l in out),
                         id=" ".join(argv))
            for argv, out in examples if out]


@pytest.mark.parametrize("argv,output", _readme_examples())
def test_readme_examples(capsys, argv, output):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == output


def test_readme_python_example_runs():
    # the README's Python API block, run as it stands in a new interpreter
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    assert len(blocks) == 1
    proc = subprocess.run([sys.executable, "-c", blocks[0]],
                          capture_output=True, text=True, env=_src_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "PASS c:blambda-oracle" in proc.stdout

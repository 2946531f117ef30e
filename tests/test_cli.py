import json
import re

import pytest

from crystalpoly import cli
from crystalpoly.forms import LinearForm, FormSet
from crystalpoly.rootdata import cartan_matrix


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


def test_emit_json_round_trips_byte_identically(capsys):
    code, out, _ = run(capsys, "emit", "--type", "C3", "--object", "blambda",
                       "--lambda", "1,0,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    rebuilt = [LinearForm(payload["rank"],
                          {(e["j"], e["i"]): e["c"] for e in f["coeffs"]},
                          lam=f["constant_lambda"], const=f["constant_abs"])
               for f in payload["forms"]]
    again = cli.forms_payload(cartan_matrix(payload["type"], payload["rank"]),
                              payload["object"], tuple(payload["lambda"]),
                              payload["source"], FormSet(rebuilt))
    assert cli._dump(again) + "\n" == out


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


def test_verify_failure_exits_2(capsys, monkeypatch):
    import crystalpoly.polytope as polytope_module
    real = polytope_module.binf_table

    def tampered(type_label, rank):
        forms = list(real(type_label, rank))
        return FormSet(forms[1:])

    monkeypatch.setattr(polytope_module, "binf_table", tampered)
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
     "while closing L3 + 2*x[1;2] - x[1;3] under Shat;"),
])
def test_cap_errors_exit_1(capsys, monkeypatch, var, argv, needle):
    monkeypatch.setenv(var, "5")
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and needle in err
    assert "Traceback" not in err

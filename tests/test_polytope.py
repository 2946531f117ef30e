import functools
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import crystalpoly.forms as forms_module
import crystalpoly.polytope as polytope_module
import crystalpoly.zcrystal as zcrystal_module
from crystalpoly import cli
from crystalpoly.rootdata import CapExceeded, cartan_matrix, \
    longest_word_length, weight_string_budget, weyl_dim
from crystalpoly.zcrystal import (
    CrystalNode, IotaSequence, ZVector, generate_binf, generate_blambda,
)
from crystalpoly.forms import FormSet, LinearForm, closure, lambda_form, \
    xi_form
from crystalpoly.tables import UnsupportedTableError, binf_table, \
    table_rows
from crystalpoly.polytope import (
    Polyhedron, RealizationError, VerifyReport, build, crystal_graph,
    enumerate_binf_truncated, enumerate_blambda, verify,
)
from reference import (
    RANK_6_TYPES, counted_scans, enumerate_full_scan, forced_cells_counting,
    forced_reference, iota_for, last_row, max_row, minus, pair_form,
    system_forms, vectors,
)


@pytest.mark.parametrize("t,n", [
    ("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("G", 2),
    ("F", 4), ("E", 6), ("E", 7), ("E", 8),
])
def test_region_size_is_positive_root_count(t, n):
    cartan = cartan_matrix(t, n)
    poly = build(cartan, "binf", source="closure")
    assert len(poly.region) == longest_word_length(cartan)
    # the region holds flat positions, ascending and distinct
    assert list(poly.region) == sorted(set(poly.region))
    # the region never reaches beyond its recorded last row
    assert (max(poly.region) - 1) // n + 1 == \
        polytope_module._Frame(cartan).cutoff


@pytest.mark.parametrize("t,n", [
    ("A", 3), ("B", 4), ("C", 4), ("D", 5), ("F", 4), ("E", 6),
    ("E", 7), ("E", 8),
])
def test_row_cutoff_matches_closed_form_window(t, n):
    poly = build(cartan_matrix(t, n), "binf", source="closure")
    assert last_row(poly) == table_rows(t, n)


def test_membership_b2_examples():
    poly = build(cartan_matrix("B", 2), "binf")
    assert poly.contains(ZVector(2))
    assert poly.contains({})
    # x_{2;1} alone violates x_{1;2} - x_{2;1} >= 0
    assert not poly.contains({(2, 1): 1})
    assert poly.contains({(1, 2): 1, (2, 1): 1})
    # the system pins the coordinates to the nonnegative orthant
    assert not poly.contains({(1, 1): -1})
    assert not poly.contains(ZVector(2, {(1, 2): 1, (2, 1): -1}))
    # support outside the live region
    assert not poly.contains({(3, 1): 1})
    assert poly.contains({(1, 1): 5})
    # a coordinate that is not an int is refused, not rounded
    with pytest.raises(ValueError, match="has value 0.5, not an int"):
        poly.contains({(1, 1): 0.5})
    # a flat key is no {(row, column): value}: the error names its item
    # and the way into a vector
    point = ZVector(2, {(1, 1): 1, (1, 2): 2})
    for bad in (point.key(), [(1, 1)]):
        with pytest.raises(ValueError) as err:
            poly.contains(bad)
        assert str(err.value) == "item (1, 1) is not a ((row, column), " \
            "value) pair; a flat (k, value) key goes through ZVector.from_key"
        with pytest.raises(ValueError) as other:
            ZVector(2, bad)
        assert str(other.value) == str(err.value)
        with pytest.raises(ValueError) as other:
            LinearForm(2, bad)
        assert str(other.value) == str(err.value)
    assert poly.contains(ZVector.from_key(2, point.key()))


def test_membership_rejects_a_vector_of_another_rank():
    # the rank-2 flat position 3 is x[2;1]; at rank 3 it is x[1;3], a
    # point of the A3 model, which the region test alone accepted
    poly = build(cartan_matrix("A", 3), "binf")
    with pytest.raises(ValueError, match="rank 2"):
        poly.contains(ZVector(2, {(2, 1): 1}))
    assert poly.contains(ZVector(3, {(1, 3): 1}))


def test_membership_agrees_with_generated_set():
    cartan = cartan_matrix("C", 3)
    poly = build(cartan, "binf")
    pts = generate_binf(iota_for("C", 3), 4)
    assert all(poly.contains(x) for x in vectors(3, pts))
    # bumping any live cell of a crystal point stays in the lattice but
    # need not stay in the model; bumping a dead cell must leave it
    outside = ZVector(3, {(last_row(poly) + 1, 1): 1})
    assert not poly.contains(outside)


@pytest.mark.parametrize("t,n,depth", [
    ("A", 1, 8), ("A", 2, 6), ("B", 2, 6), ("C", 3, 4), ("D", 4, 4),
    ("G", 2, 5),
])
def test_binf_enumeration_matches_operator_search(t, n, depth):
    cartan = cartan_matrix(t, n)
    poly = build(cartan, "binf")
    assert enumerate_binf_truncated(poly, depth) == \
        set(generate_binf(iota_for(t, n), depth))


def test_binf_enumeration_is_monotone_in_depth():
    poly = build(cartan_matrix("B", 2), "binf")
    sets = [enumerate_binf_truncated(poly, d) for d in range(6)]
    for small, big in zip(sets, sets[1:]):
        assert small <= big
    # each truncation is exactly a total-degree slice of the next
    for d, small in enumerate(sets[:-1]):
        assert small == {x for x in sets[d + 1]
                         if sum(v for _, v in x) <= d}


@pytest.mark.parametrize("t,n,lam,dim", [
    ("A", 2, (1, 1), 8), ("B", 2, (1, 0), 5), ("B", 2, (0, 1), 4),
    ("B", 2, (1, 1), 16), ("C", 3, (1, 0, 0), 6), ("D", 4, (1, 0, 0, 0), 8),
    ("D", 4, (0, 1, 0, 0), 28), ("G", 2, (1, 0), 14),
])
def test_blambda_enumeration_matches_oracle_and_dimension(t, n, lam, dim):
    cartan = cartan_matrix(t, n)
    poly = build(cartan, "blambda", lam)
    got = enumerate_blambda(poly)
    assert got == set(generate_blambda(iota_for(t, n), lam))
    assert len(got) == dim == weyl_dim(cartan, lam)


def test_blambda_zero_weight_is_a_point():
    poly = build(cartan_matrix("B", 2), "blambda", (0, 0))
    assert enumerate_blambda(poly) == {ZVector(2).key()}


def test_blambda_rebinding_lambda():
    # a model answers at the lambda it was built for; another lambda is
    # another build
    cartan = cartan_matrix("B", 2)
    poly = build(cartan, "blambda", (1, 0))
    assert len(enumerate_blambda(poly)) == 5
    assert len(enumerate_blambda(build(cartan, "blambda", (1, 1)))) == 16
    assert poly.contains({(1, 1): 1})
    # at lambda = Lambda_2 the Lambda_1-string collapses
    assert not build(cartan, "blambda", (0, 1)).contains({(1, 1): 1})


@pytest.mark.parametrize("t,n,lam", [
    ("B", 3, None), ("C", 3, None), ("D", 4, (1, 0, 0, 0)),
    ("F", 4, (0, 0, 0, 1)),
])
def test_sources_agree(t, n, lam):
    cartan = cartan_matrix(t, n)
    if lam is None:
        a = build(cartan, "binf", source="closure")
        b = build(cartan, "binf", source="table")
        assert set(system_forms(a)) == set(system_forms(b))
        assert enumerate_binf_truncated(a, 3) == enumerate_binf_truncated(b, 3)
    else:
        a = build(cartan, "blambda", lam, source="closure")
        b = build(cartan, "blambda", lam, source="table")
        assert enumerate_blambda(a) == enumerate_blambda(b)


def test_table_source_unavailable():
    with pytest.raises(UnsupportedTableError):
        build(cartan_matrix("G", 2), "binf", source="table")
    with pytest.raises(UnsupportedTableError) as err:
        build(cartan_matrix("E", 7), "blambda", (1,) + (0,) * 6,
              source="table")
    assert "closure" in str(err.value)
    # E7 B(infinity) tables do exist
    assert len(system_forms(build(cartan_matrix("E", 7), "binf",
                                  source="table"))) == 504


def test_build_argument_validation():
    cartan = cartan_matrix("A", 2)
    with pytest.raises(ValueError):
        build(cartan, "binf", lam=(1, 0))
    with pytest.raises(ValueError):
        build(cartan, "bsomething")
    with pytest.raises(ValueError):
        build(cartan, "binf", source="guess")
    with pytest.raises(ValueError):
        build(cartan, "blambda", (1, -1))
    with pytest.raises(ValueError):
        build(cartan, "blambda", (1, 0, 0))
    with pytest.raises(ValueError):
        enumerate_blambda(build(cartan, "binf"))
    with pytest.raises(ValueError):
        enumerate_binf_truncated(build(cartan, "blambda", (1, 0)), 3)


@pytest.mark.parametrize("depth", [2.5, 1.0, -1, "2", None])
def test_a_depth_that_is_not_a_nonnegative_int_is_refused(depth):
    # a float depth used to run the DFS up to the enumeration cap (a float
    # bound never equals an int value, so no cell was ever closed), and
    # generate_binf read -1 as depth 0
    cartan = cartan_matrix("B", 2)
    message = "depth must be an integer >= 0, not %r" % (depth,)
    poly = build(cartan, "binf")
    with pytest.raises(ValueError) as err:
        enumerate_binf_truncated(poly, depth)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        generate_binf(IotaSequence(cartan), depth)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        verify(cartan, depth=depth)
    assert str(err.value) == message


def test_a_missing_weight_is_refused_by_name():
    cartan = cartan_matrix("B", 2)
    for call in (lambda: build(cartan, "blambda"),
                 lambda: weyl_dim(cartan, None),
                 lambda: generate_blambda(IotaSequence(cartan), None),
                 lambda: crystal_graph(cartan, None)):
        with pytest.raises(ValueError, match="^weight lambda is missing$"):
            call()


def test_enumeration_cap(monkeypatch):
    poly = build(cartan_matrix("B", 2), "blambda", (1, 1))
    monkeypatch.setenv("CRYSTALPOLY_ENUM_CAP", "3")
    with pytest.raises(CapExceeded) as err:
        enumerate_blambda(poly)
    assert (err.value.cap, err.value.env, err.value.limit,
            err.value.reached) == ("enum", "CRYSTALPOLY_ENUM_CAP", 3, 4)
    assert str(err.value) == "enumeration exceeded the cap of 3 points " \
        "(CRYSTALPOLY_ENUM_CAP) after reaching 4 points"


def test_closure_cap_stops_a_build(monkeypatch):
    monkeypatch.setenv("CRYSTALPOLY_CLOSURE_CAP", "5")
    with pytest.raises(CapExceeded) as err:
        build(cartan_matrix("E", 6), "binf")
    assert (err.value.cap, err.value.env, err.value.limit,
            err.value.reached) == ("closure", "CRYSTALPOLY_CLOSURE_CAP", 5, 6)


def test_crystal_graph_a1_string():
    nodes, edges = crystal_graph(cartan_matrix("A", 1), (2,))
    nodes_ref = [ZVector(1), ZVector(1, {(1, 1): 1}),
                 ZVector(1, {(1, 1): 2})]
    assert nodes == [x.key() for x in nodes_ref]
    assert edges == [(0, 1, 1), (1, 1, 2)]


def per_node_edges(cartan, lam, nodes):
    """Reference: the edges found by applying every f_i to every node again,
    in (source, i) order, with the nodes' places in `nodes` as ends."""
    iota = IotaSequence(cartan)
    at = {key: a for a, key in enumerate(nodes)}
    edges = []
    for x in sorted(vectors(cartan.rank, nodes), key=ZVector.key):
        node = CrystalNode(iota, x, lam)
        for i in range(1, cartan.rank + 1):
            child = node.f(i)
            if child is not None:
                edges.append((at[x.key()], i, at[child.vector.key()]))
    return edges


@pytest.mark.parametrize("t,n,lams", [
    ("A", 2, [(1, 0), (2, 1)]), ("A", 3, [(1, 0, 1), (0, 2, 0)]),
    ("A", 4, [(0, 1, 0, 0), (1, 0, 0, 1)]), ("B", 2, [(0, 1), (2, 1)]),
    ("B", 3, [(1, 0, 0), (0, 0, 2)]), ("C", 3, [(0, 1, 0), (1, 0, 1)]),
    ("D", 4, [(0, 1, 0, 0), (1, 0, 0, 1)]), ("G", 2, [(1, 0), (1, 1)]),
    ("F", 4, [(0, 0, 0, 1), (1, 0, 0, 0)]),
])
def test_crystal_graph_edges_equal_a_second_f_pass(t, n, lams):
    cartan = cartan_matrix(t, n)
    for lam in lams:
        nodes, edges = crystal_graph(cartan, lam)
        assert nodes == sorted(set(nodes))
        assert edges == per_node_edges(cartan, lam, nodes)
        # the ends are places in the node list
        assert all(0 <= a < len(nodes) and 0 <= b < len(nodes)
                   for a, _, b in edges)


def test_crystal_graph_counts():
    cartan = cartan_matrix("B", 2)
    nodes, edges = crystal_graph(cartan, (1, 1))
    assert len(nodes) == 16
    # every non-lowest node has at least one outgoing arrow; arrow targets
    # stay in the node set
    targets = {t for _, _, t in edges}
    assert targets <= set(range(len(nodes)))
    assert edges == sorted(edges, key=lambda e: (nodes[e[0]], e[1]))


def test_verify_all_green():
    reports = verify(cartan_matrix("B", 2), lam=(1, 1), depth=4)
    names = [r.name for r in reports]
    assert "a:table-vs-closure" in names
    assert "b:binf-oracle" in names
    assert "c:blambda-oracle" in names
    assert "e:support-region" in names
    assert all(r.passed for r in reports)
    assert any(r.name == "f:crystal-axioms(blambda)" for r in reports)


def test_verify_skips_without_tables():
    reports = verify(cartan_matrix("G", 2), lam=(1, 0), depth=3)
    skipped = [r for r in reports if r.skipped]
    assert skipped and all("closure" in r.note for r in skipped)
    assert all(r.passed for r in reports)


def test_verify_catches_corrupted_table(monkeypatch):
    # the tampered table system goes in as one block of all its rows
    def tampered(type_label, rank):
        forms = list(binf_table(type_label, rank))
        broken = minus(forms[0], LinearForm(rank, {(1, 1): 1}), -1)
        return FormSet([broken] + forms[1:]), 1

    monkeypatch.setattr(polytope_module, "binf_block", tampered)
    reports = verify(cartan_matrix("B", 2), depth=3)
    table_check = [r for r in reports if r.name == "a:table-vs-closure"][0]
    assert not table_check.passed
    assert table_check.witnesses


# `verify --type B2 --lambda 1,1 --depth 2` with two negative vectors
# added to each B(infinity) enumeration, as the harness reported it while
# it still kept every point set until the g:nonnegativity check, except
# that the g:nonnegativity witnesses of each set now come in key order
# (they came in set iteration order, which follows the vector hashes),
# and that the table system carries one redundant form, x[1;1] + x[1;2],
# so that the two systems differ and each is enumerated.
_NEGATIVE_REPORT = """\
FAIL a:table-vs-closure closure=8 table=9
     ! only in second: x[1;1] + x[1;2]
FAIL b:binf-oracle bfs=7 closure=9 table=9
     ! only in second: ZVector((1;1):-1)
     ! only in second: ZVector((1;1):1, (1;2):-2)
     ! only in second: ZVector((1;1):1, (2;2):-2)
     ! only in second: ZVector((2;1):-1)
PASS c:blambda-oracle bfs=16 closure=16 table=16 weyl_dim=16
PASS d:positivity forms=4
PASS d:strict-positivity families=2
PASS d:ample forms=12
PASS e:support-region positive_roots=4 region=4
PASS f:crystal-axioms(binf) nodes=7
PASS f:crystal-axioms(blambda) nodes=16
FAIL g:nonnegativity points=41
     ! ZVector((1;1):-1)
     ! ZVector((1;1):1, (1;2):-2)
     ! ZVector((1;1):1, (2;2):-2)
     ! ZVector((2;1):-1)
"""


def test_verify_witnesses_of_a_tampered_e6_table(monkeypatch):
    # some table forms dropped, some doubled: the witnesses of the set
    # difference, five a side in text order, as the set comparison gave
    # them before the systems were compared on their keys
    def tampered(type_label, rank):
        return FormSet([minus(f, f, -1) if at % 37 == 0 else f
                        for at, f in enumerate(binf_table(type_label, rank))
                        if at % 50 != 1]), 1

    monkeypatch.setattr(polytope_module, "binf_block", tampered)
    reports = verify(cartan_matrix("E", 6), depth=1)
    check = [r for r in reports if r.name == "a:table-vs-closure"][0]
    assert not check.passed
    assert check.counts == {"closure": 216, "table": 211}
    assert check.witnesses == (
        "only in first: x[10;3] - x[10;4] - x[12;1]",
        "only in first: x[1;1]",
        "only in first: x[1;2] - x[2;1]",
        "only in first: x[3;4] - x[4;6]",
        "only in first: x[4;2] - x[5;1]",
        "only in second: 2*x[1;1]",
        "only in second: 2*x[3;4] - 2*x[4;6]",
        "only in second: 2*x[5;1] - 2*x[5;6]",
        "only in second: 2*x[6;4] - 2*x[6;5] + 2*x[8;1] - 2*x[8;2]",
        "only in second: 2*x[7;5] + 2*x[10;1] - 2*x[10;2]",
    )


def test_passing_verify_compares_systems_without_set_differences(
        monkeypatch):
    real = polytope_module._diff_witnesses
    calls = []

    def counted(left, right, show):
        calls.append(show)
        return real(left, right, show)

    monkeypatch.setattr(polytope_module, "_diff_witnesses", counted)
    reports = verify(cartan_matrix("E", 6), depth=2)
    assert all(r.passed for r in reports)
    by_name = {r.name: r for r in reports}
    assert by_name["a:table-vs-closure"].counts == \
        {"closure": 216, "table": 216}
    assert calls == []


def test_verify_reports_injected_negative_points(monkeypatch, capsys):
    # the nonnegativity check runs on each set as it arrives; its point
    # count and witness order stay those of one check over all sets.
    # verify enumerates equal systems once, so the table system gets a
    # form that every nonnegative point satisfies, to make it differ.
    def with_redundant_form(type_label, rank):
        redundant = LinearForm(rank, {(1, 1): 1, (1, 2): 1})
        return FormSet(list(binf_table(type_label, rank)) + [redundant]), 1

    real = polytope_module.enumerate_binf_truncated

    def with_negatives(poly, depth):
        row = {"closure": 1, "table": 2}[poly.source]
        return real(poly, depth) | {
            ZVector(2, {(row, 1): -1}).key(),
            ZVector(2, {(1, 1): 1, (row, 2): -2}).key()}

    monkeypatch.setattr(polytope_module, "binf_block", with_redundant_form)
    monkeypatch.setattr(polytope_module, "enumerate_binf_truncated",
                        with_negatives)
    code = cli.main(["verify", "--type", "B2", "--lambda", "1,1",
                     "--depth", "2"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, _NEGATIVE_REPORT, "")


_MISMATCH_REPORT = """\
PASS a:table-vs-closure closure=18 table=18
FAIL b:binf-oracle bfs=12 closure=8 table=8
     ! only in first: ZVector((1;2):1)
     ! only in first: ZVector((1;2):1, (1;3):1)
     ! only in first: ZVector((1;2):1, (2;1):1)
     ! only in first: ZVector((1;2):2)
     ! only in first: ZVector((1;3):1)
     ! only in second: ZVector((1;1):-1, (2;3):1)
     ! only in second: ZVector((1;1):10)
     ! only in second: ZVector((1;1):9)
     ! only in first: ZVector((1;2):1)
     ! only in first: ZVector((1;2):1, (1;3):1)
FAIL c:blambda-oracle bfs=48 closure=48 table=48 weyl_dim=48
     ! only in first: ZVector((1;1):1, (1;2):1, (1;3):1)
     ! only in second: ZVector((2;3):4)
     ! only in first: ZVector((1;1):1, (1;2):1, (1;3):1)
     ! only in second: ZVector((2;3):4)
PASS d:positivity forms=6
PASS d:strict-positivity families=3
PASS d:ample forms=28
PASS e:support-region positive_roots=9 region=9
PASS f:crystal-axioms(binf) nodes=12
PASS f:crystal-axioms(blambda) nodes=48
FAIL g:nonnegativity points=76
     ! ZVector((1;1):-1, (2;3):1)
     ! ZVector((1;1):-1, (2;3):1)
"""

_SHORT_BLAMBDA_REPORT = """\
PASS a:table-vs-closure closure=8 table=8
PASS b:binf-oracle bfs=3 closure=3 table=3
FAIL c:blambda-oracle bfs=16 closure=15 table=15 weyl_dim=16
     ! only in first: ZVector(0)
     ! only in first: ZVector(0)
PASS d:positivity forms=4
PASS d:strict-positivity families=2
PASS d:ample forms=12
PASS e:support-region positive_roots=4 region=4
PASS f:crystal-axioms(binf) nodes=3
PASS f:crystal-axioms(blambda) nodes=16
PASS g:nonnegativity points=25
"""


def test_verify_mismatch_witnesses_keep_their_text(monkeypatch, capsys):
    # enumerations that lose points and gain some: the oracle's side of
    # each difference is named by the repr of its vector, five a side in
    # text order (which puts (1;1):10 before (1;1):9), and the stray point
    # with a negative entry also fails (g); then a B(lambda) enumeration
    # that only loses its top.  The text is pinned byte for byte.
    real_binf = polytope_module.enumerate_binf_truncated
    real_blambda = polytope_module.enumerate_blambda

    def binf_swapped(poly, depth):
        got = sorted(real_binf(poly, depth))
        return set(got[:-7]) | {ZVector(3, {(1, 1): -1, (2, 3): 1}).key(),
                                ZVector(3, {(1, 1): 9}).key(),
                                ZVector(3, {(1, 1): 10}).key()}

    def blambda_swapped(poly):
        got = sorted(real_blambda(poly))
        return set(got[:3] + got[4:]) | {ZVector(3, {(2, 3): 4}).key()}

    def blambda_short(poly):
        return set(sorted(real_blambda(poly))[1:])

    monkeypatch.setattr(polytope_module, "enumerate_binf_truncated",
                        binf_swapped)
    monkeypatch.setattr(polytope_module, "enumerate_blambda",
                        blambda_swapped)
    code = cli.main(["verify", "--type", "B3", "--lambda", "1,0,1",
                     "--depth", "2"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, _MISMATCH_REPORT, "")
    monkeypatch.setattr(polytope_module, "enumerate_binf_truncated",
                        real_binf)
    monkeypatch.setattr(polytope_module, "enumerate_blambda",
                        blambda_short)
    code = cli.main(["verify", "--type", "B2", "--lambda", "1,1",
                     "--depth", "1"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, _SHORT_BLAMBDA_REPORT, "")


def test_verify_report_requires_witness_on_failure():
    with pytest.raises(ValueError, match="needs a witness"):
        VerifyReport("x", False)
    r = VerifyReport("x", False, witnesses=["w"])
    assert r.status() == "FAIL" and r.witnesses == ("w",)
    assert VerifyReport("y", True).status() == "PASS"
    assert VerifyReport("z", True, skipped=True).status() == "SKIP"


@settings(max_examples=25, deadline=None)
@given(st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_blambda_matches_oracle_for_random_weights(lam):
    cartan = cartan_matrix("B", 2)
    poly = build(cartan, "blambda", lam)
    got = enumerate_blambda(poly)
    assert got == set(generate_blambda(IotaSequence(cartan), lam))
    assert len(got) == weyl_dim(cartan, lam)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 5))
def test_binf_truncations_match_oracle_at_any_depth(depth):
    cartan = cartan_matrix("A", 2)
    poly = build(cartan, "binf")
    assert enumerate_binf_truncated(poly, depth) == \
        set(generate_binf(IotaSequence(cartan), depth))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(RANK_6_TYPES), st.data())
def test_blambda_enumeration_equals_bfs_and_weyl_dim(tn, data):
    t, n = tn
    cartan = cartan_matrix(t, n)
    lam = list(data.draw(st.tuples(*[st.integers(0, 2)] * n), label="lam"))
    # clear entries from the left until the dimension is small
    for j in range(n):
        if weyl_dim(cartan, lam) <= 2000:
            break
        lam[j] = 0
    dim = weyl_dim(cartan, lam)
    oracle = set(generate_blambda(IotaSequence(cartan), lam))
    assert len(oracle) == dim
    for source in ("closure", "table"):
        try:
            poly = build(cartan, "blambda", lam, source=source)
        except UnsupportedTableError:
            continue
        assert enumerate_blambda(poly) == oracle, (t, n, lam, source)


def test_polyhedron_repr_mentions_shape():
    poly = build(cartan_matrix("B", 2), "blambda", (1, 0))
    text = repr(poly)
    assert "B2" in text and "blambda" in text and "lam" in text


def test_blambda_enumeration_is_iterative_at_large_rank():
    # the region of A45 has 1035 cells, deeper than the default recursion
    # limit; a recursive search over the cells raised RecursionError here
    poly = build(cartan_matrix("A", 45), "blambda", (1,) + (0,) * 44)
    assert len(poly.region) == 1035
    assert len(enumerate_blambda(poly)) == 46


def _vectors(cells, budget):
    """Every nonnegative vector on `cells` with coordinate sum <= budget."""
    if not cells:
        yield {}
        return
    for v in range(budget + 1):
        for tail in _vectors(cells[1:], budget - v):
            yield {**tail, cells[0]: v} if v else tail


def _brute_force(poly, budget):
    cells = [IotaSequence(poly.cartan).rowcol(k) for k in poly.region]
    return {ZVector(poly.cartan.rank, x).key()
            for x in _vectors(cells, budget) if poly.contains(x)}


@functools.lru_cache(maxsize=None)
def _model(t, n, lam=None, source="closure"):
    if lam is None:
        return build(cartan_matrix(t, n), "binf", source=source)
    return build(cartan_matrix(t, n), "blambda", lam, source=source)


SMALL_TYPES = [("A", 2), ("A", 3), ("B", 2), ("C", 2), ("G", 2), ("B", 3)]
SMALL_WEIGHTS = [("A", 2, (1, 1)), ("A", 3, (0, 1, 0)), ("A", 3, (1, 0, 1)),
                 ("B", 2, (1, 1)), ("C", 2, (0, 2)), ("G", 2, (0, 1)),
                 ("B", 3, (0, 0, 1)), ("B", 3, (1, 0, 0))]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_TYPES), st.integers(0, 3))
def test_binf_enumeration_equals_brute_force(tn, depth):
    poly = _model(*tn)
    assert enumerate_binf_truncated(poly, depth) == _brute_force(poly, depth)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(SMALL_WEIGHTS))
def test_blambda_enumeration_equals_brute_force(case):
    t, n, lam = case
    poly = _model(t, n, lam)
    budget = weight_string_budget(poly.cartan, lam)
    assert enumerate_blambda(poly) == _brute_force(poly, budget)


def _with_forms(model, extra):
    """`model` as a binf model with the forms `extra` added."""
    return Polyhedron(model.cartan, "binf", model.source,
                      ((FormSet(list(system_forms(model)) + extra), 1),),
                      model.region)


@st.composite
def _random_system(draw):
    """A binf model of a small type with random extra forms on its region:
    the realized systems never raise a cell above 0 from below, these do."""
    model = _model(*draw(st.sampled_from(SMALL_TYPES)))
    cells = [IotaSequence(model.cartan).rowcol(k) for k in model.region]
    coeff = st.integers(-2, 2).filter(bool)
    extra = draw(st.lists(st.builds(
        lambda terms, const: LinearForm(model.cartan.rank, terms, const=const),
        st.dictionaries(st.sampled_from(cells), coeff, min_size=1,
                        max_size=3),
        st.integers(-2, 2)), max_size=6))
    return _with_forms(model, extra)


@settings(max_examples=60, deadline=None)
@given(_random_system(), st.integers(0, 3))
def test_enumeration_of_random_systems_equals_brute_force(poly, depth):
    assert enumerate_binf_truncated(poly, depth) == _brute_force(poly, depth)


def test_a_raised_cell_moves_the_bounds_of_the_cells_it_touches():
    # x[1;1] >= 1 raises cell (1;1) from below, and x[1;2] >= x[1;1] then
    # resolves at (1;2) off its base value
    model = _model("A", 2)
    poly = _with_forms(model, [
        LinearForm(2, {(1, 1): 1}, const=-1),
        LinearForm(2, {(1, 2): 1, (1, 1): -1}),
    ])
    got = enumerate_binf_truncated(poly, 3)
    assert got == _brute_force(poly, 3) == enumerate_full_scan(poly, 3, None)
    assert len(got) == 3


@pytest.mark.parametrize("t,n,depth", [("E", 6, 5), ("E", 7, 4),
                                       ("E", 8, 3)])
@pytest.mark.parametrize("source", ["closure", "table"])
def test_binf_enumeration_equals_the_full_scan_on_wide_forms(t, n, depth,
                                                            source):
    poly = _model(t, n, source=source)
    for d in range(depth + 1):
        assert enumerate_binf_truncated(poly, d) == \
            enumerate_full_scan(poly, d, None)


@pytest.mark.parametrize("t,n,lam", [
    ("E", 6, (1, 0, 0, 0, 0, 0)), ("E", 6, (0, 0, 0, 0, 0, 1)),
    ("F", 4, (0, 0, 0, 1)), ("F", 4, (1, 0, 0, 0)), ("F", 4, (0, 0, 1, 0)),
    ("D", 5, (1, 0, 0, 0, 0)), ("D", 5, (0, 1, 0, 0, 0)),
    ("D", 5, (0, 0, 0, 1, 0)), ("D", 5, (0, 0, 0, 1, 1)),
])
def test_blambda_enumeration_equals_the_full_scan_on_wide_forms(t, n, lam):
    poly = _model(t, n, lam)
    got = enumerate_blambda(poly)
    assert got == enumerate_full_scan(
        poly, weight_string_budget(poly.cartan, lam), lam)
    assert len(got) == weyl_dim(poly.cartan, lam)


@pytest.mark.parametrize("t,n", [("A", 3), ("B", 2), ("E", 6)])
def test_an_untouched_cell_capped_by_a_negative_base_empties_the_model(t, n):
    # -x - 1 >= 0 gives its cell hi0 = -1: no value fits, whatever the
    # other cells hold, and a search that took hi0 < 0 for a cell forced
    # to 0 would skip the cell and return points
    model = _model(t, n)
    iota = IotaSequence(model.cartan)
    for k in model.region:
        poly = _with_forms(
            model, [LinearForm(n, {iota.rowcol(k): -1}, const=-1)])
        for depth in (0, 2):
            assert enumerate_binf_truncated(poly, depth) == set()
            assert enumerate_full_scan(poly, depth, None) == set()


@st.composite
def _random_wide_system(draw):
    """An F4 or E6 binf model with random extra forms on its region,
    negative constants included, so some cells are raised from below.
    The forms share a few cells, so that a raised cell often touches a
    form that resolves at another one."""
    model = _model(*draw(st.sampled_from([("F", 4), ("E", 6)])))
    cells = draw(st.lists(st.sampled_from(
        [IotaSequence(model.cartan).rowcol(k) for k in model.region]),
        min_size=1, max_size=3, unique=True))
    coeff = st.integers(-2, 2).filter(bool)
    extra = draw(st.lists(st.builds(
        lambda terms, const: LinearForm(model.cartan.rank, terms, const=const),
        st.dictionaries(st.sampled_from(cells), coeff, min_size=1),
        st.integers(-3, 2)), max_size=10))
    return _with_forms(model, extra)


@settings(max_examples=100, deadline=None)
@given(_random_wide_system(), st.integers(0, 3))
def test_enumeration_of_random_wide_systems_equals_the_full_scan(poly,
                                                                 depth):
    assert enumerate_binf_truncated(poly, depth) == \
        enumerate_full_scan(poly, depth, None)


def _column_last(poly):
    """Per column of a model, its last live row (0 when none)."""
    n = poly.cartan.rank
    last = [0] * n
    for k in poly.region:
        last[(k - 1) % n] = max(last[(k - 1) % n], (k - 1) // n + 1)
    return last


def _slack(poly, cell):
    """The shifts a cell (j, i) stays in the region for, less one."""
    j, i = cell
    return _column_last(poly)[i - 1] - j


def _with_block(model, forms, rows):
    """`model` with a block of `forms` shifted over `rows` rows added:
    the forms may hold constants, which no realized block with R > 1
    does, and which `LinearForm.shift_rows` refuses."""
    return Polyhedron(model.cartan, "binf", model.source,
                      model.blocks + ((FormSet(forms), rows),), model.region)


def _shifted_out(poly):
    """`poly` with every block form written out at every shift as a form
    of its own, constant kept, in one block with R = 1: the system
    `enumerate_full_scan` can read, with no shift left to drop."""
    n = poly.cartan.rank
    forms = [LinearForm(n, {((k - 1) // n + 1 + d, (k - 1) % n + 1): c
                            for k, c in f.terms}, f.lam, f.const)
             for forms, rows in poly.blocks for f in forms
             for d in range(rows)]
    return Polyhedron(poly.cartan, poly.object, poly.source,
                      ((FormSet(forms), 1),), poly.region, poly.lam)


def _compiled_count(poly, depth):
    """How many (form, shift) pairs the compile step keeps for B(inf)."""
    return len(polytope_module._compile(poly, depth, None)[-1])


def _check_against_references(poly, depth):
    got = enumerate_binf_truncated(poly, depth)
    assert got == enumerate_full_scan(_shifted_out(poly), depth, None) == \
        _brute_force(poly, depth)
    return got


@pytest.mark.parametrize("t,n", SMALL_TYPES)
def test_a_negative_form_whose_deeper_shift_leaves_the_region_is_empty(t, n):
    # x[j;i] - 1 >= 0 over R shifts: a shift that moves (j;i) below the
    # last live row of column i has no region term and reads -1 >= 0, so
    # the model has no point; one shift fewer keeps every shift in the
    # region, and the form raises each of the cells it reads to 1
    model = _model(t, n)
    iota = IotaSequence(model.cartan)
    for k in model.region:
        cell = iota.rowcol(k)
        form = LinearForm(n, {cell: 1}, const=-1)
        stays = _slack(model, cell) + 1
        assert polytope_module._compile(
            _with_block(model, [form], stays + 1), 3, None) is None
        for depth in (0, 2):
            assert _check_against_references(
                _with_block(model, [form], stays + 1), depth) == set()
            _check_against_references(_with_block(model, [form], stays),
                                      depth)
        poly = _with_block(model, [form], stays)
        got = enumerate_binf_truncated(poly, 6)
        assert got == enumerate_full_scan(_shifted_out(poly), 6, None)
        assert got and all(dict(key).get(k + d * n, 0) >= 1
                           for key in got for d in range(stays))


@pytest.mark.parametrize("t,n", SMALL_TYPES)
@pytest.mark.parametrize("const", [1, 0, -1])
def test_a_positive_only_tail_is_dropped_only_at_a_nonnegative_base(t, n,
                                                                    const):
    # x[p] - x[q] + const >= 0 where q leaves the region before p does:
    # the shifts past q's slack read x[p] + const >= 0.  At const >= 0
    # they cannot cut and are not compiled; at const < 0 they raise x[p]
    model = _model(t, n)
    iota = IotaSequence(model.cartan)
    cells = sorted(map(iota.rowcol, model.region),
                   key=lambda cell: _slack(model, cell))
    q, p = cells[0], cells[-1]
    assert _slack(model, q) < _slack(model, p)
    poly = _with_block(model, [LinearForm(n, {p: 1, q: -1}, const=const)],
                       _slack(model, p) + 1)
    kept = _slack(model, q if const >= 0 else p) + 1
    assert _compiled_count(poly, 2) == _compiled_count(model, 2) + kept
    for depth in range(3):
        _check_against_references(poly, depth)


@st.composite
def _random_shifted_system(draw):
    """A binf model of a small type with a block of random forms, both
    signs of constant, shifted over a random number of rows: forms whose
    negative terms leave the region before their positive ones, and forms
    whose deeper shifts leave it altogether."""
    model = _model(*draw(st.sampled_from(SMALL_TYPES)))
    n, deep = model.cartan.rank, last_row(model)
    cell = st.tuples(st.integers(1, deep), st.integers(1, n))
    coeff = st.integers(-2, 2).filter(bool)
    extra = draw(st.lists(st.builds(
        lambda terms, const: LinearForm(n, terms, const=const),
        st.dictionaries(cell, coeff, min_size=1, max_size=3),
        st.integers(-2, 2)), min_size=1, max_size=4))
    return _with_block(model, extra, draw(st.integers(1, deep + 1)))


@settings(max_examples=100, deadline=None)
@given(_random_shifted_system(), st.integers(0, 3))
def test_enumeration_of_random_shifted_blocks_equals_the_references(poly,
                                                                    depth):
    _check_against_references(poly, depth)


ALL_TYPES_TO_RANK_8 = (
    [("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)] + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


@pytest.mark.parametrize("t,n", ALL_TYPES_TO_RANK_8)
def test_binf_enumeration_equals_the_full_scan_on_every_type(t, n):
    poly = _model(t, n)
    for depth in range(3):
        assert enumerate_binf_truncated(poly, depth) == \
            enumerate_full_scan(poly, depth, None)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([tn for tn in ALL_TYPES_TO_RANK_8 if tn[1] <= 6]),
       st.data())
def test_blambda_enumeration_equals_the_full_scan_on_random_weights(tn,
                                                                    data):
    t, n = tn
    cartan = cartan_matrix(t, n)
    lam = list(data.draw(st.tuples(*[st.integers(0, 2)] * n), label="lam"))
    # clear entries from the left until the dimension is small
    for j in range(n):
        if weyl_dim(cartan, lam) <= 300:
            break
        lam[j] = 0
    lam = tuple(lam)
    poly = _model(t, n, lam)
    got = enumerate_blambda(poly)
    assert got == enumerate_full_scan(
        poly, weight_string_budget(cartan, lam), lam)
    assert len(got) == weyl_dim(cartan, lam)


def test_the_compile_step_keeps_only_the_shifts_that_can_cut():
    # E8 B(infinity): 2,542 of its 3,720 shifted forms touch the region,
    # and 2,293 of them keep a negative term there; no form has a constant
    poly = _model("E", 8)
    region = set(poly.region)
    forms = system_forms(poly)
    assert len(forms) == 3720
    assert sum(any(k in region for k, _ in f.terms) for f in forms) == 2542
    cut = sum(f.const < 0 or any(c < 0 and k in region for k, c in f.terms)
              for f in forms)
    assert cut == 2293
    assert _compiled_count(poly, 3) == cut


def test_the_compile_step_refuses_a_region_with_a_gap():
    # the shifts are dropped by each column's last live row, which says
    # where a term leaves the region only when no row above it is missing
    model = _model("A", 3)
    poly = Polyhedron(model.cartan, "binf", model.source, model.blocks,
                      model.region[1:])
    with pytest.raises(ValueError, match="moving a row up"):
        enumerate_binf_truncated(poly, 1)


def test_the_points_of_one_enumeration_share_their_pairs():
    # each cell makes the pair of a value once, however many points hold
    # it; x[1;1] >= 2 raises a cell past 1, so its pairs are made by lo
    model = _model("A", 2)
    raised = _with_forms(model, [LinearForm(2, {(1, 1): 1}, const=-2)])
    for got in (enumerate_binf_truncated(_model("B", 3), 3),
                enumerate_blambda(_model("A", 3, (1, 0, 1))),
                enumerate_binf_truncated(raised, 4)):
        first = {}
        held = 0
        for key in got:
            for pair in key:
                assert first.setdefault(pair, pair) is pair
                held += 1
        assert held > len(first)


def test_the_pair_table_is_made_on_first_use(monkeypatch):
    # a table of every value up to the budget would hold 120 cells times
    # 10^4 pairs, about 90 MB; the cap stops the search after its first
    # 1001 points, which reach few values
    poly = _model("E", 8)
    monkeypatch.setenv("CRYSTALPOLY_ENUM_CAP", "1000")
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded) as err:
            enumerate_binf_truncated(poly, 10 ** 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.cap, err.value.limit, err.value.reached) == \
        ("enum", 1000, 1001)
    assert peak < 8 * 2 ** 20


@st.composite
def _random_family(draw):
    n = draw(st.integers(1, 3))
    cell = st.tuples(st.integers(1, 3), st.integers(1, n))
    coeff = st.integers(-2, 2).filter(bool)
    family = draw(st.lists(st.dictionaries(cell, coeff, min_size=1,
                                           max_size=4),
                           min_size=1, max_size=5))
    return n, [LinearForm(n, terms) for terms in family]


def _span(family):
    """The deepest row of the family plus one."""
    return max(max_row(f) for f in family) + 1


@settings(max_examples=200, deadline=None)
@given(_random_family())
def test_forced_cells_equal_the_naive_fixpoint(nf):
    # a window of shifts forces a subset of what the full system forces,
    # and all of it in the top half of a window twice as deep as the
    # region and the family's span
    n, family = nf
    try:
        region, cutoff = polytope_module._zero_region(family, n)
    except RealizationError as err:
        column = int(str(err).split()[1])
        for width in range(1, 7):
            assert all((k - 1) % n + 1 != column
                       for k in forced_reference(family, n, width))
        return
    for width in range(1, 7):
        assert not forced_reference(family, n, width) & set(region)
    width = 2 * (cutoff + _span(family))
    live = set(range(1, width // 2 * n + 1)) - \
        forced_reference(family, n, width)
    assert sorted(live) == list(region)


# every type whose zero region is pinned below, with c_i, the last live
# row of column i
REGION_SHAPES = (
    [(("A", n), tuple(range(n, 0, -1))) for n in range(1, 9)]
    + [(("B", n), (n,) * n) for n in range(2, 8)]
    + [(("C", n), (n,) * n) for n in range(2, 8)]
    + [(("D", n), (n - 1,) * n) for n in range(4, 9)]
    + [(("E", 6), (8, 7, 6, 5, 4, 6)), (("E", 7), (9,) * 7),
       (("E", 8), (15,) * 8), (("F", 4), (6,) * 4), (("G", 2), (3,) * 2)]
    + [(("A", 30), tuple(range(30, 0, -1))),
       (("A", 60), tuple(range(60, 0, -1))),
       (("B", 20), (20,) * 20), (("D", 20), (19,) * 20)])
REGION_TYPES = [tn for tn, _ in REGION_SHAPES]


@functools.lru_cache(maxsize=None)
def _frame(t, n):
    return polytope_module._Frame(cartan_matrix(t, n))


@pytest.mark.parametrize("t,n", REGION_TYPES)
def test_forced_cells_equal_the_counting_worklist(t, n):
    # the top half of a window twice as deep as the region and the
    # family's span is live exactly on the region
    frame = _frame(t, n)
    width = 2 * (frame.cutoff + _span(frame.family1))
    forced = forced_cells_counting(frame.family1, n, width)
    assert polytope_module._zero_region(frame.family1, n)[0] == \
        tuple(k for k in range(1, width // 2 * n + 1) if not forced[k])


@pytest.mark.parametrize("tn,shape", REGION_SHAPES)
def test_zero_region_is_rows_one_to_c_of_each_column(tn, shape):
    t, n = tn
    frame = _frame(t, n)
    want = sorted((j - 1) * n + i for i, c in enumerate(shape, 1)
                  for j in range(1, c + 1))
    assert list(frame.region) == want
    assert frame.cutoff == max(shape)


@pytest.mark.parametrize("t,n", REGION_TYPES)
def test_zero_region_window_schedule(t, n):
    # narrower windows, doubling up to the one above, force no cell of
    # the region: a window holds only some of the shifted forms
    frame = _frame(t, n)
    width = 1
    while width < 2 * (frame.cutoff + _span(frame.family1)):
        forced = forced_cells_counting(frame.family1, n, width)
        assert not any(forced[k] for k in frame.region if k < len(forced))
        width *= 2


def test_zero_region_names_a_column_that_is_never_forced():
    # x_{1;1} >= 0 and its shifts force nothing; -x_{1;1} >= 0 forces
    # all of column 1 and leaves column 2 free
    with pytest.raises(RealizationError,
                       match="column 1 is never forced to 0"):
        polytope_module._zero_region([LinearForm(1, {(1, 1): 1})], 1)
    with pytest.raises(RealizationError,
                       match="column 2 is never forced to 0"):
        polytope_module._zero_region([LinearForm(2, {(1, 1): -1})], 2)


def test_verify_shares_one_frame_across_builds(monkeypatch):
    calls = []
    real = polytope_module._zero_region

    def counted(parametric, n):
        calls.append(n)
        return real(parametric, n)

    monkeypatch.setattr(polytope_module, "_zero_region", counted)
    reports = verify(cartan_matrix("B", 2), lam=(1, 0), depth=3)
    assert all(r.passed for r in reports)
    assert calls == [2]
    frame = polytope_module._Frame(cartan_matrix("B", 2))
    with pytest.raises(ValueError):
        build(cartan_matrix("C", 2), "binf", frame=frame)


def _counted_closures(monkeypatch):
    """The generator lists of every forms.closure call, counted where
    polytope calls it and where forms.node_family does."""
    calls = []
    real = forms_module.closure

    def counted(iota, generators):
        generators = tuple(generators)
        calls.append(generators)
        return real(iota, generators)

    monkeypatch.setattr(forms_module, "closure", counted)
    monkeypatch.setattr(polytope_module, "closure", counted)
    return calls


def test_verify_closes_each_family_once(monkeypatch):
    # family1 and one family per node, the latter shared by the
    # closure-source B(lambda) build and d:strict-positivity
    calls = _counted_closures(monkeypatch)
    cartan = cartan_matrix("B", 3)
    reports = verify(cartan, lam=(1, 0, 1), depth=2)
    assert all(r.passed for r in reports)
    iota = iota_for("B", 3)
    assert calls == [(LinearForm(3, {(1, 1): 1}),)] + \
        [(lambda_form(iota, i),) for i in (1, 2, 3)]


def test_blambda_builds_share_the_frames_node_families(monkeypatch):
    cartan = cartan_matrix("B", 3)
    frame = polytope_module._Frame(cartan)
    calls = _counted_closures(monkeypatch)
    first = build(cartan, "blambda", (1, 0, 1), frame=frame)
    second = build(cartan, "blambda", (0, 1, 0), frame=frame)
    assert len(calls) == 3
    assert system_forms(first) == system_forms(second)


def test_blambda_build_needs_strictly_positive_node_families(monkeypatch):
    # a seed with -x[1;2] added breaks strict positivity at node 1; the
    # closure source raises, the table source does not close the seeds
    real = forms_module.lambda_form

    def seed(iota, i):
        return minus(real(iota, i), LinearForm(iota.rank, {(1, 2): 1}))

    monkeypatch.setattr(forms_module, "lambda_form", seed)
    cartan = cartan_matrix("A", 2)
    with pytest.raises(ValueError) as err:
        build(cartan, "blambda", (1, 1))
    assert str(err.value).startswith(
        "node 1 is not strictly positive: L1 - x[1;1] - x[1;2]")
    assert system_forms(build(cartan, "blambda", (1, 1), source="table"))


def _counted_enumerations(monkeypatch):
    calls = []
    real = polytope_module._enumerate

    def counted(poly, budget, lam):
        calls.append((poly.object, poly.source))
        return real(poly, budget, lam)

    monkeypatch.setattr(polytope_module, "_enumerate", counted)
    return calls


def test_verify_enumerates_each_distinct_system_once(monkeypatch):
    # B3 has tables equal to the closure systems, for B(infinity) and for
    # B(lambda); G2 has no table, so only the closure systems exist
    calls = _counted_enumerations(monkeypatch)
    reports = verify(cartan_matrix("B", 3), lam=(1, 0, 1), depth=3)
    assert all(r.passed for r in reports)
    assert calls == [("binf", "closure"), ("blambda", "closure")]
    by_name = {r.name: r for r in reports}
    assert by_name["b:binf-oracle"].counts["table"] == \
        by_name["b:binf-oracle"].counts["closure"]
    assert by_name["c:blambda-oracle"].counts["table"] == \
        weyl_dim(cartan_matrix("B", 3), (1, 0, 1))
    del calls[:]
    reports = verify(cartan_matrix("G", 2), lam=(1, 0), depth=3)
    assert all(r.passed for r in reports)
    assert calls == [("binf", "closure"), ("blambda", "closure")]


def test_verify_compares_a_differing_blambda_table_system(monkeypatch):
    # node 1's table family gets a form every point satisfies, so the
    # B(lambda) systems differ and the table one is enumerated on its own;
    # a point slipped into that enumeration fails c:blambda-oracle
    real_tables = polytope_module.xi_first_tables

    def with_redundant_form(type_label, rank, with_lambda=False):
        fams = dict(real_tables(type_label, rank, with_lambda))
        extra = LinearForm(rank, {(1, 1): 1, (1, 2): 1},
                           lam=(int(with_lambda), 0))
        fams[1] = FormSet(list(fams[1]) + [extra])
        return fams

    real = polytope_module.enumerate_blambda
    stray = ZVector(2, {(1, 1): 5})

    def with_stray(poly):
        got = real(poly)
        return got | {stray.key()} if poly.source == "table" else got

    monkeypatch.setattr(polytope_module, "xi_first_tables",
                        with_redundant_form)
    monkeypatch.setattr(polytope_module, "enumerate_blambda", with_stray)
    calls = _counted_enumerations(monkeypatch)
    reports = verify(cartan_matrix("B", 2), lam=(1, 1), depth=2)
    by_name = {r.name: r for r in reports}
    check = by_name["c:blambda-oracle"]
    assert not check.passed
    assert check.counts == {"bfs": 16, "closure": 16, "table": 17,
                            "weyl_dim": 16}
    assert check.witnesses == ("only in second: %r" % (stray,),)
    assert by_name["b:binf-oracle"].passed
    assert calls == [("binf", "closure"), ("blambda", "closure"),
                     ("blambda", "table")]


@pytest.mark.parametrize("t,n,depth", [
    ("A", 4, 3), ("B", 3, 4), ("G", 2, 5), ("E", 6, 3), ("E", 8, 3),
])
def test_binf_search_and_axioms_scan_each_vector_once(monkeypatch, t, n,
                                                      depth):
    # the search scans every vector of the set and the targets of the
    # deepest ones' f_i steps, each distinct target once, and the axiom
    # check scans nothing: the vectors of depth <= depth + 1
    want = len(generate_binf(iota_for(t, n), depth + 1))
    scans = counted_scans(monkeypatch)
    iota = IotaSequence(cartan_matrix(t, n))    # compiles a counted kernel
    found, report = polytope_module._search_and_axioms(iota, None, depth)
    assert report.passed
    assert len(scans) == want
    assert len(set(scans)) == want


@pytest.mark.parametrize("t,n,lam,depth", [
    ("B", 3, (1, 0, 1), 2), ("G", 2, (1, 1), 4), ("D", 4, (0, 1, 0, 0), 3),
    ("F", 4, (0, 0, 0, 1), 2), ("E", 6, (1, 0, 0, 0, 0, 0), 3),
    ("A", 3, None, 4),
])
def test_verify_scans_each_vector_once(monkeypatch, t, n, lam, depth):
    # each search makes its own vectors: B(infinity) scans its set and the
    # targets one level deeper, B(lambda) its weyl_dim nodes, each once
    iota = iota_for(t, n)
    want = Counter(generate_binf(iota, depth + 1))
    if lam is not None:
        want += Counter(generate_blambda(iota, lam))
    scans = counted_scans(monkeypatch)
    reports = verify(cartan_matrix(t, n), lam=lam, depth=depth)
    assert all(r.passed for r in reports)
    assert Counter(scans) == want
    assert len(scans) == len(generate_binf(iota, depth + 1)) + (
        0 if lam is None else weyl_dim(iota.cartan, lam))


ROW_SHIFT_TYPES = ([("A", n) for n in range(1, 13)]
                   + [("B", n) for n in range(2, 7)]
                   + [("C", n) for n in range(2, 7)]
                   + [("D", n) for n in range(4, 9)]
                   + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


@pytest.mark.parametrize("t,n", ROW_SHIFT_TYPES)
def test_binf_row_shifts_equal_the_closure_of_all_rows(t, n):
    frame = polytope_module._Frame(cartan_matrix(t, n))
    gens = [LinearForm(n, {(j, 1): 1}) for j in range(1, frame.cutoff + 1)]
    want = set(closure(frame.iota, gens))
    if t == "D":
        want |= {LinearForm(n, {(j, i): 1})
                 for j in range(1, frame.cutoff + 1) for i in (n - 1, n)}
    assert set(system_forms(build(frame.cartan, "binf", frame=frame))) \
        == want


def test_binf_build_rejects_a_family_without_positivity():
    # the row shifts are the closure only for a positive family1; the
    # d = 0 block is family1 itself, so build sees the violation
    cartan = cartan_matrix("B", 2)
    frame = polytope_module._Frame(cartan)
    bad = xi_form(frame.iota, 2)
    frame.family1 = FormSet(list(frame.family1) + [bad])
    with pytest.raises(RealizationError) as err:
        build(cartan, "binf", frame=frame)
    assert bad in err.value.witnesses


@pytest.mark.parametrize("t,n", ROW_SHIFT_TYPES)
def test_block_count_is_the_number_of_distinct_forms(t, n):
    cartan = cartan_matrix(t, n)
    frame = polytope_module._Frame(cartan)
    for source in ("closure", "table"):
        try:
            poly = build(cartan, "binf", source=source, frame=frame)
        except UnsupportedTableError:
            continue
        count = poly.count()
        assert count == len(system_forms(poly)), (t, n, source)


# every finite type up to rank 8
RANK_8_TYPES = ([("A", n) for n in range(1, 9)]
                + [("B", n) for n in range(2, 9)]
                + [("C", n) for n in range(2, 9)]
                + [("D", n) for n in range(4, 9)]
                + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


def _built(cartan, *model):
    """build(cartan, *model) from each source that has one."""
    polys = []
    for source in ("closure", "table"):
        try:
            polys.append(build(cartan, *model, source=source))
        except UnsupportedTableError:
            pass
    return polys


@pytest.mark.parametrize("t,n", RANK_8_TYPES)
def test_binf_pairs_are_the_made_system_in_key_order(t, n):
    cartan = cartan_matrix(t, n)
    for poly in _built(cartan, "binf"):
        pairs = poly.pairs()
        assert list(map(pair_form, pairs)) == list(system_forms(poly)), \
            (t, n, poly.source)
        assert len(pairs) == poly.count()
        assert all(0 <= d < rows for f, d in pairs
                   for forms, rows in poly.blocks if f in forms)
        if t == "D":
            # the fork columns x[j;n-1], x[j;n] at every live row
            made = set(map(pair_form, pairs))
            assert {LinearForm(n, {(j, i): 1}) for i in (n - 1, n)
                    for j in range(1, last_row(poly) + 1)} <= made


# E8 is left out: its node-8 family alone takes seconds to close
@settings(max_examples=40, deadline=None)
@given(st.sampled_from([tn for tn in RANK_8_TYPES if tn != ("E", 8)]),
       st.data())
def test_blambda_pairs_are_the_made_system_in_key_order(tn, data):
    t, n = tn
    lam = data.draw(st.tuples(*[st.integers(0, 3)] * n), label="lam")
    for poly in _built(cartan_matrix(t, n), "blambda", lam):
        assert list(map(pair_form, poly.pairs())) == \
            list(system_forms(poly)), (t, n, lam, poly.source)


def test_block_count_sees_a_form_and_its_own_shift():
    # f and f shifted one row, each over three shifts, are f at row
    # offsets 0..3: four forms, not six; a one-shift block that repeats
    # a shift of another block adds only its new forms.  The pairs keep
    # one of equal forms, in a block and across blocks
    cartan = cartan_matrix("B", 3)
    region = build(cartan, "binf").region
    f = LinearForm(3, {(1, 2): 1, (2, 1): -1})
    g = LinearForm(3, {(1, 1): 1})
    h = LinearForm(3, {(1, 1): 1}, lam=(1, 0, 0))
    for blocks, count in [
            (((FormSet([f, f.shift_rows(1)]), 3),), 4),
            (((FormSet([f, f.shift_rows(1)]), 3),
              (FormSet([f.shift_rows(3), f.shift_rows(5), g]), 1)), 6),
            (((FormSet([f]), 2), (FormSet([g, h]), 1),
              (FormSet([h, f.shift_rows(1)]), 1)), 4)]:
        poly = Polyhedron(cartan, "blambda", "closure", blocks, region,
                          (1, 0, 0))
        made = list(map(pair_form, poly.pairs()))
        assert made == list(system_forms(poly))
        assert poly.count() == count == len(made)


@st.composite
def _model_and_vector(draw):
    """A model of a small type, binf or blambda, and a vector on the rows
    of its region and one row below, entries of both signs; often a point
    of the model with up to two entries changed."""
    t, n = draw(st.sampled_from(SMALL_TYPES))
    lam = draw(st.one_of(st.none(), st.tuples(*[st.integers(0, 2)] * n)))
    poly = _model(t, n, lam)
    cells = st.tuples(st.integers(1, last_row(poly) + 1), st.integers(1, n))
    x = {}
    if draw(st.booleans()):
        points = sorted(enumerate_binf_truncated(poly, 2) if lam is None
                        else enumerate_blambda(poly))
        x = dict(ZVector.from_key(n, draw(st.sampled_from(points))).entries)
    x.update(draw(st.dictionaries(cells, st.integers(-2, 3), max_size=2)))
    return poly, {cell: v for cell, v in x.items() if v}


@settings(max_examples=300, deadline=None)
@given(_model_and_vector())
def test_contains_reads_the_blocks_as_the_made_system(case):
    poly, x = case
    n = poly.cartan.rank
    inside = set(poly.region) >= {(j - 1) * n + i for j, i in x}
    want = inside and all(f.evaluate(x, poly.lam) >= 0
                          for f in system_forms(poly))
    assert poly.contains(x) == want
    assert poly.contains(ZVector(n, x)) == want


@pytest.mark.parametrize("t,n,lam,forms", [
    ("E", 6, (1, 0, 0, 0, 0, 0), 350), ("D", 5, (0, 0, 0, 1, 1), 84),
])
def test_blambda_block_count_is_the_ample_form_count(t, n, lam, forms):
    cartan = cartan_matrix(t, n)
    for source in ("closure", "table"):
        poly = build(cartan, "blambda", lam, source=source)
        assert poly.count() == forms == len(system_forms(poly))
    by_name = {r.name: r for r in verify(cartan, lam=lam, depth=1)}
    assert all(r.passed for r in by_name.values())
    assert by_name["d:ample"].counts == {"forms": forms}


def test_e8_verify_and_enumerate_make_no_shifted_form(monkeypatch, capsys):
    # the B(infinity) blocks are read as row-1 families and shift counts:
    # no form is shifted and no system is ordered as pairs
    shifts, made = [], []
    real_shift = LinearForm.shift_rows
    real_pairs = Polyhedron.pairs

    def shift_rows(self, delta):
        shifts.append(delta)
        return real_shift(self, delta)

    def pairs(self):
        made.append(self.source)
        return real_pairs(self)

    monkeypatch.setattr(LinearForm, "shift_rows", shift_rows)
    monkeypatch.setattr(Polyhedron, "pairs", pairs)
    reports = verify(cartan_matrix("E", 8), depth=3)
    assert all(r.passed for r in reports)
    assert cli.main(["enumerate", "--type", "E8", "--depth", "3"]) == 0
    assert capsys.readouterr().out
    assert (shifts, made) == ([], [])


@pytest.mark.parametrize("argv", [
    ["--type", "B3", "--lambda", "1,0,1"],
    ["--type", "E6", "--lambda", "1,0,0,0,0,0"],
    ["--type", "G2", "--lambda", "1,1"],       # no table: closure only
])
def test_verify_checks_ampleness_once_per_blambda_build(monkeypatch, capsys,
                                                        argv):
    # the closure-source build raises on a non-ample form, so d:ample
    # reports that build's pass instead of running it again
    built, passes = [], []
    real_build, real_unshifted = build, polytope_module._unshifted

    def counted_build(cartan, object_="binf", *args, **kwargs):
        poly = real_build(cartan, object_, *args, **kwargs)
        if object_ == "blambda":
            built.append((poly.source, poly.blocks))
        return poly

    def unshifted(check, blocks, *args):
        if check is forms_module.check_ample:
            passes.append(blocks)
        return real_unshifted(check, blocks, *args)

    monkeypatch.setattr(polytope_module, "build", counted_build)
    monkeypatch.setattr(polytope_module, "_unshifted", unshifted)
    assert cli.main(["verify", *argv, "--depth", "1"]) == 0
    assert "PASS d:ample forms=" in capsys.readouterr().out
    assert [source for source, _ in built][:1] == ["closure"]
    assert passes == [blocks for _, blocks in built]

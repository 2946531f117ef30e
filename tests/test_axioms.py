"""The crystal-axiom check that reads the search's edges, tested against
the e-string walk it replaced, on valid and on corrupted inputs."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import crystalpoly.polytope as polytope_module
import crystalpoly.zcrystal as zcrystal_module
from crystalpoly import cli
from crystalpoly.polytope import _axiom_report
from crystalpoly.rootdata import cartan_matrix, weyl_dim
from crystalpoly.zcrystal import (
    CrystalNode, ZVector, f_tilde, generate_binf, generate_blambda,
    signature_table,
)

from reference import BINF_DEPTHS, HIGHEST_WEIGHTS, axiom_input, iota_for, \
    string_walk_report, table_fields, vectors as vectors_of


def search(iota, lam, depth):
    """The oracle's set as ZVectors and the edges its search records,
    with the vector of each end's key in place of its index."""
    edges = []
    store = generate_binf(iota, depth, edges) if lam is None \
        else generate_blambda(iota, lam, edges)
    at = vectors_of(iota.rank, store.keys)
    return set(at[:len(store)]), [(at[a], i, at[b]) for a, i, b in edges]


def axiom_report(iota, vectors, lam, edges=None):
    """_axiom_report over ZVectors, taken in the order given: over the
    steps `edges` between them, or over the f-pass when None."""
    store, steps = axiom_input(iota, list(vectors), lam, edges)
    return _axiom_report(iota, store, lam, steps)


def deepest(vectors):
    """A vector of the largest degree; in B(lambda) the lowest node."""
    return max(vectors, key=lambda v: (sum(v.entries.values()), v.key()))


def set_corruptions(iota, vectors, lam, edges, rng):
    """(label, vectors, lam) with the set or the weight spoiled."""
    top = ZVector(iota.rank)
    inner = sorted({x for x, _, y in edges if y in vectors} - {top},
                   key=ZVector.key)
    if inner:
        # a node below the top whose f_i steps stay in the set
        yield "node dropped", vectors - {rng.choice(inner)}, lam
    if lam is not None and len(vectors) > 1:
        yield "lowest node dropped", vectors - {deepest(vectors)}, lam
    if lam is None:
        # a B(infinity) point one step beyond the truncation
        outside = f_tilde(iota, deepest(vectors), rng.randrange(iota.rank) + 1)
    else:
        # a B(infinity) point whose f_i step leaves B(lambda)
        outside = next(f_tilde(iota, x, i)
                       for x in sorted(vectors, key=ZVector.key)
                       for i in range(1, iota.rank + 1)
                       if CrystalNode(iota, x, lam).f(i) is None)
    yield "foreign vector added", vectors | {outside}, lam
    if lam is not None:
        # a coordinate of lambda one off, negative ones included
        for j, v in enumerate(lam):
            for d in (-1, 1):
                bent = lam[:j] + (v + d,) + lam[j + 1:]
                yield "lambda_%d %+d" % (j + 1, d), vectors, bent


def edge_corruptions(iota, vectors, lam, edges, rng):
    """(label, vectors, edges) with the search's edge list spoiled."""
    k = rng.randrange(len(edges))
    x, i, y = edges[k]
    other = rng.choice([z for _, _, z in edges if z is not y])
    yield "wrong target", vectors, edges[:k] + [(x, i, other)] + edges[k + 1:]
    # another edge in place of this one: the count of steps still agrees
    twice = edges[(k + 1) % len(edges)]
    yield "edge repeated", vectors, edges[:k] + [twice] + edges[k + 1:]
    # a deepest node dropped (the lowest one of B(lambda)) and the edges
    # into it replaced by repeats of others; in B(infinity) only the
    # repeats show
    low = deepest(vectors)
    kept = [e for e in edges if e[2] is not low]
    if kept and len(kept) < len(edges):
        yield "deepest node dropped, edges repeated", vectors - {low}, \
            kept + kept[:len(edges) - len(kept)]
        if {id(x) for x, _, _ in kept} == {id(x) for x, _, _ in edges}:
            # and when every source keeps an edge, only the count shows
            yield "deepest node dropped with its edges", vectors - {low}, kept
    # two i-edges whose sources agree in weight and eps_i but not in the
    # position f_i acts at, with their targets swapped: only e_i f_i = id
    # sees it
    rows = {}
    for a, (x, i, _) in enumerate(edges):
        best, first, _, weight, _ = table_fields(signature_table(iota, x))
        rows.setdefault((i, weight, best[i - 1]), {})[first[i - 1]] = a
    for by_row in rows.values():
        if len(by_row) > 1:
            a, b = list(by_row.values())[:2]
            (xa, i, ya), (xb, _, yb) = edges[a], edges[b]
            swapped = list(edges)
            swapped[a], swapped[b] = (xa, i, yb), (xb, i, ya)
            yield "targets swapped", vectors, swapped
            return


def check_against_reference(iota, lam, depth=None, seed=0):
    vectors, edges = search(iota, lam, depth)
    want, why = string_walk_report(iota, vectors, lam)
    assert want, why
    for given_edges in (None, edges):
        report = axiom_report(iota, vectors, lam, given_edges)
        assert report.passed, report.witnesses
    # and over the search's own plain data
    steps = []
    store = zcrystal_module._search(iota, lam, depth, steps)
    report = _axiom_report(iota, store, lam, steps)
    assert report.passed, report.witnesses
    assert report.counts == {"nodes": len(vectors)}
    rng = random.Random(seed)
    for label, spoiled, bent in set_corruptions(iota, vectors, lam, edges,
                                                rng):
        want, _ = string_walk_report(iota, spoiled, bent)
        got = axiom_report(iota, spoiled, bent)
        # stricter than the reference is allowed, laxer is not
        assert want or not got.passed, label
        if label.endswith("node dropped"):
            assert not got.passed, label
    if len(edges) > 1:
        for label, spoiled, bad in edge_corruptions(iota, vectors, lam,
                                                    edges, rng):
            assert not axiom_report(iota, spoiled, lam, bad).passed, label
    inner = [e for e in edges if e[2] in vectors]
    if inner:
        # one table at the end of an i-edge with eps_i, then <h_i, wt>,
        # one too high; the end lies in the set, as the B(infinity) steps
        # out of the deepest vectors end below it
        _, i, y = inner[rng.randrange(len(inner))]
        store, steps = axiom_input(iota, list(vectors), lam, edges)
        at = store.keys.index(y.key())
        table = store.tables[at]
        for field in ("best", "pairing"):
            bent = list(table)
            if field == "best":         # best_i sits at 1 + i
                bent[1 + i] += 1
            else:                       # the pairing tuple at 1
                bent[1] = tuple(v + (p == i - 1)
                                for p, v in enumerate(table[1]))
            store.tables[at] = tuple(bent)
            want, _ = string_walk_report(iota, vectors, lam,
                                         {y: store.tables[at]})
            got = _axiom_report(iota, store, lam, steps)
            store.tables[at] = table
            assert not got.passed, field
            if field == "best" and lam is not None:
                assert not want     # the reference walks strings only here


@pytest.mark.parametrize("t,n,lam,dim",
                         HIGHEST_WEIGHTS + [("A", 2, (0, 0), 1)])
def test_axiom_report_matches_the_string_walk_reference(t, n, lam, dim):
    check_against_reference(iota_for(t, n), lam)


@pytest.mark.parametrize("t,n,depth", BINF_DEPTHS)
def test_binf_axiom_report_matches_the_string_walk_reference(t, n, depth):
    check_against_reference(iota_for(t, n), None, min(depth, 4))


SMALL_TYPES = [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3),
               ("D", 4), ("G", 2), ("F", 4)]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SMALL_TYPES), st.data())
def test_axiom_report_matches_the_reference_on_random_weights(tn, data):
    t, n = tn
    lam = data.draw(st.tuples(*[st.integers(0, 2)] * n), label="lam")
    assume(weyl_dim(cartan_matrix(t, n), lam) <= 300)
    check_against_reference(iota_for(t, n), lam, seed=data.draw(
        st.integers(0, 2 ** 16), label="seed"))


def test_verify_checks_axioms_without_operator_calls(capsys, monkeypatch):
    # B(lambda) axioms read the tables only; the search makes each edge
    # once, on keys, with no operator call
    calls = {"search": 0, "blambda-axioms": 0, "e": 0}
    where = [None]
    searched = []
    real_f, real_e = zcrystal_module.f_tilde, zcrystal_module.e_tilde
    real_search = polytope_module.generate_blambda
    real_report = polytope_module._axiom_report

    def f_tilde_counted(*args):
        if where[0] is not None:
            calls[where[0]] += 1
        return real_f(*args)

    def e_tilde_counted(*args):
        calls["e"] += 1
        return real_e(*args)

    def generate_blambda_traced(iota, lam, edges=None):
        where[0] = "search"
        try:
            found = real_search(iota, lam, edges)
        finally:
            where[0] = None
        searched.append((iota, lam, found, list(edges)))
        return found

    def axiom_report_traced(iota, store, lam, edges):
        where[0] = None if lam is None else "blambda-axioms"
        try:
            return real_report(iota, store, lam, edges)
        finally:
            where[0] = None

    for module in (zcrystal_module, polytope_module):
        monkeypatch.setattr(module, "f_tilde", f_tilde_counted,
                            raising=False)
    monkeypatch.setattr(zcrystal_module, "e_tilde", e_tilde_counted)
    monkeypatch.setattr(polytope_module, "generate_blambda",
                        generate_blambda_traced)
    monkeypatch.setattr(polytope_module, "_axiom_report",
                        axiom_report_traced)
    code = cli.main(["verify", "--type", "B3", "--lambda", "1,0,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS f:crystal-axioms(blambda) nodes=%d" \
        % weyl_dim(cartan_matrix("B", 3), (1, 0, 1)) in out
    assert calls["blambda-axioms"] == 0 and calls["e"] == 0
    assert len(searched) == 1 and calls["search"] == 0
    # each edge made once: one per pair (x, i) on which f_i acts
    iota, lam, found, edges = searched[0]
    acting = sum(CrystalNode(iota, ZVector.from_key(iota.rank, key), lam)
                 .f(i) is not None
                 for key in found.keys for i in range(1, iota.rank + 1))
    assert len({(a, i) for a, i, _ in edges}) == len(edges) == acting > 0


def test_a_passing_verify_keeps_no_objects_on_the_oracle_side(monkeypatch,
                                                              capsys):
    # the searches record their edges as int triples, and no ZVector is
    # made: not by the searches, the axiom check or the enumerations
    made = {"search": 0, "axioms": 0, None: 0}
    where = [None]
    recorded = []
    real_report = polytope_module._axiom_report
    real_init, real_from_key = ZVector.__init__, ZVector.from_key.__func__

    # a ZVector is made by its constructor or by from_key
    def counted_init(x, *args):
        made[where[0]] += 1
        real_init(x, *args)

    def counted_from_key(cls, *args):
        made[where[0]] += 1
        return real_from_key(cls, *args)

    def inside(name, real, keep=None):
        def traced(*args, **kwargs):
            where[0] = name
            try:
                return real(*args, **kwargs)
            finally:
                where[0] = None
                if keep is not None:
                    keep.append(args[2])
        return traced

    monkeypatch.setattr(ZVector, "__init__", counted_init)
    monkeypatch.setattr(ZVector, "from_key", classmethod(counted_from_key))
    for search in ("generate_binf", "generate_blambda"):
        monkeypatch.setattr(polytope_module, search, inside(
            "search", getattr(polytope_module, search), recorded))
    monkeypatch.setattr(polytope_module, "_axiom_report",
                        inside("axioms", real_report))
    for argv in (["--depth", "3"], ["--lambda", "1,0,1"]):
        code = cli.main(["verify", "--type", "B3"] + argv)
        out = capsys.readouterr().out
        assert code == 0 and "FAIL" not in out
    assert made["search"] == made["axioms"] == made[None] == 0
    assert len(recorded) == 3 and all(recorded)
    assert all(type(e) is tuple and len(e) == 3
               and all(type(v) is int for v in e)
               for edges in recorded for e in edges)


@pytest.mark.parametrize("t,n,depth", BINF_DEPTHS)
def test_binf_axioms_read_the_search_edges_without_operator_calls(
        monkeypatch, t, n, depth):
    # generate_binf's search records the steps out of its deepest vectors
    # too, so the axiom pass makes no step of its own
    iota = iota_for(t, n)
    edges = []
    store = zcrystal_module._search(iota, None, depth, edges)
    vectors = vectors_of(n, generate_binf(iota, depth))
    calls = []

    def counting(name, real):
        def counted(*args):
            calls.append(name)
            return real(*args)
        return counted

    for name in ("f_tilde", "e_tilde"):
        counted = counting(name, getattr(zcrystal_module, name))
        for module in (zcrystal_module, polytope_module):
            monkeypatch.setattr(module, name, counted, raising=False)
    report = _axiom_report(iota, store, None, edges)
    assert report.passed, report.witnesses
    assert calls == []
    # without the list the f-pass makes each step itself, once
    assert axiom_report(iota, vectors, None).passed
    assert calls == ["f_tilde"] * (n * len(vectors))


@pytest.mark.parametrize("label,drop,lam", [
    ("lambda_1 +1", (), (2, 0, 1)),
    ("two nodes dropped", (3, 4), (1, 0, 1)),
])
def test_axiom_witnesses_do_not_follow_the_order_of_the_set(label, drop,
                                                            lam):
    # a report keeps 10 witnesses; which ones must not depend on the order
    # the vectors come in, so a corrupted set given forwards and backwards
    # reports alike
    iota = iota_for("B", 3)
    vectors = vectors_of(3, sorted(generate_blambda(iota, (1, 0, 1))))
    vectors = [x for k, x in enumerate(vectors) if k not in drop]
    forwards = axiom_report(iota, vectors, lam)
    backwards = axiom_report(iota, vectors[::-1], lam)
    assert not forwards.passed, label
    assert len(forwards.witnesses) >= 5, label
    assert (forwards.passed, forwards.counts, forwards.witnesses) == \
        (backwards.passed, backwards.counts, backwards.witnesses), label

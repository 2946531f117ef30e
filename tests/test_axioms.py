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
    CrystalNode, SignatureTable, ZVector, f_tilde, generate_binf,
    generate_blambda, signature_table,
)

from reference import BINF_DEPTHS, HIGHEST_WEIGHTS, iota_for, \
    string_walk_report


def search(iota, lam, depth):
    """The oracle's set and the edges its search records."""
    edges = []
    if lam is None:
        return generate_binf(iota, depth, edges), edges
    return generate_blambda(iota, lam, edges), edges


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
        t = signature_table(iota, x)
        rows.setdefault((i, t.weight, t.best[i - 1]), {})[t.first[i - 1]] = a
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
        report = _axiom_report(iota, vectors, lam, given_edges)
        assert report.passed, report.witnesses
    rng = random.Random(seed)
    for label, spoiled, bent in set_corruptions(iota, vectors, lam, edges,
                                                rng):
        want, _ = string_walk_report(iota, spoiled, bent)
        got = _axiom_report(iota, spoiled, bent)
        # stricter than the reference is allowed, laxer is not
        assert want or not got.passed, label
        if label.endswith("node dropped"):
            assert not got.passed, label
    if len(edges) > 1:
        for label, spoiled, bad in edge_corruptions(iota, vectors, lam,
                                                    edges, rng):
            assert not _axiom_report(iota, spoiled, lam, bad).passed, label
    if edges:
        # one table at the end of an i-edge with eps_i, then <h_i, wt>,
        # one too high
        _, i, y = edges[rng.randrange(len(edges))]
        table = signature_table(iota, y)
        for field in ("best", "pairing"):
            bent = SignatureTable.__new__(SignatureTable)
            for name in SignatureTable.__slots__:
                setattr(bent, name, getattr(table, name))
            setattr(bent, field, tuple(
                v + (p == i - 1) for p, v in enumerate(getattr(table, field))))
            y._table = bent
            try:
                want, _ = string_walk_report(iota, vectors, lam)
                got = _axiom_report(iota, vectors, lam, edges)
            finally:
                y._table = table
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
    # B(lambda) axioms read the tables only; the search makes each edge once
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
        searched.append(len(edges))
        return found

    def axiom_report_traced(iota, vectors, lam, edges=None):
        where[0] = None if lam is None else "blambda-axioms"
        try:
            return real_report(iota, vectors, lam, edges)
        finally:
            where[0] = None

    for module in (zcrystal_module, polytope_module):
        monkeypatch.setattr(module, "f_tilde", f_tilde_counted)
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
    assert len(searched) == 1 and calls["search"] == searched[0] > 0


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
    vectors = sorted(generate_blambda(iota, (1, 0, 1)), key=ZVector.key)
    vectors = [x for k, x in enumerate(vectors) if k not in drop]
    forwards = _axiom_report(iota, vectors, lam)
    backwards = _axiom_report(iota, vectors[::-1], lam)
    assert not forwards.passed, label
    assert len(forwards.witnesses) >= 5, label
    assert (forwards.passed, forwards.counts, forwards.witnesses) == \
        (backwards.passed, backwards.counts, backwards.witnesses), label

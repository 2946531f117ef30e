"""End-to-end acceptance suite.

Each test function covers one numbered shipping criterion, so ``pytest -v``
prints exactly one pass/fail line per criterion.  Everything here is exact
integer combinatorics: the assertions are set equalities and integer counts,
with wall-clock budgets asserted where a criterion states one.

  1. first-column S-closures reproduce the printed inequality tables
  2. depth-truncated operator BFS equals polytope enumeration for B(infinity)
  3. lattice-point counts of the lambda polytopes equal Weyl dimensions
  4. nonzero-coordinate regions have exactly one cell per positive root
  5. positivity / strict positivity / ampleness checks are clean
  6. crystal axioms hold on every generated vector set
  7. node-family closures with lambda attached match the constant-free ones
  8. folding the substitution words reproduces the spin pattern sums
"""

import time

import pytest

from crystalpoly.forms import (
    LinearForm, check_ample, check_positivity, check_strict_positivity,
    closure, first_row_negatives, lambda_form, node_family, xi_form,
)
from crystalpoly.polytope import (
    _axiom_report, build, enumerate_binf_truncated, enumerate_blambda,
)
from crystalpoly.rootdata import cartan_matrix, positive_roots, weyl_dim
from crystalpoly.tables import admissible_patterns, binf_table, table_rows
from crystalpoly.zcrystal import generate_binf, generate_blambda
from reference import (
    BINF_DEPTHS, HIGHEST_WEIGHTS, apply_S, axiom_input, binf_closure,
    d_spin_form, flat, iota_for, naive_closure, plus_constant, spin_form,
    system_forms, vectors,
)

RANK_FAMILIES = (
    [("B", n) for n in range(2, 7)]
    + [("C", n) for n in range(2, 7)]
    + [("D", n) for n in range(4, 7)]
)
LITERAL_TABLES = [("F", 4), ("E", 6), ("E", 7), ("E", 8)]

ROOT_COUNTS = (
    [("B", n, n * n) for n in range(2, 7)]
    + [("C", n, n * n) for n in range(2, 7)]
    + [("D", n, n * (n - 1)) for n in range(4, 7)]
    + [("F", 4, 24), ("E", 6, 36), ("E", 7, 63), ("E", 8, 120)]
)

_cache = {}


def _memo(key, maker):
    if key not in _cache:
        _cache[key] = maker()
    return _cache[key]


def _binf_closure(tl, n):
    return _memo(("binf-closure", tl, n), lambda: binf_closure(tl, n))


def _d_bare_forms(tl, n):
    """The bare coordinate forms x[j;n-1], x[j;n] that the type-D table
    adjoins to the closure's families (none for the other types)."""
    if tl != "D":
        return set()
    return {LinearForm(n, {(j, c): 1})
            for j in range(1, table_rows(tl, n) + 1) for c in (n - 1, n)}


def _node_closure(tl, n, i):
    iota = iota_for(tl, n)
    return _memo(("node-closure", tl, n, i),
                 lambda: closure(iota, [xi_form(iota, i)]))


def _bfs(tl, n, depth):
    return _memo(("bfs", tl, n, depth),
                 lambda: generate_binf(iota_for(tl, n), depth))


def _blambda(tl, n, lam):
    return _memo(("blambda", tl, n, lam),
                 lambda: generate_blambda(iota_for(tl, n), lam))


def _poly(tl, n, object_, lam=None):
    return _memo(("poly", tl, n, object_, lam),
                 lambda: build(cartan_matrix(tl, n), object_, lam=lam,
                               source="closure"))


def test_criterion_1_first_column_closures_match_tables():
    """S-closure of {x_{j;1}} equals the printed table, every type."""
    elapsed = {}
    for tl, n in RANK_FAMILIES + LITERAL_TABLES:
        t0 = time.monotonic()
        got = set(_binf_closure(tl, n))
        want = set(binf_table(tl, n)) - _d_bare_forms(tl, n)
        elapsed[tl, n] = time.monotonic() - t0
        assert got == want, (tl, n, len(got), len(want))
    assert elapsed["E", 8] < 300.0
    assert sum(t for k, t in elapsed.items() if k != ("E", 8)) < 60.0


def test_criterion_2_truncated_bfs_equals_enumeration():
    """Operator BFS to a fixed depth == polytope slice of that degree."""
    for tl, n, depth in BINF_DEPTHS:
        t0 = time.monotonic()
        bfs = _bfs(tl, n, depth)
        pts = enumerate_binf_truncated(_poly(tl, n, "binf"), depth)
        assert pts == set(bfs), (tl, n, depth, len(pts), len(bfs))
        assert time.monotonic() - t0 < 120.0, (tl, n, depth)


def test_criterion_3_lattice_points_equal_weyl_dimensions():
    """|lattice points| == |operator-generated B(lambda)| == Weyl dim."""
    for tl, n, lam, dim in HIGHEST_WEIGHTS:
        t0 = time.monotonic()
        oracle = _blambda(tl, n, lam)
        pts = enumerate_blambda(_poly(tl, n, "blambda", lam))
        assert pts == set(oracle), (tl, n, lam)
        assert len(pts) == dim == weyl_dim(cartan_matrix(tl, n), lam), \
            (tl, n, lam, len(pts), dim)
        assert time.monotonic() - t0 < 120.0, (tl, n, lam)


def test_criterion_4_support_region_counts_positive_roots():
    """One live coordinate per positive root, closed-form counts."""
    for tl, n, count in ROOT_COUNTS:
        poly = _poly(tl, n, "binf")
        assert len(poly.region) == count, (tl, n, len(poly.region), count)
        assert count == len(positive_roots(cartan_matrix(tl, n))), (tl, n)


def test_criterion_5_positivity_strictness_and_ampleness():
    """First-row sign conditions and constant-term ampleness are clean."""
    for tl, n in RANK_FAMILIES + LITERAL_TABLES:
        assert check_positivity(_binf_closure(tl, n)) == [], (tl, n)
    strict = [(tl, n) for tl, n in RANK_FAMILIES if n <= 5]
    strict += [("F", 4), ("E", 6)]
    for tl, n in strict:
        iota = iota_for(tl, n)
        node_fams = {i: _node_closure(tl, n, i)
                     for i in range(1, iota.rank + 1)}
        bad = check_strict_positivity(_binf_closure(tl, n), node_fams, iota)
        assert bad == [], (tl, n, bad)
    for tl, n, lam, _dim in HIGHEST_WEIGHTS:
        poly = _poly(tl, n, "blambda", lam)
        assert check_ample(system_forms(poly), lam) == [], (tl, n, lam)


def test_criterion_6_crystal_axioms_on_generated_sets():
    """Round trips, weight shifts, string lengths, unique highest node."""
    for tl, n, lam, _dim in HIGHEST_WEIGHTS:
        iota = iota_for(tl, n)
        store, steps = axiom_input(iota, vectors(n, _blambda(tl, n, lam)),
                                   lam)
        rep = _axiom_report(iota, store, lam, steps)
        assert rep.passed, (tl, n, lam, rep.witnesses)
    for tl, n, depth in BINF_DEPTHS:
        iota = iota_for(tl, n)
        store, steps = axiom_input(iota, vectors(n, _bfs(tl, n, depth)),
                                   None)
        rep = _axiom_report(iota, store, None, steps)
        assert rep.passed, (tl, n, depth, rep.witnesses)


def test_criterion_7_lambda_closures_lift_node_closures():
    """Shat-closure of lambda^(i) == lambda_i + S-closure of xi^(i), and
    the node family B(lambda) is built from is that closure."""
    for tl, n in [(tl, n) for tl, n in RANK_FAMILIES if n <= 5] + [("E", 6)]:
        iota = iota_for(tl, n)
        for i in range(1, iota.rank + 1):
            got = set(naive_closure(iota, [lambda_form(iota, i)], "Shat"))
            unit = tuple(int(m == i - 1) for m in range(n))
            want = {plus_constant(f, unit) for f in _node_closure(tl, n, i)
                    if not plus_constant(f, unit).is_zero()}
            assert got == want, (tl, n, i, len(got), len(want))
            assert set(node_family(iota, i)) == want, (tl, n, i)


def _word_fold(iota, seed, word):
    form = seed
    for r, c in word:
        # no step is taken at a first-row pair, where S is a no-op
        k = flat(iota, r, c)
        assert (form, k) not in first_row_negatives([form]), (word, r, c)
        form = apply_S(iota, k, form)
    return form


def _b_spin_word(n, mu):
    word = []
    for k, m in enumerate(mu, start=1):
        if k == 1:
            word += [(r, n - r) for r in range(1, m)]
        else:
            word.append((k - 1, n))
            word += [(r, n - 1 - (r - k)) for r in range(k, m + k - 1)]
    return word


def _d_spin_word(n, mu, primed):
    word = []
    for k, m in enumerate(mu, start=1):
        if k == 1:
            word += [(r, n - 1 - r) for r in range(1, m)]
        else:
            hi = (k % 2 == 0) != primed
            word.append((k - 1, n if hi else n - 1))
            word += [(r, n - 2 - (r - k)) for r in range(k, m + k - 1)]
    return word


def test_criterion_8_substitution_words_reach_spin_forms():
    """Folding the per-pattern word over the seed == pattern sum."""
    for n in range(2, 6):
        iota = iota_for("B", n)
        seed = LinearForm(n, {(1, n - 1): 2, (1, n): -1})
        for mu in admissible_patterns("B", n):
            got = _word_fold(iota, seed, _b_spin_word(n, mu))
            assert got == spin_form("B", n, mu), ("B", n, mu)
    for n in (4, 5):
        iota = iota_for("D", n)
        for primed in (False, True):
            col = n if primed else n - 1
            seed = LinearForm(n, {(1, n - 2): 1, (1, col): -1})
            for mu in admissible_patterns("D", n):
                got = _word_fold(iota, seed, _d_spin_word(n, mu, primed))
                assert got == d_spin_form(n, mu, primed), ("D", n, mu, primed)

import ast
import gc
import weakref
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import crystalpoly.zcrystal as zcrystal_module

from crystalpoly.forms import LinearForm
from crystalpoly.rootdata import CapExceeded, cartan_matrix, \
    positive_roots, weyl_dim
from crystalpoly.zcrystal import (
    IotaSequence, Store, ZVector, CrystalNode,
    signature_table, f_tilde, e_tilde, generate_binf, generate_blambda,
)
from reference import (
    BINF_DEPTHS, RANK_6_TYPES, column_sums, flat, iota_for, kminus,
    counted_scans, level_bfs, row_scan, suffix_scan, table_fields, total,
    vectors, weight_root_coords,
)


# References for the tests: the colour of a flat position, the next
# position of the same colour, the top row and zero test of a vector, the
# direct definition of sigma and its maximum with its maximizers as flat
# positions, and <h_i, mu> for mu in root coordinates.  The references
# other test modules share are in reference.py.

def node(iota, k):
    return (k - 1) % iota.rank + 1


def kplus(iota, k):
    return k + iota.rank


def max_row(x):
    return max((j for j, _ in x.entries), default=0)


def is_zero(x):
    return not x.entries


def sigma(iota, x, k):
    """sigma_k(x) = x_k + sum over later positions l of a_{i_k,i_l} x_l."""
    i = node(iota, k)
    s = x.get(k)
    for l, v in x.key():
        if l > k:
            s += iota.cartan.a(i, node(iota, l)) * v
    return s


def sigma_i_max(iota, x, i):
    best, first, last, _, _ = table_fields(signature_table(iota, x))
    return (best[i - 1], first[i - 1], last[i - 1])


def pair_root_coords(cartan, i, coords):
    row = cartan.matrix[i - 1]
    return sum(row[p] * coords[p] for p in range(cartan.rank))


def test_iota_bookkeeping():
    iota = iota_for("B", 3)
    assert [node(iota, k) for k in range(1, 8)] == [1, 2, 3, 1, 2, 3, 1]
    assert flat(iota, 2, 1) == 4 and iota.rowcol(4) == (2, 1)
    assert kplus(iota, 2) == 5 and kminus(iota, 5) == 2 and \
        kminus(iota, 2) == 0
    # every colour appears once per row, no consecutive repeats (rank >= 2)
    word = [node(iota, k) for k in range(1, 16)]
    assert all(word[i] != word[i + 1] for i in range(len(word) - 1))
    for i in range(1, 4):
        assert word.count(i) == 5


def test_zvector_basics():
    x = ZVector(2, {(1, 1): 2, (2, 1): 0})
    assert x.key() == ((1, 2),) and x.rank == 2
    assert x.get(1) == 2 and x.get(3) == 0      # (2;1) is position 3
    assert max_row(x) == 1 and total(x) == 2
    y = x.bump(1, -2)
    assert is_zero(y) and y == ZVector(2)
    assert hash(x.bump(6, 1)) == hash(ZVector(2, {(1, 1): 2, (3, 2): 1}))
    assert x.bump(6, 1) == ZVector(2, {(1, 1): 2, (3, 2): 1})
    # the (row, column) view is read-only and rebuilds the vector
    assert dict(x.entries) == {(1, 1): 2}
    with pytest.raises(TypeError):
        x.entries[(1, 1)] = 3
    assert ZVector(2, x.entries) == x and repr(x) == "ZVector((1;1):2)"
    # vectors of another rank are other vectors
    assert ZVector(1) != ZVector(2)


@pytest.mark.parametrize("cell", [(1, 3), (0, 1), (1, 0), (-1, 2), (2, -1)])
@pytest.mark.parametrize("value", [0, 1, -2])
def test_zvector_rejects_cells_outside_the_datum(cell, value):
    # on A2, (1;3) would alias (2;1) and row 0 lies before position 1
    with pytest.raises(ValueError) as err:
        ZVector(2, {cell: value})
    assert str(err.value) == "cell (%d, %d) lies outside rows >= 1 and " \
        "columns 1..2" % cell
    with pytest.raises(ValueError) as form_err:
        LinearForm(2, {cell: value})
    assert str(form_err.value) == str(err.value)


@pytest.mark.parametrize("value", [0.5, 1.5, 0.0, Fraction(1, 2), "1"])
def test_zvector_rejects_values_that_are_not_ints(value):
    # kept, a float would print as if it were an int; the one cell
    # encoder refuses it for both classes, zero or not
    with pytest.raises(ValueError) as err:
        ZVector(2, {(1, 1): 1, (1, 2): value})
    assert str(err.value) == "cell (1, 2) has value %r, not an int" \
        % (value,)
    # bool is an int
    assert ZVector(2, {(1, 1): True}) == ZVector(2, {(1, 1): 1})


def test_zvector_needs_a_rank():
    # the rank comes first, so entries passed alone are refused
    for rank in ({(1, 1): 1}, 0, -1, None):
        with pytest.raises(ValueError):
            ZVector(rank)


def test_first_lowering_steps_b2():
    iota = iota_for("B", 2)
    z = ZVector(2)
    x1 = f_tilde(iota, z, 1)
    assert x1 == ZVector(2, {(1, 1): 1})
    # second f_1 stacks on the same slot
    assert f_tilde(iota, x1, 1) == ZVector(2, {(1, 1): 2})
    # f_2 after f_1 opens column 2 of row 1
    assert f_tilde(iota, x1, 2) == ZVector(2, {(1, 1): 1, (1, 2): 1})
    # sigma bookkeeping on x1: only position (1;1) is positive
    assert sigma(iota, x1, flat(iota, 1, 1)) == 1
    assert sigma_i_max(iota, x1, 1)[0] == 1
    assert sigma_i_max(iota, x1, 2)[0] == 0
    node1 = CrystalNode(iota, x1)
    assert node1.epsilon(1) == 1 and node1.epsilon(2) == 0


def test_e_tilde_at_top():
    for t, n in [("A", 2), ("B", 2), ("G", 2), ("D", 4)]:
        iota = iota_for(t, n)
        for i in range(1, n + 1):
            assert e_tilde(iota, ZVector(n), i) is None


def test_weight_root_coords():
    iota = iota_for("B", 2)
    x = ZVector(2, {(1, 1): 1, (2, 1): 2, (1, 2): 3})
    assert weight_root_coords(x, 2) == (-3, -3)
    assert table_fields(signature_table(iota, x))[3] == (-3, -3)
    # <h_1, wt> = 2*(-3) + (-1)*(-3) = -3; <h_2, wt> = -2*(-3) + 2*(-3) = 0
    node = CrystalNode(iota, x)
    assert node.weight_pairing(1) == -3
    assert node.weight_pairing(2) == 0
    assert node.phi(1) == node.epsilon(1) - 3


SMALL = [("A", 1), ("A", 2), ("B", 2), ("C", 2), ("G", 2), ("A", 3), ("B", 3)]


@st.composite
def binf_vector(draw):
    t, n = draw(st.sampled_from(SMALL))
    iota = iota_for(t, n)
    word = draw(st.lists(st.integers(1, n), max_size=8))
    x = ZVector(n)
    for i in word:
        x = f_tilde(iota, x, i)
    return iota, x


@settings(deadline=None, max_examples=60)
@given(binf_vector(), st.data())
def test_binf_round_trips(ix, data):
    iota, x = ix
    i = data.draw(st.integers(1, iota.rank))
    y = f_tilde(iota, x, i)
    assert y != x and total(y) == total(x) + 1
    # e after f returns to x
    assert e_tilde(iota, y, i) == x
    # f after e returns to x when e applies
    z = e_tilde(iota, x, i)
    if z is not None:
        assert f_tilde(iota, z, i) == x
    # weight drops by alpha_i
    wx = weight_root_coords(x, iota.rank)
    wy = weight_root_coords(y, iota.rank)
    assert [a - b for a, b in zip(wx, wy)] == \
        [1 if p == i - 1 else 0 for p in range(iota.rank)]


@settings(deadline=None, max_examples=40)
@given(binf_vector())
def test_epsilon_counts_raising_steps(ix):
    iota, x = ix
    for i in range(1, iota.rank + 1):
        steps = 0
        y = x
        while True:
            z = e_tilde(iota, y, i)
            if z is None:
                break
            y = z
            steps += 1
        assert steps == CrystalNode(iota, x).epsilon(i)


@settings(deadline=None, max_examples=40)
@given(binf_vector())
def test_binf_connected_to_zero(ix):
    iota, x = ix
    # raising in any available direction always reaches the zero vector
    for _ in range(200):
        if is_zero(x):
            break
        for i in range(1, iota.rank + 1):
            y = e_tilde(iota, x, i)
            if y is not None:
                x = y
                break
        else:
            pytest.fail("stuck at a non-zero vector with all e_i null")
    assert is_zero(x)


def kostant_truncation_count(cartan, depth):
    """Number of B(infinity) elements within `depth` lowering steps:
    the coefficient sum up to q^depth of prod over positive roots alpha
    of 1/(1 - q^height(alpha))."""
    hts = [sum(r) for r in positive_roots(cartan)]
    poly = [0] * (depth + 1)
    poly[0] = 1
    for h in hts:
        for d in range(h, depth + 1):
            poly[d] += poly[d - h]
    return sum(poly)


@pytest.mark.parametrize("t,n,depth", [
    ("A", 1, 6), ("A", 2, 6), ("B", 2, 6), ("C", 2, 6),
    ("G", 2, 5), ("B", 3, 5), ("A", 3, 5),
])
def test_binf_counts_match_kostant(t, n, depth):
    c = cartan_matrix(t, n)
    assert len(generate_binf(IotaSequence(c), depth)) == \
        kostant_truncation_count(c, depth)


def test_binf_depth_monotone():
    iota = iota_for("B", 2)
    prev = set(generate_binf(iota, 0))
    for d in range(1, 5):
        cur = set(generate_binf(iota, d))
        assert prev < cur
        prev = cur


@pytest.mark.parametrize("t,n,lam", [
    ("A", 2, (1, 1)), ("B", 2, (1, 0)), ("B", 2, (0, 1)), ("B", 2, (1, 1)),
    ("C", 2, (1, 0)), ("G", 2, (0, 1)), ("A", 1, (4,)), ("C", 3, (1, 0, 0)),
])
def test_blambda_counts_match_weyl_dim(t, n, lam):
    c = cartan_matrix(t, n)
    assert len(generate_blambda(IotaSequence(c), lam)) == weyl_dim(c, lam)


@pytest.mark.parametrize("t,n,lam", [
    ("A", 1, (0,)), ("A", 3, (1, 0, 1)), ("B", 3, (0, 1, 1)),
    ("G", 2, (1, 1)), ("D", 4, (0, 1, 0, 0)),
])
def test_blambda_edges_list_leaves_the_set_unchanged(t, n, lam):
    iota = iota_for(t, n)
    edges = []
    got = generate_blambda(iota, lam, edges)
    assert set(got) == set(generate_blambda(iota, lam))
    # one edge per f_i that does not kill its source, each source stored
    assert len(edges) == sum(
        CrystalNode(iota, v, lam).f(i) is not None
        for v in vectors(n, got) for i in range(1, n + 1))
    members = set(got)
    assert all(got.keys[a] in members and got.keys[b] in members
               for a, _, b in edges)


@pytest.mark.parametrize("t,n,lam", [
    ("A", 3, (1, 0, 1)), ("B", 3, (0, 1, 1)), ("G", 2, (1, 1)),
    ("F", 4, (0, 0, 0, 1)),
])
def test_edge_ends_are_the_stored_instances(t, n, lam):
    # edge ends are indices of the Store: a step that reaches a key
    # already found records its index, not a new one
    iota = iota_for(t, n)
    for generate, arg in ((generate_blambda, lam), (generate_binf, 3)):
        edges = []
        got = generate(iota, arg, edges)
        size = len(got)
        # B(infinity) records the steps out of its deepest keys too: their
        # targets lie one level deeper, at indices after the set
        deeper = set() if generate is generate_blambda else \
            set(generate_binf(iota, arg + 1)) - set(got)
        assert edges
        assert all(a < size and (b < size or got.keys[b] in deeper)
                   for a, _, b in edges)
        assert len(set(got.keys)) == len(got.keys)
        assert len({b for _, _, b in edges}) == size - 1 + len(deeper)


@pytest.mark.parametrize("t,n,depth", BINF_DEPTHS)
def test_binf_edges_include_the_steps_out_of_the_deepest_level(t, n, depth):
    iota = iota_for(t, n)
    edges = []
    got = generate_binf(iota, depth, edges)
    assert set(got) == set(generate_binf(iota, depth))
    # every f_i step out of the set, rank many per key, from the indices
    # of the set
    size = len(got)
    assert len(edges) == n * size
    assert all(a < size for a, _, _ in edges)
    assert {(a, i) for a, i, _ in edges} == \
        {(a, i) for a in range(size) for i in range(1, n + 1)}
    # the targets out of the set are the next level, one index each
    outside = [b for _, _, b in edges if b >= size]
    deeper = set(generate_binf(iota, depth + 1)) - set(got)
    assert {got.keys[b] for b in outside} == deeper
    assert len(set(outside)) == len(deeper)


@pytest.mark.parametrize("t,n,lam", [
    ("A", 2, (1, 1)), ("B", 3, (0, 1, 1)), ("G", 2, (1, 0)),
])
def test_the_store_is_the_set_of_its_first_keys(t, n, lam):
    iota = iota_for(t, n)
    # B(infinity) with an edge list keeps the targets one level deeper
    # after the set: iteration, `in` and len() see the first `size` keys;
    # a Store keeps no key index, so `in` scans them
    assert Store.__slots__ == ("keys", "tables", "size")
    binf = generate_binf(iota, 3, [])
    size = len(binf)
    assert size < len(binf.keys)
    assert list(binf) == list(binf) == binf.keys[:size]
    assert all(key in binf for key in binf.keys[:size])
    deeper = binf.keys[size:]
    assert set(deeper) == set(generate_binf(iota, 4)) - set(binf)
    assert not any(key in binf for key in deeper)
    assert ZVector(n, {(1, 1): -1}).key() not in binf
    # B(lambda) has no keys past its set
    blam = generate_blambda(iota, lam)
    assert len(blam) == len(blam.keys) == weyl_dim(iota.cartan, lam)
    assert list(blam) == blam.keys
    assert all(key in blam for key in blam.keys)


@pytest.mark.parametrize("generate,arg,what", [
    (generate_blambda, (2, 2), "B(lambda) generation"),
    (generate_binf, 3, "B(infinity) truncation"),
])
def test_bfs_cap(monkeypatch, generate, arg, what):
    monkeypatch.setenv("CRYSTALPOLY_BFS_CAP", "5")
    with pytest.raises(CapExceeded) as err:
        generate(iota_for("A", 2), arg)
    assert (err.value.cap, err.value.env, err.value.limit,
            err.value.reached) == ("bfs", "CRYSTALPOLY_BFS_CAP", 5, 7)
    assert str(err.value) == "%s exceeded the cap of 5 nodes " \
        "(CRYSTALPOLY_BFS_CAP) after reaching 7 nodes" % what


def assert_the_search_is_the_level_bfs(iota, lam, depth):
    # keys in the order met, the set, the edges and the tables, with an
    # edge list and without one, as the plain BFS over CrystalNode.f
    for edges in ([], None):
        got = generate_binf(iota, depth, edges) if lam is None else \
            generate_blambda(iota, lam, edges)
        want_edges = None if edges is None else []
        keys, size, tables = level_bfs(iota, lam, depth, want_edges)
        assert got.keys == keys
        assert list(got) == keys[:size]
        assert len(got) == size
        assert edges == want_edges
        assert got.tables == tables


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(RANK_6_TYPES), st.data())
def test_blambda_search_is_the_level_bfs_over_the_operators(tn, data):
    t, n = tn
    cartan = cartan_matrix(t, n)
    lam = list(data.draw(st.tuples(*[st.integers(0, 3)] * n), label="lam"))
    # clear entries from the left until the dimension is small
    for j in range(n):
        if weyl_dim(cartan, lam) <= 300:
            break
        lam[j] = 0
    assert_the_search_is_the_level_bfs(iota_for(t, n), tuple(lam), None)


@pytest.mark.parametrize("t,n", [
    ("A", 1), ("A", 3), ("B", 3), ("C", 2), ("D", 4), ("G", 2), ("F", 4),
])
@pytest.mark.parametrize("depth", range(5))
def test_binf_search_is_the_level_bfs_over_the_operators(t, n, depth):
    assert_the_search_is_the_level_bfs(iota_for(t, n), None, depth)


@pytest.mark.parametrize("t,n,lam", [
    ("A", 1, (m,)) for m in (1, 2, 5, 6, 13, 14, 29, 30)] + [
    ("A", 2, (m, 0)) for m in (1, 2, 3, 6, 7)])
def test_a_cap_at_the_dimension_keeps_the_narrow_codes_exact(monkeypatch,
                                                            t, n, lam):
    # the code width follows the levels the search reaches, not the cap,
    # so a cap at the dimension searches the whole set exactly: for A1
    # (m,) the levels, and the entries, run up to m
    iota = iota_for(t, n)
    dim = weyl_dim(iota.cartan, lam)
    monkeypatch.setenv("CRYSTALPOLY_BFS_CAP", str(dim))
    assert_the_search_is_the_level_bfs(iota, lam, None)
    # one key fewer: the node that meets the last key raises, having met
    # all dim of them
    monkeypatch.setenv("CRYSTALPOLY_BFS_CAP", str(dim - 1))
    with pytest.raises(CapExceeded) as err:
        generate_blambda(iota, lam)
    assert (err.value.limit, err.value.reached) == (dim - 1, dim)


@pytest.mark.parametrize("t,n,lam,depth", [
    ("A", 1, (m,), None) for m in (1, 2, 3, 4, 5, 15, 16, 17, 255, 256, 257)
] + [("A", 2, (m, 1), None) for m in (2, 3, 4, 5, 15, 16, 17)] + [
    ("A", 2, None, 17), ("G", 2, None, 16), ("B", 3, None, 5)])
def test_the_code_width_grows_with_the_levels(t, n, lam, depth):
    # the digits widen as the levels reach 2, 4, 16 and 256, one step past
    # the largest entry a narrower digit holds: A1 (m,) has one key per
    # level, its entry the level; the others have many keys per level,
    # which too narrow a digit would give equal codes
    assert_the_search_is_the_level_bfs(iota_for(t, n), lam, depth)


@pytest.mark.parametrize("t,n,arg", [
    ("A", 1, (300,)), ("B", 3, (1, 1, 1)), ("G", 2, (2, 1)),
    ("F", 4, (0, 0, 0, 1)), ("D", 4, 4), ("E", 6, 3),
])
def test_a_huge_cap_gives_the_same_store(monkeypatch, t, n, arg):
    # the cap is only enforced: it sets no width, so a cap of 10**100
    # finds what the default one does
    iota = iota_for(t, n)
    generate = generate_binf if type(arg) is int else generate_blambda
    monkeypatch.delenv("CRYSTALPOLY_BFS_CAP", raising=False)
    runs = []
    for cap in (None, str(10 ** 100)):
        if cap is not None:
            monkeypatch.setenv("CRYSTALPOLY_BFS_CAP", cap)
        for edges in ([], None):
            got = generate(iota, arg, edges)
            runs.append((got.keys, got.tables, got.size, edges))
    assert runs[:2] == runs[2:]


def test_a_dropped_kernel_is_freed_without_the_cyclic_collector():
    # the kernel's globals do not hold the kernel, so dropping it and its
    # IotaSequence frees it by reference counting alone
    iota = IotaSequence(cartan_matrix("B", 3))
    kernel = weakref.ref(iota.kernel())
    assert kernel() is not None
    enabled = gc.isenabled()
    gc.disable()
    try:
        del iota
        assert kernel() is None
    finally:
        if enabled:
            gc.enable()


def test_blambda_highest_node():
    iota = iota_for("B", 2)
    top = CrystalNode(iota, ZVector(2), (3, 1))
    for i in (1, 2):
        assert top.epsilon(i) == 0
        assert top.phi(i) == (3, 1)[i - 1]  # phi at the top = <h_i, lambda>
        assert top.e(i) is None
    assert top.f(2) is not None
    # f_i at the top is null exactly when lambda_i = 0
    top0 = CrystalNode(iota, ZVector(2), (0, 2))
    assert top0.f(1) is None and top0.f(2) is not None


def test_blambda_f_e_round_trip():
    iota = iota_for("B", 2)
    lam = (1, 1)
    nodes = [CrystalNode(iota, v, lam)
             for v in vectors(2, generate_blambda(iota, lam))]
    assert len(nodes) == 16
    for b in nodes:
        for i in (1, 2):
            c = b.f(i)
            if c is not None:
                assert c.e(i) == b
            c = b.e(i)
            if c is not None:
                assert c.f(i) == b


def test_blambda_seminormal():
    # eps_i / phi_i equal the raising / lowering string lengths
    iota = iota_for("C", 2)
    lam = (1, 1)
    for v in vectors(2, generate_blambda(iota, lam)):
        b = CrystalNode(iota, v, lam)
        for i in (1, 2):
            up = 0
            c = b
            while c.e(i) is not None:
                c = c.e(i)
                up += 1
            down = 0
            c = b
            while c.f(i) is not None:
                c = c.f(i)
                down += 1
            assert up == b.epsilon(i)
            assert down == b.phi(i)
            assert b.phi(i) - b.epsilon(i) == b.weight_pairing(i)


def test_blambda_weights_negation_symmetric():
    # w_0 = -1 for B_2: the weight multiset is symmetric under negation
    iota = iota_for("B", 2)
    lam = (1, 1)
    weights = sorted(
        tuple(CrystalNode(iota, v, lam).weight_pairing(i) for i in (1, 2))
        for v in vectors(2, generate_blambda(iota, lam)))
    assert weights == sorted(tuple(-w for w in ws) for ws in weights)
    # and the unique highest node is the zero vector
    tops = [v for v in vectors(2, generate_blambda(iota, lam))
            if all(CrystalNode(iota, v, lam).e(i) is None for i in (1, 2))]
    assert tops == [ZVector(2)]


def test_blambda_inside_binf():
    iota = iota_for("B", 2)
    lam = (1, 1)
    blam = generate_blambda(iota, lam)
    depth = max(map(total, vectors(2, blam)))
    assert set(blam) <= set(generate_binf(iota, depth))


@pytest.mark.parametrize("t,n,d", [
    ("A", 2, 3), ("B", 2, 3), ("C", 2, 3), ("G", 2, 3),
    ("A", 3, 2), ("B", 3, 2), ("D", 4, 1),
])
def test_blambda_below_degree_d_is_the_binf_truncation(t, n, d):
    # B(lam) = {b in B(infinity) : eps*_i(b) <= lam_i}, and a vector of
    # degree <= d has every eps*_i <= d, with eps*_1 = d only at f_1^d of
    # the top.  (D4 stays at d = 1: d = 2 is B(2 rho), 3^12 nodes.)
    iota = iota_for(t, n)
    binf = set(generate_binf(iota, d))

    def low(lam):
        return {v.key() for v in vectors(n, generate_blambda(iota, lam))
                if total(v) <= d}

    assert low((d,) * n) == binf
    assert low((d - 1,) + (d,) * (n - 1)) == \
        binf - {ZVector(n, {(1, 1): d}).key()}


EVERY_TYPE = [("A", 1), ("A", 2), ("A", 4), ("B", 2), ("B", 3), ("C", 3),
              ("D", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8), ("F", 4),
              ("G", 2)]


@st.composite
def any_vector(draw):
    """A random finitely supported integer vector, signs allowed."""
    t, n = draw(st.sampled_from(EVERY_TYPE))
    cells = st.tuples(st.integers(1, 6), st.integers(1, n))
    entries = draw(st.dictionaries(cells, st.integers(-3, 4), max_size=12))
    return iota_for(t, n), ZVector(n, entries)


# one type of each rank 1..8
RANKS_1_TO_8 = [("A", 1), ("G", 2), ("B", 3), ("F", 4), ("D", 5), ("E", 6),
                ("E", 7), ("E", 8), ("C", 3), ("A", 4)]


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(RANKS_1_TO_8), st.data())
def test_flat_zvector_matches_the_row_column_reference(tn, data):
    t, n = tn
    iota = iota_for(t, n)
    cells = st.tuples(st.integers(1, 6), st.integers(1, n))
    dicts = data.draw(st.lists(st.dictionaries(cells, st.integers(-4, 4),
                                               max_size=10),
                               min_size=1, max_size=6))
    # the (row, column) key each vector had: ((j, i), v) pairs sorted
    refs = [tuple(sorted((c, v) for c, v in d.items() if v)) for d in dicts]
    vectors = [ZVector(n, d) for d in dicts]
    for x, ref in zip(vectors, refs):
        assert x.key() == tuple((flat(iota, *c), v) for c, v in ref)
        assert dict(x.entries) == dict(ref) and ZVector(n, x.entries) == x
        assert repr(x) == "ZVector(%s)" % (", ".join(
            "(%d;%d):%d" % (j, i, v) for (j, i), v in ref) or "0")
        cell = data.draw(cells)
        delta = data.draw(st.integers(-4, 4))
        assert x.get(flat(iota, *cell)) == dict(ref).get(cell, 0)
        bumped = dict(ref)
        bumped[cell] = bumped.get(cell, 0) + delta
        y = x.bump(flat(iota, *cell), delta)
        assert y == ZVector(n, bumped) and y.key() == ZVector(n, bumped).key()
        assert y.rank == n and all(v for _, v in y.key())
        # the flat scan's maximizers are the row scan's rows made flat
        best, first, last, weight, pairing = row_scan(iota, dict(ref))
        assert table_fields(signature_table(iota, x)) == (
            best, tuple(flat(iota, j, c) for c, j in enumerate(first, 1)),
            tuple(flat(iota, j, c) for c, j in enumerate(last, 1)),
            weight, pairing)
    # the flat key sorts vectors as the (row, column) key did
    order = sorted(range(len(vectors)), key=lambda a: vectors[a].key())
    assert [refs[a] for a in order] == sorted(refs)


@settings(deadline=None, max_examples=300)
@given(any_vector())
def test_signature_table_matches_sigma(ix):
    iota, x = ix
    t = signature_table(iota, x)
    t_best, t_first, t_last, t_weight, t_pairing = table_fields(t)
    top = max_row(x) + 1
    for i in range(1, iota.rank + 1):
        sig = [sigma(iota, x, flat(iota, j, i)) for j in range(1, top + 1)]
        best = max(sig)
        rows = [j for j, s in enumerate(sig, 1) if s == best]
        # first and last are the maximizing rows as flat positions
        assert (t_best[i - 1], t_first[i - 1], t_last[i - 1]) == \
            (best, flat(iota, rows[0], i), flat(iota, rows[-1], i))
        assert sigma_i_max(iota, x, i) == \
            (best, flat(iota, rows[0], i), flat(iota, rows[-1], i))
    # and equal the rows of the (row, column) scan, mapped through flat
    best, first, last, weight, pairing = row_scan(iota, dict(x.entries))
    assert (t_best, t_weight, t_pairing) == (best, weight, pairing)
    assert t_first == tuple(flat(iota, j, c) for c, j in enumerate(first, 1))
    assert t_last == tuple(flat(iota, j, c) for c, j in enumerate(last, 1))
    sums = column_sums(x, iota.rank)
    assert t_weight == tuple(-v for v in sums)
    assert t_pairing == tuple(
        pair_root_coords(iota.cartan, i, t_weight)
        for i in range(1, iota.rank + 1))
    # every call scans the key under the datum given: B3 and C3, of one
    # rank, each get the table a fresh scan of their own makes
    other = {("B", 3): ("C", 3), ("C", 3): ("B", 3)}.get(
        (iota.cartan.type_label, iota.rank))
    if other is not None:
        for tn in ((iota.cartan.type_label, iota.rank), other):
            assert signature_table(iota_for(*tn), x) == \
                iota_for(*tn).kernel()(x.key())
    assert signature_table(iota, x) == t


@st.composite
def gapped_vector(draw):
    """A vector of one type of each rank 1..8 whose support rows are any
    of rows 1..12, so empty rows lie between and below them; values of
    both signs, and the zero vector."""
    t, n = draw(st.sampled_from(RANKS_1_TO_8))
    entries = {}
    for j in draw(st.lists(st.integers(1, 12), max_size=6, unique=True)):
        for i in draw(st.lists(st.integers(1, n), min_size=1, max_size=n,
                               unique=True)):
            entries[(j, i)] = draw(st.integers(-4, 4))
    return iota_for(t, n), ZVector(n, entries)


@settings(deadline=None, max_examples=400)
@given(gapped_vector())
@example((iota_for("E", 8), ZVector(8)))
@example((iota_for("A", 1), ZVector(1, {(12, 1): -3})))
@example((iota_for("G", 2), ZVector(2, {(1, 2): -1, (7, 1): 2, (12, 2): 1})))
def test_row_pass_matches_the_suffix_scan(ix):
    iota, x = ix
    # the kernel itself, on the key
    fresh = iota.kernel()(x.key())
    assert table_fields(fresh) == suffix_scan(iota, x)


@pytest.mark.parametrize("t,n,lam", [
    ("F", 4, (1, 0, 0, 1)), ("C", 4, (0, 0, 0, 1)), ("G", 2, (2, 3)),
    ("A", 4, (1, 1, 0, 1)), ("B", 3, (1, 1, 1)), ("D", 5, (0, 0, 0, 1, 1)),
])
def test_row_pass_matches_the_suffix_scan_on_every_node(t, n, lam):
    iota = iota_for(t, n)
    nodes = generate_blambda(iota, lam)
    assert len(nodes) == weyl_dim(iota.cartan, lam)
    for x in vectors(n, nodes):
        assert table_fields(signature_table(iota, x)) == suffix_scan(iota, x)


def test_a_far_support_row_gets_the_reference_table():
    # rows 2 .. 10**12 - 1 are one run of empty rows, settled in one step;
    # a pass that visits every row up to the top one never ends
    iota = iota_for("A", 2)
    x = ZVector(2, {(1, 1): 2, (10 ** 12, 1): 1})
    t = table_fields(signature_table(iota, x))
    assert t == suffix_scan(iota, x)
    # colour 1: sigma is 1 at (10**12;1), 2 in the rows between and 2 + 2
    # at (1;1); colour 2: sigma is -1 below (10**12;2) and 0 from there up
    top = 10 ** 12
    best, first, last, _, _ = t
    assert best == (4, 0)
    assert first == (1, flat(iota, top, 2))
    assert last == (1, flat(iota, top + 1, 2))


_B2_STEPS = (((0, 2), (1, -2)), ((0, -1), (1, 2)))


@pytest.mark.parametrize("bad", [
    2.0, Fraction(2), "2", True, "2 * v or __import__('os').getpid()",
])
def test_the_kernel_builder_takes_int_steps_only(bad):
    # every value the kernel source holds is a checked int, so no other
    # text reaches exec
    steps = ((_B2_STEPS[0][0][:1] + (bad,), _B2_STEPS[0][1]), _B2_STEPS[1])
    with pytest.raises(ValueError) as err:
        zcrystal_module._scan_kernel(2, steps)
    assert str(err.value) == "a signature kernel takes int steps, not %r" \
        % (bad,)
    with pytest.raises(ValueError):
        zcrystal_module._scan_kernel(bad, _B2_STEPS)
    # a Cartan entry that is no int reaches the builder through the table
    fake = SimpleNamespace(rank=2, matrix=((2, -1), (-2, bad)))
    with pytest.raises(ValueError):
        signature_table(IotaSequence(fake), ZVector(2, {(1, 1): 1}))


def test_the_oracle_refuses_another_rank_and_a_bad_weight():
    iota = iota_for("A", 3)
    x = ZVector(2, {(1, 1): 1, (2, 2): 1})
    msg = "a rank-2 vector has no signature table for a rank-3 iota"
    for call in (lambda: f_tilde(iota, x, 3), lambda: e_tilde(iota, x, 1),
                 lambda: signature_table(iota, x)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == msg
    with pytest.raises(ValueError) as err:
        CrystalNode(iota, x)
    assert str(err.value) == "a rank-2 vector is no node of a rank-3 iota"
    for lam, msg in [((1, 0), "weight has 2 coordinates, rank is 3"),
                     ((1, 0, 0, 5), "weight has 4 coordinates, rank is 3"),
                     ((-1, 0, 0), "weight (-1, 0, 0) is not dominant "
                                  "integral")]:
        with pytest.raises(ValueError) as err:
            CrystalNode(iota, lam=lam)
        assert str(err.value) == msg
    # the vector's own rank still works, and its children keep lam
    node = CrystalNode(iota, ZVector(3), [1, 0, 0])
    assert node.lam == (1, 0, 0) and node.f(1).lam == (1, 0, 0)


@settings(deadline=None, max_examples=60)
@given(binf_vector(), st.data())
def test_children_get_fresh_tables(ix, data):
    iota, x = ix
    n = iota.rank
    i = data.draw(st.integers(1, n))
    lam = tuple(data.draw(st.lists(st.integers(0, 2), min_size=n,
                                   max_size=n)))
    node = CrystalNode(iota, x, lam)
    node.epsilon(i)             # the node scans x and keeps its table
    kids = [f_tilde(iota, x, i), e_tilde(iota, x, i), node.f(i), node.e(i)]
    for y in kids:
        if y is None:
            continue
        # the child is scanned from its own key, as a new vector of the
        # same entries is, and a child node reads its own table
        vector = getattr(y, "vector", y)
        same = ZVector(n, vector.entries)
        assert signature_table(iota, vector) == signature_table(iota, same)
        if y is not vector:
            twin = CrystalNode(iota, same, lam)
            assert [(y.epsilon(p), y.phi(p), y.weight_pairing(p))
                    for p in range(1, n + 1)] == \
                [(twin.epsilon(p), twin.phi(p), twin.weight_pairing(p))
                 for p in range(1, n + 1)]


def test_a_vector_is_a_value_and_a_node_scans_it_once(monkeypatch):
    # a ZVector is its rank and its key, so signature_table scans on every
    # call; a CrystalNode keeps its vector's table, so all its operators
    # together scan it once
    assert ZVector.__slots__ == ("rank", "_key")
    scans = counted_scans(monkeypatch)
    iota = IotaSequence(cartan_matrix("B", 3))  # compiles a counted kernel
    lam = (1, 0, 1)
    x = ZVector.from_key(3, generate_blambda(iota, lam).keys[-1])
    del scans[:]
    assert signature_table(iota, x) == signature_table(iota, x)
    assert scans == [x.key()] * 2
    del scans[:]
    node = CrystalNode(iota, x, lam)
    for i in range(1, 4):
        node.epsilon(i), node.phi(i), node.weight_pairing(i)
        node.f(i), node.e(i)
    assert scans == [x.key()]


# The oracle is the second, independent derivation of the crystals: it
# must not read the polytope side's modules.

_POLYTOPE_SIDE = {"forms", "polytope", "tables"}


def _imported_modules(source):
    """Short names of the modules a source file imports: x for
    `from .x import`, `from crystalpoly.x import`, `import crystalpoly.x`
    and `from . import x`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                found.add(node.module)
            if node.module in (None, "crystalpoly"):
                found.update(alias.name for alias in node.names)
    return {name.removeprefix("crystalpoly.").split(".")[0] for name in found}


def test_the_oracle_imports_nothing_from_the_polytope_side():
    for source in ("from .forms import LinearForm",
                   "from . import polytope",
                   "import crystalpoly.tables",
                   "from crystalpoly.forms import closure",
                   "from crystalpoly import forms"):
        assert _imported_modules(source) & _POLYTOPE_SIDE, source
    source = Path(zcrystal_module.__file__).read_text()
    assert not _imported_modules(source) & _POLYTOPE_SIDE

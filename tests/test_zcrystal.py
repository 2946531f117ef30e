import pytest
from hypothesis import given, settings, strategies as st

from crystalpoly.rootdata import cartan_matrix, positive_roots, weyl_dim
from crystalpoly.zcrystal import (
    IotaSequence, ZVector, CrystalNode, SignatureTable, sigma, sigma_i_max,
    signature_table, f_tilde, e_tilde, weight_root_coords, weight_pairing,
    epsilon, phi, generate_binf, generate_blambda,
)


def iota_for(t, n):
    return IotaSequence(cartan_matrix(t, n))


def test_iota_bookkeeping():
    iota = iota_for("B", 3)
    assert [iota.node(k) for k in range(1, 8)] == [1, 2, 3, 1, 2, 3, 1]
    assert iota.flat(2, 1) == 4 and iota.rowcol(4) == (2, 1)
    assert iota.kplus(2) == 5 and iota.kminus(5) == 2 and iota.kminus(2) == 0
    # every colour appears once per row, no consecutive repeats (rank >= 2)
    word = [iota.node(k) for k in range(1, 16)]
    assert all(word[i] != word[i + 1] for i in range(len(word) - 1))
    for i in range(1, 4):
        assert word.count(i) == 5


def test_zvector_basics():
    x = ZVector({(1, 1): 2, (2, 1): 0})
    assert x.get(1, 1) == 2 and x.get(2, 1) == 0
    assert x.max_row() == 1 and x.total() == 2
    y = x.bump(1, 1, -2)
    assert y.is_zero() and y == ZVector()
    assert hash(x.bump(3, 2, 1)) == hash(ZVector({(1, 1): 2, (3, 2): 1}))


def test_first_lowering_steps_b2():
    iota = iota_for("B", 2)
    z = ZVector()
    x1 = f_tilde(iota, z, 1)
    assert x1 == ZVector({(1, 1): 1})
    # second f_1 stacks on the same slot
    assert f_tilde(iota, x1, 1) == ZVector({(1, 1): 2})
    # f_2 after f_1 opens column 2 of row 1
    assert f_tilde(iota, x1, 2) == ZVector({(1, 1): 1, (1, 2): 1})
    # sigma bookkeeping on x1: only position (1;1) is positive
    assert sigma(iota, x1, iota.flat(1, 1)) == 1
    assert sigma_i_max(iota, x1, 1)[0] == 1
    assert sigma_i_max(iota, x1, 2)[0] == 0
    assert epsilon(iota, x1, 1) == 1 and epsilon(iota, x1, 2) == 0


def test_e_tilde_at_top():
    for t, n in [("A", 2), ("B", 2), ("G", 2), ("D", 4)]:
        iota = iota_for(t, n)
        for i in range(1, n + 1):
            assert e_tilde(iota, ZVector(), i) is None


def test_weight_root_coords():
    iota = iota_for("B", 2)
    x = ZVector({(1, 1): 1, (2, 1): 2, (1, 2): 3})
    assert weight_root_coords(x, 2) == (-3, -3)
    # <h_1, wt> = 2*(-3) + (-1)*(-3) = -3; <h_2, wt> = -2*(-3) + 2*(-3) = 0
    assert weight_pairing(iota, x, 1) == -3
    assert weight_pairing(iota, x, 2) == 0
    assert phi(iota, x, 1) == epsilon(iota, x, 1) - 3


SMALL = [("A", 1), ("A", 2), ("B", 2), ("C", 2), ("G", 2), ("A", 3), ("B", 3)]


@st.composite
def binf_vector(draw):
    t, n = draw(st.sampled_from(SMALL))
    iota = iota_for(t, n)
    word = draw(st.lists(st.integers(1, n), max_size=8))
    x = ZVector()
    for i in word:
        x = f_tilde(iota, x, i)
    return iota, x


@settings(deadline=None, max_examples=60)
@given(binf_vector(), st.data())
def test_binf_round_trips(ix, data):
    iota, x = ix
    i = data.draw(st.integers(1, iota.rank))
    y = f_tilde(iota, x, i)
    assert y != x and y.total() == x.total() + 1
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
        assert steps == epsilon(iota, x, i)


@settings(deadline=None, max_examples=40)
@given(binf_vector())
def test_binf_connected_to_zero(ix):
    iota, x = ix
    # raising in any available direction always reaches the zero vector
    for _ in range(200):
        if x.is_zero():
            break
        for i in range(1, iota.rank + 1):
            y = e_tilde(iota, x, i)
            if y is not None:
                x = y
                break
        else:
            pytest.fail("stuck at a non-zero vector with all e_i null")
    assert x.is_zero()


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
    prev = generate_binf(iota, 0)
    for d in range(1, 5):
        cur = generate_binf(iota, d)
        assert prev < cur
        prev = cur


@pytest.mark.parametrize("t,n,lam", [
    ("A", 2, (1, 1)), ("B", 2, (1, 0)), ("B", 2, (0, 1)), ("B", 2, (1, 1)),
    ("C", 2, (1, 0)), ("G", 2, (0, 1)), ("A", 1, (4,)), ("C", 3, (1, 0, 0)),
])
def test_blambda_counts_match_weyl_dim(t, n, lam):
    c = cartan_matrix(t, n)
    assert len(generate_blambda(IotaSequence(c), lam)) == weyl_dim(c, lam)


def test_blambda_highest_node():
    iota = iota_for("B", 2)
    top = CrystalNode(iota, ZVector(), (3, 1))
    for i in (1, 2):
        assert top.epsilon(i) == 0
        assert top.phi(i) == (3, 1)[i - 1]  # phi at the top = <h_i, lambda>
        assert top.e(i) is None
    assert top.f(2) is not None
    # f_i at the top is null exactly when lambda_i = 0
    top0 = CrystalNode(iota, ZVector(), (0, 2))
    assert top0.f(1) is None and top0.f(2) is not None


def test_blambda_f_e_round_trip():
    iota = iota_for("B", 2)
    lam = (1, 1)
    nodes = [CrystalNode(iota, v, lam) for v in generate_blambda(iota, lam)]
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
    for v in generate_blambda(iota, lam):
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
        for v in generate_blambda(iota, lam))
    assert weights == sorted(tuple(-w for w in ws) for ws in weights)
    # and the unique highest node is the zero vector
    tops = [v for v in generate_blambda(iota, lam)
            if all(CrystalNode(iota, v, lam).e(i) is None for i in (1, 2))]
    assert tops == [ZVector()]


def test_blambda_inside_binf():
    iota = iota_for("B", 2)
    lam = (1, 1)
    blam = generate_blambda(iota, lam)
    depth = max(v.total() for v in blam)
    assert blam <= generate_binf(iota, depth)


EVERY_TYPE = [("A", 1), ("A", 2), ("A", 4), ("B", 2), ("B", 3), ("C", 3),
              ("D", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8), ("F", 4),
              ("G", 2)]


@st.composite
def any_vector(draw):
    """A random finitely supported integer vector, signs allowed."""
    t, n = draw(st.sampled_from(EVERY_TYPE))
    cells = st.tuples(st.integers(1, 6), st.integers(1, n))
    entries = draw(st.dictionaries(cells, st.integers(-3, 4), max_size=12))
    return iota_for(t, n), ZVector(entries)


def table_fields(t):
    return (t.best, t.first, t.last, t.weight, t.pairing)


@settings(deadline=None, max_examples=300)
@given(any_vector())
def test_signature_table_matches_sigma(ix):
    iota, x = ix
    t = signature_table(iota, x)
    top = x.max_row() + 1
    for i in range(1, iota.rank + 1):
        sig = [sigma(iota, x, iota.flat(j, i)) for j in range(1, top + 1)]
        best = max(sig)
        rows = [j for j, s in enumerate(sig, 1) if s == best]
        assert (t.best[i - 1], t.first[i - 1], t.last[i - 1]) == \
            (best, rows[0], rows[-1])
        assert sigma_i_max(iota, x, i) == \
            (best, iota.flat(rows[0], i), iota.flat(rows[-1], i))
    sums = x.column_sums(iota.rank)
    assert t.weight == tuple(-v for v in sums)
    assert t.pairing == tuple(
        iota.cartan.pair_root_coords(i, t.weight)
        for i in range(1, iota.rank + 1))
    # the table is computed once and kept on the vector
    assert signature_table(iota, x) is t
    # a different Cartan datum of the same rank gets its own table
    other = {("B", 3): ("C", 3), ("C", 3): ("B", 3)}.get(
        (iota.cartan.type_label, iota.rank))
    if other is not None:
        assert signature_table(iota_for(*other), x) is not t


@settings(deadline=None, max_examples=60)
@given(binf_vector(), st.data())
def test_children_get_fresh_tables(ix, data):
    iota, x = ix
    i = data.draw(st.integers(1, iota.rank))
    parent = signature_table(iota, x)
    lam = tuple(data.draw(st.lists(st.integers(0, 2), min_size=iota.rank,
                                   max_size=iota.rank)))
    node = CrystalNode(iota, x, lam)
    kids = [f_tilde(iota, x, i), e_tilde(iota, x, i), node.f(i), node.e(i)]
    for y in kids:
        if y is None:
            continue
        y = getattr(y, "vector", y)
        assert y._table is not parent
        fresh = SignatureTable(iota, ZVector(y.entries))
        assert table_fields(signature_table(iota, y)) == table_fields(fresh)

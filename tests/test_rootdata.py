import pytest
from hypothesis import given, settings, strategies as st

from crystalpoly.rootdata import (
    cartan_matrix, positive_roots, longest_word_length, weyl_dim,
    lowest_weight, root_coords, weight_string_budget,
)

ALL_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 5),
    ("B", 2), ("B", 3), ("B", 5),
    ("C", 2), ("C", 3), ("C", 5),
    ("D", 4), ("D", 5), ("D", 6),
    ("E", 6), ("E", 7), ("E", 8),
    ("F", 4), ("G", 2),
]


@pytest.mark.parametrize("t,n", ALL_TYPES)
def test_cartan_shape(t, n):
    c = cartan_matrix(t, n)
    for i in range(1, n + 1):
        assert c.a(i, i) == 2
        for j in range(1, n + 1):
            if i != j:
                assert c.a(i, j) <= 0
                assert (c.a(i, j) == 0) == (c.a(j, i) == 0)
            # symmetrizability
            assert c.d(i) * c.a(i, j) == c.d(j) * c.a(j, i)


def test_specific_entries():
    b3 = cartan_matrix("B", 3)
    assert b3.matrix[2] == (0, -2, 2)
    assert b3.matrix[1] == (-1, 2, -1)
    c3 = cartan_matrix("C", 3)
    assert c3.a(2, 3) == -2 and c3.a(3, 2) == -1
    f4 = cartan_matrix("F", 4)
    assert f4.a(2, 3) == -2 and f4.a(3, 2) == -1
    assert f4.a(1, 2) == -1 and f4.a(3, 4) == -1
    g2 = cartan_matrix("G", 2)
    assert g2.matrix == ((2, -1), (-3, 2))
    d4 = cartan_matrix("D", 4)
    assert d4.a(3, 4) == 0 and d4.a(2, 3) == -1 and d4.a(2, 4) == -1
    e8 = cartan_matrix("E", 8)
    assert e8.a(5, 8) == -1 and e8.a(6, 8) == 0 and e8.a(7, 8) == 0


def test_symmetrizers():
    assert cartan_matrix("B", 3).symmetrizer == (2, 2, 1)
    assert cartan_matrix("C", 3).symmetrizer == (1, 1, 2)
    assert cartan_matrix("G", 2).symmetrizer == (3, 1)
    assert cartan_matrix("F", 4).symmetrizer == (1, 1, 2, 2)
    assert cartan_matrix("E", 6).symmetrizer == (1,) * 6


def test_bad_input():
    with pytest.raises(ValueError):
        cartan_matrix("H", 3)
    with pytest.raises(ValueError):
        cartan_matrix("E", 5)
    with pytest.raises(ValueError):
        cartan_matrix("D", 3)
    with pytest.raises(ValueError):
        cartan_matrix("B", 1)


ROOT_COUNTS = {
    ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 5): 15,
    ("B", 2): 4, ("B", 3): 9, ("B", 5): 25,
    ("C", 2): 4, ("C", 3): 9, ("C", 5): 25,
    ("D", 4): 12, ("D", 5): 20, ("D", 6): 30,
    ("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
    ("F", 4): 24, ("G", 2): 6,
}


@pytest.mark.parametrize("t,n", ALL_TYPES)
def test_root_counts(t, n):
    c = cartan_matrix(t, n)
    roots = positive_roots(c)
    assert len(roots) == ROOT_COUNTS[(t, n)]
    assert longest_word_length(c) == len(roots)
    # simple roots are there, and every root is a nonnegative integer combo
    for i in range(n):
        assert tuple(1 if j == i else 0 for j in range(n)) in roots
    assert all(all(v >= 0 for v in r) for r in roots)


def test_large_rank_root_counts():
    # the closure is bounded by the known root count, not a fixed size
    assert len(positive_roots(cartan_matrix("A", 100))) == 5050
    assert len(positive_roots(cartan_matrix("D", 40))) == 40 * 39


def test_highest_root_heights():
    # height of the highest root = count of roots at max height = 1
    e8 = positive_roots(cartan_matrix("E", 8))
    assert max(sum(r) for r in e8) == 29
    f4 = positive_roots(cartan_matrix("F", 4))
    assert max(sum(r) for r in f4) == 11
    g2 = positive_roots(cartan_matrix("G", 2))
    assert max(sum(r) for r in g2) == 5


def test_weyl_dim_classics():
    assert weyl_dim(cartan_matrix("A", 1), (7,)) == 8
    assert weyl_dim(cartan_matrix("A", 2), (1, 1)) == 8
    assert weyl_dim(cartan_matrix("A", 2), (2, 0)) == 6
    b2 = cartan_matrix("B", 2)
    assert weyl_dim(b2, (1, 0)) == 5
    assert weyl_dim(b2, (0, 1)) == 4
    assert weyl_dim(b2, (1, 1)) == 16
    assert weyl_dim(cartan_matrix("C", 3), (1, 0, 0)) == 6
    d4 = cartan_matrix("D", 4)
    assert weyl_dim(d4, (1, 0, 0, 0)) == 8
    assert weyl_dim(d4, (0, 1, 0, 0)) == 28
    assert weyl_dim(cartan_matrix("G", 2), (1, 0)) in (7, 14)


def test_weyl_dim_fundamental_multisets():
    f4 = cartan_matrix("F", 4)
    dims = sorted(weyl_dim(f4, tuple(1 if j == i else 0 for j in range(4)))
                  for i in range(4))
    assert dims == [26, 52, 273, 1274]
    e6 = cartan_matrix("E", 6)
    dims = sorted(weyl_dim(e6, tuple(1 if j == i else 0 for j in range(6)))
                  for i in range(6))
    assert dims == [27, 27, 78, 351, 351, 2925]


@pytest.mark.parametrize("t,n", ALL_TYPES)
def test_weyl_dim_zero_weight(t, n):
    assert weyl_dim(cartan_matrix(t, n), (0,) * n) == 1


def test_weyl_dim_validation():
    b2 = cartan_matrix("B", 2)
    with pytest.raises(ValueError):
        weyl_dim(b2, (1,))
    with pytest.raises(ValueError):
        weyl_dim(b2, (-1, 0))


def test_lowest_weight():
    assert lowest_weight(cartan_matrix("A", 1), (5,)) == (-5,)
    assert lowest_weight(cartan_matrix("A", 2), (1, 0)) == (0, -1)
    # -1 is the longest element for B, C, D_even, E7, E8, F4, G2
    for t, n in [("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2)]:
        c = cartan_matrix(t, n)
        lam = tuple(1 for _ in range(n))
        assert lowest_weight(c, lam) == tuple(-1 for _ in range(n))


def test_root_coords_roundtrip():
    c = cartan_matrix("B", 2)
    # 2*Lambda_1 = 2a1 + 2a2
    assert root_coords(c, (2, 0)) == (2, 2)
    assert weight_string_budget(c, (1, 0)) == 4
    assert weight_string_budget(cartan_matrix("A", 1), (6,)) == 6
    assert weight_string_budget(cartan_matrix("A", 2), (1, 1)) == 4


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 6), st.integers(0, 6))
def test_a2_dim_formula(p, q):
    # dim V(p,q) for sl_3 = (p+1)(q+1)(p+q+2)/2
    assert weyl_dim(cartan_matrix("A", 2), (p, q)) == \
        (p + 1) * (q + 1) * (p + q + 2) // 2


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 3))
def test_d4_triality_symmetry(a, b, c, d):
    # diagram automorphism permuting the three outer nodes fixes dimensions
    d4 = cartan_matrix("D", 4)
    assert weyl_dim(d4, (a, b, c, d)) == weyl_dim(d4, (c, b, a, d)) \
        == weyl_dim(d4, (d, b, c, a))

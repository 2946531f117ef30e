import pytest

from crystalpoly.forms import LinearForm, closure, xi_form
from crystalpoly.tables import (
    UnsupportedTableError, table_rows, phi_form, binf_table,
    admissible_patterns, xi_first_tables,
)
from crystalpoly import _tabledata
import crystalpoly.tables as tables_module
from reference import (
    binf_closure, binf_table_row_by_row, chain_family, d_spin_form,
    iota_for, plus_constant, spin_form,
)


def node_closure(tl, n, i):
    iota = iota_for(tl, n)
    return set(closure(iota, [xi_form(iota, i)]))


def test_table_rows():
    assert table_rows("A", 3) == 3
    assert table_rows("B", 4) == 4
    assert table_rows("C", 2) == 2
    assert table_rows("D", 5) == 4
    assert table_rows("F", 4) == 6
    assert table_rows("E", 6) == 8
    assert table_rows("E", 7) == 9
    assert table_rows("E", 8) == 15


def test_phi_form_a2_staircase():
    # row j sweeps x_{j;1} -> x_{j;1}-x_{j+1;0}=x_{j;1} ... -x_{j+1;n}
    got = [phi_form("A", 2, 1, k) for k in range(3)]
    assert got == [
        LinearForm(2, {(1, 1): 1}),
        LinearForm(2, {(1, 2): 1, (2, 1): -1}),
        LinearForm(2, {(2, 2): -1}),
    ]
    with pytest.raises(ValueError):
        phi_form("A", 2, 1, 3)


def test_phi_form_b2_staircase():
    got = [phi_form("B", 2, 1, k) for k in range(4)]
    assert got == [
        LinearForm(2, {(1, 1): 1}),
        LinearForm(2, {(1, 2): 1, (2, 1): -1}),
        LinearForm(2, {(2, 1): 1, (2, 2): -1}),
        LinearForm(2, {(3, 1): -1}),
    ]


def test_phi_form_c2_doubles_long_column():
    assert phi_form("C", 2, 1, 1) == LinearForm(2, {(1, 2): 2, (2, 1): -1})
    assert phi_form("C", 2, 1, 2) == LinearForm(2, {(2, 1): 1, (2, 2): -2})


def test_phi_form_d4_fork_cases():
    n = 4
    assert phi_form("D", n, 1, n - 2) == \
        LinearForm(n, {(1, 3): 1, (1, 4): 1, (2, 2): -1})
    assert phi_form("D", n, 1, n - 1) == LinearForm(n, {(1, 4): 1, (2, 3): -1})
    assert phi_form("D", n, 1, n - 1, primed=True) == \
        LinearForm(n, {(1, 3): 1, (2, 4): -1})
    assert phi_form("D", n, 1, n) == \
        LinearForm(n, {(2, 2): 1, (2, 3): -1, (2, 4): -1})
    assert phi_form("D", n, 1, 2 * n - 2) == LinearForm(n, {(4, 1): -1})


@pytest.mark.parametrize("tl,n", [
    ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("D", 5),
])
def test_staircase_family_matches_closure_of_one_row(tl, n):
    iota = iota_for(tl, n)
    fam = set(closure(iota, [LinearForm(n, {(1, 1): 1})]))
    if tl == "A":
        table = {phi_form(tl, n, 1, k) for k in range(n + 1)}
    elif tl in ("B", "C"):
        table = {phi_form(tl, n, 1, k) for k in range(2 * n)}
    else:
        table = {phi_form(tl, n, 1, k) for k in range(2 * n - 1)}
        table.add(phi_form(tl, n, 1, n - 1, primed=True))
    assert fam == table


@pytest.mark.parametrize("tl,n", [
    ("A", 3), ("B", 3), ("C", 3), ("F", 4), ("E", 6), ("E", 7),
])
def test_binf_table_matches_closure_of_all_rows(tl, n):
    assert set(binf_table(tl, n)) == set(binf_closure(tl, n))


@pytest.mark.parametrize("n", [4, 5])
def test_d_binf_table_splits_into_closure_plus_bare(n):
    full = set(binf_table("D", n))
    bare = {LinearForm(n, {(j, c): 1})
            for j in range(1, table_rows("D", n) + 1) for c in (n - 1, n)}
    assert bare <= full
    assert full - bare == set(binf_closure("D", n))


def c_substitution(form, n):
    """Type-C version of a type-B table form: double every column-n
    coefficient (the short column of B becomes the long column of C)."""
    return LinearForm(n, {(j, i): (2 * c if i == n else c)
                          for (j, i), c in form.coeffs.items()},
                      form.lam, form.const)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_c_table_is_b_table_with_doubled_short_column(n):
    got = {c_substitution(f, n) for f in binf_table("B", n)}
    assert got == set(binf_table("C", n))


def test_admissible_patterns():
    assert admissible_patterns("B", 2) == ((1,), (2,), (2, 1))
    assert admissible_patterns("D", 4) == \
        ((1,), (2,), (2, 1), (3,), (3, 1), (3, 2), (3, 2, 1))
    for tl, n, top in (("B", 5, 5), ("C", 4, 4), ("D", 6, 5)):
        pats = admissible_patterns(tl, n)
        assert len(pats) == 2 ** top - 1
        assert all(all(a > b for a, b in zip(mu, mu[1:])) for mu in pats)
        assert all(mu[0] <= top for mu in pats)
    with pytest.raises(UnsupportedTableError):
        admissible_patterns("A", 3)


def test_spin_form_b3_examples():
    assert spin_form("B", 3, (1,)) == \
        LinearForm(3, {(1, 2): 2, (1, 3): -1})
    assert spin_form("B", 3, (3, 1)) == \
        LinearForm(3, {(2, 2): 2, (2, 3): -1, (3, 1): -2})
    # consecutive pattern entries stack in one row and telescope
    assert spin_form("B", 3, (3, 2, 1)) == LinearForm(3, {(3, 3): -1})
    assert spin_form("C", 3, (1,)) == LinearForm(3, {(1, 2): 1, (1, 3): -1})
    with pytest.raises(ValueError):
        spin_form("B", 3, (1, 2))
    with pytest.raises(UnsupportedTableError):
        spin_form("D", 4, (1,))


@pytest.mark.parametrize("tl,n", [
    ("B", 2), ("B", 3), ("B", 4), ("B", 5),
    ("C", 2), ("C", 3), ("C", 4), ("C", 5),
])
def test_spin_family_matches_closure(tl, n):
    table = {spin_form(tl, n, mu) for mu in admissible_patterns(tl, n)}
    assert table == node_closure(tl, n, n)
    assert len(table) == 2 ** n - 1


@pytest.mark.parametrize("n", [4, 5])
def test_d_spin_families_match_closure(n):
    pats = admissible_patterns("D", n)
    plain = {d_spin_form(n, mu, primed=False) for mu in pats}
    primed = {d_spin_form(n, mu, primed=True) for mu in pats}
    assert plain == node_closure("D", n, n - 1)
    assert primed == node_closure("D", n, n)
    assert plain != primed


def test_chain_family():
    assert chain_family(3, 2) == [
        LinearForm(3, {(1, 1): 1, (1, 2): -1}),
        LinearForm(3, {(2, 1): -1}),
    ]


@pytest.mark.parametrize("tl,n", [
    ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4),
    ("F", 4), ("E", 6),
])
def test_xi_first_tables_match_closures(tl, n):
    fams = xi_first_tables(tl, n)
    assert sorted(fams) == list(range(1, n + 1))
    for i, fam in fams.items():
        assert set(fam) == node_closure(tl, n, i), (tl, n, i)


@pytest.mark.parametrize("tl,n,families", [("B", 6, 1), ("C", 6, 1),
                                            ("D", 7, 2)])
def test_xi_first_tables_list_the_patterns_once_per_spin_family(
        monkeypatch, tl, n, families):
    # each member checks its pattern directly; listing the 2^top - 1
    # patterns once per member would make a spin family cost 4^top
    calls = []
    real = tables_module.admissible_patterns

    def counted(type_label, rank):
        calls.append((type_label, rank))
        return real(type_label, rank)

    monkeypatch.setattr(tables_module, "admissible_patterns", counted)
    xi_first_tables(tl, n)
    assert 1 <= len(calls) <= families


@pytest.mark.parametrize("tl,n", [
    ("A", 5), ("B", 7), ("C", 7), ("D", 7), ("F", 4), ("E", 6),
])
def test_xi_first_tables_with_lambda_attach_lambda_i(tl, n):
    plain = xi_first_tables(tl, n)
    lifted = xi_first_tables(tl, n, with_lambda=True)
    assert sorted(lifted) == sorted(plain)
    for i, fam in plain.items():
        unit = tuple(int(m == i) for m in range(1, n + 1))
        assert list(lifted[i]) == sorted(
            (plus_constant(f, unit) for f in fam), key=LinearForm.key)


@pytest.mark.parametrize("tl,n", [("B", 7), ("C", 7), ("D", 7)])
def test_spin_tables_equal_the_pattern_formulas(tl, n):
    # the tables make each form straight from its flat key, the formulas
    # through the validating constructor
    fams = xi_first_tables(tl, n)
    pats = admissible_patterns(tl, n)
    if tl == "D":
        assert set(fams[n - 1]) == {d_spin_form(n, mu) for mu in pats}
        assert set(fams[n]) == {d_spin_form(n, mu, True) for mu in pats}
    else:
        assert set(fams[n]) == {spin_form(tl, n, mu) for mu in pats}


def test_c14_spin_table_matches_closure():
    fam = xi_first_tables("C", 14)[14]
    assert len(fam) == 2 ** 14 - 1
    assert set(fam) == node_closure("C", 14, 14)


def test_xi_first_tables_sizes_f4_e6():
    assert {i: len(f) for i, f in xi_first_tables("F", 4).items()} == \
        {1: 1, 2: 2, 3: 24, 4: 25}
    assert {i: len(f) for i, f in xi_first_tables("E", 6).items()} == \
        {1: 1, 2: 2, 3: 3, 4: 25, 5: 26, 6: 77}


def test_unsupported_tables_point_at_closure_fallback():
    for call in (lambda: binf_table("G", 2),
                 lambda: xi_first_tables("E", 7),
                 lambda: xi_first_tables("G", 2)):
        with pytest.raises(UnsupportedTableError) as err:
            call()
        assert "closure" in str(err.value)
    with pytest.raises(UnsupportedTableError):
        phi_form("E", 6, 1, 0)


def test_tabledata_parser():
    assert _tabledata._parse("2x(3;1) - x(4;2)", False) == \
        ({(3, 1): 2, (4, 2): -1},)
    assert _tabledata._parse("x(j;1)\nx(j+2;4) - 2x(j;3)", True) == \
        ({(0, 1): 1}, {(2, 4): 1, (0, 3): -2})
    with pytest.raises(ValueError):
        _tabledata._parse("x(j;1) + garbage", True)
    with pytest.raises(ValueError):
        _tabledata._parse("x(j;1)\n+ -\nx(j;2)", True)


def test_tabledata_sizes():
    assert {k: len(v) for k, v in _tabledata.BINF_PARAMETRIC.items()} == {
        ("F", 4): 26, ("E", 6): 27, ("E", 7): 56, ("E", 8): 248}


TABLE_TYPES = ([("A", n) for n in range(1, 9)]
               + [(t, n) for t in "BC" for n in range(2, 9)]
               + [("D", n) for n in range(4, 9)]
               + [("F", 4), ("E", 6), ("E", 7), ("E", 8)])


@pytest.mark.parametrize("tl,n", TABLE_TYPES)
def test_binf_table_row_shifts_equal_the_row_by_row_table(tl, n):
    got = binf_table(tl, n)
    assert got == binf_table_row_by_row(tl, n)
    assert list(got) == sorted(got, key=LinearForm.key)


def test_binf_table_validates_only_the_row_one_family(monkeypatch):
    # E8 has 248 row-1 forms and 15 rows: 3,720 forms, built as shifts
    import crystalpoly.forms as forms_module
    real = forms_module.flat_cells
    calls = []

    def counting(rank, cells):
        calls.append(rank)
        return real(rank, cells)

    monkeypatch.setattr(forms_module, "flat_cells", counting)
    assert len(binf_table("E", 8)) == 3720
    assert len(calls) <= 248

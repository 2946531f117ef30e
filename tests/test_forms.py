import os
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import crystalpoly.forms as forms_module
from crystalpoly.rootdata import CapExceeded, cartan_matrix
from crystalpoly.zcrystal import IotaSequence, ZVector
from crystalpoly.forms import (
    LinearForm, FormSet, beta, xi_form, lambda_form, closure,
    check_positivity, first_row_negatives, check_strict_positivity,
    check_ample, node_family, render_form,
)
from reference import (
    NaiveCapExceeded, apply_S, apply_Shat, beta_pm, flat, kminus, max_row,
    minus, naive_closure, plus_constant,
)


def LF(n, d, lam=None, const=0):
    return LinearForm(n, d, lam, const)


def _capped(limit):
    """The closure cap set to `limit` for the duration of a with block."""
    return mock.patch.dict(os.environ,
                           {"CRYSTALPOLY_CLOSURE_CAP": str(limit)})


@pytest.fixture
def b2():
    return IotaSequence(cartan_matrix("B", 2))


def test_linear_form_normalization():
    f = LF(2, {(1, 1): 1, (2, 1): 0})
    assert f.coeffs == {(1, 1): 1} and f.terms == ((1, 1),)
    with pytest.raises(TypeError):
        f.coeffs[(1, 2)] = 1                    # a read-only view
    assert LF(2, {(1, 1): 0}).is_zero()
    # a nonzero form is kept as the same instance
    assert not f.is_zero() and FormSet([f]).forms[0] is f
    g = minus(f, f)
    assert g.is_zero()
    assert LF(2, {(1, 1): 2}) == LF(2, {(1, 1): 2, (3, 2): 0})


@pytest.mark.parametrize("cell", [(1, 0), (1, 3), (2, 3), (0, 1), (-1, 2)])
def test_linear_form_rejects_cells_outside_the_datum(cell):
    # on flat positions (1, n+1) would be (2, 1), and (0, i) would be
    # position i - n <= 0; the constructor refuses them, zero or not
    for c in (1, 0):
        with pytest.raises(ValueError, match="outside rows >= 1"):
            LF(2, {(1, 1): 1, cell: c})
    with pytest.raises(ValueError):
        LF(2, {(1, 2): 1}).shift_rows(-1)


@pytest.mark.parametrize("lam", [(1,), (0, 0, 1), ()])
def test_linear_form_rejects_a_lambda_part_of_the_wrong_length(lam):
    # a ValueError, not an assert, so `python -O` refuses it too
    with pytest.raises(ValueError, match="lambda part has %d entries, "
                                         "rank is 2" % len(lam)):
        LF(2, {(1, 1): 1}, lam=lam)


@pytest.mark.parametrize("value", [0.5, 2.0, Fraction(1, 2), None])
def test_linear_form_rejects_coefficients_that_are_not_ints(value):
    # kept, a coefficient of 0.5 would render as 0*x[1;1]
    with pytest.raises(ValueError) as err:
        LF(2, {(1, 1): value})
    assert str(err.value) == "cell (1, 1) has value %r, not an int" \
        % (value,)
    with pytest.raises(ValueError) as err:
        LF(2, {(1, 1): 1}, lam=(1, value))
    assert str(err.value) == "lambda part holds %r, not an int" % (value,)
    with pytest.raises(ValueError) as err:
        LF(2, {(1, 1): 1}, const=value)
    assert str(err.value) == "constant %r is not an int" % (value,)
    # bool is an int
    assert LF(2, {(1, 1): True}, lam=(False, True), const=True) == \
        LF(2, {(1, 1): 1}, lam=(0, 1), const=1)


@pytest.mark.parametrize("lam,const", [((1, 0), 0), ((0, 0), -1),
                                       ((0, 2), 3)])
def test_only_a_coordinate_form_shifts_rows(lam, const):
    f = LF(2, {(1, 1): 1}, lam=lam, const=const)
    with pytest.raises(ValueError, match="shifts rows"):
        f.shift_rows(1)
    assert LF(2, {(1, 1): 1}).shift_rows(1) == LF(2, {(2, 1): 1})


def test_render():
    f = LF(2, {(1, 1): 2, (1, 2): -1}, lam=(0, 1), const=-3)
    assert render_form(f) == "L2 + 2*x[1;1] - x[1;2] - 3"
    assert render_form(LF(2, {})) == "0"


def test_evaluate():
    f = LF(2, {(1, 1): 1, (2, 1): -2})
    x = ZVector(2, {(1, 1): 3, (2, 1): 1})
    assert f.evaluate(x) == 1
    assert f.evaluate({(1, 1): 3, (2, 1): 1}) == 1
    g = LF(2, {(1, 1): -1}, lam=(1, 0))
    assert g.evaluate(x, lam_values=(5, 0)) == 2
    with pytest.raises(ValueError):
        g.evaluate(x)


def test_beta_expansion(b2):
    # beta_(1;1) = x_{1;1} + a_{1,2} x_{1;2} + x_{2;1}
    assert beta(b2, flat(b2, 1, 1)) == \
        LF(2, {(1, 1): 1, (1, 2): -1, (2, 1): 1})
    # beta_(1;2) = x_{1;2} + a_{2,1} x_{2;1} + x_{2;2}
    assert beta(b2, flat(b2, 1, 2)) == \
        LF(2, {(1, 2): 1, (2, 1): -2, (2, 2): 1})
    assert beta(b2, flat(b2, 2, 1)) == \
        LF(2, {(2, 1): 1, (2, 2): -1, (3, 1): 1})


def test_beta_pm(b2):
    k = flat(b2, 2, 2)
    assert beta_pm(b2, k, "+") == beta(b2, k)
    assert beta_pm(b2, k, "-") == beta(b2, flat(b2, 1, 2))
    # first-row minus branch carries -lambda_i and the earlier columns
    f = beta_pm(b2, flat(b2, 1, 2), "-")
    assert f == LF(2, {(1, 1): -2, (1, 2): 1}, lam=(0, -1))
    g = beta_pm(b2, flat(b2, 1, 1), "-")
    assert g == LF(2, {(1, 1): 1}, lam=(-1, 0))
    with pytest.raises(ValueError):
        beta_pm(b2, 1, "?")


def test_xi_and_lambda_forms(b2):
    assert xi_form(b2, 1) == LF(2, {(1, 1): -1})
    assert xi_form(b2, 2) == LF(2, {(1, 1): 2, (1, 2): -1})
    assert lambda_form(b2, 2) == LF(2, {(1, 1): 2, (1, 2): -1}, lam=(0, 1))
    # lambda_form(i) = -beta^-_{(1;i)}
    zero = minus(lambda_form(b2, 2), beta_pm(b2, flat(b2, 1, 2), "-"), -1)
    assert zero.coeffs == {} and zero.lam == (0, 0)


def test_apply_S_branches(b2):
    f = LF(2, {(1, 1): 1})
    g = apply_S(b2, flat(b2, 1, 1), f)          # positive branch
    assert g == LF(2, {(1, 2): 1, (2, 1): -1})
    h = apply_S(b2, flat(b2, 2, 1), g)          # negative branch, k^- exists
    assert h == minus(g, beta(b2, flat(b2, 1, 1)), -1)
    assert h == LF(2, {(1, 1): 1})             # returns to the seed here
    # zero coefficient: identity
    assert apply_S(b2, flat(b2, 3, 2), g) is g
    # first-row violation: a no-op, at the form's first-row pair
    bad = LF(2, {(1, 2): -1})
    assert apply_S(b2, flat(b2, 1, 2), bad) is bad
    assert list(first_row_negatives([bad])) == [(bad, flat(b2, 1, 2))]


def test_apply_Shat_first_row(b2):
    bad = LF(2, {(1, 2): -1})
    out = apply_Shat(b2, flat(b2, 1, 2), bad)
    # adds beta^-: -x_{1;2} + (-lambda_2 - 2x_{1;1} + x_{1;2}) ... times -(-1)
    assert out == LF(2, {(1, 1): -2}, lam=(0, -1))


# frozen hand-computed families ------------------------------------------

def test_b2_binf_family(b2):
    fam = closure(b2, [LF(2, {(1, 1): 1})])
    assert fam == FormSet([
        LF(2, {(1, 1): 1}),
        LF(2, {(1, 2): 1, (2, 1): -1}),
        LF(2, {(2, 1): 1, (2, 2): -1}),
        LF(2, {(3, 1): -1}),
    ])
    assert check_positivity(fam) == []


def test_b2_spin_family(b2):
    fam = closure(b2, [xi_form(b2, 2)])
    assert fam == FormSet([
        LF(2, {(1, 1): 2, (1, 2): -1}),
        LF(2, {(1, 2): 1, (2, 1): -2}),
        LF(2, {(2, 2): -1}),
    ])
    # exactly the seed triggers the first-row violation
    assert list(first_row_negatives(fam)) == [(xi_form(b2, 2), 2)]


def test_c3_node3_family_plain_symbols():
    iota = IotaSequence(cartan_matrix("C", 3))
    fam = closure(iota, [xi_form(iota, 3)])
    assert fam == FormSet([
        LF(3, {(1, 2): 1, (1, 3): -1}),
        LF(3, {(1, 3): 1, (2, 1): 1, (2, 2): -1}),
        LF(3, {(1, 3): 1, (3, 1): -1}),
        LF(3, {(2, 1): 1, (2, 3): -1}),
        LF(3, {(2, 2): 1, (2, 3): -1, (3, 1): -1}),
        LF(3, {(2, 3): 1, (3, 2): -1}),
        LF(3, {(3, 3): -1}),
    ])


def test_b3_node3_family_doubled_symbols():
    iota = IotaSequence(cartan_matrix("B", 3))
    fam = closure(iota, [xi_form(iota, 3)])
    assert fam == FormSet([
        LF(3, {(1, 2): 2, (1, 3): -1}),
        LF(3, {(1, 3): 1, (2, 1): 2, (2, 2): -2}),
        LF(3, {(1, 3): 1, (3, 1): -2}),
        LF(3, {(2, 1): 2, (2, 3): -1}),
        LF(3, {(2, 2): 2, (2, 3): -1, (3, 1): -2}),
        LF(3, {(2, 3): 1, (3, 2): -2}),
        LF(3, {(3, 3): -1}),
    ])


def test_shat_closure_is_lambda_plus_s_closure(b2):
    # hatted closure of lambda_i + xi^(i) = lambda_i + unhatted closure
    for i in (1, 2):
        hat = node_family(b2, i)
        plain = closure(b2, [xi_form(b2, i)])
        lam = tuple(1 if m == i else 0 for m in (1, 2))
        assert hat == FormSet([plus_constant(f, lam) for f in plain])


def test_closure_controls(b2):
    gen = [LF(2, {(1, 1): 1})]
    with _capped(2), pytest.raises(CapExceeded) as err:
        closure(b2, gen)
    assert (err.value.cap, err.value.env, err.value.limit,
            err.value.reached) == ("closure", "CRYSTALPOLY_CLOSURE_CAP", 2, 3)
    assert "cap of 2 forms (CRYSTALPOLY_CLOSURE_CAP) after reaching 3 " \
        "forms while closing x[1;1] under S" in str(err.value)


def test_checks(b2):
    fam = closure(b2, [LF(2, {(1, 1): 1})])
    assert check_positivity(fam) == []
    assert check_positivity(FormSet([xi_form(b2, 2)])) == [xi_form(b2, 2)]
    xi_cl = {i: closure(b2, [xi_form(b2, i)]) for i in (1, 2)}
    assert check_strict_positivity(fam, xi_cl, b2) == []
    # the lambda-bearing families, seeded with lambda^(i), pass alike
    lam_cl = {i: node_family(b2, i) for i in (1, 2)}
    assert check_strict_positivity(fam, lam_cl, b2) == []
    lam_fam = FormSet([lambda_form(b2, 2), LF(2, {(2, 2): -1}, lam=(0, 1))])
    assert check_ample(lam_fam, (0, 1)) == []
    assert check_ample(FormSet([LF(2, {}, lam=(1, -1))]), (0, 1)) != []


def test_formset_behaviour():
    f = LF(2, {(1, 1): 1})
    g = LF(2, {(1, 2): 1})
    s = FormSet([f, g, f])
    assert len(s) == 2 and f in s
    assert LF(2, {(2, 1): 1}) not in s and "x[1;1]" not in s
    assert s == FormSet([g, f])
    # zero forms are silently dropped
    assert len(FormSet([f, minus(f, f)])) == 1


def test_evaluate_rejects_cells_and_vectors_of_another_rank():
    # rank-2 flat position 5 is x[3;1]: read as a cell, (1;5) aliased it
    with pytest.raises(ValueError, match="outside rows"):
        LF(2, {(3, 1): 1}).evaluate({(1, 5): 1})
    # and (0;3) aliased x[1;1]
    with pytest.raises(ValueError, match="outside rows"):
        LF(2, {(1, 1): 1}).evaluate({(0, 3): 1})
    # the rank-3 vector's flat position 3 is x[1;3], not x[2;1]
    with pytest.raises(ValueError, match="rank 3"):
        LF(2, {(2, 1): 1}).evaluate(ZVector(3, {(1, 3): 1}))


def test_evaluate_needs_one_lambda_value_per_column():
    f = LF(2, {(1, 1): 1}, lam=(1, 1))
    with pytest.raises(ValueError, match="1 lambda values"):
        f.evaluate(ZVector(2), lam_values=(5,))
    assert f.evaluate(ZVector(2, {(1, 1): 2}), lam_values=(5, 1)) == 8


@pytest.mark.parametrize("run", [
    lambda iota, f: closure(iota, [LF(2, {(1, 1): 1}), f]),
    lambda iota, f: apply_S(iota, 1, f),
    lambda iota, f: apply_Shat(iota, 1, f),
], ids=["closure", "apply_S", "apply_Shat"])
def test_steps_reject_a_form_of_another_rank(run):
    # the rank-3 form's flat position 3 is x[1;3]; a rank-2 step would read
    # it as x[2;1] and mix rank-2 forms into the rank-3 family
    iota = IotaSequence(cartan_matrix("A", 2))
    with pytest.raises(ValueError, match="form has rank 3, iota has rank 2"):
        run(iota, LF(3, {(1, 3): 1}))


@pytest.mark.parametrize("lam", [(1,), (0, 0, 1), ()])
def test_lambda_values_need_one_entry_per_column(lam):
    # lambda zipped with a short tuple would drop columns: L1 - L2 + x[1;1]
    # would pass check_ample at (0,) though it fails at (0, 5)
    f = LF(2, {(1, 1): 1}, lam=(1, -1))
    msg = "%d lambda values given, rank is 2" % len(lam)
    with pytest.raises(ValueError, match=msg):
        plus_constant(f, lam)
    with pytest.raises(ValueError, match=msg):
        check_ample(FormSet([f]), lam)
    assert check_ample(FormSet([f]), (0, 5)) == [f]


# property tests -----------------------------------------------------------

SMALL = [("A", 2), ("B", 2), ("C", 2), ("G", 2), ("B", 3)]


@st.composite
def random_form(draw):
    t, n = draw(st.sampled_from(SMALL))
    iota = IotaSequence(cartan_matrix(t, n))
    slots = draw(st.dictionaries(
        st.tuples(st.integers(1, 3), st.integers(1, n)),
        st.integers(-3, 3), max_size=5))
    return iota, LinearForm(n, slots)


@settings(deadline=None, max_examples=80)
@given(random_form(), st.data())
def test_S_is_idempotent_per_position(rf, data):
    iota, f = rf
    k = data.draw(st.integers(1, 4 * iota.rank))
    g = apply_S(iota, k, f)
    assert apply_S(iota, k, g) == g               # coefficient at k is now 0
    h = apply_Shat(iota, k, f)
    assert apply_Shat(iota, k, h) == h


@settings(deadline=None, max_examples=80)
@given(random_form(), st.data())
def test_S_step_is_a_beta_multiple(rf, data):
    # phi - S_k(phi) is exactly phi_k * beta_k (or beta_{k^-} on the
    # negative branch), so S never changes a form in any other way
    iota, f = rf
    k = data.draw(st.integers(1, 3 * iota.rank))
    g = apply_S(iota, k, f)
    diff = minus(f, g)
    c = f.coeff(*iota.rowcol(k))
    if c > 0:
        assert minus(diff, beta(iota, k), c).is_zero()
    elif c < 0 and kminus(iota, k) > 0:
        assert minus(diff, beta(iota, kminus(iota, k)), c).is_zero()
    else:
        assert diff.is_zero()


# flat keys against the (row, column) representation ----------------------

def _old_render(coeffs, lam, const):
    """render_form as it was written on {(row, column): coeff} dicts."""
    parts = [(l, "L%d" % m) for m, l in enumerate(lam, start=1) if l]
    parts += [(c, "x[%d;%d]" % cell) for cell, c in sorted(coeffs.items())]
    if const:
        parts.append((const, ""))
    if not parts:
        return "0"
    out = []
    for c, name in parts:
        mag = abs(c)
        term = str(mag) if not name else name if mag == 1 \
            else "%d*%s" % (mag, name)
        if not out:
            out.append(term if c > 0 else "-" + term)
        else:
            out.append("%s %s" % ("-" if c < 0 else "+", term))
    return " ".join(out)


def test_term_tables_stay_bounded():
    # more distinct terms than a table keeps: it is emptied and refilled,
    # and the forms rendered after that, with and without a lambda part
    # or constant, still match
    data = [({(j, 1): c, (3, 1): 1}, (c % 2,), c % 3 - 1)
            for j in (1, 2) for c in range(-3000, 3000) if c]
    for coeffs, lam, const in data + data[:10]:
        f = LinearForm(1, coeffs, lam, const)
        assert render_form(f) == _old_render(coeffs, lam, const)
    assert 0 < len(forms_module.TERM_TEXTS[1]) <= forms_module._TEXT_MEMO


@st.composite
def typed_form_data(draw):
    """(rank, nonzero {(row, column): coeff}, lam, const) for a type of
    rank <= 8 (a form depends on its type only through the rank)."""
    n = draw(st.integers(1, 8))
    coeffs = draw(st.dictionaries(
        st.tuples(st.integers(1, 6), st.integers(1, n)),
        st.integers(-3, 3).filter(bool), max_size=6))
    lam = tuple(draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n)))
    return n, coeffs, lam, draw(st.integers(-2, 2))


@settings(deadline=None, max_examples=200)
@given(typed_form_data(), st.integers(1, 4), st.data())
def test_a_shift_read_in_place_is_the_shifted_form(datum, d, data):
    # render_form(f, d) and f.evaluate(x, lam, d) read f.shift_rows(d)
    # at (k + d*rank, c) without making it
    n, coeffs, lam, _ = datum
    f = LinearForm(n, coeffs)
    g = f.shift_rows(d)
    assert render_form(f, d) == render_form(g)
    x = data.draw(st.dictionaries(
        st.tuples(st.integers(1, 10), st.integers(1, n)),
        st.integers(-3, 3), max_size=8))
    assert f.evaluate(x, lam, d) == g.evaluate(x, lam)
    assert f.evaluate(ZVector(n, x), None, d) == g.evaluate(ZVector(n, x))


@settings(deadline=None, max_examples=200)
@given(typed_form_data(), st.data())
def test_flat_key_matches_the_row_column_form(datum, data):
    n, coeffs, lam, const = datum
    f = LinearForm(n, coeffs, lam, const)
    assert f.coeffs == coeffs
    assert [cell for cell, _ in f.coeffs.items()] == sorted(coeffs)
    assert all(f.coeff(j, i) == c for (j, i), c in coeffs.items())
    assert max_row(f) == max((j for j, _ in coeffs), default=0)
    assert render_form(f) == _old_render(coeffs, lam, const)
    # forms of one rank sort like the (row, column) key they replace
    others = data.draw(st.lists(st.tuples(
        st.dictionaries(st.tuples(st.integers(1, 6), st.integers(1, n)),
                        st.integers(-3, 3).filter(bool), max_size=6),
        st.lists(st.integers(-1, 1), min_size=n, max_size=n).map(tuple),
        st.integers(-2, 2)), max_size=8))
    triples = [(coeffs, lam, const)] + others + others[:2]

    def old_key(triple):
        d, l, c = triple
        return tuple(sorted(d.items())), l, c

    fs = FormSet(LinearForm(n, *t) for t in triples)
    assert [old_key((dict(g.coeffs), g.lam, g.const)) for g in fs] == \
        sorted({old_key(t) for t in triples
                if t[0] or any(t[1]) or t[2]})


# the closure engine against the worklist of apply_S / apply_Shat steps ----

ENGINE_TYPES = [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3),
                ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("D", 5),
                ("G", 2), ("F", 4), ("E", 6)]


def _seed_families(t, n):
    iota = IotaSequence(cartan_matrix(t, n))
    fams = [[LF(n, {(1, 1): 1})]]
    for i in range(1, n + 1):
        fams.append([xi_form(iota, i)])
        fams.append([lambda_form(iota, i)])
    return iota, fams


def _pair_keys(pairs):
    return [(f.key(), k) for f, k in pairs]


def _assert_noops_are_the_first_row_pairs(family, noops):
    # the steps of the definitions that leave a form unchanged are the
    # first-row pairs of the family (the family's order is the key order)
    assert _pair_keys(first_row_negatives(family)) == \
        sorted(_pair_keys(noops))


def _assert_engine_matches(iota, gens):
    noops = []
    got = closure(iota, gens)
    want = naive_closure(iota, gens, "S", noops=noops)
    assert got == want
    _assert_noops_are_the_first_row_pairs(got, noops)
    return got


@pytest.mark.parametrize("t,n", ENGINE_TYPES)
def test_closure_engine_matches_the_definitions(t, n):
    iota, fams = _seed_families(t, n)
    for gens in fams:
        full = _assert_engine_matches(iota, gens)
        # the cap trips at the count the reference reaches, and not before
        with _capped(len(full)):
            assert closure(iota, gens) == full
        if len(full) > 1:
            cap = len(full) // 2
            with pytest.raises(NaiveCapExceeded) as ref:
                naive_closure(iota, gens, "S", size_cap=cap)
            with _capped(cap), pytest.raises(CapExceeded) as err:
                closure(iota, gens)
            assert "after reaching %d forms" % ref.value.args[0] \
                in str(err.value)
            assert (err.value.limit, err.value.reached) == \
                (cap, ref.value.args[0])


@pytest.mark.parametrize("t,n", ENGINE_TYPES + [("E", 7)])
def test_node_family_is_the_hatted_closure(t, n):
    # the S-closure of lambda^(i) has one first-row pair, the seed's own
    # at (1;i), and equals the closure under the hatted steps of apply_Shat
    iota = IotaSequence(cartan_matrix(t, n))
    for i in range(1, n + 1):
        seed = lambda_form(iota, i)
        family = closure(iota, [seed])
        assert _pair_keys(first_row_negatives(family)) == [(seed.key(), i)]
        assert node_family(iota, i) == \
            naive_closure(iota, [seed], "Shat"), (t, n, i)


def test_node_family_rejects_a_second_event(monkeypatch):
    # with -x[1;2] added to the seed, the S-closure of node 1 meets a
    # first-row event besides (seed, 1), so it is not the hatted closure
    iota = IotaSequence(cartan_matrix("A", 2))
    real = forms_module.lambda_form

    def seed(iota, i):
        return minus(real(iota, i), LF(2, {(1, 2): 1}))

    monkeypatch.setattr(forms_module, "lambda_form", seed)
    with pytest.raises(ValueError) as err:
        node_family(iota, 1)
    assert str(err.value).startswith(
        "node 1 is not strictly positive: L1 - x[1;1] - x[1;2], in the "
        "S-closure of L1 - x[1;1] - x[1;2], has coefficient -1 at x[1;2]")


@st.composite
def random_generators(draw, coeffs=st.integers(-2, 2),
                      lams=st.integers(-1, 1), consts=st.integers(-1, 1)):
    t, n = draw(st.sampled_from(SMALL))
    iota = IotaSequence(cartan_matrix(t, n))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        slots = draw(st.dictionaries(
            st.tuples(st.integers(1, 3), st.integers(1, n)),
            coeffs, max_size=4))
        lam = draw(st.lists(lams, min_size=n, max_size=n))
        gens.append(LinearForm(n, slots, lam, draw(consts)))
    return iota, gens


def _assert_capped_engine_matches(iota, gens, cap):
    # the same forms, or the cap tripped at the same count; the no-ops of
    # the definitions are the family's first-row pairs
    noops = []
    try:
        want = naive_closure(iota, gens, "S", cap, noops)
    except NaiveCapExceeded as ref:
        with _capped(cap), pytest.raises(CapExceeded) as err:
            closure(iota, gens)
        assert "after reaching %d forms" % ref.args[0] in str(err.value)
    else:
        with _capped(cap):
            got = closure(iota, gens)
        assert got == want
        _assert_noops_are_the_first_row_pairs(got, noops)


@settings(deadline=None, max_examples=150)
@given(random_generators())
def test_closure_engine_matches_the_definitions_on_random_generators(rg):
    # arbitrary signs, lambda parts and constants, several generators;
    # closures that run away must trip the cap at the same count
    iota, gens = rg
    _assert_capped_engine_matches(iota, gens, 60)


# the bounds 2^(W-3) of the packed fields for W = 8, 16, 32, and one off
_WIDE = st.one_of(
    st.integers(-2, 2),
    st.sampled_from([s * ((1 << e) + d) for e in (5, 13, 29)
                     for d in (-1, 0) for s in (1, -1)]),
    st.integers(-2 ** 40, 2 ** 40))


@settings(deadline=None, max_examples=150)
@given(random_generators(_WIDE, _WIDE, _WIDE))
def test_closure_engine_matches_the_definitions_on_wide_generators(rg):
    # coefficients, lambda parts and constants up to 2^40 in absolute
    # value make the engine widen its packed fields, at a generator or
    # at a step; forms, first-row pairs and the cap count must not change
    iota, gens = rg
    _assert_capped_engine_matches(iota, gens, 60)


@pytest.mark.parametrize("t,n,gens,pairs", [
    # the G2 row for (1;2) holds -3*x[2;1], so the step at (1;2) gives
    # 60*x[2;1]; the generator has a first-row pair at (1;1)
    ("G", 2, [{(1, 1): -1, (1, 2): 20}], 6),
    # 256*L2 and x[1;1] pack to the same 8-bit fields (2 and 3)
    ("A", 2, [({}, (0, 256)), {(1, 1): 1}], 0),
], ids=["coefficient", "generator"])
def test_closure_widens_when_a_form_outgrows_the_fields(t, n, gens, pairs):
    # each case breaks the bound 2^5 of 8-bit fields once
    iota = IotaSequence(cartan_matrix(t, n))
    gens = [LF(n, *g) if isinstance(g, tuple) else LF(n, g) for g in gens]
    noops = []
    want = naive_closure(iota, gens, "S", noops=noops)
    with mock.patch.object(forms_module, "closure",
                           wraps=closure) as entered, \
            mock.patch.object(forms_module, "_worklist",
                              wraps=forms_module._worklist) as runs:
        got = forms_module.closure(iota, gens)
    assert entered.call_count == 1
    assert [run.args[-1] for run in runs.call_args_list] == [8, 16]
    assert got == want and len(got) > len(gens)
    _assert_noops_are_the_first_row_pairs(got, noops)
    assert len(noops) == pairs
    # the generators come back as the instances given
    assert all(any(f is g for f in got) for g in gens)
    if pairs:
        # the first pair is the generator's
        assert next(first_row_negatives(got))[0] is gens[0]


def test_closure_compiles_n_rows_and_no_hatted_row(monkeypatch):
    # the engine compiles beta_1..beta_n once per call and shifts them for
    # every other row; the package has no hatted row beta_pm to build one
    # from.  The G2 generator makes the call widen its fields once
    assert not hasattr(forms_module, "beta_pm")
    calls = []
    real = forms_module.beta

    def counted(iota, k):
        calls.append(k)
        return real(iota, k)

    monkeypatch.setattr(forms_module, "beta", counted)
    cases = [_seed_families(t, n) for t, n in ENGINE_TYPES + [("E", 7)]]
    g2 = IotaSequence(cartan_matrix("G", 2))
    cases.append((g2, [[LF(2, {(1, 1): -1, (1, 2): 20})]]))
    for iota, fams in cases:
        for gens in fams:
            del calls[:]
            closure(iota, gens)
            assert sorted(calls) == list(range(1, iota.rank + 1))
        for i in range(1, iota.rank + 1):
            del calls[:]
            node_family(iota, i)
            assert len(calls) == iota.rank


@st.composite
def _form_families(draw):
    """Two lists of rank-2 forms: a random family and one made from it by
    a permutation, by adding duplicates, or by changing one form."""
    form = st.builds(
        lambda cells, const: LinearForm(2, cells, const=const),
        st.dictionaries(st.tuples(st.integers(1, 3), st.integers(1, 2)),
                        st.integers(-2, 2), max_size=3),
        st.integers(-1, 1))
    family = draw(st.lists(form, max_size=8))
    how = draw(st.sampled_from(["permute", "duplicate", "change"]))
    if how == "permute":
        other = draw(st.permutations(family))
    elif how == "duplicate":
        other = family + draw(st.lists(st.sampled_from(family), max_size=4)
                              if family else st.just([]))
    else:
        other = list(family)
        if other:
            at = draw(st.integers(0, len(other) - 1))
            other[at] = minus(other[at], draw(form))
    return family, other


@settings(deadline=None, max_examples=150)
@given(_form_families())
def test_formset_equality_is_set_equality(families):
    family, other = families
    as_set = [{f for f in fs if not f.is_zero()} for fs in families]
    left, right = FormSet(family), FormSet(other)
    assert (left == right) == (as_set[0] == as_set[1])
    assert (left == right) == (set(left) == set(right))
    if left == right:
        assert hash(left) == hash(right)
    assert left != family and left != set(family)


@settings(deadline=None, max_examples=80)
@given(random_form())
def test_check_positivity_reads_every_first_row_term(rf):
    _, f = rf
    want = [f] if any(c < 0 for (j, _), c in f.coeffs.items() if j == 1) \
        else []
    assert check_positivity(FormSet([f])) == want
    assert list(first_row_negatives([f])) == \
        [(f, i) for (j, i), c in sorted(f.coeffs.items()) if j == 1 and c < 0]

"""Closed-form inequality tables for the polyhedral crystal models.

For the classical chain types the defining families have explicit
formulas: a staircase family phi_{j;k} sweeping each generator row j
through 2n (resp. n+1, 2n-1) steps, plus, for the short/fork nodes,
families indexed by strictly-decreasing "admissible" column patterns mu
whose members are alternating sums over the pattern.  The exceptional
types F4/E6/E7/E8 carry literal tables (see _tabledata.py).  Everything
here is checked in the tests against the substitution closure of the
corresponding seeds.
"""

from itertools import combinations

from .forms import FormSet, LinearForm, _form
from . import _tabledata


class UnsupportedTableError(NotImplementedError):
    pass


def table_rows(type_label, rank):
    """Number of generator rows in the printed tables (and the last row a
    crystal point can occupy)."""
    return {"A": rank, "B": rank, "C": rank, "D": rank - 1,
            "F": 6, "E": {6: 8, 7: 9, 8: 15}.get(rank, 0)}.get(type_label, 0)


def _lf(n, terms, lam=None):
    """The form sum c*x_{j;i} over (c, j, i) triples of ints, j >= 1, with
    lambda part `lam` (None: none), made straight from its flat key;
    columns outside 1..n (0 and n+1 in the formulas) are dropped."""
    d = {}
    for c, j, i in terms:
        if 1 <= i <= n:
            k = (j - 1) * n + i
            d[k] = d.get(k, 0) + c
    pairs = tuple(sorted(kc for kc in d.items() if kc[1]))
    return _form(n, (pairs, (0,) * n if lam is None else lam, 0))


def phi_form(type_label, n, j, k, primed=False):
    """The k-th member of the B(infinity) staircase family seeded at row j.

    Ranges: j >= 1; 0 <= k <= n for A, 2n-1 for B/C, 2n-2 for D.  For D
    the primed variant differs exactly at k = n-1.
    """
    if j < 1:
        raise ValueError("row %d lies above row 1" % j)
    if type_label == "A":
        if not 0 <= k <= n:
            raise ValueError("k out of range")
        return _lf(n, [(1, j, k + 1), (-1, j + 1, k)])
    if type_label in ("B", "C"):
        if not 0 <= k <= 2 * n - 1:
            raise ValueError("k out of range")
        w = (lambda i: 2 if i == n else 1) if type_label == "C" \
            else (lambda i: 1)
        if k <= n - 1:
            return _lf(n, [(w(k + 1), j, k + 1), (-w(k), j + 1, k)])
        r, c = j + k - n + 1, 2 * n - k - 1
        return _lf(n, [(w(c), r, c), (-w(c + 1), r, c + 1)])
    if type_label == "D":
        if not 0 <= k <= 2 * n - 2:
            raise ValueError("k out of range")
        if k <= n - 3:
            return _lf(n, [(1, j, k + 1), (-1, j + 1, k)])
        if k == n - 2:
            return _lf(n, [(1, j, n - 1), (1, j, n), (-1, j + 1, n - 2)])
        if k == n - 1:
            if primed:
                return _lf(n, [(1, j, n - 1), (-1, j + 1, n)])
            return _lf(n, [(1, j, n), (-1, j + 1, n - 1)])
        if k == n:
            return _lf(n, [(1, j + 1, n - 2), (-1, j + 1, n - 1),
                           (-1, j + 1, n)])
        r, c = j + k - n + 1, 2 * n - k - 2
        return _lf(n, [(1, r, c), (-1, r, c + 1)])
    raise UnsupportedTableError(
        "no closed-form staircase for type %s" % type_label)


def binf_block(type_label, rank):
    """The closed-form B(infinity) system as one block (row-1 family,
    table_rows): the shifts f.shift_rows(d), 0 <= d < table_rows, of the
    family's forms.  For D the family is the phi/phi' forms plus the bare
    x_{1;n-1}, x_{1;n}; the substitution closure generates all but these.

    This is exact: every row a printed entry names is j + const
    (phi_form, the bare forms, the literal entries x(j+off;col)), and
    which columns it keeps does not depend on j, so the row-j form is the
    row-1 form moved j - 1 rows deeper.
    """
    n = rank
    steps = {"A": n + 1, "B": 2 * n, "C": 2 * n, "D": 2 * n - 1}
    if type_label in steps:
        family = [phi_form(type_label, n, 1, k)
                  for k in range(steps[type_label])]
        if type_label == "D":
            family += [phi_form("D", n, 1, n - 1, primed=True),
                       _lf(n, [(1, 1, n - 1)]), _lf(n, [(1, 1, n)])]
    elif type_label == "E" or type_label == "F":
        family = [LinearForm(n, {(1 + off, col): c
                                 for (off, col), c in entry.items()})
                  for entry in _tabledata.binf_parametric(type_label, rank)]
    else:
        raise UnsupportedTableError(
            "no closed-form B(infinity) table for type %s; build with "
            "source='closure' instead" % type_label)
    return FormSet(family), table_rows(type_label, rank)


def binf_table(type_label, rank):
    """The closed-form B(infinity) inequality system as one FormSet: the
    shifts of `binf_block`, d outer, so the sort merges sorted runs."""
    family, rows = binf_block(type_label, rank)
    return FormSet(f.shift_rows(d) for d in range(rows) for f in family)


def _pattern_top(type_label, n):
    """The largest entry of an admissible pattern: n (types B/C) or n-1
    (type D)."""
    top = {"B": n, "C": n, "D": n - 1}.get(type_label)
    if top is None:
        raise UnsupportedTableError(
            "admissible patterns only exist for B/C/D")
    return top


def admissible_patterns(type_label, n):
    """Strictly decreasing positive column patterns mu, largest entry
    bounded by n (types B/C) or n-1 (type D)."""
    top = _pattern_top(type_label, n)
    return tuple(sorted(mu for size in range(1, top + 1)
                        for mu in combinations(range(top, 0, -1), size)))


def _spin_terms(weight, n, mu):
    """The (coeff, row, col) terms of the short-node family member of
    types B and C at the admissible pattern mu:
    sum_k X_{mu_k+k-1; n-mu_k} - X_{mu_k+k-1; n-mu_k+1}, one extra +X_{L;n}
    term when the pattern does not end in 1, X weighted by weight[col]:
    2 on every column but n for type B, 1 for type C."""
    terms = []
    ks = mu if mu[-1] == 1 else mu + (0,)
    for k, m in enumerate(ks):
        r = m + k
        terms.append((weight[n - m], r, n - m))
        if m > 0:
            terms.append((-weight[n - m + 1], r, n - m + 1))
    return terms


def _d_spin_terms(n, mu, primed):
    """The (coeff, row, col) terms of the fork-node family member of type
    D at the admissible pattern mu: columns n-1 and n swap on even rows
    (odd rows for the primed family), and a pattern not ending in 1 picks
    up an extra +X_{L;n} term."""

    def sym(r, i):              # i, or its fork partner 2n-1-i
        return 2 * n - 1 - i if i >= n - 1 and (r % 2 == 0) != primed else i

    terms = []
    for k, m in enumerate(mu, start=1):
        r = m + k - 1
        if n - m - 1 >= 1:
            terms.append((1, r, sym(r, n - m - 1)))
        terms.append((-1, r, sym(r, n - m)))
    if mu[-1] >= 2:
        L = len(mu)
        terms.append((1, L, sym(L, n)))
    return terms


def _chain_terms(n, i):
    """The (coeff, row, col) terms of each member of the first-occurrence
    family of a chain node: x_{j;i-j} - x_{j;i-j+1} down the
    antidiagonal, ending in -x_{i;1}."""
    return [[(1, j, i - j), (-1, j, i - j + 1)] for j in range(1, i + 1)]


def xi_first_tables(type_label, rank, with_lambda=False):
    """Per-node closed-form families whose lambda-shifts cut out B(lambda).

    Returns {node i: FormSet}.  With `with_lambda`, every form of node i
    carries lambda_i: these are the B(lambda) node families.  Raises
    UnsupportedTableError for types where no closed form is printed
    (E7/E8, G2): use the node closures, `forms.node_family`.
    """
    n = rank
    chains = {"A": n, "B": n - 1, "C": n - 1, "D": n - 2}.get(type_label, 0)
    terms = {i: _chain_terms(n, i) for i in range(1, chains + 1)}
    if type_label in ("B", "C"):
        weight = [1] * (n + 1) if type_label == "C" else [2] * n + [1]
        terms[n] = (_spin_terms(weight, n, mu)
                    for mu in admissible_patterns(type_label, n))
    elif type_label == "D":
        pats = admissible_patterns("D", n)
        terms[n - 1] = (_d_spin_terms(n, mu, False) for mu in pats)
        terms[n] = (_d_spin_terms(n, mu, True) for mu in pats)
    elif type_label == "F" or (type_label == "E" and rank == 6):
        for i, entries in _tabledata.node_tables(type_label, rank).items():
            terms[i] = [[(c, j, col) for (j, col), c in e.items()]
                        for e in entries]
    elif type_label != "A":
        raise UnsupportedTableError(
            "no closed-form node tables for type %s rank %d; build with "
            "source='closure' instead" % (type_label, rank))
    fams = {}
    for i, ts in terms.items():
        lam = tuple(int(with_lambda and m == i) for m in range(1, n + 1))
        fams[i] = FormSet(_lf(n, t, lam) for t in ts)
    return fams

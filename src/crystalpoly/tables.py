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

from .forms import LinearForm, FormSet
from . import _tabledata


class UnsupportedTableError(NotImplementedError):
    pass


def table_rows(type_label, rank):
    """Number of generator rows in the printed tables (and the last row a
    crystal point can occupy)."""
    return {"A": rank, "B": rank, "C": rank, "D": rank - 1,
            "F": 6, "E": {6: 8, 7: 9, 8: 15}.get(rank, 0)}.get(type_label, 0)


def _lf(n, terms):
    """terms: iterable of (coeff, row, col); cols 0 and n+1 are dropped."""
    d = {}
    for c, j, i in terms:
        if 1 <= i <= n and c != 0:
            d[(j, i)] = d.get((j, i), 0) + c
    return LinearForm(n, d)


def phi_form(type_label, n, j, k, primed=False):
    """The k-th member of the B(infinity) staircase family seeded at row j.

    Ranges: 0 <= k <= n for A, 2n-1 for B/C, 2n-2 for D.  For D the primed
    variant differs exactly at k = n-1.
    """
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


def binf_table(type_label, rank):
    """The closed-form B(infinity) inequality system, generator rows
    1..table_rows.

    For D the table is the phi/phi' families plus the two bare coordinate
    families x_{j;n-1}, x_{j;n}; the substitution closure generates all but
    the bare ones.

    Only the generator-row-1 family is built form by form; row j is its
    shift by j - 1 rows (`shift_rows`).  This is exact: every row a
    printed entry names is j + const (phi_form, the bare forms, the
    literal entries x(j+off;col)), and which columns it keeps does not
    depend on j, so the row-j form is the row-1 form moved j - 1 rows
    deeper.  Only the row-1 forms go through the validating constructor:
    a shift of a valid form by d >= 0 rows is valid.  The family is
    sorted once, and shifting every position by one offset keeps the key
    order, so the shifts, d in the outer loop, come as a few sorted runs
    that the FormSet sort merges.
    """
    n, rows = rank, table_rows(type_label, rank)
    if type_label == "A":
        family = [phi_form("A", n, 1, k) for k in range(n + 1)]
    elif type_label in ("B", "C"):
        family = [phi_form(type_label, n, 1, k) for k in range(2 * n)]
    elif type_label == "D":
        family = [phi_form("D", n, 1, k) for k in range(2 * n - 1)]
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
    family = FormSet(family)
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
    pats = []

    def grow(prefix, below):
        for v in range(below - 1, 0, -1):
            pats.append(prefix + (v,))
            grow(prefix + (v,), v)

    grow((), top + 1)
    return tuple(sorted(pats))


def _check_pattern(type_label, n, mu):
    """Raise ValueError unless mu is one of `admissible_patterns(type_label,
    n)`: a non-empty tuple, strictly decreasing, entries in 1..top.

    The test is direct, in time linear in len(mu), where listing the
    2^top - 1 patterns to look mu up would make a spin family of 2^top - 1
    members cost 4^top.  It accepts what that lookup accepts: a tuple
    whose entries equal, in order, the ints of a pattern.
    """
    cols = range(1, _pattern_top(type_label, n) + 1)
    if isinstance(mu, tuple) and mu and all(v in cols for v in mu):
        at = [cols.index(v) for v in mu]
        if all(a > b for a, b in zip(at, at[1:])):
            return
    raise ValueError("pattern %r is not admissible" % (mu,))


def spin_form(type_label, n, mu):
    """Pattern-sum member of the short-node family, types B and C.

    sum_k X_{mu_k+k-1; n-mu_k} - X_{mu_k+k-1; n-mu_k+1}, one extra +X_{L;n}
    term when the pattern does not end in 1; X doubles every column except
    n for type B and nothing for type C.
    """
    if type_label not in ("B", "C"):
        raise UnsupportedTableError("spin_form is for types B and C")
    _check_pattern(type_label, n, mu)
    weight = (lambda i: 2 if i != n else 1) if type_label == "B" \
        else (lambda i: 1)
    terms = []
    ks = list(mu) if mu[-1] == 1 else list(mu) + [0]
    for k, m in enumerate(ks, start=1):
        r = m + k - 1
        terms.append((weight(n - m) if n - m >= 1 else 0, r, n - m))
        if m > 0:
            terms.append((-weight(n - m + 1), r, n - m + 1))
    return _lf(n, terms)


def d_spin_form(n, mu, primed=False):
    """Pattern-sum member of the fork-node families, type D.

    Columns n-1 and n swap on even rows (odd rows for the primed family);
    patterns not ending in 1 pick up an extra +X_{L;n} term.
    """
    _check_pattern("D", n, mu)

    def sym(r, i):
        swap = (r % 2 == 0) != primed
        if swap and i == n - 1:
            return n
        if swap and i == n:
            return n - 1
        return i

    terms = []
    for k, m in enumerate(mu, start=1):
        r = m + k - 1
        if n - m - 1 >= 1:
            terms.append((1, r, sym(r, n - m - 1)))
        terms.append((-1, r, sym(r, n - m)))
    if mu[-1] >= 2:
        L = len(mu)
        terms.append((1, L, sym(L, n)))
    return _lf(n, terms)


def chain_family(n, i):
    """First-occurrence family for a chain node: x_{j;i-j} - x_{j;i-j+1}
    down the antidiagonal, ending in -x_{i;1}."""
    return [_lf(n, [(1, j, i - j), (-1, j, i - j + 1)])
            for j in range(1, i + 1)]


def xi_first_tables(type_label, rank):
    """Per-node closed-form families whose lambda-shifts cut out B(lambda).

    Returns {node i: FormSet}.  Raises UnsupportedTableError for types
    where no closed form is printed (E7/E8, G2): use the node closures,
    `forms.node_family`.
    """
    n = rank
    fams = {}
    if type_label == "A":
        for i in range(1, n + 1):
            fams[i] = FormSet(chain_family(n, i))
    elif type_label in ("B", "C"):
        for i in range(1, n):
            fams[i] = FormSet(chain_family(n, i))
        fams[n] = FormSet(spin_form(type_label, n, mu)
                          for mu in admissible_patterns(type_label, n))
    elif type_label == "D":
        for i in range(1, n - 1):
            fams[i] = FormSet(chain_family(n, i))
        fams[n - 1] = FormSet(d_spin_form(n, mu, primed=False)
                              for mu in admissible_patterns("D", n))
        fams[n] = FormSet(d_spin_form(n, mu, primed=True)
                          for mu in admissible_patterns("D", n))
    elif type_label == "F" or (type_label == "E" and rank == 6):
        for i, entries in _tabledata.node_tables(type_label, rank).items():
            fams[i] = FormSet(LinearForm(n, e) for e in entries)
    else:
        raise UnsupportedTableError(
            "no closed-form node tables for type %s rank %d; build with "
            "source='closure' instead" % (type_label, rank))
    return fams

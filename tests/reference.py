"""Reference definitions that the tests hold the package to.

Nothing in `src/crystalpoly` runs these.  Each states a definition, or
an earlier way to compute something, one step at a time.  Its docstring
is the definition the package's fast path is held to.  The test modules
share their helpers and case tables through this module only, never
through one another.

The paper cuts out B(lambda) with the hatted operator S^_k.  The
package closes every node family under S alone (proof in
`forms.node_family`), so S^ and its first-row substitute beta^- live
here, with the unhatted step and the worklist closure that uses both.
"""

import functools
import math
from fractions import Fraction
from operator import itemgetter, mul

from crystalpoly.forms import (FormSet, LinearForm, _form, _same_rank, beta,
                               closure)
from crystalpoly.rootdata import cartan_matrix, check_dominant, positive_roots
from crystalpoly.tables import (UnsupportedTableError, _chain_terms,
                                _d_spin_terms, _pattern_top, _spin_terms,
                                phi_form, table_rows)
from crystalpoly import _tabledata
import crystalpoly.zcrystal as zcrystal_module
from crystalpoly.zcrystal import CrystalNode, IotaSequence, Store, ZVector, \
    signature_table


# shared cases ---------------------------------------------------------------

BINF_DEPTHS = [
    ("A", 1, 6), ("A", 2, 6), ("B", 2, 6), ("B", 3, 6),
    ("C", 2, 6), ("C", 3, 6), ("D", 4, 6), ("F", 4, 5), ("E", 6, 5),
]

RANK_6_TYPES = ([("A", n) for n in range(1, 7)]
                + [("B", n) for n in range(2, 7)]
                + [("C", n) for n in range(2, 7)]
                + [("D", n) for n in range(4, 7)]
                + [("G", 2), ("F", 4), ("E", 6)])

HIGHEST_WEIGHTS = [
    ("B", 2, (1, 0), 5),
    ("B", 2, (0, 1), 4),
    ("B", 2, (1, 1), 16),
    ("C", 3, (1, 0, 0), 6),
    ("D", 4, (1, 0, 0, 0), 8),
    ("D", 4, (0, 1, 0, 0), 28),
    ("F", 4, (1, 0, 0, 0), 26),
    ("F", 4, (0, 0, 0, 1), 52),
    ("E", 6, (1, 0, 0, 0, 0, 0), 27),
    ("E", 6, (0, 0, 0, 0, 1, 0), 27),
    ("E", 8, (1, 0, 0, 0, 0, 0, 0, 0), 248),
]


@functools.lru_cache(maxsize=None)
def iota_for(t, n):
    """The reduced word of type t, rank n; one instance per type, so the
    signature tables kept on a vector serve every test that reads it."""
    return IotaSequence(cartan_matrix(t, n))


def binf_closure(t, n):
    """The S-closure of the generators x_{j;1}, j = 1..table_rows(t, n)."""
    gens = [LinearForm(n, {(j, 1): 1}) for j in range(1, table_rows(t, n) + 1)]
    return closure(iota_for(t, n), gens)


# root data in Fractions ----------------------------------------------------

def fraction_symmetrizer(a, n):
    """Minimal positive integers d_i with d_i a_ij = d_j a_ji, found by
    propagating the ratios d_j = d_i a_ij / a_ji as Fractions."""
    d = [Fraction(0)] * n
    d[0] = Fraction(1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if i != j and a[i][j] != 0 and d[j] == 0:
                d[j] = d[i] * a[i][j] / a[j][i]
                todo.append(j)
    if any(v == 0 for v in d):
        raise ValueError("Cartan diagram is not connected")
    lcm_den = math.lcm(*(v.denominator for v in d))
    d = [v * lcm_den for v in d]
    g = math.gcd(*(v.numerator for v in d))
    return tuple(int(v / g) for v in d)


def fraction_weyl_dim(cartan, lam):
    """dim V(lambda) as the product over the positive roots alpha of
    (lambda + rho, alpha) / (rho, alpha), each factor a Fraction."""
    lam = check_dominant(cartan, lam)
    d = cartan.symmetrizer
    dim = Fraction(1)
    for root in positive_roots(cartan):
        num = sum(c * dj * (lj + 1) for c, dj, lj in zip(root, d, lam))
        den = sum(c * dj for c, dj in zip(root, d))
        dim *= Fraction(num, den)
    if dim.denominator != 1:
        raise RuntimeError("Weyl dimension %s is not an integer" % dim)
    return int(dim)


def fraction_root_coords(cartan, fund_coords):
    """The solution c of A c = fund_coords, as Fractions, by Gauss-Jordan
    elimination over the rationals."""
    n = cartan.rank
    m = [[Fraction(cartan.matrix[i][j]) for j in range(n)] for i in range(n)]
    b = [Fraction(v) for v in fund_coords]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        b[col], b[piv] = b[piv], b[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        b[col] *= inv
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
                b[r] -= f * b[col]
    return tuple(b)


# flat positions ------------------------------------------------------------

def flat(iota, j, i):
    """Flat position of row j >= 1, column 1 <= i <= rank."""
    return (j - 1) * iota.rank + i


def kminus(iota, k):
    """Previous position of the same colour, 0 if there is none."""
    return k - iota.rank if k > iota.rank else 0


# vectors -------------------------------------------------------------------

def vectors(rank, keys):
    """The ZVectors of `keys`, flat (k, value) pairs, in their order: a
    generated or enumerated set as the operator API (CrystalNode, f_tilde,
    signature_table) takes it."""
    return [ZVector.from_key(rank, key) for key in keys]


def total(x):
    """The degree of a vector: the sum of its entries."""
    return sum(x.entries.values())


def column_sums(x, rank):
    sums = [0] * rank
    for (_, i), v in x.entries.items():
        sums[i - 1] += v
    return tuple(sums)


def weight_root_coords(x, rank):
    """wt(x) = -sum x_{j;p} alpha_p, as coefficients over the simple roots."""
    return tuple(-v for v in column_sums(x, rank))


# forms and the substitution steps ------------------------------------------

def minus(form, other, mult=1):
    """form - mult * other."""
    d = dict(form.terms)
    for k, v in other.terms:
        v = d.get(k, 0) - mult * v
        if v:
            d[k] = v
        else:
            d.pop(k, None)
    lam = tuple(a - mult * b for a, b in zip(form.lam, other.lam))
    return _form(form.rank, (tuple(sorted(d.items())), lam,
                             form.const - mult * other.const))


def plus_constant(form, lam):
    """form + sum lam_m lambda_m; raises ValueError unless lam has one
    entry per column.  The package attaches lambda_i to a node's table
    forms as it makes them (`tables.xi_first_tables`)."""
    if len(lam) != form.rank:
        raise ValueError("%d lambda values given, rank is %d"
                         % (len(lam), form.rank))
    new_lam = tuple(a + b for a, b in zip(form.lam, lam))
    return _form(form.rank, (form.terms, new_lam, form.const))


def max_row(form):
    """The deepest row of a form's coordinate part, 0 when it has none."""
    return (form.terms[-1][0] - 1) // form.rank + 1 if form.terms else 0


def beta_pm(iota, k, sign):
    """beta_k^(+) = beta_k; beta_k^(-) = beta_{k^-} when it exists, else
    the lambda-dependent first-row substitute

        beta^-_{(1;i)} = -lambda_i + sum_{p<i} a_{i,p} x_{1;p} + x_{1;i}."""
    if sign == "+":
        return beta(iota, k)
    if sign != "-":
        raise ValueError("sign must be '+' or '-'")
    km = kminus(iota, k)
    if km > 0:
        return beta(iota, km)
    n = iota.rank
    a = iota.cartan.a
    _, i = iota.rowcol(k)
    d = {(1, i): 1}
    for p in range(1, i):
        if a(i, p):
            d[(1, p)] = a(i, p)
    lam = tuple(-1 if m == i else 0 for m in range(1, n + 1))
    return LinearForm(n, d, lam)


def apply_S(iota, k, form):
    """One unhatted substitution step S_k: phi - phi_k * beta_k if phi_k >
    0, phi - phi_k * beta_{k^-} if phi_k < 0; first-row violations (phi_k
    < 0 with no k^-) are no-ops."""
    _same_rank(iota, form)
    c = form.coeff(*iota.rowcol(k))
    if c == 0:
        return form
    if c > 0:
        return minus(form, beta(iota, k), c)
    km = kminus(iota, k)
    if km == 0:
        return form
    return minus(form, beta(iota, km), c)


def apply_Shat(iota, k, form):
    """One hatted substitution step S^_k (total: the first row uses the
    lambda substitute of `beta_pm`)."""
    _same_rank(iota, form)
    c = form.coeff(*iota.rowcol(k))
    if c == 0:
        return form
    if c > 0:
        return minus(form, beta(iota, k), c)
    return minus(form, beta_pm(iota, k, "-"), c)


class NaiveCapExceeded(Exception):
    """`naive_closure` passed its size cap; args[0] is the count reached."""


def naive_closure(iota, generators, operator, size_cap=None, noops=None):
    """The closure straight from the definitions: LIFO worklist of
    LinearForms, one apply_S / apply_Shat per support position.  Each
    step that returns its form unchanged is appended to `noops` as
    (form, position)."""
    seen = set()
    queue = []
    for g in generators:
        if not g.is_zero() and g not in seen:
            seen.add(g)
            queue.append(g)
    while queue:
        f = queue.pop()
        for j, i in sorted(f.coeffs):
            k = flat(iota, j, i)
            if operator == "S":
                g = apply_S(iota, k, f)
            else:
                g = apply_Shat(iota, k, f)
            if g is f and noops is not None:
                noops.append((f, k))
            if g.is_zero() or g in seen:
                continue
            seen.add(g)
            queue.append(g)
            if size_cap is not None and len(seen) > size_cap:
                raise NaiveCapExceeded(len(seen))
    return FormSet(seen)


# the oracle search ----------------------------------------------------------

def level_bfs(iota, lam=None, depth=None, edges=None):
    """Reference: the search behind generate_binf (lam None, `depth`
    levels) and generate_blambda, as a plain breadth-first search over
    the operator API.  From the zero vector, a level at a time, every
    node of a level in the order met tries CrystalNode.f with i = 1..n
    (None where f_i kills it), and a key met for the first time gets the
    next index.  A list `edges` gets every step (a, i, b) as indices; for
    B(infinity) it also gets the steps out of the deepest level, whose
    new keys follow the set.  Returns (keys in index order, the size of
    the set, the signature table of every node that stepped, in index
    order, then with `edges` those of the keys past the set)."""
    n = iota.rank
    zero = CrystalNode(iota, lam=lam)
    index, keys, tables = {(): 0}, [()], []
    level, size, height = [zero], None, 0
    while level:
        if height == depth:
            size = len(keys)
            if edges is None:
                break
        below = []
        for node in level:
            a = index[node.vector.key()]
            tables.append(signature_table(iota, node.vector))
            for i in range(1, n + 1):
                y = node.f(i)
                if y is None:
                    continue
                key = y.vector.key()
                if key not in index:
                    index[key] = len(keys)
                    keys.append(key)
                    below.append(y)
                if edges is not None:
                    edges.append((a, i, index[key]))
        if size is not None:
            tables += (signature_table(iota, y.vector) for y in below)
            break
        level, height = below, height + 1
    return keys, len(keys) if size is None else size, tables


# signature tables ----------------------------------------------------------

def row_scan(iota, entries):
    """Reference: the signature scan on (row, column) cells of a dict, as
    the table was computed before it moved to flat positions.  Returns
    (best, first row, last row, weight, pairing) by colour - 1."""
    n = iota.rank
    m = iota.cartan.matrix
    columns = [[(c, m[c][p]) for c in range(n) if m[c][p]] for p in range(n)]
    key = sorted((cell, v) for cell, v in entries.items() if v)
    top = key[-1][0][0] if key else 0
    acc = [0] * n
    sums = [0] * n
    best = [0] * n
    first = [top + 1] * n
    last = [top + 1] * n
    high = [top] * n

    def settle(c, low):
        h = high[c]
        if h >= low:
            s = acc[c]
            if s > best[c]:
                best[c] = s
                last[c] = h
                first[c] = low
            elif s == best[c]:
                first[c] = low
            high[c] = low - 1

    for (j, i), v in reversed(key):
        p = i - 1
        for c, _ in columns[p]:
            settle(c, j if c > p else j + 1)
        s = v + acc[p]
        if s > best[p]:
            best[p] = s
            first[p] = last[p] = j
        elif s == best[p]:
            first[p] = j
        high[p] = j - 1
        sums[p] += v
        for c, a in columns[p]:
            acc[c] += a * v
    for c in range(n):
        settle(c, 1)
    return (tuple(best), tuple(first), tuple(last),
            tuple(-v for v in sums), tuple(-v for v in acc))


def suffix_scan(iota, x):
    """Reference: the suffix scan over the support that computed the table
    before the row pass.  A run of empty colour-c positions is settled
    just before acc[c] changes, from the highest one not yet scanned,
    high[c], down to the first colour-c position after the support entry.
    Returns (best, first, last, weight, pairing) by colour - 1."""
    n = iota.rank
    m = iota.cartan.matrix
    # per colour p: (c, a_{c,p}, offset from a colour-p position to the
    # next colour-c one) with a_{c,p} != 0
    steps = [[(c, m[c][p], c - p if c > p else c - p + n)
              for c in range(n) if m[c][p]] for p in range(n)]
    key = x.key()
    base = (key[-1][0] - 1) // n * n if key else -n     # row R: base+1..
    acc, sums, best = [0] * n, [0] * n, [0] * n
    first = list(range(base + n + 1, base + 2 * n + 1))     # row R+1
    last = list(first)
    high = list(range(base + 1, base + n + 1))  # highest not yet scanned
    for k, v in reversed(key):
        p = (k - 1) % n
        for c, a, off in steps[p]:
            s = acc[c]
            low = k + off
            if high[c] >= low:      # settle colour c down to low
                if s > best[c]:
                    best[c] = s
                    last[c] = high[c]
                if s == best[c]:
                    first[c] = low
                high[c] = low - n
            acc[c] = s + a * v
        s = acc[p] - v              # sigma at k: acc[p] moved by 2v
        if s > best[p]:
            best[p] = s
            first[p] = last[p] = k
        elif s == best[p]:
            first[p] = k
        high[p] = k - n
        sums[p] += v
    for c in range(n):              # settle each colour down to row 1
        s = acc[c]
        if high[c] > c:
            if s > best[c]:
                best[c] = s
                last[c] = high[c]
            if s == best[c]:
                first[c] = c + 1
    return (tuple(best), tuple(first), tuple(last),
            tuple(-v for v in sums), tuple(-v for v in acc))


def table_fields(t):
    """(best, first, last, weight, pairing) of a signature table, each by
    colour - 1, read off its positions (zcrystal.signature_table)."""
    n = (len(t) - 2) // 3
    return t[2:2 + n], t[2 + n:2 + 2 * n], t[2 + 2 * n:], t[0], t[1]


def counted_scans(monkeypatch):
    """A list that gets the key of every vector a table kernel scans, for
    the kernels compiled after this call (each IotaSequence compiles its
    own)."""
    scans = []
    real = zcrystal_module._scan_kernel

    def counting_kernel(rank, steps):
        scan = real(rank, steps)

        def counted(key):
            scans.append(key)
            return scan(key)
        return counted

    monkeypatch.setattr(zcrystal_module, "_scan_kernel", counting_kernel)
    return scans


# models: last row, enumeration, zero region, tables --------------------------

def system_forms(poly):
    """The system of a model as one FormSet: the forms f.shift_rows(d) of
    its blocks, f in a block's set and 0 <= d < its R, each made."""
    return FormSet(f.shift_rows(d) if d else f
                   for forms, rows in poly.blocks
                   for d in range(rows) for f in forms)


def pair_form(pair):
    """The form a pair (f, d) of `Polyhedron.pairs` stands for, made:
    f.shift_rows(d)."""
    f, d = pair
    return f.shift_rows(d) if d else f


def last_row(poly):
    """The last live row of a model: the row of its deepest region cell."""
    return (max(poly.region) - 1) // poly.cartan.rank + 1


def enumerate_full_scan(poly, budget, lam):
    """Reference for `_enumerate`: the same DFS, but every cell scans all
    the forms that resolve there, with one (form, coeff) entry per touch."""
    order = poly.region
    index = {k: t for t, k in enumerate(order)}
    m = len(order)
    upper = [[] for _ in range(m)]
    lower = [[] for _ in range(m)]
    touch = [[] for _ in range(m)]
    sums = []
    for f in system_forms(poly):
        terms = [(index[k], c) for k, c in f.terms if k in index]
        base = f.const if lam is None else \
            f.const + sum(map(mul, f.lam, lam))
        if not terms:
            if base < 0:
                return set()
            continue
        fid = len(sums)
        sums.append(base)
        top, c = terms[-1]
        if c < 0:
            upper[top].append((fid, -c))
        else:
            lower[top].append((fid, c))
        for t, c in terms[:-1]:
            touch[t].append((fid, c))
    nonzero = itemgetter(1)
    points = set()
    vals = [0] * m
    his = [0] * m
    used = 0
    t = 0
    while True:
        if t == m:
            points.add(tuple(filter(nonzero, zip(order, vals))))
        else:
            hi = budget - used
            lo = 0
            for fid, c in upper[t]:
                hi = min(hi, sums[fid] // c)
            for fid, c in lower[t]:
                lo = max(lo, -(sums[fid] // c))
            if lo <= hi:
                for fid, c in touch[t]:
                    sums[fid] += c * lo
                vals[t] = lo
                used += lo
                his[t] = hi
                t += 1
                continue
        t -= 1
        while t >= 0 and vals[t] == his[t]:
            v = vals[t]
            for fid, c in touch[t]:
                sums[fid] -= c * v
            vals[t] = 0
            used -= v
            t -= 1
        if t < 0:
            return points
        for fid, c in touch[t]:
            sums[fid] += c
        vals[t] += 1
        used += 1
        t += 1


def forced_reference(parametric, n, width):
    """Forced flat positions by sweeping every shifted form, built as a
    LinearForm, until nothing changes."""
    shifted = [f.shift_rows(d) for f in parametric for d in range(width)]
    forced = set()
    changed = True
    while changed:
        changed = False
        for f in shifted:
            if all(cell in forced for cell, c in f.coeffs.items() if c > 0):
                new = {cell for cell, c in f.coeffs.items() if c < 0}
                changed |= not new <= forced
                forced |= new
    return {(j - 1) * n + i for j, i in forced}


def forced_cells_counting(parametric, n, width):
    """Windowed reference for `_zero_region`: a counting worklist over flat
    positions k = (j-1)*n + i.  The shifted form (f, d) has a counter of
    its positive cells not yet forced; when a cell k is forced, the forms
    positive in its column are found through `by_col`, the (form,
    position) pairs of that column: the pair (f, p) with p <= k is hit at
    shift d = (k - p) // n, and (f, d) forces its negative cells when its
    counter reaches 0."""
    positives = []
    negatives = []
    by_col = [[] for _ in range(n)]
    for f, form in enumerate(parametric):
        pos = [k for k, c in form.terms if c > 0]
        positives.append(pos)
        negatives.append([k for k, c in form.terms if c < 0])
        for p in pos:
            by_col[(p - 1) % n].append((f, p))
    top = max(k for form in parametric for k, _ in form.terms)
    forced = bytearray(top + width * n + 1)
    pending = [len(pos) for pos in positives for _ in range(width)]
    queue = []

    def force(f, d):
        off = d * n
        for q in negatives[f]:
            k = q + off
            if not forced[k]:
                forced[k] = 1
                queue.append(k)

    for f, pos in enumerate(positives):
        if not pos:
            for d in range(width):
                force(f, d)
    while queue:
        k = queue.pop()
        for f, p in by_col[(k - 1) % n]:
            if p <= k:
                d = (k - p) // n
                if d < width:
                    idx = f * width + d
                    pending[idx] -= 1
                    if pending[idx] == 0:
                        force(f, d)
    return forced


def binf_table_row_by_row(type_label, rank):
    """Reference for `binf_table`: every generator row built form by form,
    phi_form at each row j and the literal entries through the validating
    constructor."""
    n, rows = rank, table_rows(type_label, rank)
    forms = []
    if type_label == "A":
        forms = [phi_form("A", n, j, k)
                 for j in range(1, rows + 1) for k in range(n + 1)]
    elif type_label in ("B", "C"):
        forms = [phi_form(type_label, n, j, k)
                 for j in range(1, rows + 1) for k in range(2 * n)]
    elif type_label == "D":
        for j in range(1, rows + 1):
            for k in range(2 * n - 1):
                forms.append(phi_form("D", n, j, k))
            forms.append(phi_form("D", n, j, n - 1, primed=True))
        for j in range(1, rows + 1):
            forms.append(LinearForm(n, {(j, n - 1): 1}))
            forms.append(LinearForm(n, {(j, n): 1}))
    else:
        for entry in _tabledata.binf_parametric(type_label, rank):
            for j in range(1, rows + 1):
                forms.append(LinearForm(
                    n, {(j + off, col): c for (off, col), c in entry.items()}))
    return FormSet(forms)


def _lf(n, terms):
    """The form sum c*x_{j;i} over (c, j, i) triples through the validating
    constructor; columns outside 1..n are dropped, coefficients on one
    cell add up."""
    d = {}
    for c, j, i in terms:
        if 1 <= i <= n and c != 0:
            d[(j, i)] = d.get((j, i), 0) + c
    return LinearForm(n, d)


def check_pattern(type_label, n, mu):
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
    """Pattern-sum member of the short-node family, types B and C, for
    any pattern: the package's terms (`tables._spin_terms`) after the
    pattern check, through the validating constructor.

    sum_k X_{mu_k+k-1; n-mu_k} - X_{mu_k+k-1; n-mu_k+1}, one extra +X_{L;n}
    term when the pattern does not end in 1; X doubles every column except
    n for type B and nothing for type C.
    """
    if type_label not in ("B", "C"):
        raise UnsupportedTableError("spin_form is for types B and C")
    check_pattern(type_label, n, mu)
    weight = [1] * (n + 1) if type_label == "C" else [2] * n + [1]
    return _lf(n, _spin_terms(weight, n, mu))


def d_spin_form(n, mu, primed=False):
    """Pattern-sum member of the fork-node families, type D, for any
    pattern: `tables._d_spin_terms` after the pattern check.

    Columns n-1 and n swap on even rows (odd rows for the primed family);
    patterns not ending in 1 pick up an extra +X_{L;n} term.
    """
    check_pattern("D", n, mu)
    return _lf(n, _d_spin_terms(n, mu, primed))


def chain_family(n, i):
    """First-occurrence family for a chain node: x_{j;i-j} - x_{j;i-j+1}
    down the antidiagonal, ending in -x_{i;1}."""
    return [_lf(n, terms) for terms in _chain_terms(n, i)]


# crystal axioms -------------------------------------------------------------

def any_weight_node(iota, x, lam, table=None):
    """x (x) r_lam for any integral lam.  CrystalNode refuses a lam that is
    not dominant, but its tensor rule holds for every lam, and the weights
    the corruptions bend may go below 0; the node's f_i and e_i keep it.
    A `table` given is the node's signature table in place of its scan."""
    node = CrystalNode(iota, x)
    node.lam = lam
    node._table = table
    return node


def axiom_input(iota, vectors, lam, edges=None):
    """The plain data polytope._axiom_report reads, for the ZVectors of
    the list `vectors` in its order: a zcrystal.Store whose set they are,
    and the f_i steps (a, i, b) as its indices.

    Given `edges`, steps (x, i, y) between ZVectors, they are read by key,
    and an end out of the set gets an index after it, one per key.
    Without, the steps are made here: every step out of the set on which
    f_i acts (all of them for lam None, else phi_i(x) + lam_i > 0), one
    zcrystal.f_tilde call each, the targets one instance per key.  This
    is the f-pass the check made itself for callers without a list.
    Each key's table is scanned once, by signature_table.
    """
    index, keys, tables = {}, [], []

    def at(x):
        a = index.get(x.key())
        if a is None:
            a = index[x.key()] = len(keys)
            keys.append(x.key())
            tables.append(signature_table(iota, x))
        return a

    for x in vectors:
        at(x)
    size = len(keys)
    if edges is None:
        edges = []
        for x in vectors:
            t = tables[at(x)]
            for p in range(iota.rank):
                if lam is None or t[2 + p] + t[1][p] + lam[p] > 0:
                    edges.append((x, p + 1, zcrystal_module.f_tilde(
                        iota, x, p + 1)))
    steps = [(at(x), i, at(y)) for x, i, y in edges]
    return Store(keys, tables, size), steps


def string_walk_report(iota, vectors, lam, tables=None):
    """Reference: the axiom check that applies the operators again, with
    f_i on every node, e_i on every child and a walk up every e_i-string.
    `tables` maps a vector to the signature table its nodes take in place
    of their scan.  Returns (passed, witnesses)."""
    stored = {x: x for x in vectors}
    tables = tables or {}

    def node_of(x):
        return any_weight_node(iota, x, lam, tables.get(x))

    def reuse(node):
        if node is None:
            return None
        return node_of(stored.get(node.vector, node.vector))

    witnesses = []
    tops = 0
    for x in sorted(vectors, key=ZVector.key):
        node = node_of(x)
        if all(node.e(i) is None for i in range(1, iota.rank + 1)):
            tops += 1
        for i in range(1, iota.rank + 1):
            child = reuse(node.f(i))
            if child is not None:
                back = child.e(i)
                if back is None or back.vector != x:
                    witnesses.append("e_%d(f_%d %r) != id" % (i, i, x))
                want = list(weight_root_coords(x, iota.rank))
                want[i - 1] -= 1
                if list(weight_root_coords(child.vector,
                                           iota.rank)) != want:
                    witnesses.append("wt(f_%d %r) != wt - alpha_%d"
                                     % (i, x, i))
            if node.phi(i) != node.epsilon(i) + node.weight_pairing(i):
                witnesses.append("phi != eps + <h_%d, wt> at %r" % (i, x))
            if lam is not None:
                string = 0
                up = reuse(node.e(i))
                while up is not None and string <= len(vectors):
                    string += 1
                    up = reuse(up.e(i))
                if string != node.epsilon(i):
                    witnesses.append("eps_%d(%r) != e-string length" % (i, x))
    if lam is not None and tops != 1:
        witnesses.append("%d highest-weight nodes" % tops)
    return not witnesses, witnesses

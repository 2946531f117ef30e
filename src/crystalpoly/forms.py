"""Linear forms on Z^infinity and the piecewise-linear substitution closure.

A LinearForm is an integer combination of coordinates x_{j;i}, an optional
combination of the highest-weight coordinates lambda_1..lambda_n, and an
integer constant.  The operator S_k replaces a form phi by

    phi - phi_k * beta_k        if phi_k > 0,
    phi - phi_k * beta_{k^-}    if phi_k <= 0,

where beta_k = x_k + sum_{k<l<k^+} a_{i_k,i_l} x_l + x_{k^+} and k^- = k - n
is the previous position of the same colour; when phi_k < 0 and k lies in
the first row (no k^-), the form is left unchanged.  Closing generator
sets under S produces the inequality systems realizing B(infinity) and
B(lambda).  Positivity and strict positivity are read off the closed
family: its pairs (phi, k) of a first-row position k with phi_k < 0 are
exactly the steps left unchanged (`first_row_negatives`).

The paper cuts out B(lambda) with the hatted variant S^_k, which on
first-row positions uses instead the lambda-dependent substitute

    beta^-_{(1;i)} = -lambda_i + sum_{p<i} a_{i,p} x_{1;p} + x_{1;i},

and closes the seeds lambda^(i) = lambda_i + xi^(i) under it.  Under
strict positivity that closure is the S-closure of lambda^(i) (proof in
`node_family`), so the package runs S only.  Strict positivity is thus a
precondition of the closure-source B(lambda) system, and `node_family`
raises where it fails.

A form holds its coordinate part on flat positions k = (j-1)*n + i only,
as sorted (k, coeff) pairs; since flat order is (row, column) order, its
key sorts like the (row, column) one.  `(j, i)` cells are accepted by the
constructor (through `rootdata.flat_cells`, as for ZVector) and come back
only in `coeffs`, `coeff` and the renderings (through
`rootdata.cell_triples`).

`beta` states beta_k one row at a time.  `closure` runs the S steps on
the flat keys, with the rows beta_1..beta_n compiled once per call, every
other row a shift of one of them, and each step looked up as one packed
integer.
"""

from bisect import bisect_left
from itertools import groupby
from operator import attrgetter, itemgetter, mul
from types import MappingProxyType

from .rootdata import CapExceeded, cap_limit, cell_triples, flat_cells


class LinearForm:
    """sum c_k x_k + sum l_m lambda_m + const, exact integers, on flat
    positions k = (j-1)*rank + i.

    `terms` is the coordinate part as (k, coeff) pairs, k ascending, no
    zero coefficient; `lam` the lambda part (one entry per column) and
    `const` the constant.  `key()` is (terms, lam, const); equality,
    hashing and the FormSet order use it.  The constructor takes the
    coordinate part as ((row, column), coeff) items and rejects cells
    outside rows >= 1 and columns 1..rank, which would alias another
    flat position, a lambda part without one entry per column, and
    coefficients that are not ints.
    """

    __slots__ = ("rank", "terms", "lam", "const", "_key")

    def __init__(self, rank, coeffs=(), lam=None, const=0):
        terms = flat_cells(rank, coeffs)
        lam = tuple(lam) if lam is not None else (0,) * rank
        if len(lam) != rank:
            raise ValueError("lambda part has %d entries, rank is %d"
                             % (len(lam), rank))
        for v in lam:
            if not isinstance(v, int):
                raise ValueError("lambda part holds %r, not an int" % (v,))
        if not isinstance(const, int):
            raise ValueError("constant %r is not an int" % (const,))
        self.rank = rank
        self.terms = terms
        self.lam = lam
        self.const = const
        self._key = (terms, lam, const)

    @property
    def coeffs(self):
        """Read-only {(row, column): coeff} view of the coordinate part."""
        return MappingProxyType({(j, i): c for j, i, c
                                 in cell_triples(self.rank, self.terms)})

    def key(self):
        return self._key

    def is_zero(self):
        return not self.terms and not any(self.lam) and self.const == 0

    def coeff(self, j, i):
        if j < 1 or not 1 <= i <= self.rank:
            return 0
        return dict(self.terms).get((j - 1) * self.rank + i, 0)

    def shift_rows(self, delta):
        """Same form `delta` rows deeper (coordinate part only)."""
        if any(self.lam) or self.const:
            raise ValueError("only a form without lambda part or constant "
                             "shifts rows")
        off = delta * self.rank
        if self.terms and self.terms[0][0] + off < 1:
            raise ValueError("shifting by %d rows leaves row 1" % delta)
        return _form(self.rank, (tuple((k + off, c) for k, c in self.terms),
                                 self.lam, 0))

    def evaluate(self, x, lam_values=None, d=0):
        """Value at a ZVector or {(j, i): v} x, binding lambda if present.
        With `d`, that of self.shift_rows(d), without making it: each
        term (k, c) reads x at flat position k + d*rank.

        Raises ValueError for a ZVector of another rank, for a cell of x
        outside rows >= 1 and columns 1..rank (`flat_cells`), and for
        lambda values that are not one per column: each would read one
        flat position or lambda as another."""
        n = self.rank
        if isinstance(x, dict):
            values = dict(flat_cells(n, x))
        elif x.rank != n:
            raise ValueError("vector has rank %d, form has rank %d"
                             % (x.rank, n))
        else:
            values = dict(x.key())
        off = d * n
        total = self.const + sum(c * values.get(k + off, 0)
                                 for k, c in self.terms)
        if lam_values is not None and len(lam_values) != n:
            raise ValueError("%d lambda values given, rank is %d"
                             % (len(lam_values), n))
        if any(self.lam):
            if lam_values is None:
                raise ValueError("form depends on lambda; no values given")
            total += sum(l * v for l, v in zip(self.lam, lam_values))
        return total

    def __eq__(self, other):
        return isinstance(other, LinearForm) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "LinearForm(%s)" % (render_form(self),)


def _form(rank, key):
    """The LinearForm with key `key`: (terms, lam, const) with the terms
    already flat, sorted and free of zero coefficients."""
    f = LinearForm.__new__(LinearForm)
    f.rank = rank
    f.terms, f.lam, f.const = key
    f._key = key
    return f


# the {j, i, c} term of a form and the {j, i, v} entry of a point in the
# CLI's JSON documents, each indented as an element of its list
_TERM_JSON = ('        {\n          "j": %d,\n          "i": %d,\n'
              '          "c": %d\n        }')
_ENTRY_JSON = ('      {\n        "j": %d,\n        "i": %d,\n'
               '        "v": %d\n      }')
_TEXT_MEMO = 4096               # pairs kept per rank


class TermTexts(dict):
    """(k, value) -> the texts of the pair at one rank, made on first use
    and read by the getters below: render_form's later and first term
    ("- 2*x[j;i]", "-2*x[j;i]"), _TERM_JSON, _ENTRY_JSON and "x[j;i]=v".
    Each distinct pair is formatted once: the `emit-closure` closures hold
    94,031 terms, 335 distinct.  One per rank (TERM_TEXTS), bounded."""

    __slots__ = ("rank",)

    def __init__(self, rank):
        super().__init__()
        self.rank = rank

    def __missing__(self, pair):
        if len(self) >= _TEXT_MEMO:
            self.clear()
        (j, i, v), = cell_triples(self.rank, (pair,))
        cell = "x[%d;%d]" % (j, i)
        later = _signed(v, cell)
        # a fresh key: `pair` would pin the memory of its form or vector
        texts = self[pair[0], v] = (
            later, later[2:] if v > 0 else "-" + later[2:],
            _TERM_JSON % (j, i, v), _ENTRY_JSON % (j, i, v), "%s=%d" % (cell, v))
        return texts


_LATER, FIRST, TERM_JSON, ENTRY_JSON, ENTRY_TEXT = map(itemgetter, range(5))


class _RankTables(dict):
    def __missing__(self, rank):
        table = self[rank] = TermTexts(rank)
        return table


TERM_TEXTS = _RankTables()      # rank -> its TermTexts


def render_form(form, d=0):
    """Human-readable rendering, canonical term order: the lambda part,
    the coordinates in flat order, then the constant.  A form without a
    lambda part or constant is its terms' first and later texts joined.
    With `d`, that of form.shift_rows(d), without making it: each term
    (k, c) is read at (k + d*rank, c)."""
    texts = TERM_TEXTS[form.rank]
    terms = form.terms
    if d:
        off = d * form.rank
        terms = [(k + off, c) for k, c in terms]
    if not (form.const or any(form.lam)):
        if not terms:
            return "0"
        return " ".join([FIRST(texts[terms[0]]),
                         *map(_LATER, map(texts.__getitem__, terms[1:]))])
    out = [_signed(l, "L%d" % m)     # each term as "+ ..." or "- ..."
           for m, l in enumerate(form.lam, start=1) if l]
    out += map(_LATER, map(texts.__getitem__, terms))
    const = form.const
    if const:
        out.append("- %d" % -const if const < 0 else "+ %d" % const)
    head = out[0]
    out[0] = head[2:] if head[0] == "+" else "-" + head[2:]
    return " ".join(out)


def _signed(c, name):
    """The term c*name (c != 0) as "+ ..." or "- ...", with a magnitude 1
    left out."""
    if c < 0:
        return "- " + name if c == -1 else "- %d*%s" % (-c, name)
    return "+ " + name if c == 1 else "+ %d*%s" % (c, name)


_KEY = attrgetter("_key")


class FormSet:
    """An immutable set of LinearForms, iterated in key order.

    Zero forms are dropped; of equal forms the first given is kept.  The
    sort runs on the C-level key `_KEY`, so forms given in key order cost
    one linear pass.
    """

    __slots__ = ("forms",)

    def __init__(self, forms=()):
        ordered = sorted((f for f in forms if not f.is_zero()), key=_KEY)
        # equal forms are adjacent now, in the order given
        self.forms = tuple(next(run) for _, run in groupby(ordered, _KEY))

    def __iter__(self):
        return iter(self.forms)

    def __len__(self):
        return len(self.forms)

    def __contains__(self, form):
        if not isinstance(form, LinearForm):
            return False
        at = bisect_left(self.forms, form._key, key=_KEY)
        return at < len(self.forms) and self.forms[at] == form

    def __eq__(self, other):
        """Equal as sets of forms: both are sorted and free of duplicates,
        so this is equality of their key lists, compared in C without a
        LinearForm.__eq__ call per form."""
        if not isinstance(other, FormSet):
            return False
        mine, theirs = self.forms, other.forms
        return len(mine) == len(theirs) and \
            list(map(_KEY, mine)) == list(map(_KEY, theirs))

    def __hash__(self):
        # a form hashes as its key, so equal key lists hash alike
        return hash(self.forms)

    def __repr__(self):
        return "FormSet(%d forms)" % len(self.forms)


def beta(iota, k):
    """beta_k = x_k + sum_{k<l<k^+} a_{i_k,i_l} x_l + x_{k^+}, by rows:
    x_{j;i} + sum_{p>i} a_{i,p} x_{j;p} + sum_{p<i} a_{i,p} x_{j+1;p}
    + x_{j+1;i}."""
    n = iota.rank
    a = iota.cartan.a
    j, i = iota.rowcol(k)
    d = {(j, i): 1, (j + 1, i): 1}
    for p in range(i + 1, n + 1):
        if a(i, p):
            d[(j, p)] = a(i, p)
    for p in range(1, i):
        if a(i, p):
            d[(j + 1, p)] = a(i, p)
    return LinearForm(n, d)


def xi_form(iota, i):
    """Row-1 seed of the node-i family: -sum_{p<i} a_{i,p} x_{1;p} - x_{1;i}."""
    n = iota.rank
    a = iota.cartan.a
    d = {(1, i): -1}
    for p in range(1, i):
        if a(i, p):
            d[(1, p)] = -a(i, p)
    return LinearForm(n, d)


def lambda_form(iota, i):
    """lambda_i + xi^(i): the seed whose S^-closure cuts out B(lambda);
    where the node-i family is strictly positive that is its S-closure,
    `node_family`."""
    base = xi_form(iota, i)
    lam = tuple(1 if m == i else 0 for m in range(1, iota.rank + 1))
    return _form(iota.rank, (base.terms, lam, 0))


def _same_rank(iota, form):
    """Raises ValueError for a form of another rank than iota's, whose
    flat positions name other cells there."""
    if form.rank != iota.rank:
        raise ValueError("form has rank %d, iota has rank %d"
                         % (form.rank, iota.rank))


def closure(iota, generators):
    """Close `generators` under the substitution operator S.

    Operators are applied at every support position (they fix forms with
    zero coefficient, so this loses nothing).  Zero forms are dropped.
    Since every member is stepped at every support position, the steps
    that leave a form unchanged, for want of a row below the first, are
    exactly the pairs (f, (1;i)) of a member f with f_{1;i} < 0: the
    `first_row_negatives` of the family returned.  Raises ValueError for
    a generator whose rank is not iota's, and CapExceeded past the
    "closure" cap (`rootdata.CAPS`).

    The worklist runs on form keys (sorted (k, coeff) pairs, lam, const).
    A step at k with coefficient c > 0 subtracts beta_k, and one with
    c < 0 subtracts beta_{k-n} (n the rank), or is the first-row no-op
    when k - n < 1.  The rows beta_1..beta_n are compiled once per call with
    `beta`.  beta_m for m = d*n + i is beta_i shifted d rows: by its
    definition its cells are those of beta_i with d rows added, d*n added
    to each flat position.  Each is made on first use and kept by m.  No
    row has a lambda part or a constant, so a step changes only the
    coordinate part, and every form keeps the lambda part and constant of
    the generator it was reached from.

    Most steps give a form already seen (94,031 steps give 16,405 forms
    on the `emit-closure` benchmark families), so each form in the
    worklist also carries one packed integer, and so does each row: the
    form's fields as signed base-2^W digits, field 0 the constant, fields
    1..n lambda_1..lambda_n and field n+k flat position k.  Packing is
    linear, so a step at k with coefficient c packs to F - c*R for the
    packed form F and row R, one multiply and subtract, and it is looked
    up among the packed forms seen.  The lookup is exact while every
    stored form keeps every field below 2^(W-3) in absolute value: c is
    one of those fields and a row entry is at most 3 in absolute value
    (Cartan entries are >= -3, a row has constant 0), so every field of
    F - c*R lies below 2^(W-3) + 3*2^(W-3) = 2^(W-1), and on such fields
    the balanced base-2^W digits are unique.  Distinct forms thus pack to
    distinct integers, and the zero form to 0.  The bound is checked on
    the generators and on each field a step changes in a new form; a form
    that breaks it makes the call start again with W doubled, from W = 8.
    The worklist order does not depend on W, so the new run meets the old
    one's steps and cap count again, in the same order, and then goes on
    past them.

    Only a step that gives a new form copies the popped key's terms,
    held as a dict while its steps run, subtracts the row and sorts.  A
    new key's (k, coeff) pairs are the instances first met, shared by
    every key that holds them: there are a few hundred distinct pairs
    against over a million terms on the E8 node-8 family.  The packed
    integers live only inside this call.  The LinearForms are made at the
    end, each holding its key as it is (a generator is returned as the
    instance given), and FormSet sorts them once, on the keys.
    """
    cap = cap_limit("closure")
    generators = tuple(generators)
    for g in generators:
        _same_rank(iota, g)
    first = [beta(iota, i).terms for i in range(1, iota.rank + 1)]
    width = 8
    while True:
        forms = _worklist(generators, first, cap, width)
        if forms is not None:
            return FormSet(forms)
        width *= 2


def _worklist(generators, first, cap, width):
    """The forms of `closure`, with `first` the terms of beta_1..beta_n,
    run on fields `width` bits wide, or None as soon as a form would hold
    a field of 2^(width-3) or more in absolute value."""
    n = len(first)
    lim = 1 << (width - 3)
    rows = {}                   # m -> (terms, packed) of beta_m

    def pack(terms, lam, const):
        packed = const
        for m, v in enumerate(lam, 1):
            packed += v << width * m
        for k, c in terms:
            packed += c << width * (n + k)
        return packed

    seen = {}                   # packed form -> its key
    given = {}                  # packed generator -> the instance given
    share = {}.setdefault       # one instance per (k, coeff) pair
    queue = []                  # packed forms
    for g in generators:
        if g.is_zero():
            continue
        key = g.key()
        terms, lam, const = key
        if not all(-lim < v < lim
                   for v in (const, *lam, *dict(terms).values())):
            return None
        packed = pack(terms, lam, const)
        if packed not in seen:
            seen[packed] = key
            given[packed] = g
            queue.append(packed)
    while queue:
        packed = queue.pop()
        terms, lam, const = seen[packed]
        parent = None
        for k, c in terms:
            m = k if c > 0 else k - n
            if m < 1:
                continue        # the first-row no-op
            row = rows.get(m)
            if row is None:
                off = (m - 1) // n * n
                pairs = tuple((p + off, b) for p, b in first[m - off - 1])
                row = rows[m] = pairs, pack(pairs, (), 0)
            pairs, row_packed = row
            cand = packed - c * row_packed
            if not cand or cand in seen:
                continue
            if parent is None:
                parent = dict(terms)
            d = parent.copy()
            for p, b in pairs:
                v = d.get(p, 0) - c * b
                if not v:
                    del d[p]
                elif -lim < v < lim:
                    d[p] = v
                else:
                    return None
            new = sorted(d.items())
            seen[cand] = (tuple(map(share, new, new)), lam, const)
            queue.append(cand)
            if len(seen) > cap:
                raise CapExceeded(
                    "closure", cap, len(seen), "closure",
                    " while closing %s under S; runaway system?"
                    % render_form(generators[0]))
    return [given[p] if p in given else _form(n, key)
            for p, key in seen.items()]


def node_family(iota, i):
    """The B(lambda) family of node i: the S-closure of lambda^(i) =
    lambda_i + xi^(i), which is its S^-closure.  Raises ValueError,
    naming node i and a form, when the family has a first-row pair other
    than the seed's own (lambda^(i), (1;i)), that is, when it is not
    strictly positive.

    Proof that the two closures agree when (sigma, (1;i)) is the only
    first-row pair.  Write sigma = lambda^(i) and C for its S-closure.
    An S step never touches the lambda part (no beta row has one), so
    every member of C has lambda part lambda_i and none is the zero form.
    S_k and S^_k take the same step on a form phi unless k = (1;m) and
    phi_k < 0, that is, unless (phi, k) is a first-row pair; for phi in C
    these are `first_row_negatives(C)`, so (sigma, (1;i)) is the only one.
    There S^_(1;i) sigma = sigma + beta^-_(1;i) = 0, since the x_{1;i} and
    lambda_i coefficients of sigma are -1 and 1 and its x_{1;p}
    coefficient, p < i, is -a_{i,p}: the zero form, which a closure
    drops.  So C together with 0 is closed under every S^_k,
    and the S^-closure lies in C.  Conversely each member of C is
    reached from sigma by steps S_k phi != phi; none of them is taken at
    a first-row pair (S leaves the form unchanged there), so each is also
    the step S^_k phi, and C lies in the S^-closure.
    """
    seed = lambda_form(iota, i)
    family = closure(iota, [seed])
    for form, k in first_row_negatives(family):
        if k != i or form != seed:
            raise ValueError(
                "node %d is not strictly positive: %s, in the S-closure "
                "of %s, has coefficient %d at x[1;%d], so closing it "
                "does not give the B(lambda) family"
                % (i, render_form(form), render_form(seed),
                   form.coeff(1, k), k))
    return family


def first_row_negatives(forms):
    """The pairs (f, k) of a form f in `forms` and a first-row position
    k <= rank with f's coefficient there negative, in the order of
    `forms`, then k.

    A form's terms are sorted, first-row positions 1..rank first, so the
    scan of a form stops at its first term below row 1: a form whose
    first term lies there, as most shifted forms do, costs one test."""
    for f in forms:
        n = f.rank
        for k, c in f.terms:
            if k > n:
                break
            if c < 0:
                yield f, k


def check_positivity(formset):
    """Forms with a negative first-row coefficient (empty = condition
    holds), in the order of `formset`: the forms of its
    `first_row_negatives`, each once."""
    return [f for f, _ in groupby(first_row_negatives(formset),
                                  itemgetter(0))]


def check_strict_positivity(xi_closure, xi_i_closures, iota):
    """Violations of the strict condition: every member of the B(infinity)
    family and of each node family — except the row-1 seeds, xi^(i) or
    lambda^(i), themselves — must have nonnegative first-row
    coefficients.  A node family may be the S-closure of either seed:
    first-row coefficients do not depend on the lambda part, which no S
    step changes."""
    seeds = {seed(iota, i) for i in range(1, iota.rank + 1)
             for seed in (xi_form, lambda_form)}
    bad = check_positivity(xi_closure)
    for _, fs in sorted(xi_i_closures.items()):
        bad.extend(f for f in check_positivity(fs) if f not in seeds)
    return bad


def check_ample(formset, lam):
    """Forms whose constant part is negative at lambda (empty = ample);
    raises ValueError unless lam has one entry per column."""
    n = len(lam)
    bad = []
    for f in formset:
        if f.rank != n:
            raise ValueError("%d lambda values given, rank is %d"
                             % (n, f.rank))
        if f.const + sum(map(mul, f.lam, lam)) < 0:
            bad.append(f)
    return bad

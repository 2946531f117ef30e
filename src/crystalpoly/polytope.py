"""Polyhedral crystal models: assembly, membership, lattice-point
enumeration, crystal graphs, and the verification harness.

A Polyhedron is a finite presentation of a conceptually infinite
inequality system: blocks, each a row-1 family with a shift count R that
stands for its shifts by 0..R-1 rows, together with the region of
coordinates not forced to vanish by the row shifts, found exactly as one
threshold row per column (`_zero_region`).  The B(infinity) block shifts
its family down to the last live row, that of the region's deepest cell;
a B(lambda) node family is a block with R = 1.  A vector belongs to the
model iff its support lies inside the region and every form is
nonnegative on it; the shifts below the last live row touch only
forced-zero coordinates, so the finite test loses nothing.
"""

from itertools import chain, groupby, repeat
from operator import add, attrgetter, itemgetter, mul

from .forms import (FormSet, LinearForm, check_ample, check_positivity,
                    check_strict_positivity, closure, node_family,
                    render_form)
from .rootdata import CapExceeded, cap_limit, cell_triples, check_depth, \
    check_dominant, longest_word_length, weight_string_budget, weyl_dim
from .tables import UnsupportedTableError, binf_block, xi_first_tables
from .zcrystal import IotaSequence, ZVector, generate_binf, generate_blambda


_TAIL = attrgetter("lam", "const")


class RealizationError(ValueError):
    """A model could not be assembled or enumerated; carries the
    offending forms or vectors when there are any."""

    def __init__(self, message, witnesses=()):
        super().__init__(message)
        self.witnesses = tuple(witnesses)


def _zero_region(parametric, n):
    """(live flat positions ascending, last live row) for the shifted system.

    `parametric` is the inequality family seeded at row 1; its shifts by
    every row offset d >= 0 make up the system.  A coordinate is forced
    to vanish when some inequality with no surviving positive term caps
    it: if every positive cell of a shifted form is forced, its negative
    cells must vanish too (the system pins them between 0 and 0).  The
    forced set F is the least set closed under this rule, and the region
    is its complement.

    F is closed under moving one row deeper.  Let F' be the cells whose
    one-row-deeper cell lies in F.  If every positive cell of the form f
    shifted by d lies in F', then every positive cell of f shifted by
    d + 1 lies in F, so its negative cells do too, and those of f shifted
    by d lie in F': F' is closed, so F, the least closed set, lies in F'.
    Each column c of F is therefore the rows from some t[c] on (0-based;
    `first` in the code), t[c] = None when none is forced, and F is
    described by n integers.

    For thresholds t, form f fires at every shift d >= d* (`shift`), d* =
    max(0, max over its positive cells (r, c) of t[c] - r), and at no
    shift when one of those t[c] is None; firing forces its negative
    cells (r', c') from row r' + d* on.  A set of this shape is closed
    iff t[c'] <= r' + d* for every form that fires and each of its
    negative cells.  The sweep starts from t = None everywhere (nothing
    forced) and lowers t[c'] to r' + d* until no form lowers any t.
    Every cell it forces lies in F: by induction, the current set lies in
    F, so a form that fires on it fires on F too, and F holds what it
    forces.  Each t[c] leaves None at most once and then only falls,
    staying >= 0, so the sweep ends; then no form lowers any t, so the set
    is closed and holds F.  It is therefore F: the greatest
    feasible t, the least forced set.

    A column that is never forced leaves the region infinite, which
    raises RealizationError naming the column.
    """
    forms = []
    for form in parametric:
        pos, neg = [], []
        for j, i, c in cell_triples(n, form.terms):
            (pos if c > 0 else neg).append((j - 1, i - 1))
        forms.append((pos, neg))
    first = [None] * n
    changed = True
    while changed:
        changed = False
        for pos, neg in forms:
            shift = 0
            for r, c in pos:
                if first[c] is None:
                    break
                shift = max(shift, first[c] - r)
            else:
                for r, c in neg:
                    if first[c] is None or r + shift < first[c]:
                        first[c] = r + shift
                        changed = True
    if None in first:
        raise RealizationError(
            "column %d is never forced to 0: the zero region is infinite"
            % (first.index(None) + 1))
    region = sorted((j - 1) * n + i for i, t in enumerate(first, 1)
                    for j in range(1, t + 1))
    return tuple(region), max(first)


def _binf_blocks(frame, source):
    """The B(infinity) system of `frame`'s datum as blocks (`Polyhedron`):
    `tables.binf_block`, or the row-1 family `frame.family1` (with the
    fork coordinates x_{1;n-1}, x_{1;n} for D) shifted 0..cutoff-1 rows.

    The latter is the S-closure of the generators x_{j;1}, j = 1..cutoff:
    the closure of a union of generators is the union of their closures,
    and S_k commutes with shifting by d rows (S_{k+dn} of the shifted form
    is the shifted S_k of the form) except where S_k is the first-row
    no-op, which the shifted form does not have.  That no-op fires only
    on a negative first-row coefficient, so the shifts are the closure
    whenever `family1` is positive; when it is not, `build` rejects the
    system anyway, since the d = 0 shift is `family1` itself.
    """
    cartan = frame.cartan
    if source == "table":
        return (binf_block(cartan.type_label, cartan.rank),)
    if source != "closure":
        raise ValueError("source must be 'table' or 'closure'")
    n = cartan.rank
    family = frame.family1
    if cartan.type_label == "D":
        # the fork columns are invisible to the substitution orbit of the
        # first column; the defining system adjoins them as coordinates
        family = FormSet(chain(family, (LinearForm(n, {(1, i): 1})
                                        for i in (n - 1, n))))
    return ((family, frame.cutoff),)


def _unshifted(check, blocks, *args):
    """The forms `check`, check_positivity or check_ample, finds in the
    system of `blocks`, in key order, each once, read on the families: a
    shift by d >= 1 rows has no first-row cell and is 0 at 0."""
    return list(FormSet(f for forms, _ in blocks for f in check(forms, *args)))


def _tails(blocks):
    """Per block, the set of its forms' (lambda part, constant) pairs."""
    return [set(map(_TAIL, forms)) for forms, _ in blocks]


def _block_pairs(forms, rows, n):
    """The (f, d) pairs of one block in key order, each distinct form
    once, ordered on (K, shape rank) as `Polyhedron.pairs` proves."""
    if rows == 1:
        return list(zip(forms, repeat(0)))
    shapes = []
    for f in forms:
        terms = f.terms
        up = (terms[0][0] - 1) // n * n
        shapes.append(tuple([(k - up, c) for k, c in terms]) if up
                      else terms)
    ranks = {shape: r for r, shape in enumerate(sorted(set(shapes)))}
    size = len(ranks)
    firsts = [f.terms[0][0] * size + ranks[shape]
              for f, shape in zip(forms, shapes)]
    step = n * size
    keyed = dict(zip(
        chain.from_iterable(map((d * step).__add__, firsts)
                            for d in range(rows)),
        chain.from_iterable(zip(forms, repeat(d)) for d in range(rows))))
    return list(map(keyed.__getitem__, sorted(keyed)))


class Polyhedron:
    """Finite presentation of one inequality model ("binf" or "blambda");
    `region` holds the live flat positions, ascending.

    `blocks` are (FormSet, R) pairs that stand for the forms
    f.shift_rows(d), f in the set, 0 <= d < R (R = 1 where a form has a
    lambda part or a constant).  No shifted form is made: `pairs` gives
    the system in key order as (f, d) pairs, and `count`, `contains` and
    the enumeration read the blocks."""

    __slots__ = ("cartan", "object", "source", "blocks", "region", "lam")

    def __init__(self, cartan, object_, source, blocks, region, lam=None):
        self.cartan = cartan
        self.object = object_
        self.source = source
        self.blocks = tuple(blocks)
        self.region = tuple(sorted(region))
        self.lam = lam

    def pairs(self):
        """The system as a list of (f, d) pairs, each the form
        f.shift_rows(d) of a block form f and a shift d < R: every
        distinct form once, in FormSet key order, and none made.

        A block with R > 1 holds forms without lambda part or constant,
        so its key order is the order of the terms, compared pair by pair
        on (k, c).  Two facts order it without a shifted form:
        - A row shift keeps a sorted run sorted.  Shifting by d adds d*n
          to every position; (k, c) -> (k + d*n, c) is injective and keeps
          the order of pairs, so two term tuples compare alike, equal,
          less or a prefix, before and after.
        - Among forms with the same first position K, order by shape
          equals order by key.  The shape of a form is the form moved up
          until its first term lies in row 1 (`count`); forms with first
          position K both lie row(K) - 1 rows below their shapes, so by
          the first fact they compare as their shapes do.
        Forms with first positions K < K' compare as K and K' at their
        first pair.  So the pairs sorted on (K, shape rank), with
        K = k0 + d*n for f's first position k0, are in key order, and
        equal (K, shape rank) name equal forms, which are kept once.  The
        sort reads one int per pair, K * (shape count) + rank, and the
        keys come d outer, so it merges R sorted runs.

        Several blocks (B(lambda): the B(infinity) block and its R = 1
        node families) are merged on keys, only a pair with d > 0 having
        its key made: each block's pairs are a sorted run, so the sort
        merges the runs.  Equal forms have equal (lambda part, constant)
        pairs, so only where two blocks share such a pair (`_tails`) can
        they hold one form; then equal keys, adjacent once sorted, are
        kept once."""
        n = self.cartan.rank
        runs = [_block_pairs(forms, rows, n) for forms, rows in self.blocks]
        if len(runs) == 1:
            return runs[0]
        pairs = list(chain.from_iterable(runs))
        keys = [(tuple([(k + d * n, c) for k, c in f.terms]), f.lam, f.const)
                if d else f._key for f, d in pairs]
        order = sorted(range(len(pairs)), key=keys.__getitem__)
        tails = _tails(self.blocks)
        if sum(map(len, tails)) > len(set().union(*tails)):
            order = [next(run) for _, run in groupby(order, keys.__getitem__)]
        return list(map(pairs.__getitem__, order))

    def count(self):
        """The number of distinct forms of the system, the length of
        `pairs`, without ordering them.  A form moved up o rows, until its
        first term lies in row 1, is its shape; f.shift_rows(d) is f's
        shape at offset o + d, so each shape counts the union of the
        offset ranges [o, o + R) of its forms.  A block with R = 1 whose
        (lambda part, constant) pairs meet no other block's counts its
        length: a FormSet holds no duplicates."""
        n = self.cartan.rank
        tails = _tails(self.blocks)
        total, offsets = 0, {}          # shape -> its offsets
        for at, (forms, rows) in enumerate(self.blocks):
            if rows == 1 and not any(tails[at] & other for other
                                     in tails[:at] + tails[at + 1:]):
                total += len(forms)
                continue
            for f in forms:
                o = (f.terms[0][0] - 1) // n if f.terms else 0
                shape = (tuple((k - o * n, c) for k, c in f.terms), f.lam,
                         f.const)
                offsets.setdefault(shape, set()).update(range(o, o + rows))
        return total + sum(map(len, offsets.values()))

    def contains(self, x):
        """Whether x, a ZVector or {(row, column): value}, is a point: its
        support lies in the region, and each block form f is nonnegative
        at every shift d < R, read at the flat positions k + d*n of x
        (`LinearForm.evaluate`).  Raises ValueError for a ZVector of
        another rank, whose flat positions name other cells at this
        rank."""
        n = self.cartan.rank
        if not isinstance(x, ZVector):
            x = ZVector(n, x)
        elif x.rank != n:
            raise ValueError("vector has rank %d, model has rank %d"
                             % (x.rank, n))
        return set(self.region).issuperset(k for k, _ in x.key()) and \
            all(f.evaluate(x, self.lam, d) >= 0 for forms, rows in self.blocks
                for f in forms for d in range(rows))

    def __repr__(self):
        lam = "" if self.lam is None else ", lam=%s" % (self.lam,)
        return "Polyhedron(%s%d, %s, %s, %d forms%s)" % (
            self.cartan.type_label, self.cartan.rank, self.object,
            self.source, self.count(), lam)


class _Frame:
    """What every model of one Cartan datum shares: the reduced word, the
    S-closure of x_{1;1} (the row-1 B(infinity) family), the zero region
    of all its row shifts with the last live row (`_zero_region`, exact,
    no window), and the node families of B(lambda), closed on first use."""

    __slots__ = ("cartan", "iota", "family1", "region", "cutoff", "_nodes")

    def __init__(self, cartan):
        self.cartan = cartan
        self.iota = IotaSequence(cartan)
        n = cartan.rank
        self.family1 = closure(self.iota, [LinearForm(n, {(1, 1): 1})])
        self.region, self.cutoff = _zero_region(self.family1, n)
        self._nodes = None

    def node_families(self):
        """{node i: `forms.node_family(iota, i)`}, the S-closure of
        lambda^(i), closed once per frame; raises ValueError where a
        family is not strictly positive."""
        if self._nodes is None:
            self._nodes = {i: node_family(self.iota, i)
                           for i in range(1, self.cartan.rank + 1)}
        return self._nodes


def build(cartan, object_="binf", lam=None, source="closure", frame=None):
    """Assemble the inequality model for B(infinity) or B(lambda).

    source="table" uses the closed-form tables (raising
    UnsupportedTableError where none exist); source="closure" regenerates
    every family from its seed.  Construction fails loudly when the
    positivity (binf) or ample (blambda) precondition is violated, and,
    for the closure-source B(lambda) system, strict positivity: its node
    families are S-closures, which are the paper's S^-closures only where
    that holds (`forms.node_family`), so a family that breaks it raises
    ValueError.  `frame`, a `_Frame(cartan)`, lets the several builds of
    one call share the closures and zero region they all start from.
    """
    if frame is None:
        frame = _Frame(cartan)
    elif frame.cartan != cartan:
        raise ValueError("frame belongs to another Cartan datum")
    region = frame.region
    if object_ == "binf":
        if lam is not None:
            raise ValueError("lambda only applies to object 'blambda'")
        blocks = _binf_blocks(frame, source)
        bad = _unshifted(check_positivity, blocks)
        if bad:
            raise RealizationError(
                "positivity fails for %d forms, e.g. %s"
                % (len(bad), render_form(bad[0])), bad)
        return Polyhedron(cartan, "binf", source, blocks, region)
    if object_ != "blambda":
        raise ValueError("object must be 'binf' or 'blambda'")
    lam = check_dominant(cartan, lam)
    blocks = _binf_blocks(frame, source)
    families = frame.node_families() if source == "closure" else \
        xi_first_tables(cartan.type_label, cartan.rank, with_lambda=True)
    blocks += tuple((fam, 1) for _, fam in sorted(families.items()))
    bad = _unshifted(check_ample, blocks, lam)
    if bad:
        raise RealizationError(
            "(iota, lambda) is not ample: %d forms negative at zero, "
            "e.g. %s" % (len(bad), render_form(bad[0])), bad)
    return Polyhedron(cartan, "blambda", source, blocks, region, lam)


def _enumerate(poly, budget, lam):
    """All model points with coordinate sum <= budget, by an iterative
    depth-first search over the region cells in flat position order.

    Each form is resolved at its last region cell in that order: there
    the earlier cells are decided and the later ones are outside the
    region, hence zero, so the form caps the cell from above (negative
    coefficient) or below (positive).  The remaining cells are capped by
    the budget, which keeps the search finite; the realized systems
    bound every live coordinate, so the form caps prune far below the
    budget simplex in practice.

    Cells are numbered t = 0, 1, ... in flat order (the DFS index), and
    each form of a block is compiled once per shift d to its (t, coeff)
    terms, read at the flat positions k + d*n of its own terms.  A
    resolved form keeps one partial sum: its base (constant part plus
    lambda part) plus its terms before the resolving cell.  When cell t
    changes by d, every form that touches t before its resolving cell
    gains coeff*d; a cell's touch list is grouped by coefficient, so this
    adds c*d across a plain list of form numbers.  At its resolving cell a
    form with sum s and coefficient c gives hi = s // -c (c < 0) or lo =
    -(s // c) (c > 0).  A point is its key, the (position, value) pairs
    with value != 0, read off in DFS order.

    Most forms are read at their base: a point has few nonzero cells.  So
    compiling also gives each cell t the cut its forms make at their base,
    hi0[t] (the budget when no form caps t from above) and lo0[t], and
    reach[t], the distinct resolving cells of the forms that t touches.
    The search keeps per cell a count of the nonzero cells that touch one
    of its forms, raised along reach[t] when cell t turns nonzero (by the
    lo > 0 raise or the backtrack's +1 step from 0) and lowered when it
    turns back to 0.  A cell whose count is 0 takes hi = min(hi0[t],
    budget - used) and lo = lo0[t] without reading a form.  This is
    exact: a form's partial sum moves off its base only by c*d for a
    change d of a cell it touches, so while no cell touching any form of
    t is nonzero every such form holds its base, and its cut is the one
    compiled.

    On wide forms most visits land on an untouched cell with hi0 = lo0 =
    0, which the rule above sets to 0 with hi = 0 and the backtrack then
    steps over (25,086 of 26,372 visits at E8 depth 3).  The search jumps
    over such cells.  The int bitmask `live` holds the static cells, with
    hi0 != 0 or lo0 != 0 (a negative hi0 among them, so that the search
    still finds the cell empty), and the cells whose count is nonzero:
    a cell's bit is set while its count is above 0, and cleared when the
    count falls to 0 unless the cell is static.  A step forward from t
    goes to the lowest live cell after t, and the backtrack pops `stack`,
    the cells visited in ascending order.  This is exact.  Every entry of
    reach[t] is a later cell than t, so the count of cell u depends only
    on the values of the cells before u, and the live bits from t on are
    settled when the search reaches t.  A cell skipped there is untouched
    with hi0 = lo0 = 0, so the rule above would give it value 0 with hi =
    0: it keeps value 0, and it is not on the stack, which leaves out
    exactly the step the backtrack would take over it.
    """
    order = poly.region
    index = {k: t for t, k in enumerate(order)}
    m = len(order)
    upper = [[] for _ in range(m)]     # per cell: (form, -coeff), coeff < 0
    lower = [[] for _ in range(m)]     # per cell: (form, coeff), coeff > 0
    touch = [{} for _ in range(m)]     # per cell: coeff -> forms before top
    reach = [set() for _ in range(m)]  # per cell: tops of the forms touched
    hi0 = [budget] * m
    lo0 = [0] * m
    sums = []
    n, cell = poly.cartan.rank, index.get
    for forms, rows in poly.blocks:
        for f in forms:
            base = f.const if lam is None else \
                f.const + sum(map(mul, f.lam, lam))
            for off in range(0, rows * n, n):
                # flat order is DFS order, so the terms come out sorted
                terms = [(at, c) for k, c in f.terms
                         if (at := cell(k + off)) is not None]
                if not terms:
                    # supported entirely on forced cells: a fixed inequality
                    if base < 0:
                        return set()
                    continue
                fid = len(sums)
                sums.append(base)
                top, c = terms[-1]
                if c < 0:
                    upper[top].append((fid, -c))
                    cut = base // -c
                    if cut < hi0[top]:
                        hi0[top] = cut
                else:
                    lower[top].append((fid, c))
                    cut = -(base // c)
                    if cut > lo0[top]:
                        lo0[top] = cut
                for t, c in terms[:-1]:
                    touch[t].setdefault(c, []).append(fid)
                    reach[t].add(top)
    touch = [tuple(d.items()) for d in touch]
    reach = [tuple(s) for s in reach]
    # a negative hi0 keeps its cell live, so the search finds it empty
    static = sum(1 << t for t in range(m) if hi0[t] or lo0[t])
    bit = [1 << t for t in range(m)]
    unset = [-1 if static & b else ~b for b in bit]   # clears a dynamic bit
    cap = cap_limit("enum")
    nonzero = itemgetter(1)
    points = set()
    vals = [0] * m
    his = [0] * m
    touched = [0] * m                  # nonzero cells touching a cell's forms
    live = static                      # static cells and touched cells
    stack = []                         # the cells visited, ascending
    used = 0
    t = (static & -static).bit_length() - 1 if static else m
    while True:
        if t == m:
            points.add(tuple(filter(nonzero, zip(order, vals))))
            if len(points) > cap:
                raise CapExceeded("enum", cap, len(points), "enumeration")
        else:
            hi = budget - used
            if touched[t]:
                lo = 0
                for fid, c in upper[t]:
                    cut = sums[fid] // c
                    if cut < hi:
                        hi = cut
                for fid, c in lower[t]:
                    cut = -(sums[fid] // c)
                    if cut > lo:
                        lo = cut
            else:
                if hi0[t] < hi:
                    hi = hi0[t]
                lo = lo0[t]
            if lo <= hi:
                if lo:
                    for c, fids in touch[t]:
                        d = c * lo
                        for fid in fids:
                            sums[fid] += d
                    for u in reach[t]:
                        touched[u] += 1
                        live |= bit[u]
                    vals[t] = lo
                    used += lo
                his[t] = hi
                stack.append(t)
                rest = live >> (t + 1)
                t = t + (rest & -rest).bit_length() if rest else m
                continue
        # backtrack: step the deepest visited cell that can still grow
        while True:
            if not stack:
                return points
            t = stack[-1]
            v = vals[t]
            if v != his[t]:
                break
            stack.pop()
            if v:
                for c, fids in touch[t]:
                    d = c * v
                    for fid in fids:
                        sums[fid] -= d
                for u in reach[t]:
                    touched[u] -= 1
                    if not touched[u]:
                        live &= unset[u]
                vals[t] = 0
                used -= v
        for c, fids in touch[t]:
            for fid in fids:
                sums[fid] += c
        if not vals[t]:
            for u in reach[t]:
                touched[u] += 1
                live |= bit[u]
        vals[t] += 1
        used += 1
        rest = live >> (t + 1)
        t = t + (rest & -rest).bit_length() if rest else m


def enumerate_binf_truncated(poly, depth):
    """The keys of all model points with coordinate sum <= depth."""
    if poly.object != "binf":
        raise ValueError("expected a binf model")
    check_depth(depth)
    return _enumerate(poly, depth, None)


def enumerate_blambda(poly):
    """The keys of the lattice points of the B(lambda) model, at lambda.

    The search is capped at the crystal diameter (the height of
    lambda - w0 lambda); the realized systems admit no points beyond it,
    which the verification harness cross-checks against the operator
    oracle and the Weyl dimension count.
    """
    if poly.object != "blambda":
        raise ValueError("expected a blambda model")
    lam = poly.lam
    return _enumerate(poly, weight_string_budget(poly.cartan, lam), lam)


def crystal_graph(cartan, lam):
    """The labeled digraph of B(lambda): the node keys ascending, and the
    oracle search's f_i steps ascending, as (source, i, target) with the
    nodes' indices in that order as ends."""
    edges = []
    keys = generate_blambda(IotaSequence(cartan), lam, edges).keys
    order = sorted(range(len(keys)), key=keys.__getitem__)
    at = [0] * len(keys)                # its inverse
    for new, old in enumerate(order):
        at[old] = new
    for e, (a, i, b) in enumerate(edges):      # in place: one edge list
        edges[e] = (at[a], i, at[b])
    edges.sort()
    return [keys[a] for a in order], edges


class VerifyReport:
    """Outcome of one verification check."""

    __slots__ = ("name", "passed", "skipped", "counts", "witnesses", "note")

    def __init__(self, name, passed, counts=None, witnesses=(),
                 skipped=False, note=""):
        self.name = name
        self.passed = bool(passed)
        self.skipped = skipped
        self.counts = dict(counts or {})
        self.witnesses = tuple(witnesses)[:10]
        self.note = note
        if not (self.passed or self.witnesses):
            raise ValueError("failing check %r needs a witness" % (name,))

    def status(self):
        if self.skipped:
            return "SKIP"
        return "PASS" if self.passed else "FAIL"

    def __repr__(self):
        return "VerifyReport(%s %s)" % (self.name, self.status())


def _diff_witnesses(left, right, show, order=repr):
    return ["only in %s: %s" % (side, show(v))
            for side, one, other in (("first", left, right),
                                     ("second", right, left))
            for v in sorted(one - other, key=order)[:5]]


def _system_diff(left, right):
    """_diff_witnesses of two models' systems, read from their ordered
    pairs (`Polyhedron.pairs`) as render_form texts, in the order of the
    forms' LinearForm reprs.  render_form writes out every term, lambda
    entry and the constant, so it is one-to-one on the forms of a rank,
    and the text sets compare as the systems do."""
    mine, theirs = ({render_form(*pair) for pair in poly.pairs()}
                    for poly in (left, right))
    return _diff_witnesses(mine, theirs, str, "LinearForm(%s)".__mod__)


def _oracle_diff(store, got, rank):
    """_diff_witnesses of a Store's set and `got`, a set of keys, on the
    vectors they name: a ZVector is made only for a key one side lacks."""
    missing = [key for key in store if key not in got]
    if not missing and len(got) == len(store):
        return []
    return _diff_witnesses(
        {ZVector.from_key(rank, key) for key in missing},
        {ZVector.from_key(rank, key) for key in got.difference(store)}, repr)


# the sources every verify call builds, in the order (b) and (c) take them
_SOURCES = ("closure", "table")


def verify(cartan, lam=None, depth=4):
    """Run the verification harness; returns a list of VerifyReport.

    Each model is built from both sources, the closure and the tables.
    Checks: (a) table forms == closure forms; (b) operator-generated
    truncation of B(infinity) == enumerated lattice points; (c) the same
    for B(lambda), plus the Weyl dimension count; (d) positivity /
    strict positivity / ampleness, strict positivity read on the frame's
    node families, the ones the closure-source B(lambda) model is built
    from (a node family without it fails that build, and so the call),
    and ampleness the pass that build makes (a form negative at lambda
    fails it too);
    (e) live region size == positive-root count; (f) crystal axioms on
    the generated sets;
    (g) every point of the generated sets and of the B(infinity)
    enumerations, one count per source, is coordinatewise nonnegative;
    the B(lambda) enumerations are not counted there, since (c) holds
    them equal to the generated B(lambda) set.  Types without a
    closed-form table yield SKIP entries for the table-dependent checks.

    Equal blocks (`Polyhedron`) are equal systems; only on unequal ones
    does (a) order both as pairs, to compare them form by form.  (b) and
    (c) run one enumeration per distinct system: the sources are taken in
    `_SOURCES` order, and a source whose blocks equal the previous
    source's reuses that source's point set, for its count, its
    comparison with the oracle's set and, for B(infinity), its share of
    (g).  This loses nothing, because all models of one call share the
    frame's region and the same depth or lambda, and `_enumerate` reads
    only the blocks, the region, the budget and lambda.  Each point set is
    dropped once compared, before a different system is enumerated.
    """
    frame = _Frame(cartan)
    iota = frame.iota
    reports = []

    def build_sources(check, *model):
        """{source: build(cartan, *model)} in `_SOURCES` order; a source
        without a table gets a SKIP report of `check` instead."""
        polys = {}
        for source in _SOURCES:
            try:
                polys[source] = build(cartan, *model, source=source,
                                      frame=frame)
            except UnsupportedTableError as err:
                reports.append(VerifyReport(check, True, skipped=True,
                                            note=str(err)))
        return polys

    polys = build_sources("a:table-vs-closure", "binf")
    if "table" in polys:
        left, right = polys["closure"], polys["table"]
        witnesses = [] if left.blocks == right.blocks else \
            _system_diff(left, right)
        reports.append(VerifyReport(
            "a:table-vs-closure", not witnesses,
            counts={"closure": left.count(), "table": right.count()},
            witnesses=witnesses))

    # (g) runs on each point set as soon as the checks before it are done
    # with the set, so that no set is kept for it; witnesses in key order
    points = 0
    negative = []

    def nonnegativity(size, negatives):
        nonlocal points
        points += size
        negative.extend(negatives)

    def compare_sources(found, polys, enumerate_, counts, signs):
        """Diff witnesses of each model's points against `found`, one
        enumeration per distinct system, with the counts put in `counts`;
        with `signs`, every model's points also go to (g)."""
        witnesses = []
        blocks = None
        for source, poly in polys.items():
            if poly.blocks != blocks:
                got = enumerate_(poly)
                blocks, size = poly.blocks, len(got)
                diff = _oracle_diff(found, got, cartan.rank)
                negatives = _negatives(got) if signs else ()
                del got         # before the next system's enumeration
            counts[source] = size
            witnesses += diff
            if signs:
                nonnegativity(size, negatives)
        return witnesses

    bfs, bfs_axioms = _search_and_axioms(iota, None, depth)
    nonnegativity(len(bfs), _negatives(bfs))
    counts = {"bfs": len(bfs)}
    witnesses = compare_sources(
        bfs, polys, lambda poly: enumerate_binf_truncated(poly, depth),
        counts, True)
    reports.append(VerifyReport("b:binf-oracle", not witnesses, counts,
                                witnesses))

    if lam is not None:
        lam = check_dominant(cartan, lam)
        lam_polys = build_sources("c:blambda-oracle", "blambda", lam)
        blam, blam_axioms = _search_and_axioms(iota, lam, None)
        nonnegativity(len(blam), _negatives(blam))
        dim = weyl_dim(cartan, lam)
        counts = {"bfs": len(blam), "weyl_dim": dim}
        witnesses = [] if len(blam) == dim else \
            ["|B(lambda)| %d != weyl_dim %d" % (len(blam), dim)]
        witnesses += compare_sources(blam, lam_polys, enumerate_blambda,
                                     counts, False)
        del blam
        reports.append(VerifyReport("c:blambda-oracle", not witnesses,
                                    counts, witnesses))

    xi_closure = frame.family1
    bad = check_positivity(xi_closure)
    reports.append(VerifyReport(
        "d:positivity", not bad, {"forms": len(xi_closure)},
        [render_form(f) for f in bad]))
    if lam is not None:
        node_closures = frame.node_families()
        bad = check_strict_positivity(xi_closure, node_closures, iota)
        reports.append(VerifyReport(
            "d:strict-positivity", not bad,
            {"families": len(node_closures)},
            [render_form(f) for f in bad]))
        # build ran check_ample on these blocks at this lam and raised
        # RealizationError on any form it found: the pass found none
        poly = lam_polys["closure"]
        reports.append(VerifyReport("d:ample", True,
                                    {"forms": poly.count()}))

    roots = longest_word_length(cartan)
    ok = len(frame.region) == roots
    reports.append(VerifyReport(
        "e:support-region", ok,
        {"region": len(frame.region), "positive_roots": roots},
        [] if ok else ["region size %d != positive-root count %d"
                       % (len(frame.region), roots)]))

    reports.append(bfs_axioms)
    if lam is not None:
        reports.append(blam_axioms)

    reports.append(VerifyReport(
        "g:nonnegativity", not negative, {"points": points},
        [repr(ZVector.from_key(iota.rank, k)) for k in negative[:10]]))
    return reports


def _negatives(keys):
    """The keys with a negative value, ascending."""
    return sorted(key for key in keys if any(v < 0 for _, v in key))


def _search_and_axioms(iota, lam, depth):
    """The Store an oracle search finds (zcrystal), and its axiom report.

    The report reads the edges the search records and the tables; running
    it right after the search drops them before verify goes on to
    enumeration, whose comparisons read keys only.
    """
    edges = []
    found = generate_binf(iota, depth, edges) if lam is None \
        else generate_blambda(iota, lam, edges)
    report = _axiom_report(iota, found, lam, edges)
    found.tables = None
    return found, report


def _axiom_report(iota, store, lam, edges):
    """Crystal-axiom suite over a generated set, read from its f_i edges.

    `store` is what a search found (zcrystal.Store), the set its indices
    below len(store).  `edges` lists f_i steps (a, i, b) out of the set
    as indices: both searches record every step, B(infinity)'s those out
    of its deepest keys too.  The checks read only the tables (weight
    t[0], pairing t[1], best_i, first_i and last_i at t[1 + i],
    t[1 + n + i] and t[1 + 2n + i]); a ZVector is made only to name a key
    in a witness.  Witnesses come in the order of the key they name, then
    in text order, so the order of the set does not choose the ones kept.

    Write b_i, w_i for best and pairing in the table of x, with lam_i
    added to w_i for B(lambda).  Then (CrystalNode) x (x) r_lam has
    eps_i = max(b_i, -w_i) and phi_i = max(0, b_i + w_i); f_i acts iff
    b_i + w_i > 0 and e_i iff b_i > 0 and b_i + w_i >= 0.  A node with
    b_i + w_i < 0 has eps_i = -w_i > 0 but no e_i step, so it fails the
    string check; at every other node eps_i = b_i and e_i acts iff
    b_i > 0, as in B(infinity), where eps_i = b_i and f_i always acts.

    - Round trip e_i f_i x == x.  The step made y = x + d(first_x[i], i),
      and e_i y = y - d(last_y[i], i) when e_i acts on y, which is x iff
      last_y[i] == first_x[i].
    - Weight shift: wt y = wt x - alpha_i, both read from the tables.
    - phi_i = eps_i + <h_i, wt>, per node.  By the formulas above
      phi_i - eps_i = w_i always, so the check is that the pairings of a
      table equal sum_p a_{i,p} wt_p over the weight of the same table.
    - eps_i is the length of the e_i-string.  Checked: b_i(y) = b_i(x) + 1
      along every i-edge, no vector of the set has two incoming i-edges,
      and every one with b_i > 0 has one.  By induction on b_i(y) these
      give the string walk: at 0, e_i does not act and the string is
      empty; above 0, the incoming edge (x, i, y) has e_i y = x by the
      round trip, x in the set and b_i(x) = b_i(y) - 1, so the string of
      y is one step longer than that of x.  (The weight drops by alpha_i
      along each i-edge, so no i-string closes on itself.)  Conversely
      every crystal passes, since f_i is injective and raises eps_i by
      one; this holds for a depth-truncated B(infinity) too, which is
      closed under e_i.
    - All steps are checked: they number as many as the pairs (x, i) on
      which f_i acts, and no target, in the set or one level below it,
      repeats within a colour.
    - B(lambda) only: every step lands in the set, and exactly one node,
      the highest, has no e_i acting.  Every raising step lowers the
      coordinate sum, so a unique highest node over a closed set also
      certifies connectivity.
    """
    name = "f:crystal-axioms(%s)" % ("blambda" if lam is not None else "binf")
    n = iota.rank
    first, last = 1 + n, 1 + 2 * n      # + i: first_i, last_i of a table
    matrix = iota.cartan.matrix
    keys, tables, size = store.keys, store.tables, len(store)
    minus_alpha = [tuple(-int(c == p) for c in range(n)) for p in range(n)]

    named = []                  # (key of the vector named, witness)

    def witness(a, text, i=0):
        x = repr(ZVector.from_key(n, keys[a]))
        named.append((keys[a], text.format(i=i, x=x)))

    # per colour: a flag per index, set once an edge reaches it
    incoming = [bytearray(len(keys)) for _ in range(n)]
    for a, i, b in edges:
        tx = tables[a]
        ty = tables[b]
        best = ty[1 + i]
        if not (best > 0 and ty[last + i] == tx[first + i]
                and (lam is None or best + ty[1][i - 1] + lam[i - 1] >= 0)):
            witness(a, "e_{i}(f_{i} {x}) != id", i)
        if ty[0] != tuple(map(add, tx[0], minus_alpha[i - 1])):
            witness(a, "wt(f_{i} {x}) != wt - alpha_{i}", i)
        if best != tx[1 + i] + 1:
            witness(a, "eps_{i}(f_{i} {x}) != eps_{i} + 1", i)
        into = incoming[i - 1]
        if into[b]:
            witness(b, "two {i}-edges into {x}", i)
        into[b] = 1
        if lam is not None and b >= size:
            witness(a, "f_{i} {x} is not in the set", i)

    tops = 0
    acting = 0                  # pairs (x, i) on which f_i acts
    pairings = {}               # weight -> its pairings sum_p a_{i,p} wt_p
    for a in range(size):
        t = tables[a]
        weight = t[0]
        want = pairings.get(weight)
        if want is None:
            want = pairings[weight] = tuple(
                sum(map(mul, row, weight)) for row in matrix)
        if t[1] != want:
            witness(a, "phi != eps + <h, wt> at {x}")
        top = True
        for p in range(n):
            b = t[2 + p]
            phi = 1 if lam is None else b + t[1][p] + lam[p]
            acting += phi > 0
            if phi < 0 or b > 0 and not incoming[p][a]:
                witness(a, "eps_{i}({x}) != e-string length", p + 1)
            if phi >= 0 and b > 0:
                top = False
        tops += top
    # the set's iteration order must not pick the witnesses kept
    witnesses = [w for _, w in sorted(named)] if named else []
    if len(edges) != acting:
        witnesses.append("%d f_i steps checked, %d act" % (len(edges), acting))
    if lam is not None and tops != 1:
        witnesses.append("%d highest-weight nodes" % tops)
    return VerifyReport(name, not witnesses, {"nodes": size}, witnesses)

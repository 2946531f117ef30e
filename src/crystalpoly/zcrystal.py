"""Crystal operators on the semi-infinite lattice Z^infinity.

Vectors x = (..., x_k, ..., x_2, x_1) with finitely many nonzero entries
are indexed by flat positions k = 1, 2, ... read right-to-left, or
equivalently by (row j, column i) with k = (j-1)*n + i: the reduction
word iota repeats the columns n, ..., 2, 1 cyclically, so position k
carries colour i_k = ((k-1) mod n) + 1.  A ZVector holds flat positions
only: its constructor takes `(j, i)` cells, `entries` and `repr` give
them back (through `rootdata.flat_cells` and `cell_triples`).

The Kashiwara operators act through the local exponents

    sigma_k(x) = x_k + sum_{l > k} a_{i_k, i_l} x_l,

with f_i adding 1 at the first maximizer of sigma over colour-i positions
and e_i subtracting 1 at the last one (when the max is positive).  This
realizes B(infinity); pairing with a highest-weight marker realizes
B(lambda) inside the same lattice via the tensor-product rule
(CrystalNode).  One breadth-first search generates both: every colour
acts on B(infinity), and on B(lambda) colour i acts on x iff
phi_i(x) + lambda_i > 0.

The operators read everything from a vector's signature table, one
tuple made by one downward pass over its rows (a run of empty rows
settled in one step): per colour the max of sigma (epsilon), its first
and last maximizer as flat positions (where f_i and e_i act), and the
weight and its pairings <h_i, wt> (so phi = epsilon + <h_i, wt>); see
signature_table for the layout.  The pass is a kernel compiled per
datum from generated source (`_scan_kernel`) that returns the table of
a key.  A ZVector is a value, its rank and its key, and keeps no table:
signature_table scans on every call, and a CrystalNode, whose iota is
fixed, keeps its own node's table, so its operators scan a node once.
The search works on plain data (a Store), which the generators return:
keys and their tables by dense index, and edges as (index, i, index)
int triples.  It runs a level at a time, scanning a level's keys in one
pass; as every step adds 1 at one position, a key's level is its
coordinate sum, so a target can only meet the targets of its own level,
and it is looked up there by an int code of its entries (a sum of unit
steps), the new key being made only when its code is new.
"""

from bisect import bisect_left
from itertools import islice
from types import MappingProxyType

from .rootdata import CapExceeded, cap_limit, cell_triples, check_depth, \
    check_dominant, flat_cells


class IotaSequence:
    """The cyclic word (..., n, ..., 2, 1) with row/column bookkeeping."""

    def __init__(self, cartan):
        self.cartan = cartan
        self.rank = n = cartan.rank
        # per colour p (0-based): the (c, a_{c,p}) with a_{c,p} != 0
        m = cartan.matrix
        self.steps = tuple(tuple((c, m[c][p]) for c in range(n) if m[c][p])
                           for p in range(n))
        self._scan = None       # the table kernel, made on first use

    def kernel(self):
        """The table kernel of this datum, compiled on first use."""
        if self._scan is None:
            self._scan = _scan_kernel(self.rank, self.steps)
        return self._scan

    def rowcol(self, k):
        j, i0 = divmod(k - 1, self.rank)
        return (j + 1, i0 + 1)


class ZVector:
    """Immutable finitely-supported integer vector on flat positions
    k = (j-1)*rank + i.

    `key()` is the support as (k, value) pairs, k ascending, no zero
    value; flat order is (row, column) order, so it sorts like the
    ((row, column), value) pairs.  Equality, hashing and sorting use it.
    The constructor takes ((row, column), value) items and rejects cells
    outside rows >= 1 and columns 1..rank, which would alias another flat
    position.
    """

    __slots__ = ("rank", "_key")

    def __init__(self, rank, entries=()):
        if not isinstance(rank, int) or rank < 1:
            raise ValueError("rank must be a positive int, not %r" % (rank,))
        self.rank = rank
        self._key = flat_cells(rank, entries)

    @classmethod
    def from_key(cls, rank, key):
        """The vector of `key`, flat (k, value) pairs, sorted, no zero."""
        x = cls.__new__(cls)
        x.rank = rank
        x._key = key
        return x

    @property
    def entries(self):
        """Read-only {(row, column): value} view of the support."""
        return MappingProxyType({(j, i): v for j, i, v
                                 in cell_triples(self.rank, self._key)})

    def key(self):
        return self._key

    def get(self, k):
        """The value at flat position k."""
        key = self._key
        at = bisect_left(key, (k,))     # (k,) sorts before (k, v)
        return key[at][1] if at < len(key) and key[at][0] == k else 0

    def bump(self, k, delta):
        """The vector with `delta` added at flat position k >= 1."""
        return ZVector.from_key(self.rank, _bumped(self._key, k, delta))

    def __eq__(self, other):
        return (isinstance(other, ZVector) and self._key == other._key
                and self.rank == other.rank)

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "ZVector(%s)" % (", ".join(map(
            "(%d;%d):%d".__mod__, cell_triples(self.rank, self._key))) or "0")


def _bumped(key, k, delta):
    """`key` with `delta` added at flat position k, a zero value dropped."""
    at = end = bisect_left(key, (k,))   # (k,) sorts before (k, v)
    if at < len(key) and key[at][0] == k:
        end += 1
        delta += key[at][1]
    return key[:at] + (((k, delta),) if delta else ()) + key[end:]


def signature_table(iota, x):
    """The signature table of x, made from its key by iota's kernel on
    every call: the tuple (weight, pairing, best_1..best_n, first_1..
    first_n, last_1..last_n), so colour i's best, first and last sit at
    t[1 + i], t[1 + n + i] and t[1 + 2n + i].  best_i is the max of sigma
    over colour i's positions, first_i and last_i the flat positions of
    its first and last maximizer, which lie at most one row above the top
    support row, so f_i and e_i bump them as they are.  `weight` (root
    coordinates of wt(x)) and `pairing` (the <h_i, wt(x)>) are tuples by
    colour - 1.  Raises ValueError when x and iota differ in rank."""
    if x.rank != iota.rank:
        raise ValueError("a rank-%d vector has no signature table for a "
                         "rank-%d iota" % (x.rank, iota.rank))
    return iota.kernel()(x._key)


def _scan_kernel(rank, steps):
    """The table pass for one rank and its IotaSequence.steps, as a
    function scan(key) that returns the signature table of the
    vector of `key` (see signature_table) and keeps nothing.

    The pass runs downward, a row at a time, from the top support row R
    to row 1.  It visits the flat positions in descending order: within a
    row the colours n-1, ..., 0.  acc[c] holds sum_{l > k} a_{c, i_l} x_l
    at the current position k, so sigma_k = x_k + acc[i_k - 1]; at the end
    acc[c] = -<h_c, wt(x)>.  The values x_k come through a pointer into
    the key, running down it as the pass does.

    - Above row R, sigma is 0 everywhere: no support lies there.  So the
      max over all positions is >= 0, and it is reached above row R only
      when it is 0.  Starting from best = 0 with first = last at row R+1
      therefore leaves, after rows R..1, `first` at the lowest maximizer
      and `last` at the highest one at most one row above R.
    - In a support row each position k is compared, with sigma =
      acc[c] + x_k (x_k = 0 off the support); only then does a support
      entry v add a_{d, i_k} * v to acc[d] for each d with a_{d, i_k} != 0
      (IotaSequence.steps), which the positions below k see.
    - A run of empty rows changes no acc, so all its colour-c positions
      have sigma = acc[c].  One O(n) step settles the run: a new max puts
      `last` at the run's highest colour-c position and `first` at its
      lowest, a tie moves `first` only.  The rows below the lowest support
      row are such a run, settled when the pointer runs off the key.

    So every position of rows 1..R is compared with its sigma, in
    descending order, and a strict rise moves both maximizers while a tie
    moves only the lower one: the fields are the max and its extreme
    maximizers.  The cost is O(n * (support rows + runs) + support *
    degree), with no term in the row numbers themselves.

    The function is made from generated source, the pass with the colour
    loops unrolled: acc, the column sums, best, first and last of colour c
    are its locals a<c>, s<c>, b<c>, f<c> and l<c>.  The source holds, in
    the pass's order: the locals set at row R+1; a loop over the visited
    rows whose body is the empty-run settle of colours n-1..0, the table
    made at the end of the key, and the support-row comparison of colours
    n-1..0, each support entry followed by its colour's steps as
    constant-coefficient statements.  Its size is O(rank * degree), not a
    function of the rows.  Every value written into the source is an int
    formatted with %d, checked here, so nothing else reaches exec; raises
    ValueError for any other value.
    """
    values = [rank] + [v for row in steps for step in row for v in step]
    odd = [v for v in values if type(v) is not int]
    if odd:
        raise ValueError("a signature kernel takes int steps, not %r"
                         % (odd[0],))
    n = rank

    def each(name):
        return ", ".join(name % c for c in range(n))

    colours = range(n - 1, -1, -1)
    # support: the pointer into the key, k = 0 past its end; row R is
    # base+1..base+n; a<c>, s<c>, b<c> start at 0 and f<c>, l<c> in row R+1
    src = ["def scan(key):",
           "    support = reversed(key)",
           "    k, v = next(support, (0, 0))",
           "    base = (k - 1) // %d * %d" % (n, n),
           "    %s = 0" % " = ".join(name % c for name in ("a%d", "s%d", "b%d")
                                      for c in range(n))]
    src += ["    f%d = l%d = base + %d" % (c, c, n + c + 1) for c in range(n)]
    # low: the next support row, -n at the end; rows low+n..base are empty
    src += ["    while True:",
            "        low = (k - 1) // %d * %d" % (n, n),
            "        if low < base:"]
    for c in colours:
        src += ["            if a%d > b%d:" % (c, c),
                "                b%d = a%d" % (c, c),
                "                l%d = base + %d" % (c, c + 1),
                "                f%d = low + %d" % (c, n + c + 1),
                "            elif a%d == b%d:" % (c, c),
                "                f%d = low + %d" % (c, n + c + 1)]
    src += ["            base = low",
            "        if not k:",
            "            return ((%s,), (%s,), %s, %s, %s)"
            % (each("-s%d"), each("-a%d"), each("b%d"), each("f%d"),
               each("l%d")),
            "        r = k - base"]
    # the support row, top position first: r is the next entry's column
    # while it lies in this row, t the sigma of colour c's position
    for c in colours:
        src += ["        t = a%d" % c,
                "        if r == %d:" % (c + 1),
                "            t += v",
                "            s%d += v" % c]
        src += ["            a%d += v" % d if a == 1 else
                "            a%d -= v" % d if a == -1 else
                "            a%d += %d * v" % (d, a) for d, a in steps[c]]
        src += ["            k, v = next(support, (0, 0))",
                "            r = k - base",
                "        if t > b%d:" % c,
                "            b%d = t" % c,
                "            f%d = l%d = base + %d" % (c, c, c + 1),
                "        elif t == b%d:" % c,
                "            f%d = base + %d" % (c, c + 1)]
    src.append("        base -= %d" % n)
    namespace = {}
    exec(compile("\n".join(src), "<signature kernel>", "exec"), namespace)
    return namespace.pop("scan")    # its globals then do not hold it


def f_tilde(iota, x, i, t=None):
    """Kashiwara lowering operator on B(infinity): always defined.  `t`
    is x's signature table, if the caller keeps it."""
    t = t or signature_table(iota, x)
    return x.bump(t[1 + iota.rank + i], +1)


def e_tilde(iota, x, i, t=None):
    """Kashiwara raising operator on B(infinity); None at the top.
    Raises ValueError for an x that is not a crystal point, where e_i
    would lower an empty slot.  `t` is as in f_tilde."""
    t = t or signature_table(iota, x)
    if t[1 + i] <= 0:
        return None
    k = t[1 + 2 * iota.rank + i]
    if x.get(k) < 1:
        raise ValueError("e_%d raises at the empty slot (%d;%d) of %r: not "
                         "a crystal point" % (i, *iota.rowcol(k), x))
    return x.bump(k, -1)


class CrystalNode:
    """An element of B(infinity) (lam=None) or of B(lam), as x (x) r_lam.

    The tensor rule against the one-point crystal {r_lam} with
    eps_i = -<h_i, lam>, phi_i = 0 gives:
      eps_i(node) = max(eps_i(x), -<h_i, lam + wt x>)
      phi_i(node) = max(0, phi_i(x) + <h_i, lam>)
      f_i acts on x iff phi_i(x) + <h_i, lam> > 0, else kills the node;
      e_i acts on x iff phi_i(x) + <h_i, lam> >= 0, else kills the node.
    """

    __slots__ = ("iota", "vector", "lam", "_table")

    def __init__(self, iota, vector=None, lam=None):
        """Raises ValueError for a vector of another rank than iota's and
        for a lam that is not a dominant integral weight of its datum."""
        if vector is None:
            vector = ZVector(iota.rank)
        elif vector.rank != iota.rank:
            raise ValueError("a rank-%d vector is no node of a rank-%d iota"
                             % (vector.rank, iota.rank))
        self.iota = iota
        self.vector = vector
        self.lam = check_dominant(iota.cartan, lam) if lam is not None \
            else None
        self._table = None

    def _signature(self):
        """The vector's signature table, scanned on first use."""
        t = self._table
        if t is None:
            t = self._table = signature_table(self.iota, self.vector)
        return t

    def weight_pairing(self, i):
        """<h_i, wt> with wt = wt(x) on B(infinity), lam + wt(x) on B(lam)."""
        w = self._signature()[1][i - 1]
        return w if self.lam is None else w + self.lam[i - 1]

    def epsilon(self, i):
        e = self._signature()[1 + i]
        return e if self.lam is None else max(e, -self.weight_pairing(i))

    def phi(self, i):
        p = self._phi_lam(i)
        return p if self.lam is None else max(0, p)

    def _phi_lam(self, i):
        """phi_i(x) + <h_i, lam> (lam = 0 on B(infinity)), which decides
        whether f_i and e_i act on B(lam)."""
        return self._signature()[1 + i] + self.weight_pairing(i)

    def f(self, i):
        if self.lam is not None and self._phi_lam(i) <= 0:
            return None
        return self._step(f_tilde(self.iota, self.vector, i,
                                  self._signature()))

    def e(self, i):
        if self.lam is not None and self._phi_lam(i) < 0:
            return None
        y = e_tilde(self.iota, self.vector, i, self._signature())
        return None if y is None else self._step(y)

    def _step(self, y):
        """The node of y, an operator's image of this node's vector: same
        iota and lam, so nothing is checked again."""
        node = CrystalNode.__new__(CrystalNode)
        node.iota, node.vector, node.lam = self.iota, y, self.lam
        node._table = None
        return node

    def __eq__(self, other):
        return (isinstance(other, CrystalNode)
                and self.vector == other.vector and self.lam == other.lam)

    def __hash__(self):
        return hash((self.vector, self.lam))

    def __repr__(self):
        tag = "" if self.lam is None else ", lam=%s" % (self.lam,)
        return "CrystalNode(%r%s)" % (self.vector, tag)


class Store:
    """What one search found, as plain data: `keys` and `tables` list the
    keys, in the order met, and their signature tables by dense index.
    The keys below `size` are the set that iteration and len() see;
    B(infinity)'s targets one level deeper follow it, and without an edge
    list its deepest level has no tables.  `key in store` scans the set,
    so many lookups go through set(store)."""

    __slots__ = ("keys", "tables", "size")

    def __init__(self, *fields):
        self.keys, self.tables, self.size = fields

    def __len__(self):
        return self.size

    def __iter__(self):
        return islice(self.keys, self.size)


def generate_binf(iota, depth, edges=None):
    """The B(infinity) keys reachable by at most `depth` lowering steps,
    as the search's Store.

    Given a list `edges`, the search appends to it every step (a, i, b)
    out of the set, rank many per key, as indices of the Store; the
    targets one step deeper than `depth` get the indices from len() on.
    """
    return _search(iota, None, depth, edges)


def generate_blambda(iota, lam, edges=None):
    """The keys x with x (x) r_lam in B(lam), from the highest node, as
    the search's Store.

    f_i acts on x (x) r_lam iff phi_i(x) + <h_i, lam> > 0 (CrystalNode).
    Given a list `edges`, the search appends to it every edge (a, i, b)
    of the crystal graph, as indices of the Store.
    """
    return _search(iota, check_dominant(iota.cartan, lam), None, edges)


def _search(iota, lam, depth, edges):
    """The BFS behind generate_binf (lam None: every colour acts, for
    `depth` levels; raises ValueError unless depth is an int >= 0) and
    generate_blambda (colour i acts on x iff phi_i(x) + lam_i > 0), from
    the zero key, as a Store.  A step f_i x adds 1 at first_i of x's
    table on the key; a list `edges` gets every step as (index of x, i,
    index of f_i x), and every key is scanned.  The steps out of
    B(infinity)'s deepest level, made only for `edges`, raise the
    coordinate sum; the "bfs" cap does not count their new keys.

    The search runs a level at a time: it scans the level's keys in one
    pass, then steps from each, deciding on an int code whether a target
    was met before.  That is exact:

    - Every step adds 1 at one flat position, so a key met at level L
      (L steps from zero) has coordinate sum L, and so has every path to
      it.  Its entries are >= 0 and sum to L, so they lie in [0, L], and
      its targets lie at level L + 1.  A target is therefore met before,
      if at all, among the targets of its own level: one dict per level
      (`met`, code -> index) decides it.
    - With 2**W above every entry, the code sum_k v_k * 2**(W*(k-1)) of a
      key is its entries as base-2**W digits, so two keys have equal
      codes iff they are equal, and the code of f_i x is x's code plus
      unit[k] = 2**(W*(k-1)) at the bumped k.  The new key itself is
      made (by _bumped) only when its code is new.
    - W starts at 1 and doubles when the level the steps reach, L + 1,
      reaches 2**W; `unit` and the codes of the frontier (from its keys,
      whose entries are <= L) are then made again at the new width.  So
      2**W > L + 1 >= every entry a code is made for, B(infinity)'s
      deepest targets included, and W follows the levels reached.

    f_i bumps a position at most one row above x's top support row
    (signature_table), so `unit` grows each level to the row above the
    frontier's top one.  The codes of a level are the keys of its `met`,
    in index order, read while the level is scanned and then dropped, so
    the codes held are O(frontier).
    """
    if lam is None:
        check_depth(depth)
    what = "B(infinity) truncation" if lam is None else "B(lambda) generation"
    cap = cap_limit("bfs")
    n = iota.rank
    colours = range(1, n + 1)
    scan = iota.kernel()
    width = 1
    unit = [0]                          # unit[k] = 2**(width*(k-1)), k >= 1
    # one rank, so equal keys are equal vectors
    keys, tables, met = [()], [], {0: 0}
    size = start = level = 0            # size 0: the set is still growing
    while not size:
        end = len(keys)
        if start == end or level == depth:
            size = end
            if start == end or edges is None:
                break
        level += 1
        frontier = keys[start:end]
        prior, met = met, {}
        if level >> width:              # the targets' entries reach 2**width
            width *= 2
            unit = [0]
            prior = [sum(v << width * (k - 1) for k, v in key)
                     for key in frontier]
        top = max([key[-1][0] for key in frontier if key], default=0)
        unit += [1 << width * k
                 for k in range(len(unit) - 1, ((top - 1) // n + 2) * n)]
        scanned = list(map(scan, frontier))
        tables += scanned
        for a, key, t, code in zip(range(start, end), frontier, scanned,
                                   prior):
            pairing = t[1]
            for i in colours:
                if lam is None or t[1 + i] + pairing[i - 1] + lam[i - 1] > 0:
                    k = t[1 + n + i]
                    c = code + unit[k]
                    b = met.get(c)
                    if b is None:
                        b = met[c] = len(keys)
                        keys.append(_bumped(key, k, 1))
                    if edges is not None:
                        edges.append((a, i, b))
            found = size or len(keys)
            if found > cap:
                raise CapExceeded("bfs", cap, found, what)
        start = end
    if edges is not None:
        tables += map(scan, keys[len(tables):])
    return Store(keys, tables, size)

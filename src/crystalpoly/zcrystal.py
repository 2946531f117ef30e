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

The operators read everything from a SignatureTable: one downward pass
over the rows of a vector, which settles each run of empty rows in one
step, yields for every colour at once the max of sigma (epsilon), its
first and last maximizer as flat positions (where f_i and e_i act), the
weight and its pairings <h_i, wt> (so phi = epsilon + <h_i, wt>).
The table is computed on first use and kept on the immutable ZVector, so
each vector is scanned once however many operators and colours ask about
it; vectors made by f_i or e_i start without one.  The search and
CrystalNode read epsilon, phi and <h_i, wt> straight from the table.
"""

from bisect import bisect_left
from operator import neg
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
    position.  The signature table is filled in on first use.
    """

    __slots__ = ("rank", "_key", "_table")

    def __init__(self, rank, entries=()):
        if not isinstance(rank, int) or rank < 1:
            raise ValueError("rank must be a positive int, not %r" % (rank,))
        self.rank = rank
        self._key = flat_cells(rank, entries)
        self._table = None

    @classmethod
    def from_key(cls, rank, key):
        """The vector of `key`: flat (k, value) pairs, sorted, no zero."""
        x = cls.__new__(cls)
        x.rank = rank
        x._key = key
        x._table = None
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
        return dict(self._key).get(k, 0)

    def bump(self, k, delta):
        """The vector with `delta` added at flat position k >= 1."""
        key = self._key
        at = end = bisect_left(key, (k,))   # (k,) sorts before (k, v)
        if at < len(key) and key[at][0] == k:
            end += 1
            delta += key[at][1]
        cell = ((k, delta),) if delta else ()
        return ZVector.from_key(self.rank, key[:at] + cell + key[end:])

    def __eq__(self, other):
        return (isinstance(other, ZVector) and self._key == other._key
                and self.rank == other.rank)

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "ZVector(%s)" % (", ".join(map(
            "(%d;%d):%d".__mod__, cell_triples(self.rank, self._key))) or "0")


class SignatureTable:
    """Everything the operators need from one vector x, for every colour.

    Indexed by colour - 1: `best` is the max of sigma over the colour's
    positions, `first`/`last` the flat positions of its first and last
    maximizer, `weight` the root coordinates of wt(x) and `pairing`
    <h_i, wt(x)>.  `first[c]` and `last[c]` have colour c + 1 and lie at
    most one row above the top support row, so f_i and e_i bump them as
    they are.  `matrix` is the Cartan matrix the table was computed for.
    One downward pass over the rows of x fills it in, in time that grows
    with the support rows of x, never with the top row's number alone.
    """

    __slots__ = ("matrix", "best", "first", "last", "weight", "pairing")

    def __init__(self, iota, x):
        """One downward pass, a row at a time, from the top support row R
        to row 1.

        The pass visits the flat positions in descending order: within a
        row the colours n-1, ..., 0.  acc[c] holds sum_{l > k} a_{c, i_l}
        x_l at the current position k, so sigma_k = x_k + acc[i_k - 1]; at
        the end acc[c] = -<h_c, wt(x)>.  The values x_k come through a
        pointer into the key, running down it as the pass does.

        - Above row R, sigma is 0 everywhere: no support lies there.  So
          the max over all positions is >= 0, and it is reached above row
          R only when it is 0.  Starting from best = 0 with first = last at
          row R+1 therefore leaves, after rows R..1, `first` at the lowest
          maximizer and `last` at the highest one at most one row above R.
        - In a support row each position k is compared, with sigma =
          acc[c] + x_k (x_k = 0 off the support); only then does a support
          entry v add a_{d, i_k} * v to acc[d] for each d with a_{d, i_k}
          != 0 (IotaSequence.steps), which the positions below k see.
        - A run of empty rows changes no acc, so all its colour-c
          positions have sigma = acc[c].  One O(n) step settles the run: a
          new max puts `last` at the run's highest colour-c position and
          `first` at its lowest, a tie moves `first` only.  The rows below
          the lowest support row are such a run, settled when the pointer
          runs off the key.

        So every position of rows 1..R is compared with its sigma, in
        descending order, and a strict rise moves both maximizers while a
        tie moves only the lower one: the fields are the max and its
        extreme maximizers.  The cost is O(n * (support rows + runs) +
        support * degree), with no term in the row numbers themselves.
        """
        n = iota.rank
        if x.rank != n:
            raise ValueError("a rank-%d vector has no signature table for a "
                             "rank-%d iota" % (x.rank, n))
        steps = iota.steps
        support = reversed(x._key)      # the pointer into the key
        k, v = next(support, (0, 0))    # k = 0 past the end
        base = (k - 1) // n * n         # row R: base+1..base+n
        acc, sums, best = [0] * n, [0] * n, [0] * n
        first = list(range(base + n + 1, base + 2 * n + 1))     # row R+1
        last = list(first)
        colours = range(n - 1, -1, -1)
        while True:
            low = (k - 1) // n * n      # the next support row, -n at the end
            if low < base:              # rows low+n .. base are empty
                for c in colours:
                    s = acc[c]
                    b = best[c]
                    if s > b:
                        best[c] = s
                        last[c] = base + c + 1
                        first[c] = low + n + c + 1
                    elif s == b:
                        first[c] = low + n + c + 1
                base = low
            if not k:
                break
            pos = base + n              # the support row, top position first
            for c in colours:
                s = acc[c]
                if pos == k:
                    s += v
                    sums[c] += v
                    for d, a in steps[c]:
                        acc[d] += a * v
                    k, v = next(support, (0, 0))
                b = best[c]
                if s > b:
                    best[c] = s
                    first[c] = last[c] = pos
                elif s == b:
                    first[c] = pos
                pos -= 1
            base -= n
        self.matrix = iota.cartan.matrix
        self.best = tuple(best)
        self.first = tuple(first)
        self.last = tuple(last)
        self.weight = tuple(map(neg, sums))
        self.pairing = tuple(map(neg, acc))


def signature_table(iota, x):
    """The SignatureTable of x, computed on first use and kept on x.
    Computing one raises ValueError when x and iota differ in rank; a kept
    table was computed for this matrix, so its lookup checks nothing."""
    table = x._table
    matrix = iota.cartan.matrix
    if table is None or table.matrix is not matrix:
        table = x._table = SignatureTable(iota, x)
    return table


def f_tilde(iota, x, i):
    """Kashiwara lowering operator on B(infinity): always defined."""
    return x.bump(signature_table(iota, x).first[i - 1], +1)


def e_tilde(iota, x, i):
    """Kashiwara raising operator on B(infinity); None at the top.
    Raises ValueError for an x that is not a crystal point, where e_i
    would lower an empty slot."""
    t = signature_table(iota, x)
    if t.best[i - 1] <= 0:
        return None
    k = t.last[i - 1]
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

    __slots__ = ("iota", "vector", "lam")

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

    def weight_pairing(self, i):
        """<h_i, wt> with wt = wt(x) on B(infinity), lam + wt(x) on B(lam)."""
        w = signature_table(self.iota, self.vector).pairing[i - 1]
        return w if self.lam is None else w + self.lam[i - 1]

    def epsilon(self, i):
        e = signature_table(self.iota, self.vector).best[i - 1]
        return e if self.lam is None else max(e, -self.weight_pairing(i))

    def phi(self, i):
        p = self._phi_lam(i)
        return p if self.lam is None else max(0, p)

    def _phi_lam(self, i):
        """phi_i(x) + <h_i, lam> (lam = 0 on B(infinity)), which decides
        whether f_i and e_i act on B(lam)."""
        return (signature_table(self.iota, self.vector).best[i - 1]
                + self.weight_pairing(i))

    def f(self, i):
        if self.lam is not None and self._phi_lam(i) <= 0:
            return None
        return self._step(f_tilde(self.iota, self.vector, i))

    def e(self, i):
        if self.lam is not None and self._phi_lam(i) < 0:
            return None
        y = e_tilde(self.iota, self.vector, i)
        return None if y is None else self._step(y)

    def _step(self, y):
        """The node of y, an operator's image of this node's vector: same
        iota and lam, so nothing is checked again."""
        node = CrystalNode.__new__(CrystalNode)
        node.iota, node.vector, node.lam = self.iota, y, self.lam
        return node

    def __eq__(self, other):
        return (isinstance(other, CrystalNode)
                and self.vector == other.vector and self.lam == other.lam)

    def __hash__(self):
        return hash((self.vector, self.lam))

    def __repr__(self):
        tag = "" if self.lam is None else ", lam=%s" % (self.lam,)
        return "CrystalNode(%r%s)" % (self.vector, tag)


def generate_binf(iota, depth, edges=None):
    """All B(infinity) vectors reachable by at most `depth` lowering steps.

    Given a list `edges`, the search appends to it every edge
    (x, i, f_i x) it computes, which is every edge out of a vector of
    depth below `depth`; both ends are the instances in the returned set.
    """
    check_depth(depth)
    return _search(iota, None, depth, edges, "B(infinity) truncation")


def generate_blambda(iota, lam, edges=None):
    """All vectors x with x (x) r_lam in B(lam), from the highest node.

    f_i acts on x (x) r_lam iff phi_i(x) + <h_i, lam> > 0 (CrystalNode).
    Given a list `edges`, the search appends to it every edge
    (x, i, f_i x) of the crystal graph as it computes it; both ends are
    the instances in the returned set.
    """
    lam = check_dominant(iota.cartan, lam)
    return _search(iota, lam, None, edges, "B(lambda) generation")


def _search(iota, lam, depth, edges, what):
    """The search behind generate_binf (lam None: every colour acts) and
    generate_blambda (colour i acts on x iff phi_i(x) + lam_i > 0): a BFS
    from the zero vector for `depth` levels, or until the frontier is
    empty (depth None), keeping each vector as the instance first met and
    naming the search `what` past the "bfs" cap."""
    cap = cap_limit("bfs")
    colours = range(1, iota.rank + 1)
    top = ZVector(iota.rank)
    # key -> its stored instance: one rank, so equal keys are equal
    # vectors, and the tuple keys hash and compare in C
    seen = {top._key: top}
    frontier = [top]
    level = 0
    while frontier and level != depth:
        level += 1
        nxt = []
        for x in frontier:
            acting = colours
            if lam is not None:
                t = signature_table(iota, x)
                acting = [i for i, b, w, lam_i
                          in zip(colours, t.best, t.pairing, lam)
                          if b + w + lam_i > 0]
            for i in acting:
                y = f_tilde(iota, x, i)
                stored = seen.setdefault(y._key, y)
                if stored is y:
                    nxt.append(y)
                if edges is not None:
                    edges.append((x, i, stored))
            if len(seen) > cap:
                raise CapExceeded("bfs", cap, len(seen), what)
        frontier = nxt
    return set(seen.values())

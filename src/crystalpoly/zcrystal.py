"""Crystal operators on the semi-infinite lattice Z^infinity.

Vectors x = (..., x_k, ..., x_2, x_1) with finitely many nonzero entries
are indexed by flat positions k = 1, 2, ... read right-to-left, or
equivalently by (row j, column i) with k = (j-1)*n + i: the reduction
word iota repeats the columns n, ..., 2, 1 cyclically, so position k
carries colour i_k = ((k-1) mod n) + 1.

The Kashiwara operators act through the local exponents

    sigma_k(x) = x_k + sum_{l > k} a_{i_k, i_l} x_l,

with f_i adding 1 at the first maximizer of sigma over colour-i positions
and e_i subtracting 1 at the last one (when the max is positive).  This
realizes B(infinity); pairing with a highest-weight marker realizes
B(lambda) inside the same lattice via the tensor-product rule.

The operators read everything from a SignatureTable: one suffix scan over
the support yields, for every colour at once, the max of sigma (epsilon),
its first and last maximizer (where f_i and e_i act), the weight and its
pairings <h_i, wt> (so phi = epsilon + <h_i, wt>).  The table is computed
on first use and kept on the immutable ZVector, so each vector is scanned
once however many operators and colours ask about it; vectors made by
f_i or e_i start without one.  `sigma` is the direct definition, kept as
the reference the table is tested against.
"""

import os
from bisect import bisect_left


class IotaSequence:
    """The cyclic word (..., n, ..., 2, 1) with row/column bookkeeping."""

    def __init__(self, cartan):
        self.cartan = cartan
        self.rank = cartan.rank
        # per colour p (0-based): the (c, a_{c,p}) with a_{c,p} != 0
        m = cartan.matrix
        self.columns = tuple(
            tuple((c, m[c][p]) for c in range(self.rank) if m[c][p])
            for p in range(self.rank))

    def node(self, k):
        """Colour i_k of flat position k >= 1."""
        return (k - 1) % self.rank + 1

    def flat(self, j, i):
        """Flat position of row j >= 1, column 1 <= i <= rank."""
        return (j - 1) * self.rank + i

    def rowcol(self, k):
        j, i0 = divmod(k - 1, self.rank)
        return (j + 1, i0 + 1)

    def kplus(self, k):
        """Next position of the same colour."""
        return k + self.rank

    def kminus(self, k):
        """Previous position of the same colour, 0 if there is none."""
        return k - self.rank if k > self.rank else 0


class ZVector:
    """Immutable finitely-supported integer vector on (row, column) slots.

    `key()` is the support as a tuple of ((row, column), value) pairs in
    flat position order; equality, hashing and sorting all use it.  The
    signature table of the vector is filled in on first use.
    """

    __slots__ = ("entries", "_key", "_table")

    def __init__(self, entries=()):
        d = dict(entries)
        self.entries = {k: v for k, v in d.items() if v != 0}
        self._key = tuple(sorted(self.entries.items()))
        self._table = None

    def key(self):
        return self._key

    def get(self, j, i):
        return self.entries.get((j, i), 0)

    def bump(self, j, i, delta):
        cell = (j, i)
        key = self._key
        at = bisect_left(key, (cell,))      # (cell,) sorts before (cell, v)
        d = dict(self.entries)
        v = d.get(cell, 0) + delta
        rest = key[at + 1:] if cell in d else key[at:]
        if v:
            d[cell] = v
            rest = ((cell, v),) + rest
        else:
            del d[cell]
        y = ZVector.__new__(ZVector)
        y.entries = d
        y._key = key[:at] + rest
        y._table = None
        return y

    def max_row(self):
        return self._key[-1][0][0] if self._key else 0

    def total(self):
        return sum(self.entries.values())

    def column_sums(self, rank):
        sums = [0] * rank
        for (_, i), v in self.entries.items():
            sums[i - 1] += v
        return tuple(sums)

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return isinstance(other, ZVector) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        if not self.entries:
            return "ZVector(0)"
        body = ", ".join("(%d;%d):%d" % (j, i, v) for (j, i), v in self._key)
        return "ZVector(%s)" % body


def sigma(iota, x, k):
    """sigma_k(x) = x_k + sum over later positions l of a_{i_k,i_l} x_l."""
    j, i = iota.rowcol(k)
    s = x.get(j, i)
    a = iota.cartan.a
    for (jl, il), v in x.entries.items():
        if iota.flat(jl, il) > k:
            s += a(i, il) * v
    return s


class SignatureTable:
    """Everything the operators need from one vector x, for every colour.

    Indexed by colour - 1: `best` is the max of sigma over the colour's
    positions, `first`/`last` the rows of its first and last maximizer,
    `weight` the root coordinates of wt(x) and `pairing` <h_i, wt(x)>.
    `matrix` is the Cartan matrix the table was computed for.
    """

    __slots__ = ("matrix", "best", "first", "last", "weight", "pairing")

    def __init__(self, iota, x):
        """One suffix scan over the support, from the far end to position 1.

        acc[c] holds sum_{l > k} a_{c, i_l} x_l at the current position
        k, so sigma_k = x_k + acc[i_k].  Between two support positions acc
        is constant, so a run of empty colour-c positions is settled in
        one step, just before acc[c] changes, with sigma = acc[c] at its
        lowest and highest row.  Rows above the top support row R give
        sigma = 0 for every colour: starting from max 0 at row R+1 makes
        the max >= 0 and the maximizers over rows 1..R+1 global.  At the
        end acc[c] = -<h_c, wt(x)>.
        """
        n = iota.rank
        columns = iota.columns
        key = x.key()
        top = key[-1][0][0] if key else 0
        acc = [0] * n
        sums = [0] * n
        best = [0] * n
        first = [top + 1] * n
        last = [top + 1] * n
        high = [top] * n        # per colour: highest row not yet scanned

        def settle(c, low):
            # the empty colour-c positions of rows high[c] .. low
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
            for c, _ in columns[p]:     # the acc[c] about to change
                settle(c, j if c > p else j + 1)
            s = v + acc[p]              # sigma at (j, i); high[p] == j
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
        self.matrix = iota.cartan.matrix
        self.best = tuple(best)
        self.first = tuple(first)
        self.last = tuple(last)
        self.weight = tuple(-v for v in sums)
        self.pairing = tuple(-v for v in acc)


def signature_table(iota, x):
    """The SignatureTable of x, computed on first use and kept on x."""
    table = x._table
    matrix = iota.cartan.matrix
    if table is None or table.matrix is not matrix:
        table = x._table = SignatureTable(iota, x)
    return table


def sigma_i_max(iota, x, i):
    """Max of sigma over colour-i positions, with first/last maximizers.

    Returns (sig, k_first, k_last) as flat positions, read off the
    signature table; see SignatureTable for why rows 1..R+1 suffice.
    """
    t = signature_table(iota, x)
    return (t.best[i - 1], iota.flat(t.first[i - 1], i),
            iota.flat(t.last[i - 1], i))


def f_tilde(iota, x, i):
    """Kashiwara lowering operator on B(infinity): always defined."""
    return x.bump(signature_table(iota, x).first[i - 1], i, +1)


def e_tilde(iota, x, i):
    """Kashiwara raising operator on B(infinity); None at the top."""
    t = signature_table(iota, x)
    if t.best[i - 1] <= 0:
        return None
    j = t.last[i - 1]
    assert x.get(j, i) >= 1, "raising at an empty slot: not a crystal point"
    return x.bump(j, i, -1)


def weight_root_coords(x, rank):
    """wt(x) = -sum x_{j;p} alpha_p, as coefficients over the simple roots."""
    t = x._table
    if t is not None and len(t.weight) == rank:
        return t.weight
    return tuple(-v for v in x.column_sums(rank))


def weight_pairing(iota, x, i, lam=None):
    """<h_i, wt> where wt = wt(x) for B(infinity), lam + wt(x) for B(lam)."""
    base = signature_table(iota, x).pairing[i - 1]
    if lam is not None:
        base += lam[i - 1]
    return base


def epsilon(iota, x, i):
    return signature_table(iota, x).best[i - 1]


def phi(iota, x, i):
    t = signature_table(iota, x)
    return t.best[i - 1] + t.pairing[i - 1]


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
        self.iota = iota
        self.vector = vector if vector is not None else ZVector()
        self.lam = tuple(lam) if lam is not None else None

    def weight_pairing(self, i):
        return weight_pairing(self.iota, self.vector, i, self.lam)

    def epsilon(self, i):
        e = epsilon(self.iota, self.vector, i)
        if self.lam is None:
            return e
        return max(e, -self.weight_pairing(i))

    def phi(self, i):
        if self.lam is None:
            return phi(self.iota, self.vector, i)
        return max(0, self._phi_lam(i))

    def _phi_lam(self, i):
        """phi_i(x) + <h_i, lam>, which decides whether f_i and e_i act."""
        return phi(self.iota, self.vector, i) + self.lam[i - 1]

    def f(self, i):
        if self.lam is not None and self._phi_lam(i) <= 0:
            return None
        return CrystalNode(self.iota, f_tilde(self.iota, self.vector, i),
                           self.lam)

    def e(self, i):
        if self.lam is not None and self._phi_lam(i) < 0:
            return None
        y = e_tilde(self.iota, self.vector, i)
        return None if y is None else CrystalNode(self.iota, y, self.lam)

    def __eq__(self, other):
        return (isinstance(other, CrystalNode)
                and self.vector == other.vector and self.lam == other.lam)

    def __hash__(self):
        return hash((self.vector, self.lam))

    def __repr__(self):
        tag = "" if self.lam is None else ", lam=%s" % (self.lam,)
        return "CrystalNode(%r%s)" % (self.vector, tag)


class BfsCapExceeded(RuntimeError):
    """An operator-generated crystal search outgrew CRYSTALPOLY_BFS_CAP."""

    def __init__(self, what, cap, reached):
        super().__init__(
            "%s exceeded the cap of %d nodes (CRYSTALPOLY_BFS_CAP) after "
            "reaching %d nodes" % (what, cap, reached))


def _bfs_cap():
    return int(os.environ.get("CRYSTALPOLY_BFS_CAP", "1000000"))


def generate_binf(iota, depth):
    """All B(infinity) vectors reachable by at most `depth` lowering steps."""
    cap = _bfs_cap()
    seen = {ZVector()}
    frontier = [ZVector()]
    for _ in range(depth):
        nxt = []
        for x in frontier:
            for i in range(1, iota.rank + 1):
                y = f_tilde(iota, x, i)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
            if len(seen) > cap:
                raise BfsCapExceeded("B(infinity) truncation", cap, len(seen))
        frontier = nxt
    return seen


def generate_blambda(iota, lam):
    """All vectors x with x (x) r_lam in B(lam), from the highest node."""
    from .rootdata import check_dominant
    lam = check_dominant(iota.cartan, lam)
    cap = _bfs_cap()
    top = CrystalNode(iota, ZVector(), lam)
    seen = {top.vector}
    frontier = [top]
    while frontier:
        nxt = []
        for node in frontier:
            for i in range(1, iota.rank + 1):
                child = node.f(i)
                if child is not None and child.vector not in seen:
                    seen.add(child.vector)
                    nxt.append(child)
            if len(seen) > cap:
                raise BfsCapExceeded("B(lambda) generation", cap, len(seen))
        frontier = nxt
    return seen

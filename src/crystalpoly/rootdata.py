"""Cartan data for the finite simple Lie types.

Everything downstream (crystal operators, inequality tables, dimension
checks) is driven by the Cartan matrix, its symmetrizer, and the positive
root system, all kept in exact integer arithmetic.

Node numbering: 1-based.  The chain types A, B, C, F, G are numbered along
the chain; D_n attaches nodes n-1 and n to node n-2; E_n attaches the
extra node to the middle of the chain (E6: node 6 on node 3, E7: node 7 on
node 4, E8: node 8 on node 5).  The arrows: B_n has a[n][n-1] = -2,
C_n has a[n-1][n] = -2, F_4 has a[2][3] = -2, G_2 has a[2][1] = -3.

It also holds the size caps, the depth check and the maps between
(row, column) cells and flat positions, since both the polytope side and
the independent operator oracle import it.
"""

import math
import os
from collections import namedtuple

TYPE_RANKS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}

# number of positive roots (= length of the longest Weyl group element)
_POSITIVE_ROOT_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}

# extra single edges beyond the chain 1-2-...-(rank-1) or replacing its tail
_E_EDGES = {
    6: [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)],
    7: [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)],
    8: [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8)],
}


# the size caps, in the order `crystalpoly --help` lists them
Cap = namedtuple("Cap", "env default unit help")
CAPS = {
    "closure": Cap("CRYSTALPOLY_CLOSURE_CAP", 150000, "forms",
                   "max forms per substitution closure"),
    "enum": Cap("CRYSTALPOLY_ENUM_CAP", 10000000, "points",
                "max enumerated lattice points"),
    "bfs": Cap("CRYSTALPOLY_BFS_CAP", 1000000, "nodes",
               "max operator-generated crystal nodes"),
}


def cap_limit(name):
    """The limit of cap `name`: its environment variable when set, else
    its default.  Raises ValueError unless the value is an integer >= 0."""
    cap = CAPS[name]
    text = os.environ.get(cap.env, str(cap.default))
    try:
        limit = int(text)
    except ValueError:
        limit = -1
    if limit < 0:
        raise ValueError("%s must be a nonnegative integer, got %r"
                         % (cap.env, text))
    return limit


class CapExceeded(RuntimeError):
    """The search `what` outgrew the cap `cap` (a key of CAPS), set to
    `limit` by the variable `env`, after reaching `reached` items."""

    def __init__(self, cap, limit, reached, what, detail=""):
        self.cap, self.limit, self.reached = cap, limit, reached
        self.env, _, unit, _ = CAPS[cap]
        super().__init__(
            "%s exceeded the cap of %d %s (%s) after reaching %d %s%s"
            % (what, limit, unit, self.env, reached, unit, detail))


def check_depth(depth):
    """Raise ValueError unless the truncation depth is an int >= 0."""
    if not isinstance(depth, int) or depth < 0:
        raise ValueError("depth must be an integer >= 0, not %r" % (depth,))


def flat_cells(rank, cells):
    """The ((row, column), value) items of `cells` as flat (k, value)
    pairs, k = (row-1)*rank + column ascending, zero values left out.

    Rejects an item that is not a ((row, column), value) pair, such as
    the (k, value) pair of a key, cells outside rows >= 1 and columns
    1..rank, which would alias another flat position, and non-int values.
    """
    pairs = []
    for cell, v in dict(cells).items():
        if not isinstance(cell, tuple) or len(cell) != 2:
            raise ValueError("item %r is not a ((row, column), value) pair; "
                             "a flat (k, value) key goes through "
                             "ZVector.from_key" % ((cell, v),))
        j, i = cell
        if j < 1 or not 1 <= i <= rank:
            raise ValueError("cell (%d, %d) lies outside rows >= 1 and "
                             "columns 1..%d" % (j, i, rank))
        if not isinstance(v, int):
            raise ValueError("cell (%d, %d) has value %r, not an int"
                             % (j, i, v))
        if v:
            pairs.append(((j - 1) * rank + i, v))
    pairs.sort()
    return tuple(pairs)


def cell_triples(rank, pairs):
    """The flat (k, value) pairs as (row, column, value) triples, in the
    order given: the inverse of flat_cells.  The triples are made as they
    are read, so a renderer decodes its pairs in the pass that writes them."""
    return (((k - 1) // rank + 1, (k - 1) % rank + 1, v) for k, v in pairs)


class CartanDatum:
    """A finite-type Cartan matrix with its symmetrizer.

    matrix[i-1][j-1] = <h_i, alpha_j>; symmetrizer d has d_i * a_ij
    symmetric with minimal positive integer entries.
    """

    def __init__(self, type_label, rank, matrix, symmetrizer):
        self.type_label = type_label
        self.rank = rank
        self.matrix = matrix
        self.symmetrizer = symmetrizer

    def a(self, i, j):
        """<h_i, alpha_j>, 1-based."""
        return self.matrix[i - 1][j - 1]

    def d(self, i):
        return self.symmetrizer[i - 1]

    def __repr__(self):
        return "CartanDatum(%s%d)" % (self.type_label, self.rank)

    def __eq__(self, other):
        return (isinstance(other, CartanDatum)
                and self.type_label == other.type_label
                and self.rank == other.rank)

    def __hash__(self):
        return hash((self.type_label, self.rank))


def cartan_matrix(type_label, rank):
    """Build the CartanDatum for one of A,B,C,D,E,F,G at the given rank."""
    type_label = type_label.upper()
    if type_label not in TYPE_RANKS:
        raise ValueError("unknown type %r" % (type_label,))
    if not TYPE_RANKS[type_label](rank):
        raise ValueError("rank %d not valid for type %s" % (rank, type_label))
    n = rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i, j, w_ij=-1, w_ji=-1):
        a[i - 1][j - 1] = w_ij
        a[j - 1][i - 1] = w_ji

    if type_label in ("A", "B", "C", "G"):
        for i in range(1, n):
            edge(i, i + 1)
        if type_label == "B":
            edge(n - 1, n, -1, -2)       # short final root
        elif type_label == "C":
            edge(n - 1, n, -2, -1)       # long final root
        elif type_label == "G":
            edge(1, 2, -1, -3)
    elif type_label == "D":
        for i in range(1, n - 1):
            edge(i, i + 1)
        a[n - 2][n - 1] = a[n - 1][n - 2] = 0    # n-1, n not adjacent
        edge(n - 2, n)
    elif type_label == "E":
        for i, j in _E_EDGES[n]:
            edge(i, j)
    elif type_label == "F":
        edge(1, 2)
        edge(2, 3, -2, -1)
        edge(3, 4)

    matrix = tuple(tuple(row) for row in a)
    return CartanDatum(type_label, rank, matrix, _symmetrizer(matrix, rank))


def _symmetrizer(a, n):
    """Minimal positive integers d_i with d_i a_ij = d_j a_ji."""
    d = [0] * n
    d[0] = 1
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if i != j and a[i][j] != 0 and d[j] == 0:
                num, den = d[i] * a[i][j], a[j][i]
                scale = abs(den) // math.gcd(num, den)  # then den | num
                d = [v * scale for v in d]
                d[j] = _exact(num * scale, den)
                todo.append(j)
    if any(v == 0 for v in d):
        raise ValueError("Cartan diagram is not connected")
    g = math.gcd(*d)
    return tuple(v // g for v in d)


def _exact(num, den):
    """num / den, checked to be an integer."""
    if num % den:
        raise ArithmeticError("%d / %d is not an integer" % (num, den))
    return num // den


def positive_roots(cartan):
    """All positive roots, as tuples of coefficients over the simple roots.

    Computed by closing the simple roots under the simple reflections
    (every root is Weyl-conjugate to a simple one) and keeping the
    nonnegative ones.  The closure may hold at most twice the known
    positive-root count of the type.  Returned sorted by (height, coords).
    """
    n = cartan.rank
    bound = 2 * _POSITIVE_ROOT_COUNT[cartan.type_label](n)
    # per node i: the (p, a_ip) with a_ip != 0, for <h_i, root>
    rows = [[(p, a) for p, a in enumerate(row) if a] for row in cartan.matrix]
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots = set(simples)
    queue = list(simples)
    while queue:
        c = queue.pop()
        for i in range(n):
            m = sum(a * c[p] for p, a in rows[i])
            if not m:
                continue
            r = list(c)
            r[i] -= m
            r = tuple(r)
            if r not in roots:
                roots.add(r)
                queue.append(r)
        if len(roots) > bound:
            raise RuntimeError("root system does not close; bad Cartan data?")
    pos = [r for r in roots if all(v >= 0 for v in r)]
    pos.sort(key=lambda r: (sum(r), r))
    return tuple(pos)


def longest_word_length(cartan):
    """Length of the longest Weyl group element (= number of positive
    roots), from the closed-form count of the type; the tests check it
    against `positive_roots`."""
    return _POSITIVE_ROOT_COUNT[cartan.type_label](cartan.rank)


def check_dominant(cartan, lam):
    if lam is None:
        raise ValueError("weight lambda is missing")
    lam = tuple(lam)
    if len(lam) != cartan.rank:
        raise ValueError("weight has %d coordinates, rank is %d"
                         % (len(lam), cartan.rank))
    if any(not isinstance(v, int) or v < 0 for v in lam):
        raise ValueError("weight %r is not dominant integral" % (lam,))
    return lam


def weyl_dim(cartan, lam):
    """dim V(lambda) by the Weyl dimension formula, exactly.

    lam is given in fundamental-weight coordinates (nonnegative ints).
    Uses (lambda + rho, alpha) / (rho, alpha) = sum_j c_j d_j (lam_j + 1)
    / sum_j c_j d_j for alpha = sum_j c_j alpha_j.
    """
    lam = check_dominant(cartan, lam)
    d = cartan.symmetrizer
    num = den = 1
    for root in positive_roots(cartan):
        num *= sum(c * dj * (lj + 1) for c, dj, lj in zip(root, d, lam))
        den *= sum(c * dj for c, dj in zip(root, d))
    dim, rem = divmod(num, den)
    if rem:
        g = math.gcd(num, den)
        raise RuntimeError("Weyl dimension %d/%d is not an integer"
                           % (num // g, den // g))
    return dim


def lowest_weight(cartan, lam):
    """w_0(lambda) in fundamental coordinates, by antidominant descent."""
    lam = check_dominant(cartan, lam)
    mu = list(lam)
    n = cartan.rank
    # each step lowers by one the number of positive roots pairing
    # positively with mu, so a finite type stops within N steps
    for _ in range(_POSITIVE_ROOT_COUNT[cartan.type_label](n) + 1):
        i = next((i for i in range(n) if mu[i] > 0), None)
        if i is None:
            return tuple(mu)
        m = mu[i]
        for k in range(n):
            mu[k] -= m * cartan.matrix[k][i]
    raise RuntimeError("antidominant descent did not terminate")


def root_coords(cartan, fund_coords):
    """Solve A c = fund_coords exactly: the simple-root coefficients as
    ints, ValueError when fund_coords is not in the root lattice.  By
    fraction-free Gauss-Jordan elimination (Bareiss) on [A | b]: each entry
    stays a minor, and row r ends as the last pivot p times (e_r | c_r)."""
    n = cartan.rank
    m = [list(row) + [v] for row, v in zip(cartan.matrix, fund_coords)]
    prev = 1
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        top, p = m[col], m[col][col]
        for r in range(n):
            if r != col:
                f = m[r][col]
                m[r] = [_exact(p * v - f * w, prev)
                        for v, w in zip(m[r], top)]
        prev = p
    if any(row[n] % prev for row in m):
        raise ValueError("%r is not in the root lattice of %r"
                         % (tuple(fund_coords), cartan))
    return tuple(row[n] // prev for row in m)


def weight_string_budget(cartan, lam):
    """Height of lambda - w_0(lambda): an exact bound on the number of
    lowering steps from the highest-weight element of B(lambda)."""
    lam = check_dominant(cartan, lam)
    low = lowest_weight(cartan, lam)
    diff = tuple(a - b for a, b in zip(lam, low))
    coords = root_coords(cartan, diff)
    if not all(c >= 0 for c in coords):
        raise RuntimeError("lambda - w0(lambda) has simple-root "
                           "coefficients %s, not all integers >= 0"
                           % ", ".join(map(str, coords)))
    return int(sum(coords))

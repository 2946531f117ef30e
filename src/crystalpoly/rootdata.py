"""Cartan data for the finite simple Lie types.

Everything downstream (crystal operators, inequality tables, dimension
checks) is driven by the Cartan matrix, its symmetrizer, and the positive
root system, all kept in exact integer / Fraction arithmetic.

Node numbering: 1-based.  The chain types A, B, C, F, G are numbered along
the chain; D_n attaches nodes n-1 and n to node n-2; E_n attaches the
extra node to the middle of the chain (E6: node 6 on node 3, E7: node 7 on
node 4, E8: node 8 on node 5).  The arrows: B_n has a[n][n-1] = -2,
C_n has a[n-1][n] = -2, F_4 has a[2][3] = -2, G_2 has a[2][1] = -3.
"""

from fractions import Fraction

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

    def pair_root_coords(self, i, coords):
        """<h_i, mu> for mu = sum_p coords[p-1] * alpha_p."""
        row = self.matrix[i - 1]
        return sum(row[p] * coords[p] for p in range(self.rank))

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
    lcm_den = 1
    for v in d:
        lcm_den = lcm_den * v.denominator // _gcd(lcm_den, v.denominator)
    d = [v * lcm_den for v in d]
    g = 0
    for v in d:
        g = _gcd(g, v.numerator)
    return tuple(int(v / g) for v in d)


def _gcd(x, y):
    while y:
        x, y = y, x % y
    return x


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
    """Length of the longest Weyl group element (= number of positive roots)."""
    return len(positive_roots(cartan))


def check_dominant(cartan, lam):
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
    dim = Fraction(1)
    for root in positive_roots(cartan):
        num = sum(c * dj * (lj + 1) for c, dj, lj in zip(root, d, lam))
        den = sum(c * dj for c, dj in zip(root, d))
        dim *= Fraction(num, den)
    assert dim.denominator == 1
    return int(dim)


def lowest_weight(cartan, lam):
    """w_0(lambda) in fundamental coordinates, by antidominant descent."""
    lam = check_dominant(cartan, lam)
    mu = list(lam)
    n = cartan.rank
    for _ in range(100000):
        i = next((i for i in range(n) if mu[i] > 0), None)
        if i is None:
            return tuple(mu)
        m = mu[i]
        for k in range(n):
            mu[k] -= m * cartan.matrix[k][i]
    raise RuntimeError("antidominant descent did not terminate")


def root_coords(cartan, fund_coords):
    """Solve A c = fund_coords exactly: coefficients over the simple roots."""
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


def weight_string_budget(cartan, lam):
    """Height of lambda - w_0(lambda): an exact bound on the number of
    lowering steps from the highest-weight element of B(lambda)."""
    lam = check_dominant(cartan, lam)
    low = lowest_weight(cartan, lam)
    diff = tuple(a - b for a, b in zip(lam, low))
    coords = root_coords(cartan, diff)
    assert all(c.denominator == 1 and c >= 0 for c in coords)
    return int(sum(coords))

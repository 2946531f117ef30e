"""Linear forms on Z^infinity and the piecewise-linear substitution closure.

A LinearForm is an integer combination of coordinates x_{j;i}, an optional
combination of the highest-weight coordinates lambda_1..lambda_n, and an
integer constant.  The operator S_k replaces a form phi by

    phi - phi_k * beta_k        if phi_k > 0,
    phi - phi_k * beta_{k^-}    if phi_k <= 0,

where beta_k = x_k + sum_{k<l<k^+} a_{i_k,i_l} x_l + x_{k^+} and k^- is the
previous position of the same colour; when phi_k < 0 and k lies in the
first row (no k^-), the step is recorded as a positivity-violation event
and the form is left unchanged.  The hatted variant S^_k instead uses, on
first-row positions, the lambda-dependent substitute

    beta^-_{(1;i)} = -lambda_i + sum_{p<i} a_{i,p} x_{1;p} + x_{1;i},

so it is total.  Closing generator sets under these operators produces the
inequality systems realizing B(infinity) and B(lambda).
"""

import os


class LinearForm:
    """sum c_{j;i} x_{j;i} + sum l_m lambda_m + const, exact integers."""

    __slots__ = ("rank", "coeffs", "lam", "const", "_key")

    def __init__(self, rank, coeffs=(), lam=None, const=0):
        self.rank = rank
        d = dict(coeffs)
        self.coeffs = {k: v for k, v in d.items() if v != 0}
        self.lam = tuple(lam) if lam is not None else (0,) * rank
        assert len(self.lam) == rank
        self.const = const
        self._key = (tuple(sorted(self.coeffs.items())), self.lam, self.const)

    def key(self):
        return self._key

    def is_zero(self):
        return not self.coeffs and not any(self.lam) and self.const == 0

    def coeff(self, j, i):
        return self.coeffs.get((j, i), 0)

    def minus(self, other, mult=1):
        """self - mult * other."""
        d = dict(self.coeffs)
        for k, v in other.coeffs.items():
            d[k] = d.get(k, 0) - mult * v
        lam = tuple(a - mult * b for a, b in zip(self.lam, other.lam))
        return LinearForm(self.rank, d, lam, self.const - mult * other.const)

    def plus_constant(self, lam=None, const=0):
        new_lam = tuple(a + b for a, b in zip(self.lam, lam)) \
            if lam is not None else self.lam
        return LinearForm(self.rank, self.coeffs, new_lam, self.const + const)

    def shift_rows(self, delta):
        """Same form `delta` rows deeper (coordinate part only)."""
        assert not any(self.lam) and self.const == 0
        return LinearForm(self.rank,
                          {(j + delta, i): v
                           for (j, i), v in self.coeffs.items()})

    def evaluate(self, x, lam_values=None):
        """Value at a ZVector / dict x, binding lambda if present."""
        entries = x if isinstance(x, dict) else x.entries
        total = self.const
        for slot, c in self.coeffs.items():
            total += c * entries.get(slot, 0)
        if any(self.lam):
            if lam_values is None:
                raise ValueError("form depends on lambda; no values given")
            total += sum(l * v for l, v in zip(self.lam, lam_values))
        return total

    def max_row(self):
        return max((j for j, _ in self.coeffs), default=0)

    def __eq__(self, other):
        return isinstance(other, LinearForm) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "LinearForm(%s)" % (render_form(self),)


def render_form(form):
    """Human-readable rendering, canonical term order."""
    parts = []
    for m, l in enumerate(form.lam, start=1):
        if l:
            parts.append((l, "L%d" % m))
    for (j, i), c in sorted(form.coeffs.items()):
        parts.append((c, "x[%d;%d]" % (j, i)))
    if form.const:
        parts.append((form.const, ""))
    if not parts:
        return "0"
    out = []
    for c, name in parts:
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if not name:
            term = str(mag)
        elif mag == 1:
            term = name
        else:
            term = "%d*%s" % (mag, name)
        if not out:
            out.append(term if c > 0 else "-" + term)
        else:
            out.append("%s %s" % (sign, term))
    return " ".join(out)


def canonicalize(form):
    """Drop zero coefficients; None for the zero form (constructor already
    normalizes, so this is the null filter)."""
    return None if form.is_zero() else form


class FormSet:
    """An immutable set of LinearForms with deterministic iteration order."""

    __slots__ = ("forms", "_set")

    def __init__(self, forms=()):
        self._set = frozenset(f for f in forms if not f.is_zero())
        self.forms = tuple(sorted(self._set, key=lambda f: f.key()))

    def __iter__(self):
        return iter(self.forms)

    def __len__(self):
        return len(self.forms)

    def __contains__(self, form):
        return form in self._set

    def __eq__(self, other):
        return isinstance(other, FormSet) and self._set == other._set

    def __hash__(self):
        return hash(self._set)

    def union(self, other):
        return FormSet(self._set | set(other))

    def difference(self, other):
        return FormSet(self._set - set(other))

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


def beta_pm(iota, k, sign):
    """beta_k^(+) = beta_k; beta_k^(-) = beta_{k^-} when it exists, else
    the lambda-dependent first-row substitute."""
    if sign == "+":
        return beta(iota, k)
    if sign != "-":
        raise ValueError("sign must be '+' or '-'")
    km = iota.kminus(k)
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
    """lambda_i + xi^(i): the seed whose S^-closure cuts out B(lambda)."""
    base = xi_form(iota, i)
    lam = tuple(1 if m == i else 0 for m in range(1, iota.rank + 1))
    return LinearForm(iota.rank, base.coeffs, lam)


def apply_S(iota, k, form, events=None):
    """One unhatted substitution step; first-row violations are no-ops,
    optionally recorded in `events`."""
    c = form.coeff(*iota.rowcol(k))
    if c == 0:
        return form
    if c > 0:
        return form.minus(beta(iota, k), c)
    km = iota.kminus(k)
    if km == 0:
        if events is not None:
            events.append((form, k))
        return form
    return form.minus(beta(iota, km), c)


def apply_Shat(iota, k, form):
    """One hatted substitution step (total: first row uses the lambda
    substitute)."""
    c = form.coeff(*iota.rowcol(k))
    if c == 0:
        return form
    if c > 0:
        return form.minus(beta(iota, k), c)
    return form.minus(beta_pm(iota, k, "-"), c)


class ClosureCapExceeded(RuntimeError):
    pass


def _closure_cap():
    return int(os.environ.get("CRYSTALPOLY_CLOSURE_CAP", "100000"))


def closure(iota, generators, operator="S", position_bound=None,
            size_cap=None, events=None):
    """Close `generators` under the substitution operator.

    Operators are applied at every support position (they fix forms with
    zero coefficient, so this loses nothing); `position_bound`, when given,
    restricts to flat positions <= bound.  Zero forms are dropped.  Raises
    ClosureCapExceeded past `size_cap` (default from
    CRYSTALPOLY_CLOSURE_CAP, 100000).
    """
    if operator == "S":
        def step(k, f):
            return apply_S(iota, k, f, events)
    elif operator == "Shat":
        def step(k, f):
            return apply_Shat(iota, k, f)
    else:
        raise ValueError("operator must be 'S' or 'Shat'")
    cap = size_cap if size_cap is not None else _closure_cap()
    seen = {}
    queue = []
    for g in generators:
        g = canonicalize(g)
        if g is not None and g.key() not in seen:
            seen[g.key()] = g
            queue.append(g)
    while queue:
        f = queue.pop()
        positions = sorted(iota.flat(j, i) for (j, i) in f.coeffs)
        for k in positions:
            if position_bound is not None and k > position_bound:
                continue
            g = step(k, f)
            if g.is_zero() or g.key() in seen:
                continue
            seen[g.key()] = g
            queue.append(g)
            if len(seen) > cap:
                raise ClosureCapExceeded(
                    "closure exceeded the cap of %d forms "
                    "(CRYSTALPOLY_CLOSURE_CAP) after reaching %d forms; "
                    "runaway system?" % (cap, len(seen)))
    return FormSet(seen.values())


def check_positivity(formset):
    """Forms with a negative first-row coefficient (empty = condition holds)."""
    return [f for f in formset
            if any(j == 1 and c < 0 for (j, _), c in f.coeffs.items())]


def check_strict_positivity(xi_closure, xi_i_closures, iota):
    """Violations of the strict condition: every member of the B(infinity)
    family and of each node family — except the row-1 seeds xi^(i)
    themselves — must have nonnegative first-row coefficients."""
    seeds = {xi_form(iota, i) for i in range(1, iota.rank + 1)}
    bad = list(check_positivity(xi_closure))
    for i, fs in sorted(xi_i_closures.items()):
        bad.extend(f for f in check_positivity(fs) if f not in seeds)
    return bad


def check_ample(formset, lam):
    """Forms whose constant part is negative at lambda (empty = ample)."""
    bad = []
    for f in formset:
        c = f.const + sum(l * v for l, v in zip(f.lam, lam))
        if c < 0:
            bad.append(f)
    return bad

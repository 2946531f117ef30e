"""Polyhedral crystal models: assembly, membership, lattice-point
enumeration, crystal graphs, and the verification harness.

A Polyhedron is a finite presentation of a conceptually infinite
inequality system: the instantiated forms together with the region of
coordinates not forced to vanish by the deeper row shifts.  A vector
belongs to the model iff its support lies inside the region and every
stored form is nonnegative on it; forms beyond the stored window touch
only forced-zero coordinates, so the finite test loses nothing.
"""

import os

from .forms import (FormSet, LinearForm, check_ample, check_positivity,
                    check_strict_positivity, closure, lambda_form,
                    render_form, xi_form)
from .rootdata import check_dominant, longest_word_length, \
    weight_string_budget, weyl_dim
from .tables import UnsupportedTableError, binf_table, xi_first_tables
from .zcrystal import CrystalNode, IotaSequence, ZVector, generate_binf, \
    generate_blambda, weight_root_coords


class RealizationError(ValueError):
    """A model could not be assembled or enumerated; carries the
    offending forms or vectors when there are any."""

    def __init__(self, message, witnesses=()):
        super().__init__(message)
        self.witnesses = tuple(witnesses)


def _enum_cap():
    return int(os.environ.get("CRYSTALPOLY_ENUM_CAP", "10000000"))


def _forced_cells(parametric, width):
    """Cells forced to vanish by the shifts d = 0..width-1 of the family.

    A coordinate is forced when some inequality with no surviving
    positive term caps it: if every positive cell of a form is already
    forced, its negative cells must vanish too (the system pins them
    between 0 and 0).  This is a monotone fixpoint, computed with a
    counting worklist.
    """
    shifted = [f.shift_rows(d) for f in parametric for d in range(width)]
    pending = []          # per form: count of not-yet-forced positive cells
    negatives = []        # per form: its negative cells
    by_pos = {}           # cell -> forms (by index) positive there
    forced = set()
    queue = []
    for idx, f in enumerate(shifted):
        pos = [cell for cell, c in f.coeffs.items() if c > 0]
        neg = [cell for cell, c in f.coeffs.items() if c < 0]
        pending.append(len(pos))
        negatives.append(neg)
        for cell in pos:
            by_pos.setdefault(cell, []).append(idx)
        if not pos:
            for cell in neg:
                if cell not in forced:
                    forced.add(cell)
                    queue.append(cell)
    while queue:
        cell = queue.pop()
        for idx in by_pos.get(cell, ()):
            pending[idx] -= 1
            if pending[idx] == 0:
                for c2 in negatives[idx]:
                    if c2 not in forced:
                        forced.add(c2)
                        queue.append(c2)
    return forced


def _zero_region(parametric, n):
    """(live cells, last live row) for the full shifted system.

    `parametric` is the inequality family seeded at row 1; its shifts by
    every nonnegative row offset make up the system.  The fixpoint runs
    over a finite window of shifts and is accepted once the live set is
    stable under doubling the window and dies out well before its edge.
    Rows within `maxoff` of the window edge see an incomplete system, so
    only shallower rows are trusted.
    """
    maxoff = max(f.max_row() for f in parametric) - 1
    span = maxoff + 2

    def live(width):
        forced = _forced_cells(parametric, width)
        return {(j, i) for j in range(1, width - maxoff + 1)
                for i in range(1, n + 1) if (j, i) not in forced}

    width = 4 * span
    while width <= 4096:
        region = live(width)
        again = {cell for cell in live(2 * width)
                 if cell[0] <= width - maxoff}
        cutoff = max((j for j, _ in region), default=0)
        if region == again and cutoff + span < width - maxoff:
            return frozenset(region), cutoff
        width *= 2
    raise RealizationError(
        "no stable row cutoff within %d rows; runaway system?" % width)


def _binf_forms(cartan, iota, cutoff, source):
    if source == "table":
        return binf_table(cartan.type_label, cartan.rank)
    if source != "closure":
        raise ValueError("source must be 'table' or 'closure'")
    n = cartan.rank
    gens = [LinearForm(n, {(j, 1): 1}) for j in range(1, cutoff + 1)]
    forms = list(closure(iota, gens, "S"))
    if cartan.type_label == "D":
        # the fork columns are invisible to the substitution orbit of the
        # first column; the defining system adjoins them as coordinates
        forms.extend(LinearForm(n, {(j, i): 1})
                     for j in range(1, cutoff + 1) for i in (n - 1, n))
    return FormSet(forms)


def _node_families(cartan, iota, source):
    """{node i: family of lambda-bearing forms} for the B(lambda) system."""
    n = cartan.rank
    if source == "table":
        fams = {}
        for i, fs in xi_first_tables(cartan.type_label, n).items():
            unit = tuple(1 if m == i else 0 for m in range(1, n + 1))
            fams[i] = FormSet(f.plus_constant(unit) for f in fs)
        return fams
    return {i: closure(iota, [lambda_form(iota, i)], "Shat")
            for i in range(1, n + 1)}


class Polyhedron:
    """Finite presentation of one inequality model ("binf" or "blambda")."""

    __slots__ = ("cartan", "iota", "object", "source", "forms", "region",
                 "row_cutoff", "lam")

    def __init__(self, cartan, object_, source, forms, region, row_cutoff,
                 lam=None):
        self.cartan = cartan
        self.iota = IotaSequence(cartan)
        self.object = object_
        self.source = source
        self.forms = forms
        self.region = frozenset(region)
        self.row_cutoff = row_cutoff
        self.lam = lam

    def contains(self, x, lam=None):
        entries = x.entries if isinstance(x, ZVector) else \
            {cell: v for cell, v in dict(x).items() if v}
        if any(cell not in self.region for cell in entries):
            return False
        lam = self.lam if lam is None else tuple(lam)
        return all(f.evaluate(entries, lam) >= 0 for f in self.forms)

    def __repr__(self):
        lam = "" if self.lam is None else ", lam=%s" % (self.lam,)
        return "Polyhedron(%s%d, %s, %s, %d forms%s)" % (
            self.cartan.type_label, self.cartan.rank, self.object,
            self.source, len(self.forms), lam)


def build(cartan, object_="binf", lam=None, source="closure"):
    """Assemble the inequality model for B(infinity) or B(lambda).

    source="table" uses the closed-form tables (raising
    UnsupportedTableError where none exist); source="closure" regenerates
    every family from its seed.  Construction fails loudly when the
    positivity (binf) or ample (blambda) precondition is violated.
    """
    iota = IotaSequence(cartan)
    n = cartan.rank
    family1 = closure(iota, [LinearForm(n, {(1, 1): 1})], "S")
    region, cutoff = _zero_region(family1, n)
    if object_ == "binf":
        if lam is not None:
            raise ValueError("lambda only applies to object 'blambda'")
        forms = _binf_forms(cartan, iota, cutoff, source)
        bad = check_positivity(forms)
        if bad:
            raise RealizationError(
                "positivity fails for %d forms, e.g. %s"
                % (len(bad), render_form(bad[0])), bad)
        return Polyhedron(cartan, "binf", source, forms, region, cutoff)
    if object_ != "blambda":
        raise ValueError("object must be 'binf' or 'blambda'")
    lam = check_dominant(cartan, lam)
    forms = list(_binf_forms(cartan, iota, cutoff, source))
    for _, fam in sorted(_node_families(cartan, iota, source).items()):
        forms.extend(fam)
    forms = FormSet(forms)
    bad = check_ample(forms, lam)
    if bad:
        raise RealizationError(
            "(iota, lambda) is not ample: %d forms negative at zero, "
            "e.g. %s" % (len(bad), render_form(bad[0])), bad)
    return Polyhedron(cartan, "blambda", source, forms, region, cutoff, lam)


def contains(poly, x, lam=None):
    return poly.contains(x, lam)


def _enumerate(poly, budget, lam):
    """All model points with coordinate sum <= budget, by depth-first
    search over the region in flat coordinate order.

    Each form is resolved at its last region cell in that order: there
    the earlier cells are decided and the later ones are outside the
    region, hence zero, so the form caps the cell from above (negative
    coefficient) or below (positive).  The remaining cells are capped by
    the budget, which keeps the search finite; the realized systems
    bound every live coordinate, so the form caps prune far below the
    budget simplex in practice.
    """
    iota = poly.iota
    order = sorted(poly.region, key=lambda cell: iota.flat(*cell))
    upper = {cell: [] for cell in order}
    lower = {cell: [] for cell in order}
    for f in poly.forms:
        inside = [cell for cell in f.coeffs if cell in poly.region]
        if not inside:
            # supported entirely on forced cells: a fixed inequality
            if f.evaluate({}, lam) < 0:
                return set()
            continue
        top = max(inside, key=lambda cell: iota.flat(*cell))
        (upper if f.coeffs[top] < 0 else lower)[top].append(f)
    cap = _enum_cap()
    points = set()
    partial = {}

    def rec(idx, used):
        if idx == len(order):
            points.add(ZVector(partial))
            if len(points) > cap:
                raise RealizationError(
                    "enumeration exceeded the cap of %d points "
                    "(CRYSTALPOLY_ENUM_CAP) after reaching %d points"
                    % (cap, len(points)))
            return
        cell = order[idx]
        hi = budget - used
        lo = 0
        for f in upper[cell]:
            hi = min(hi, f.evaluate(partial, lam) // -f.coeffs[cell])
        for f in lower[cell]:
            lo = max(lo, -(f.evaluate(partial, lam) // f.coeffs[cell]))
        for v in range(lo, hi + 1):
            if v:
                partial[cell] = v
            rec(idx + 1, used + v)
        partial.pop(cell, None)

    rec(0, 0)
    return points


def enumerate_binf_truncated(poly, depth):
    """All model points with coordinate sum <= depth."""
    if poly.object != "binf":
        raise ValueError("expected a binf model")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return _enumerate(poly, depth, None)


def enumerate_blambda(poly, lam=None):
    """All lattice points of the B(lambda) model.

    The search is capped at the crystal diameter (the height of
    lambda - w0 lambda); the realized systems admit no points beyond it,
    which the verification harness cross-checks against the operator
    oracle and the Weyl dimension count.
    """
    if poly.object != "blambda":
        raise ValueError("expected a blambda model")
    if lam is None:
        lam = poly.lam
    else:
        lam = check_dominant(poly.cartan, lam)
        bad = check_ample(poly.forms, lam)
        if bad:
            raise RealizationError(
                "(iota, lambda) is not ample at %s" % (lam,), bad)
    return _enumerate(poly, weight_string_budget(poly.cartan, lam), lam)


def crystal_graph(cartan, lam):
    """The labeled digraph of B(lambda): (nodes, edges) with edges
    (source vector, i, target vector), deterministically ordered."""
    iota = IotaSequence(cartan)
    lam = check_dominant(cartan, lam)
    nodes = sorted(generate_blambda(iota, lam), key=ZVector.key)
    edges = []
    for x in nodes:
        node = CrystalNode(iota, x, lam)
        for i in range(1, cartan.rank + 1):
            child = node.f(i)
            if child is not None:
                edges.append((x, i, child.vector))
    edges.sort(key=lambda e: (e[0].key(), e[1]))
    return nodes, edges


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
        assert self.passed or self.witnesses, "failing check needs a witness"

    def status(self):
        if self.skipped:
            return "SKIP"
        return "PASS" if self.passed else "FAIL"

    def __repr__(self):
        return "VerifyReport(%s %s)" % (self.name, self.status())


def _diff_witnesses(left, right, show):
    return ["only in %s: %s" % (side, show(v))
            for side, one, other in (("first", left, right),
                                     ("second", right, left))
            for v in sorted(one - other, key=repr)[:5]]


def verify(cartan, lam=None, depth=4, sources=("closure", "table")):
    """Run the verification harness; returns a list of VerifyReport.

    Checks: (a) table forms == closure forms; (b) operator-generated
    truncation of B(infinity) == enumerated lattice points; (c) the same
    for B(lambda), plus the Weyl dimension count; (d) positivity /
    strict positivity / ampleness; (e) live region size ==
    positive-root count; (f) crystal axioms on the generated sets;
    (g) every enumerated or generated point is coordinatewise
    nonnegative.  Types without a closed-form table yield SKIP entries
    for the table-dependent checks.
    """
    iota = IotaSequence(cartan)
    reports = []
    polys = {}
    for source in sources:
        try:
            polys[source] = build(cartan, "binf", source=source)
        except UnsupportedTableError as err:
            reports.append(VerifyReport(
                "a:table-vs-closure", True, skipped=True, note=str(err)))
    if "closure" in polys and "table" in polys:
        left = set(polys["closure"].forms)
        right = set(polys["table"].forms)
        reports.append(VerifyReport(
            "a:table-vs-closure", left == right,
            counts={"closure": len(left), "table": len(right)},
            witnesses=_diff_witnesses(left, right, render_form)))

    bfs = generate_binf(iota, depth)
    enumerated = {}
    ok = True
    counts = {"bfs": len(bfs)}
    witnesses = []
    for source, poly in sorted(polys.items()):
        got = enumerate_binf_truncated(poly, depth)
        enumerated[source] = got
        counts[source] = len(got)
        if got != bfs:
            ok = False
            witnesses += _diff_witnesses(bfs, got, repr)
    if polys:
        reports.append(VerifyReport("b:binf-oracle", ok, counts, witnesses))

    lam_polys = {}
    blam = None
    if lam is not None:
        lam = check_dominant(cartan, lam)
        for source in sources:
            try:
                lam_polys[source] = build(cartan, "blambda", lam,
                                          source=source)
            except UnsupportedTableError as err:
                reports.append(VerifyReport(
                    "c:blambda-oracle", True, skipped=True, note=str(err)))
        blam = generate_blambda(iota, lam)
        dim = weyl_dim(cartan, lam)
        ok = len(blam) == dim
        counts = {"bfs": len(blam), "weyl_dim": dim}
        witnesses = [] if ok else ["|B(lambda)| %d != weyl_dim %d"
                                   % (len(blam), dim)]
        for source, poly in sorted(lam_polys.items()):
            got = enumerate_blambda(poly)
            counts[source] = len(got)
            if got != blam:
                ok = False
                witnesses += _diff_witnesses(blam, got, repr)
        reports.append(VerifyReport("c:blambda-oracle", ok, counts,
                                    witnesses))

    xi_closure = closure(iota, [LinearForm(cartan.rank, {(1, 1): 1})], "S")
    bad = check_positivity(xi_closure)
    reports.append(VerifyReport(
        "d:positivity", not bad, {"forms": len(xi_closure)},
        [render_form(f) for f in bad]))
    if lam is not None:
        node_closures = {i: closure(iota, [xi_form(iota, i)], "S")
                         for i in range(1, cartan.rank + 1)}
        bad = check_strict_positivity(xi_closure, node_closures, iota)
        reports.append(VerifyReport(
            "d:strict-positivity", not bad,
            {"families": len(node_closures)},
            [render_form(f) for f in bad]))
        if lam_polys:
            some = next(iter(lam_polys.values()))
            bad = check_ample(some.forms, lam)
            reports.append(VerifyReport(
                "d:ample", not bad, {"forms": len(some.forms)},
                [render_form(f) for f in bad]))

    if polys:
        some = next(iter(polys.values()))
        roots = longest_word_length(cartan)
        ok = len(some.region) == roots
        reports.append(VerifyReport(
            "e:support-region", ok,
            {"region": len(some.region), "positive_roots": roots},
            [] if ok else ["region size %d != positive-root count %d"
                           % (len(some.region), roots)]))

    reports.append(_axiom_report(iota, bfs, None))
    if blam is not None:
        reports.append(_axiom_report(iota, blam, lam))

    pts = list(bfs) + [v for got in enumerated.values() for v in got]
    if blam is not None:
        pts += list(blam)
    bad = [x for x in pts if any(v < 0 for v in x.entries.values())]
    reports.append(VerifyReport(
        "g:nonnegativity", not bad, {"points": len(pts)},
        [repr(x) for x in bad[:10]]))
    return reports


def _axiom_report(iota, vectors, lam):
    """Crystal-axiom suite over a generated set: round trips, weight
    shifts, the phi/epsilon relation, and for B(lambda) the string
    lengths (seminormality) plus the unique highest node.  Every raising
    step lowers the coordinate sum, so a unique highest node over a
    closed set also certifies connectivity."""
    name = "f:crystal-axioms(%s)" % ("blambda" if lam is not None else "binf")
    witnesses = []
    tops = 0
    for x in sorted(vectors, key=ZVector.key):
        node = CrystalNode(iota, x, lam)
        if all(node.e(i) is None for i in range(1, iota.rank + 1)):
            tops += 1
        for i in range(1, iota.rank + 1):
            child = node.f(i)
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
                up = node.e(i)
                while up is not None and string <= len(vectors):
                    string += 1
                    up = up.e(i)
                if string != node.epsilon(i):
                    witnesses.append("eps_%d(%r) != e-string length" % (i, x))
    if lam is not None and tops != 1:
        witnesses.append("%d highest-weight nodes" % tops)
    return VerifyReport(name, not witnesses, {"nodes": len(vectors)},
                        witnesses)

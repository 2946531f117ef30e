"""Span tracer that wraps crystalpoly's module-level functions from outside.

`Tracer.install()` replaces each traced function, in every crystalpoly
module that holds it (modules import names such as `build` and `closure`
directly, so the defining module alone is not enough), by a wrapper that
records one span: name, start, end, parent span, request id and a size
(forms, points or nodes, where the call produces them).  Hot methods such
as `LinearForm.evaluate` or `CrystalNode.f` are not wrapped; their time
shows as self time of the span that calls them.  `Tracer.restore()` puts
every original back and reports any module attribute still wrapped.

Spans stay in memory; `layer_metrics` turns the spans of one pass into
the per-layer metrics of BENCHMARK.json.
"""

import sys
import time

MODULES = ("crystalpoly", "crystalpoly.cli", "crystalpoly.polytope",
           "crystalpoly.forms", "crystalpoly.tables",
           "crystalpoly._tabledata", "crystalpoly.zcrystal",
           "crystalpoly.rootdata")


def _len(args, result):
    return len(result)


def _table_forms(args, result):
    return sum(len(fs) for fs in result.values())


def _first_len(args, result):
    return len(args[1])


def _cartan_arg(args, kwargs):
    return args[0] if args else kwargs["cartan"]


# (defining module, function, layer, size of the call's product or None,
#  key of the call's input or None)
TRACED = (
    ("crystalpoly.cli", "main", "cli", None, None),
    ("crystalpoly.polytope", "verify", "polytope", None, None),
    ("crystalpoly.polytope", "crystal_graph", "polytope", None, None),
    ("crystalpoly.polytope", "build", "polytope", None, _cartan_arg),
    ("crystalpoly.polytope", "_zero_region", "polytope", None, None),
    ("crystalpoly.polytope", "_axiom_report", "polytope", _first_len, None),
    ("crystalpoly.polytope", "enumerate_binf_truncated", "polytope",
     _len, None),
    ("crystalpoly.polytope", "enumerate_blambda", "polytope", _len, None),
    ("crystalpoly.forms", "closure", "forms", _len, None),
    ("crystalpoly.forms", "check_positivity", "forms", None, None),
    ("crystalpoly.forms", "check_strict_positivity", "forms", None, None),
    ("crystalpoly.forms", "check_ample", "forms", None, None),
    ("crystalpoly.tables", "binf_table", "tables", _len, None),
    ("crystalpoly.tables", "xi_first_tables", "tables", _table_forms, None),
    ("crystalpoly._tabledata", "binf_parametric", "tables", None, None),
    ("crystalpoly._tabledata", "node_tables", "tables", None, None),
    ("crystalpoly.zcrystal", "generate_binf", "zcrystal", _len, None),
    ("crystalpoly.zcrystal", "generate_blambda", "zcrystal", _len, None),
    ("crystalpoly.rootdata", "cartan_matrix", "rootdata", None, None),
    ("crystalpoly.rootdata", "check_dominant", "rootdata", None, None),
    ("crystalpoly.rootdata", "weyl_dim", "rootdata", None, None),
    ("crystalpoly.rootdata", "positive_roots", "rootdata", None, None),
    ("crystalpoly.rootdata", "longest_word_length", "rootdata", None, None),
    ("crystalpoly.rootdata", "lowest_weight", "rootdata", None, None),
    ("crystalpoly.rootdata", "root_coords", "rootdata", None, None),
    ("crystalpoly.rootdata", "weight_string_budget", "rootdata", None, None),
)

# span record fields
NAME, START, END, PARENT, REQUEST, SIZE, LAYER, KEY = range(8)


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = -1
        self._stack = []
        self._patched = []      # (module, attribute, original)
        self.originals = {}     # "module.function" -> original function

    def _wrap(self, name, layer, fn, size, key):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   self.request, 0, layer,
                   None if key is None else key(args, kwargs)]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if size is not None:
                rec[SIZE] = size(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.perfbench_span = name
        return wrapper

    def install(self):
        """Wrap each traced function wherever a crystalpoly module has it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [sys.modules[m] for m in MODULES]
        for modname, func, layer, size, key in TRACED:
            original = getattr(sys.modules[modname], func)
            name = "%s.%s" % (layer, func.lstrip("_"))
            self.originals["%s.%s" % (modname, func)] = original
            wrapper = self._wrap(name, layer, original, size, key)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def restore(self):
        """Undo install(); returns a list of problems (empty when clean)."""
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []
        problems = []
        for modname in MODULES:
            for attr, value in vars(sys.modules[modname]).items():
                if hasattr(value, "perfbench_span"):
                    problems.append("%s.%s is still wrapped" % (modname, attr))
        for key, original in self.originals.items():
            modname, func = key.rsplit(".", 1)
            if getattr(sys.modules[modname], func) is not original:
                problems.append("%s is not the original function" % key)
        return problems

    def take(self):
        """Hand over the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        del self.spans[:]
        return spans


def durations(spans, scale=None):
    """Per span: end minus start, times its request's scale when given."""
    if scale is None:
        return [s[END] - s[START] for s in spans]
    return [(s[END] - s[START]) * scale[s[REQUEST]] for s in spans]


def self_times(spans, scale=None):
    """Per span: its duration minus the time its direct children cover."""
    dur = durations(spans, scale)
    own = list(dur)
    for s, d in zip(spans, dur):
        if s[PARENT] >= 0:
            own[s[PARENT]] -= d
    return own


def request_problems(spans, request_walls, rel_tol=1e-6, gap_s=1e-3):
    """Check that each request's self times add up to its wall time.

    `request_walls[r]` is the wall time the client measured around request
    r.  The self times of its spans must add up to the duration of its root
    span, and that root span must fit within the client's measurement,
    missing at most `gap_s` of it.
    """
    own = self_times(spans)
    total = {}
    root = {}
    for s, t in zip(spans, own):
        total[s[REQUEST]] = total.get(s[REQUEST], 0.0) + t
        if s[PARENT] < 0:
            root[s[REQUEST]] = root.get(s[REQUEST], 0.0) + s[END] - s[START]
    problems = []
    for r, wall in enumerate(request_walls):
        if r not in root:
            problems.append("request %d has no span" % r)
            continue
        if abs(total[r] - root[r]) > rel_tol * max(root[r], 1e-9):
            problems.append("request %d: self times sum to %.9f s, root "
                            "span lasts %.9f s" % (r, total[r], root[r]))
        if not root[r] <= wall < root[r] + gap_s:
            problems.append("request %d: root span %.6f s, client wall "
                            "%.6f s" % (r, root[r], wall))
    return problems


def layer_metrics(spans, scale=None):
    """The per-layer metrics of one pass, from its spans.

    Inclusive times (`_s` names without `self`) sum the durations of the
    named spans; layer times (`time_s`) and `self_s` names sum self times.
    `scale[r]` converts the times of request r to calibrated seconds.
    """
    dur = durations(spans, scale)
    own = self_times(spans, scale)
    incl = {}
    self_by_name = {}
    calls = {}
    sizes = {}
    layer_self = {}
    layer_calls = {}
    built = []
    repeats = 0
    for s, d, t in zip(spans, dur, own):
        name = s[NAME]
        incl[name] = incl.get(name, 0.0) + d
        self_by_name[name] = self_by_name.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1
        sizes[name] = sizes.get(name, 0) + s[SIZE]
        layer_self[s[LAYER]] = layer_self.get(s[LAYER], 0.0) + t
        layer_calls[s[LAYER]] = layer_calls.get(s[LAYER], 0) + 1
        if name == "polytope.build":
            repeats += s[KEY] in built
            built.append(s[KEY])

    def total(table, *names):
        return sum(table.get(n, 0) for n in names)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    bfs = ("zcrystal.generate_binf", "zcrystal.generate_blambda")
    enum = ("polytope.enumerate_binf_truncated", "polytope.enumerate_blambda")
    checks = ("forms.check_positivity", "forms.check_strict_positivity",
              "forms.check_ample")
    m = {
        "zcrystal.bfs_s": total(incl, *bfs),
        "zcrystal.bfs_nodes": total(sizes, *bfs),
        "polytope.axioms_s": total(incl, "polytope.axiom_report"),
        "polytope.axioms_nodes": total(sizes, "polytope.axiom_report"),
        "polytope.enumerate_s": total(incl, *enum),
        "polytope.enumerate_points": total(sizes, *enum),
        "polytope.zero_region_s": total(incl, "polytope.zero_region"),
        "polytope.build_s": total(incl, "polytope.build"),
        "polytope.build_self_s": total(self_by_name, "polytope.build"),
        "polytope.build_calls": len(built),
        "polytope.build_repeat_ratio": rate(repeats, len(built)),
        "forms.closure_s": total(incl, "forms.closure"),
        "forms.closure_calls": total(calls, "forms.closure"),
        "forms.closure_forms": total(sizes, "forms.closure"),
        "forms.checks_s": total(incl, *checks),
        "tables.time_s": layer_self.get("tables", 0.0),
        "tables.forms": total(sizes, "tables.binf_table",
                              "tables.xi_first_tables"),
        "rootdata.time_s": layer_self.get("rootdata", 0.0),
        "rootdata.calls": layer_calls.get("rootdata", 0),
        "cli.self_s": total(self_by_name, "cli.main"),
        "polytope.verify_self_s": total(self_by_name, "polytope.verify"),
        "polytope.graph_self_s": total(self_by_name, "polytope.crystal_graph"),
    }
    m["zcrystal.bfs_nodes_per_s"] = rate(m["zcrystal.bfs_nodes"],
                                         m["zcrystal.bfs_s"])
    m["polytope.enumerate_points_per_s"] = rate(
        m["polytope.enumerate_points"], m["polytope.enumerate_s"])
    m["forms.closure_forms_per_s"] = rate(m["forms.closure_forms"],
                                          m["forms.closure_s"])
    return m

"""Self-test of the benchmark's tracer.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It traces a few small requests in this process and checks that the self
times of each request's spans add up to the request's wall time, that
every layer has spans, that the wrappers reach names a module imported
(`crystalpoly.cli.build`, not only `crystalpoly.polytope.build`), and that
after the traced pass every wrapped name is the original function again,
so untraced runs measure unpatched code.  Exit status 0 when all hold.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import crystalpoly.cli                                       # noqa: E402
import crystalpoly.polytope                                  # noqa: E402
from crystalpoly.rootdata import cartan_matrix, weyl_dim     # noqa: E402
from crystalpoly.zcrystal import IotaSequence, generate_binf  # noqa: E402

import tracer as tracing                                     # noqa: E402
from worker import run_pass                                  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
F4_EMIT = ["emit", "--type", "F4", "--object", "blambda", "--lambda",
           "0,0,0,1", "--source", "table", "--format", "text"]


def _requests():
    with open(os.path.join(HERE, "digests.json")) as fh:
        digests = json.load(fh)
    b2, g2, e6 = (cartan_matrix("B", 2), cartan_matrix("G", 2),
                  cartan_matrix("E", 6))
    return [
        {"argv": ["verify", "--type", "B2", "--lambda", "1,1", "--depth",
                  "2"], "kind": "verify",
         "expect": {"weyl_dim": weyl_dim(b2, (1, 1))}},
        {"argv": ["graph", "--type", "G2", "--lambda", "1,0", "--format",
                  "json"], "kind": "graph",
         "expect": {"nodes": weyl_dim(g2, (1, 0))}},
        {"argv": ["enumerate", "--type", "E6", "--depth", "2", "--format",
                  "json"], "kind": "enumerate",
         "expect": {"count": len(generate_binf(IotaSequence(e6), 2))}},
        {"argv": F4_EMIT, "kind": "emit",
         "expect": {"sha256": digests[" ".join(F4_EMIT)]}},
    ]


def _synthetic_self_times():
    """root [0,10] > a [1,4] > b [2,3], root > c [5,9]: self 3, 2, 1, 4."""
    spans = [["root", 0.0, 10.0, -1, 0, 0, "cli", None],
             ["a", 1.0, 4.0, 0, 0, 0, "polytope", None],
             ["b", 2.0, 3.0, 1, 0, 0, "forms", None],
             ["c", 5.0, 9.0, 0, 0, 0, "zcrystal", None]]
    got = tracing.self_times(spans)
    return [] if got == [3.0, 2.0, 1.0, 4.0] else \
        ["synthetic self times %r, expected [3, 2, 1, 4]" % (got,)]


def main():
    problems = _synthetic_self_times()
    requests = _requests()
    original_build = crystalpoly.polytope.build
    imported_build = crystalpoly.cli.build
    original_main = crystalpoly.cli.main

    tracer = tracing.Tracer()
    tracer.install()
    try:
        if crystalpoly.cli.build is imported_build:
            problems.append("install() left crystalpoly.cli.build unwrapped")
        summary = run_pass(crystalpoly.cli, requests, tracer)
    finally:
        problems += tracer.restore()

    for name, now, before in (
            ("crystalpoly.polytope.build", crystalpoly.polytope.build,
             original_build),
            ("crystalpoly.cli.build", crystalpoly.cli.build, imported_build),
            ("crystalpoly.cli.main", crystalpoly.cli.main, original_main)):
        if now is not before:
            problems.append("%s is not the original after restore()" % name)

    spans = tracer.take()
    problems += summary["problems"]
    problems += tracing.request_problems(spans, summary["raw_s"])
    layers = {s[tracing.LAYER] for s in spans}
    for layer in ("cli", "polytope", "forms", "tables", "zcrystal",
                  "rootdata"):
        if layer not in layers:
            problems.append("no %s span was recorded" % layer)

    for problem in problems:
        print("FAIL %s" % problem)
    print("%s: %d spans over %d requests, %d problems"
          % ("ok" if not problems else "FAILED", len(spans), len(requests),
             len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload process of the benchmark.

It reads a job from stdin as JSON ({"requests": [...], "seconds": s,
"trace": bool}), imports crystalpoly from `src` of the current directory
and sends the requests to `crystalpoly.cli.main` one at a time (a closed
loop with one client), with stdout and stderr captured in memory.  Passes
over the whole list repeat until the next one would likely end after
`seconds`; there is always at least one.  Every output is checked right
after its request, outside the timed region.  With `trace` the tracer
wraps the layers during each pass and is removed again after it.  The
summary goes to stdout as one JSON object.

run.py starts it as `python3 perfbench/worker.py` from the checkout root.
"""

import gc
import hashlib
import io
import json
import os
import resource
import sys
import time

import tracer as tracing

COUNTED = ("b:binf-oracle", "c:blambda-oracle")

# Host-speed calibration.  The speed of this kind of shared host drifts
# by up to 1.7x over tens of seconds, which would swamp any change to the
# program.  A fixed reference loop runs before the first request and after
# each one; a request's time is scaled by REF_NOMINAL_S over the mean of
# the two loop times around it, giving seconds at the speed where the loop
# takes REF_NOMINAL_S.  The raw times are kept as well.
REF_ITERS = 50000
REF_NOMINAL_S = 0.015


def reference_loop(n=REF_ITERS):
    """Dict, tuple and integer work of fixed size, like the program's."""
    table = {}
    acc = 0
    for i in range(n):
        key = (i & 1023, i % 7)
        table[key] = table.get(key, 0) + i
        acc += i * i
    return acc + len(table)


def _verify_problem(req, out):
    """(problem or None, lattice points plus oracle nodes it reports)."""
    lines = out.splitlines()
    if not lines:
        return "no report lines", 0
    points = 0
    blambda_ok = False
    for line in lines:
        parts = line.split(None, 2)
        if len(parts) < 2 or parts[0] not in ("PASS", "SKIP"):
            return "report line %r" % line, 0
        if parts[0] == "SKIP" or parts[1] not in COUNTED:
            continue
        counts = dict(tok.split("=", 1) for tok in parts[2].split()
                      if "=" in tok)
        points += sum(int(counts.get(k, 0)) for k in
                      ("bfs", "closure", "table"))
        dim = req["expect"].get("weyl_dim")
        if parts[1] == "c:blambda-oracle" and dim is not None:
            blambda_ok = (int(counts["weyl_dim"]) == dim
                          and int(counts["bfs"]) == dim)
    if "weyl_dim" in req["expect"] and not blambda_ok:
        return "no passing c:blambda-oracle line with weyl_dim=%d" \
            % req["expect"]["weyl_dim"], 0
    return None, points


def check(req, status, out, err):
    """(problem or None, points, forms) for one request's captured output.

    points counts lattice points and oracle nodes that verify and
    enumerate report; forms counts the inequalities emit and closure print.
    """
    if status != 0:
        return "exit %s %s" % (status, err.strip()[-300:]), 0, 0
    if err:
        return "stderr %r" % err[-300:], 0, 0
    kind, expect = req["kind"], req["expect"]
    if kind == "verify":
        problem, points = _verify_problem(req, out)
        return problem, points, 0
    if kind == "enumerate":
        doc = json.loads(out)
        if doc["count"] != expect["count"] or \
                len(doc["points"]) != doc["count"]:
            return "count %d, expected %d" % (doc["count"],
                                              expect["count"]), 0, 0
        return None, doc["count"], 0
    if kind == "graph":
        doc = json.loads(out)
        n = len(doc["nodes"])
        if n != expect["nodes"]:
            return "%d nodes, expected %d" % (n, expect["nodes"]), 0, 0
        if any(not (0 <= e["source"] < n and 0 <= e["target"] < n)
               for e in doc["edges"]):
            return "edge outside the node list", 0, 0
        return None, 0, 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    if digest != expect["sha256"]:
        return "sha256 %s, expected %s" % (digest, expect["sha256"]), 0, 0
    if "json" in req["argv"]:
        return None, 0, out.count('"constant_abs"')
    return None, 0, out.count("≥")


def timed_reference():
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def run_pass(cli, requests, tracer):
    """Send every request once and check its output; returns the pass
    summary.

    Only the call to `cli.main` is timed.  The reference loop runs just
    before and just after it; the output check and a garbage collection
    follow, so that no output outlives its check.
    """
    clock = time.perf_counter
    real_out, real_err = sys.stdout, sys.stderr
    raw, scale, problems = [], [], []
    points = forms = out_bytes = 0
    for r, req in enumerate(requests):
        if tracer is not None:
            tracer.request = r
        out, err = io.StringIO(), io.StringIO()
        before = timed_reference()
        sys.stdout, sys.stderr = out, err
        start = clock()
        try:
            status = cli.main(list(req["argv"]))
        except Exception as exc:    # a traceback is a failed request
            status = "raised %s: %s" % (type(exc).__name__, exc)
        finally:
            end = clock()
            sys.stdout, sys.stderr = real_out, real_err
        after = timed_reference()
        raw.append(end - start)
        scale.append(2 * REF_NOMINAL_S / (before + after))
        text = out.getvalue()
        del out
        out_bytes += len(text.encode("utf-8"))
        try:
            problem, p, f = check(req, status, text, err.getvalue())
        except (ValueError, KeyError, TypeError) as exc:
            problem, p, f = "unreadable output: %r" % exc, 0, 0
        del text
        points += p
        forms += f
        if problem:
            problems.append("%s: %s" % (" ".join(req["argv"]), problem))
        gc.collect()
    return {"points": points, "forms": forms, "output_bytes": out_bytes,
            "failed": len(problems), "raw_s": raw, "scale": scale,
            "request_s": [t * f for t, f in zip(raw, scale)],
            "problems": problems}


def main():
    job = json.load(sys.stdin)
    src = os.path.join(os.getcwd(), "src")
    import crystalpoly.cli as cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print("crystalpoly was imported from %s, not from %s"
              % (cli.__file__, src), file=sys.stderr)
        return 2
    requests = job["requests"]
    tracer = tracing.Tracer() if job["trace"] else None
    passes = []
    begin = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.install()
        try:
            summary = run_pass(cli, requests, tracer)
        finally:
            restore_problems = tracer.restore() if tracer is not None else []
        if tracer is not None:
            spans = tracer.take()
            summary["problems"] += restore_problems
            summary["problems"] += tracing.request_problems(
                spans, summary["raw_s"])
            summary["layers"] = tracing.layer_metrics(spans,
                                                      summary["scale"])
            del spans
        passes.append(summary)
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / len(passes) > job["seconds"]:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump({"passes": passes, "peak_rss_mb": peak_kb / 1024.0},
              sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

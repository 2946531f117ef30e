"""crystalpoly benchmark: time to verdict, emit and enumerate.

usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

NAME is one of blambda-oracle, binf-exceptional, emit-closure (see
perfbench/README.md).  The seed makes the request list; the program only
sees the argv lists.  With --trace 0 the run reports the end-to-end
metrics of BENCHMARK.json, with --trace 1 the per-layer metrics of a
traced run plus the tracing overhead against an untraced run of equal
length.  The last line of stdout is the JSON result; a readable table and
the machine record go to stderr, and the full record to
.bench_results/NAME-seedN-traceT.json.  Exit status 2 when the checkout
holds no crystalpoly sources or a workload process fails.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from worker import REF_NOMINAL_S, timed_reference

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009
SETUP_LAUNCHES = 15         # timed fresh interpreters, after one warm-up
DEADLINE_S = 170            # the whole run ends within this

SETUP_CODE = ("from crystalpoly.cli import main; "
              "main(['dim', '--type', 'A1', '--lambda', '1'])")

# per workload: (primary command kinds, secondary kinds, kinds whose
# time work_per_s divides by, the work counted)
ROLES = {
    "blambda-oracle": (("verify",), ("graph",), ("verify",), "points"),
    "binf-exceptional": (("verify",), ("enumerate",),
                         ("verify", "enumerate"), "points"),
    "emit-closure": (("emit",), ("closure",), ("emit", "closure"), "forms"),
}


class BenchError(Exception):
    pass


def _env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(root, deadline):
    """Median time of a fresh interpreter that imports crystalpoly.cli,
    builds its parser and answers a trivial request, in calibrated seconds
    (see worker.py) with the reference loop run around each launch."""
    times = []
    for launch in range(SETUP_LAUNCHES + 1):
        before = timed_reference()
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CODE], cwd=root, env=_env(root),
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("set-up launch passed the %d s deadline"
                             % DEADLINE_S)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError("set-up launch failed: %s" % proc.stderr.strip())
        scale = 2 * REF_NOMINAL_S / (before + timed_reference())
        if launch:                  # the first launch writes bytecode caches
            times.append(elapsed * scale)
    return statistics.median(times)


def run_worker(root, requests, seconds, trace, deadline):
    job = json.dumps({"requests": requests, "seconds": seconds,
                      "trace": trace})
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")], input=job,
            cwd=root, env=_env(root), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("workload process passed the %d s deadline"
                         % DEADLINE_S)
    if proc.returncode != 0:
        raise BenchError("workload process exited %d: %s"
                         % (proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values):
    return statistics.median(list(values))


def request_medians(requests, res, key="request_s"):
    """Per command kind: the summed median time of its requests, taking
    each request's median over the passes."""
    passes = res["passes"]
    sums = {}
    for r, req in enumerate(requests):
        t = _median(p[key][r] for p in passes)
        sums[req["kind"]] = sums.get(req["kind"], 0.0) + t
    return sums


def end_to_end(workload, requests, res, setup_s):
    primary, secondary, work_kinds, work = ROLES[workload]
    kind_s = request_medians(requests, res)

    def total(kinds):
        return sum(kind_s.get(k, 0.0) for k in kinds)

    return {
        "setup_s": setup_s,
        "wall_s": total(kind_s),
        "primary_s": total(primary),
        "secondary_s": total(secondary),
        "work_per_s": _median(p[work] for p in res["passes"])
        / total(work_kinds),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def by_command(requests, res):
    """The per-command view: summed request time per command, the rates
    over them, and the failed share."""
    kind_s = request_medians(requests, res)
    passes = res["passes"]
    out = {k + "_s": kind_s[k] for k in ("verify", "enumerate", "graph")
           if k in kind_s}
    emit_s = kind_s.get("emit", 0.0) + kind_s.get("closure", 0.0)
    if emit_s:
        out["emit_s"] = emit_s
        out["forms_per_s"] = _median(p["forms"] for p in passes) / emit_s
    point_s = kind_s.get("verify", 0.0) + kind_s.get("enumerate", 0.0)
    if point_s:
        out["points_per_s"] = _median(p["points"] for p in passes) / point_s
    attempted = sum(len(p["request_s"]) for p in passes)
    out["failed_ratio"] = sum(p["failed"] for p in passes) / attempted
    return out


def per_layer(requests, base, traced):
    passes = traced["passes"]
    names = sorted(passes[0]["layers"])
    out = {n: _median(p["layers"][n] for p in passes) for n in names}
    out["cli.output_bytes"] = _median(p["output_bytes"] for p in passes)
    out["trace.overhead_s"] = (sum(request_medians(requests, traced).values())
                               - sum(request_medians(requests, base).values()))
    return out


def machine(root, seed):
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "crystalpoly")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"cores": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "git_commit": commit, "src_sha256": digest.hexdigest(),
            "seed": seed}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(ROLES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "crystalpoly", "cli.py")):
        print("error: no src/crystalpoly in %s; run from the root of a "
              "crystalpoly checkout" % root, file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    try:
        requests = workloads.requests(args.workload, args.seed)
        if args.trace:
            base = run_worker(root, requests, args.seconds / 2, False,
                              deadline)
            traced = run_worker(root, requests, args.seconds / 2, True,
                                deadline)
            runs = [base, traced]
            metrics = per_layer(requests, base, traced)
            overhead = metrics["trace.overhead_s"]
        else:
            setup_s = measure_setup(root, deadline)
            base = run_worker(root, requests, args.seconds, False, deadline)
            runs = [base]
            metrics = end_to_end(args.workload, requests, base, setup_s)
            overhead = None
        if set(metrics) != set(units):
            raise BenchError("metrics %s differ from BENCHMARK.json"
                             % sorted(set(metrics) ^ set(units)))
    except BenchError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2

    problems = [p for r in runs for ps in r["passes"]
                for p in ps["problems"]]
    attempted = sum(len(ps["request_s"]) for r in runs for ps in r["passes"])
    failed = sum(ps["failed"] for r in runs for ps in r["passes"])
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "machine": machine(root, args.seed),
              "seeds": {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED},
              "trace.overhead_s": overhead,
              "raw_wall_s": sum(request_medians(requests, base,
                                                "raw_s").values()),
              "passes": [len(r["passes"]) for r in runs],
              "by_command": by_command(requests, base), "metrics": metrics,
              "problems": problems[:50]}
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {n: {"value": v, "unit": units[n]}
                          for n, v in metrics.items()}}

    out_dir = os.path.join(root, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    print("%s seed %d trace %d: %d passes, %d requests, %d failed"
          % (args.workload, args.seed, args.trace, record["passes"][-1],
             attempted, failed), file=sys.stderr)
    for name, value in sorted(record["by_command"].items()):
        print("  %-36s %.6g" % (name, value), file=sys.stderr)
    for name, value in metrics.items():
        print("  %-36s %.6g %s" % (name, value, units[name]), file=sys.stderr)
    for problem in problems[:10]:
        print("  ! %s" % problem, file=sys.stderr)
    print(json.dumps(record["machine"]), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

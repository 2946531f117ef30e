"""The benchmark's workloads: request lists for crystalpoly.cli.main,
generated from a seed, each with the facts its output is checked against.

A request is a dict with `argv` (the argument list the program receives),
`kind` (the subcommand) and `expect` (what the correctness gate needs).
The expected facts come from this file, from `digests.json` and from the
Weyl dimension formula; they are computed here, before any timing starts.
"""

import json
import os
import random

# blambda-oracle: one weight per type of the pool, each with a dimension
# near an even share of the target, redrawn until the total is close to
# the target, so every seed loads each type alike and the same amount.
BLAMBDA_POOL = ("A4", "A5", "B3", "B4", "C3", "C4", "D4", "D5", "F4", "G2")
BLAMBDA_TARGET = 12000          # total weyl_dim over the drawn weights
BLAMBDA_SHARE_SLACK = 0.10      # each dimension within 10% of target/len(pool)
BLAMBDA_TOTAL_SLACK = 0.015     # the total within 1.5% of the target
MIN_DIM, MAX_DIM = 500, 5000
MAX_ENTRY = 9                   # candidate weights have entries 0..9

BINF_EXCEPTIONAL = (
    ["verify", "--type", "E6", "--depth", "5"],
    ["verify", "--type", "E7", "--depth", "4"],
    ["verify", "--type", "E8", "--depth", "3"],
    ["enumerate", "--type", "E8", "--depth", "3", "--format", "json"],
)

EMIT_CLOSURE = (
    ["emit", "--type", "E8", "--format", "json"],
    ["emit", "--type", "E7", "--object", "blambda",
     "--lambda", "0,0,0,0,0,1,0", "--format", "json"],
    ["emit", "--type", "F4", "--object", "blambda", "--lambda", "0,0,0,1",
     "--source", "table", "--format", "text"],
    ["emit", "--type", "D6", "--format", "text"],
    ["closure", "--type", "E8", "--object", "blambda", "--node", "6"],
    ["closure", "--type", "E8", "--object", "blambda", "--node", "7"],
    ["closure", "--type", "E8", "--node", "6"],
    ["closure", "--type", "E8", "--node", "7"],
    ["closure", "--type", "E7", "--object", "blambda", "--node", "7"],
)

_DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "digests.json")


def _cartan(label):
    from crystalpoly.rootdata import cartan_matrix
    return cartan_matrix(label[0], int(label[1:]))


def blambda_candidates(label):
    """[(lambda, weyl_dim)] of one pool type inside the dimension window.

    The dimension grows with every entry of lambda, so a prefix whose
    completion by zeros is already too large is not extended.
    """
    from crystalpoly.rootdata import weyl_dim
    cartan = _cartan(label)
    n = cartan.rank
    share = BLAMBDA_TARGET / len(BLAMBDA_POOL)
    lo = max(MIN_DIM, share * (1 - BLAMBDA_SHARE_SLACK))
    hi = min(MAX_DIM, share * (1 + BLAMBDA_SHARE_SLACK))
    out = []

    def grow(prefix):
        if len(prefix) == n:
            dim = weyl_dim(cartan, prefix)
            if any(prefix) and lo <= dim:
                out.append((prefix, dim))
            return
        for v in range(MAX_ENTRY + 1):
            lam = prefix + (v,)
            if weyl_dim(cartan, lam + (0,) * (n - len(lam))) > hi:
                break
            grow(lam)

    grow(())
    return out


def _blambda_oracle(rng):
    labels = list(BLAMBDA_POOL)
    rng.shuffle(labels)
    candidates = [blambda_candidates(label) for label in labels]
    while True:
        drawn = [rng.choice(c) for c in candidates]
        total = sum(dim for _, dim in drawn)
        if abs(total - BLAMBDA_TARGET) <= BLAMBDA_TOTAL_SLACK * BLAMBDA_TARGET:
            break
    requests = []
    for label, (lam, dim) in zip(labels, drawn):
        text = ",".join(map(str, lam))
        requests.append({"argv": ["verify", "--type", label, "--lambda", text,
                                  "--depth", "2"],
                         "kind": "verify", "expect": {"weyl_dim": dim}})
        requests.append({"argv": ["graph", "--type", label, "--lambda", text,
                                  "--format", "json"],
                         "kind": "graph", "expect": {"nodes": dim}})
    return requests


def _binf_exceptional(rng):
    from crystalpoly.zcrystal import IotaSequence, generate_binf
    requests = []
    for argv in BINF_EXCEPTIONAL:
        expect = {}
        if argv[0] == "enumerate":
            depth = int(argv[argv.index("--depth") + 1])
            iota = IotaSequence(_cartan(argv[argv.index("--type") + 1]))
            expect["count"] = len(generate_binf(iota, depth))
        requests.append({"argv": list(argv), "kind": argv[0],
                         "expect": expect})
    rng.shuffle(requests)
    return requests


def _emit_closure(rng):
    with open(_DIGESTS) as fh:
        digests = json.load(fh)
    requests = [{"argv": list(argv), "kind": argv[0],
                 "expect": {"sha256": digests[" ".join(argv)]}}
                for argv in EMIT_CLOSURE]
    rng.shuffle(requests)
    return requests


def requests(workload, seed):
    """The request list of `workload` for `seed` (same seed, same list)."""
    make = {"blambda-oracle": _blambda_oracle,
            "binf-exceptional": _binf_exceptional,
            "emit-closure": _emit_closure}[workload]
    return make(random.Random("%s/%d" % (workload, seed)))

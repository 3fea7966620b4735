"""Draw the workloads' parameter pools and freeze their reference outputs.

    python3 perfbench/make_refs.py [WORKLOAD ...]

Run once at the commit whose outputs become the reference; it writes
refs/<workload>.json.gz.  The draws use a fixed design seed, so the pools
do not depend on the run seed; run.py's --seed only chooses among them.

Each slot fixes the shape of its requests (the critical points, branch kinds
and withheld points of a prediction; the (m, n, j) and eigenfunction kind of a
verification; the negative spectrum and contributions of an invariant), and
its variants jitter the seeded parameters around the slot's first draw while
keeping that shape.  Every variant of a slot then does the same work, so the
latency mix of a cycle does not depend on the seed.  Parameters are drawn with
|sin(m tau)| >= 0.3 for every m in the window, away from the degenerate
delays.  A slot's first draw is kept whatever it costs; the only other
condition on a prediction draw is that its window holds a critical point.
"""

from __future__ import annotations

import gzip
import json
import math
import os
import random
import shutil
import sys
import time

import workloads
from compare import check_properties, csv_digest

sys.path.insert(0, str(workloads.SRC))

DESIGN_SEED = 20241105
NUS = ["1", "1/2", "2/3", "3/4", "4/5", "5/4", "4/3", "3/2"]
SIN_MARGIN = 0.3

PREDICT_SLOTS = [(n, w) for n in (3, 5, 6, 7) for w in (3, 5)]
PREDICT_VARIANTS = 8
# jittered draws tried per slot before it keeps the variants it has
JITTER_TRIES = 200
VERIFY_NS = (3, 4, 5)
VERIFY_VARIANTS = 6
# a 64x32 grid keeps the sparse LU + Lanczos path (2048 unknowns) at about
# 1 s per request, so a run holds enough requests for a steady median
VERIFY_GRID = ["--grid-t", "64", "--grid-x", "32"]
COLD_NS = (4, 5, 6, 8)
# two invariant shapes at N=5 make the cycle odd (9 slots), so the median
# falls inside one slot's samples instead of between two slots
COLD_INVARIANT_NS = (4, 5, 5, 6, 8)
COLD_VARIANTS = 8


def _work_dir():
    return workloads.OUT / f"refgen-{os.getpid()}"


def _work():
    """A fresh, empty output directory for one reference command."""
    work = _work_dir()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def run_step(cli, argv):
    """Run one command in-process and return its reference record."""
    work = _work()
    rel = str(work.relative_to(workloads.ROOT))
    rc, out, err = workloads.run_in_process(cli, workloads.bind(argv, rel))
    if rc != 0:
        return None
    payload = json.loads(out.replace(rel, workloads.WORK_TOKEN))
    if check_properties(argv[0], payload):
        return None
    files = {}
    for path in sorted(work.rglob("*.csv")):
        files[str(path.relative_to(work))] = csv_digest(path)
    return {"argv": argv, "json": payload, "files": files}


def _params(rng, max_m, tau=None, delta=None, nu=None, jitter=False):
    while True:
        if jitter:
            t, d = tau + rng.uniform(-0.04, 0.04), delta * rng.uniform(0.96, 1.04)
        else:
            t, d = rng.uniform(0.4, 2.9), rng.uniform(0.6, 1.6)
        t, d = round(t, 6), round(d, 6)
        if min(abs(math.sin(m * t)) for m in range(1, max_m + 1)) >= SIN_MARGIN:
            return t, d, nu if nu is not None else rng.choice(NUS)


def _model(p):
    """CLI flags for a (tau, delta, nu) draw."""
    return ["--tau", repr(p[0]), "--delta", repr(p[1]), "--nu", p[2]]


def _predict_shape(payload):
    points = tuple(
        (p["m"], p["n"], p["j"], p["k"], tuple(b["kind"] for b in p["branches"]))
        for p in payload["critical_points"]
    )
    return points, tuple((w["m"], w["n"], w["j"], w["reason"]) for w in payload["withheld"])


def predict_pool(cli, rng):
    slots = []
    for n_ring, w in PREDICT_SLOTS:
        base = ["predict", "--N", str(n_ring), "--m-max", str(w), "--n-max", str(w)]
        while True:
            p = _params(rng, w)
            start = time.perf_counter()
            ref = run_step(cli, base + _model(p))
            cost = time.perf_counter() - start
            if ref and ref["json"]["critical_points"]:
                break
        shape = _predict_shape(ref["json"])
        variants = [{"steps": [ref]}]
        for _ in range(JITTER_TRIES):
            if len(variants) == PREDICT_VARIANTS:
                break
            q = _params(rng, w, *p, jitter=True)
            got = run_step(cli, base + _model(q))
            if got and _predict_shape(got["json"]) == shape:
                variants.append({"steps": [got]})
        print(f"predict N={n_ring} w={w}: {len(variants)} variants, first {cost:.2f}s, "
              f"{len(shape[0])} points", flush=True)
        slots.append({"name": f"predict-N{n_ring}-w{w}", "variants": variants})
    return slots


def verify_pool(cli, rng):
    from ringwaves.spectrum import ModelParams, critical_point
    from fractions import Fraction

    def steps(idx, p, kind):
        params = ModelParams(nu=Fraction(p[2]), delta=p[1], tau=p[0], N=int(idx[1]))
        if critical_point(*(int(x) for x in idx[3::2]), 1, params) is None:
            return None
        check = run_step(cli, ["verify"] + idx + _model(p) + VERIFY_GRID)
        export = check and run_step(cli, ["export-eigenfunction"] + idx + _model(p) + [
            "--kind", kind, "--out", f"{workloads.WORK_TOKEN}/eigenfunction.csv"])
        return export and {"steps": [check, export]}

    slots = []
    for n_ring in VERIFY_NS:
        while True:
            p = _params(rng, 3)
            m, n, j = rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, n_ring // 2)
            kind = rng.choice(["H"] if j == 0 or 2 * j == n_ring else ["H", "S", "T"])
            idx = ["--N", str(n_ring), "--m", str(m), "--n", str(n), "--j", str(j)]
            first = steps(idx, p, kind)
            if first:
                break
        variants = [first]
        for _ in range(JITTER_TRIES):
            if len(variants) == VERIFY_VARIANTS:
                break
            got = steps(idx, _params(rng, 3, *p, jitter=True), kind)
            if got:
                variants.append(got)
        print(f"verify N={n_ring}: {len(variants)} variants, (m, n, j, kind) = {(m, n, j, kind)}",
              flush=True)
        slots.append({"name": f"verify-N{n_ring}", "variants": variants})
    return slots


def _invariant_shape(payload):
    return tuple(payload["sigma_minus"]), tuple(
        (c["m"], c["n"], c["j"], c["k"], c["rho"]) for c in payload["contributions"])


def cold_pool(cli, rng):
    slots = []
    for n_ring in COLD_NS:
        ref = run_step(cli, ["group-tables", "--N", str(n_ring), "--characters",
                             "--out", f"{workloads.WORK_TOKEN}/tables"])
        slots.append({"name": f"group-tables-N{n_ring}", "variants": [{"steps": [ref]}]})
    for i, n_ring in enumerate(COLD_INVARIANT_NS):
        while True:
            p = _params(rng, 3)
            m, n, j = rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, n_ring // 2)
            if math.sin(m * p[0]) >= 0:
                continue
            idx = ["--N", str(n_ring), "--m", str(m), "--n", str(n), "--j", str(j), "--mode", "full"]
            ref = run_step(cli, ["invariant"] + idx + _model(p))
            if ref and ref["json"]["sigma_minus"]:
                break
        shape = _invariant_shape(ref["json"])
        variants = [{"steps": [ref]}]
        for _ in range(JITTER_TRIES):
            if len(variants) == COLD_VARIANTS:
                break
            got = run_step(cli, ["invariant"] + idx + _model(_params(rng, 3, *p, jitter=True)))
            if got and _invariant_shape(got["json"]) == shape:
                variants.append({"steps": [got]})
        print(f"invariant N={n_ring}: {len(variants)} variants, (m, n, j) = {(m, n, j)}", flush=True)
        slots.append({"name": f"invariant-N{n_ring}-{i}", "variants": variants})
    return slots


POOLS = {"predict-sweep": predict_pool, "verify-scan": verify_pool, "cold-structures": cold_pool}


def main(names):
    workloads.pin_threads(os.environ)
    os.chdir(workloads.ROOT)
    import ringwaves.cli as cli

    workloads.REFS.mkdir(exist_ok=True)
    for name in names or list(POOLS):
        rng = random.Random(f"{DESIGN_SEED}:{name}")
        slots = POOLS[name](cli, rng)
        with gzip.open(workloads.REFS / f"{name}.json.gz", "wt") as fh:
            json.dump({"workload": name, "design_seed": DESIGN_SEED, "slots": slots}, fh,
                      sort_keys=True, separators=(",", ":"))
    shutil.rmtree(_work_dir(), ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])

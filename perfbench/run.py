"""Run one ringwaves benchmark workload and print its metrics.

    python3 perfbench/run.py --workload predict-sweep --seed 1 --seconds 15 --trace 0

One client runs a closed loop: each request starts when the previous one has
finished.  Requests come in whole cycles over the workload's slots (see
workloads.py), and the loop stops at the first cycle boundary after
--seconds, so every run measures the same mix.  Every output is checked
against the frozen reference outputs in refs/ after the loop.

--trace 0 prints the end-to-end metrics.  --trace 1 wraps the ringwaves
layers (tracer.py) and prints the per-layer metrics of one traced pass (the
in-process set-up plus the first cycle) together with the tracing overhead,
measured on pairs of traced and untraced runs of the same request.  Comment
lines starting with "#" come first; the last line of stdout is the JSON
result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from itertools import zip_longest
from time import CLOCK_BOOTTIME, clock_gettime, perf_counter

import compare
import stats
import tracer as tracing
import workloads
from workloads import OUT, ROOT, WORK, WORKLOADS

# traced-untraced pairs a --trace 1 run measures at least
MIN_PAIRS = 4

# span name -> per-layer metric name of its self time
TIME_METRICS = {
    "groups.lattice": "groups.lattice_s",
    "twisted.context": "twisted.context_s",
    "twisted.module_product": "twisted.module_product_s",
    "burnside.multiply": "burnside.multiply_s",
    "burnside.table": "burnside.table_s",
    "reps.closure": "reps.closure_s",
    "reps.fixed_dim": "reps.fixed_dim_s",
    "degrees.twisted_basic_degree": "degrees.twisted_basic_degree_s",
    "degrees.linear_iso_degree": "degrees.linear_iso_degree_s",
    "spectrum.critical_points": "spectrum.critical_points_s",
    "spectrum.index_sets": "spectrum.index_sets_s",
    "bifurcation.invariant": "bifurcation.invariant_s",
    "bifurcation.generators": "bifurcation.generators_s",
    "bifurcation.orbit_type": "bifurcation.orbit_type_s",
    "bifurcation.relations": "bifurcation.relations_s",
    "bifurcation.predict": "bifurcation.predict_s",
    "verify.scan": "verify.scan_s",
    "verify.assemble": "verify.assemble_s",
    "verify.sigma_min": "verify.sigma_min_s",
    "verify.spectral": "verify.spectral_s",
    "verify.eigenfunction": "verify.eigenfunction_s",
    "verify.symmetry_check": "verify.symmetry_check_s",
    "cli.import": "cli.import_s",
    "cli.main": "cli.self_s",
}

# exact counts; two runs of one commit and seed must agree on every one
COUNT_METRICS = [
    "groups.subgroups",
    "groups.classes",
    "twisted.types",
    "twisted.module_product.calls",
    "burnside.multiply.calls",
    "reps.closure.calls",
    "reps.closure_elements",
    "degrees.twisted_basic_degree.calls",
    "spectrum.critical_points",
    "bifurcation.predictions",
    "bifurcation.withheld",
    "verify.sigma_min.calls",
    "verify.fd_unknowns",
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def process_age():
    """Seconds since the kernel started this process (start time in 10 ms ticks)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return clock_gettime(CLOCK_BOOTTIME) - started


def measure_setup(workload, count):
    """Wall time from spawning a fresh interpreter until the workload is ready."""
    samples = []
    for _ in range(count):
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(workloads.HERE / "child.py"), "--setup", workload],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            ready = perf_counter()
            _out, err = proc.communicate(timeout=150)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line.startswith("{"):
            raise RuntimeError(f"set-up child failed: {err.strip()[-400:]}")
        samples.append(ready - start)
    return samples


def run_request(spec, cli, steps, work, spans_path):
    results = []
    rel = str(work.relative_to(ROOT))
    for step in steps:
        argv = workloads.bind(step["argv"], rel)
        if spec["in_process"]:
            result = workloads.run_in_process(cli, argv)
        else:
            try:
                result = workloads.run_child(argv, spans_path)
            except subprocess.TimeoutExpired:
                result = (-1, "", "timed out")
        results.append(result)
        if result[0] != 0:
            break
    return results


def run_loop(workload, slots, seed, seconds, cli, tracer):
    """Closed loop over the cycles of slots; one record per executed request.

    Without a tracer every request runs once, untraced, and the loop stops at
    the first cycle boundary after `seconds` that completes at least the
    workload's `min_cycles`.  With one, cycle 0 of an in-process workload runs
    traced only: it is the traced pass, and it also fills lazy caches.  Every
    later request, and every cold request, runs twice back to back on the same
    variant, traced and untraced, in an order that alternates from pair to
    pair; the pairs measure the tracing overhead.
    A traced loop stops after `seconds` once cycle 0 and MIN_PAIRS pairs are
    done, which may be inside a cycle.
    """
    spec = WORKLOADS[workload]
    records = []
    pairs = 0
    start = perf_counter()
    for cycle in itertools.count():
        for s, slot in enumerate(slots):
            if tracer is not None and cycle > 0 and pairs >= MIN_PAIRS \
                    and perf_counter() - start >= seconds:
                return records, perf_counter() - start
            v = workloads.variant_index(seed, s, cycle, len(slot["variants"]))
            if tracer is None:
                modes, pair = [False], None
            elif cycle == 0 and spec["in_process"]:
                modes, pair = [True], None
            else:
                modes, pair = ([True, False] if pairs % 2 == 0 else [False, True]), pairs
                pairs += 1
            for traced in modes:
                index = len(records)
                work = WORK / f"r{index}"
                work.mkdir(parents=True)
                spans_path = None
                if traced:
                    tracer.request = index
                    if spec["in_process"]:
                        tracer.install()
                    else:
                        spans_path = work / "spans.json"
                t0 = perf_counter()
                results = run_request(spec, cli, slot["variants"][v]["steps"], work, spans_path)
                latency = perf_counter() - t0
                if traced:
                    tracer.uninstall()
                records.append({"slot": s, "variant": v, "cycle": cycle, "traced": traced,
                                "pair": pair, "latency": latency, "results": results,
                                "work": work})
        if tracer is None and cycle + 1 >= spec["min_cycles"] \
                and perf_counter() - start >= seconds:
            return records, perf_counter() - start


def check_outputs(records, slots):
    """Problems per failed request index."""
    failures = {}
    for index, rec in enumerate(records):
        steps = slots[rec["slot"]]["variants"][rec["variant"]]["steps"]
        rel = str(rec["work"].relative_to(ROOT))
        problems = []
        for step, result in zip_longest(steps, rec["results"]):
            if result is None:
                problems.append(f"{step['argv'][0]} did not run")
                continue
            rc, out, err = result
            if rc != 0:
                problems.append(f"{step['argv'][0]} exited {rc}: {err.strip()[-300:]}")
                continue
            try:
                payload = json.loads(out.replace(rel, workloads.WORK_TOKEN))
            except ValueError:
                problems.append(f"{step['argv'][0]} printed no JSON report")
                continue
            problems += compare.compare(payload, step["json"])
            problems += compare.check_properties(step["argv"][0], payload)
            for name, want in step["files"].items():
                path = rec["work"] / name
                if not path.is_file():
                    problems.append(f"{name} was not written")
                    continue
                problems += compare.compare_csv(compare.csv_digest(path), want, name)
        if problems:
            failures[index] = problems
    return failures


def peak_rss_mb(include_children):
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def environment():
    import numpy
    import scipy

    env = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in workloads.THREAD_VARS},
        "commit": "not a git checkout",
        "source_sha256": workloads.source_digest(),
    }
    try:
        env["openblas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        env["openblas"] = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        env["commit"] = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    with open("/proc/cpuinfo") as fh:
        env["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "unknown")
    return env


def merge_child_spans(tracer, records):
    """Add the spans and counts that traced child interpreters wrote."""
    for index, rec in enumerate(records):
        path = rec["work"] / "spans.json"
        if not rec["traced"] or not path.is_file():
            continue
        data = json.loads(path.read_text())
        offset = len(tracer.spans)
        for name, start, end, parent, _req in data["spans"]:
            tracer.spans.append([name, start, end, parent + offset if parent >= 0 else -1, index])
        tracer.counts[index].update(data["counts"])


def layer_metrics(tracer, records, counts_file):
    """Per-layer metrics of the traced pass.

    Also checks that the exact counts repeat those of an earlier traced run of
    the same workload, seed and source version, kept in `counts_file`.
    """
    pass_requests = {"setup"} | {i for i, r in enumerate(records) if r["cycle"] == 0 and r["traced"]}
    totals = tracing.self_time_by_name(tracer.spans, pass_requests)
    counts = Counter()
    for req in pass_requests:
        counts.update(tracer.counts.get(req, {}))
    metrics = {metric: (totals.get(span, 0.0), "s") for span, metric in TIME_METRICS.items()}
    exact = {name: counts.get(name, 0) for name in COUNT_METRICS}
    metrics.update({name: (value, "count") for name, value in exact.items()})
    branches = exact["bifurcation.predictions"]
    metrics["bifurcation.closures_per_branch"] = (
        exact["reps.closure.calls"] / branches if branches else 0.0, "ratio")

    by_pair = {}
    for i, r in enumerate(records):
        if r["pair"] is not None:
            by_pair.setdefault(r["pair"], {})[r["traced"]] = r["latency"], i
    pairs = [(ids[True], ids[False]) for ids in by_pair.values()]
    per_request = Counter()
    for span, own in zip(tracer.spans, tracing.self_times(tracer.spans)):
        if span[4] != "setup":
            per_request[span[4]] += own
    metrics["trace.latency_p50_s"] = (statistics.median(t[0] for t, _u in pairs), "s")
    metrics["trace.untraced_p50_s"] = (statistics.median(u[0] for _t, u in pairs), "s")
    metrics["trace.overhead_s"] = (stats.paired_overhead([(t[0], u[0]) for t, u in pairs]), "s")
    metrics["trace.self_sum_p50_s"] = (statistics.median(per_request[t[1]] for t, _u in pairs), "s")

    problems = []
    if counts_file.is_file():
        before = json.loads(counts_file.read_text())
        problems = [f"count {k} was {before.get(k)} in an earlier run, now {v}"
                    for k, v in exact.items() if before.get(k) != v]
    else:
        counts_file.parent.mkdir(parents=True, exist_ok=True)
        counts_file.write_text(json.dumps(exact, indent=1, sort_keys=True) + "\n")
    return metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not workloads.source_present():
        print(f"error: no ringwaves source under {workloads.SRC}", file=sys.stderr)
        return 2
    if not (workloads.REFS / f"{args.workload}.json.gz").is_file():
        print(f"error: no reference pool for {args.workload}", file=sys.stderr)
        return 2
    workloads.pin_threads(os.environ)
    os.chdir(ROOT)
    spec = WORKLOADS[args.workload]

    # an in-process workload makes its structures ready first thing, so this
    # process is one of the set-up samples and fresh interpreters give the rest
    setup_samples = []
    tracer = tracing.Tracer() if args.trace else None
    cli = None
    if spec["in_process"]:
        sys.path.insert(0, str(workloads.SRC))
        start = perf_counter()
        import ringwaves.cli as cli

        if tracer is not None:
            tracer.add_span("cli.import", start, perf_counter(), "setup")
            tracer.request = "setup"
            tracer.install()
        workloads.run_setup(cli, args.workload)
        if tracer is not None:
            tracer.uninstall()
        else:
            setup_samples.append(process_age())
    if tracer is None:
        setup_samples += measure_setup(args.workload, spec["setup_samples"] - len(setup_samples))

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    slots = workloads.load_pool(args.workload)
    records, elapsed = run_loop(args.workload, slots, args.seed, args.seconds, cli, tracer)
    failures = check_outputs(records, slots)
    latencies = [r["latency"] for r in records if not r["traced"]]
    tail_p = spec["tail_percentile"]
    info = {"workload": args.workload, "seed": args.seed, "requests": len(records),
            "cycles": records[-1]["cycle"] + 1, "failed_share": len(failures) / len(records),
            "environment": environment()}
    by_slot = {}
    for r in records:
        if not r["traced"]:
            by_slot.setdefault(slots[r["slot"]]["name"], []).append(r["latency"])
    info["slot_latency_p50_s"] = {name: statistics.median(v) for name, v in by_slot.items()}
    problems = [f"request {i}: {p}" for i, ps in sorted(failures.items()) for p in ps[:3]]

    if tracer is None:
        tail_value, tail_beyond = stats.tail(latencies, tail_p)
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "latency_p50_s": (statistics.median(latencies), "s"),
            "latency_tail_s": (tail_value, "s"),
            "throughput_rps": (len(records) / elapsed, "1/s"),
            "peak_rss_mb": (peak_rss_mb(not spec["in_process"]), "MB"),
        }
        info.update(setup_samples_s=setup_samples, tail_percentile=tail_p,
                    tail_samples=len(latencies), tail_samples_beyond=tail_beyond)
    else:
        merge_child_spans(tracer, records)
        counts_file = OUT / "counts" / f"{args.workload}-seed{args.seed}-{workloads.source_digest()}.json"
        metrics, count_problems = layer_metrics(tracer, records, counts_file)
        problems += count_problems
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump(tracer.spans, fh)

    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "problems": problems, "result": result}, indent=1) + "\n")
    for line in problems[:20]:
        print(f"# problem: {line}")
    print("# " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

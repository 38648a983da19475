#!/usr/bin/env python3
"""Flow benchmark: compile the paper's circuits end to end through the mcx
library, check every output independently, and report the metrics that
BENCHMARK.json declares.

    python3 perfbench/run.py --workload aes128-evaluate --seed 1 \
        --seconds 20 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (library sources from src/ plus harness.cpp) under
$CARGO_TARGET_DIR, default .bench_build. --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer metrics of one traced compile. The last
line of stdout is the result object; the line before it holds the details
(host, per-circuit rows, sample counts, self times).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import bristol  # noqa: E402
import spans  # noqa: E402

RUN_LIMIT_S = 170  # a run must end within 180 s once the harness is built
NPROC = len(os.sched_getaffinity(0))

# Why each workload exists: see README.md. "replay_checked" names the
# replay counts that must equal round 1's (see "Replay fidelity" there).
REPLAY_COUNTS = ("cuts_evaluated", "classify_calls", "db_lookups")
WORKLOADS = {
    "aes128-evaluate": {
        "circuits": ["aes128"],
        "threads": 0,
        "replay_checked": REPLAY_COUNTS,
    },
    "epfl-cold": {
        "circuits": ["divisor:16", "sine:14", "sqrt:16", "multiplier:16",
                     "voter:501", "adder:64", "random-control:10:50:8"],
        "threads": 0,
        "replay_checked": (),
    },
    "md5-parallel": {
        "circuits": ["md5"],
        "threads": min(4, NPROC),
        "replay_checked": ("cuts_evaluated",),
    },
}

# The paper's known optimum: an n-bit ripple adder needs exactly n ANDs.
KNOWN_OPTIMUM = {"adder:64": 64}


def declared_metrics():
    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# ---------------------------------------------------------------- build


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    out = build_dir()
    log = sys.stderr
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    subprocess.run(["cmake", "--build", out, "-j", str(NPROC)],
                   check=True, stdout=log, stderr=log)
    return os.path.join(out, "perfbench_harness")


# -------------------------------------------------------------- running


def harness(exe, args, deadline):
    """Run the harness; its stdout is one JSON object."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("run time limit reached")
    proc = subprocess.run([exe] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, timeout=remaining, check=True,
                          text=True)
    return json.loads(proc.stdout)


def generate(exe, workload, work, deadline):
    """Write each circuit's Bristol text; returns [(spec, in, out)]."""
    files = []
    for i, spec in enumerate(WORKLOADS[workload]["circuits"]):
        path = os.path.join(work, "in%d.txt" % i)
        subprocess.run([exe, "gen", spec, path], check=True,
                       timeout=max(1, deadline - time.monotonic()))
        files.append((spec, path, os.path.join(work, "out%d.txt" % i)))
    return files


def compile_args(workload, seed, files, extra):
    args = ["compile", "--threads", str(WORKLOADS[workload]["threads"]),
            "--seed", str(seed)] + extra
    for _, src, dst in files:
        args += [src, dst]
    return args


def read(path):
    with open(path) as f:
        return f.read()


def check_compile(spec, record, input_text, output_text, seed):
    """Failure reasons for one compile (empty when it is correct)."""
    reasons = []
    if not record["flow_ok"]:
        reasons.append("flow outcome not ok")
    if not record["verified"]:
        reasons.append("library verification failed")
    try:
        ind = bristol.check(input_text, output_text, seed)
    except ValueError as e:
        return reasons + ["output unreadable: %s" % e], None
    if not ind["equal"]:
        reasons.append("independent evaluator: function differs")
    for key in ("ands", "xors", "and_depth"):
        if ind[key] != record[key]:
            reasons.append("%s from text %d != program %d" %
                           (key, ind[key], record[key]))
    if spec in KNOWN_OPTIMUM and ind["ands"] != KNOWN_OPTIMUM[spec]:
        reasons.append("%s: %d ANDs, known optimum %d" %
                       (spec, ind["ands"], KNOWN_OPTIMUM[spec]))
    return reasons, ind


# -------------------------------------------------------------- metrics


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(reps, checks, attempted, failed, units):
    """reps: harness records of untraced runs; checks: evaluator reports of
    the last run's outputs, one per circuit."""
    compile_s = [sum(c["untraced"]["compile_s"] for c in r["circuits"])
                 for r in reps]
    # A set-up lasts milliseconds, so a sample that loses the CPU for one
    # scheduler tick reads several times too long; the fastest of a
    # circuit's samples is its cost without such interruptions.
    setup_s = sum(min(s for r in reps for s in r["setup_samples"][c])
                  for c in range(len(checks)))
    values = {
        "compile_s": statistics.median(compile_s),
        "setup_s": setup_s,
        "final_and": sum(c["ands"] for c in checks),
        "final_xor": sum(c["xors"] for c in checks),
        "and_depth": sum(c["and_depth"] for c in checks),
        "peak_rss_mb": max(r["peak_rss_bytes"] for r in reps) / 2**20,
        "verified_ratio": (attempted - failed) / attempted,
    }
    return {k: metric(v, units[k]) for k, v in values.items()}


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(record, trace_spans, threads, units):
    """Per-layer metrics of one traced harness run, summed over circuits."""
    circuits = record["circuits"]
    times = spans.span_times(spans.within(trace_spans, "bench.compile"))

    def total(name):
        return times.get(name, (0.0, 0.0))[0]

    def own(name):
        return times.get(name, (0.0, 0.0))[1]

    def replay(key):
        return sum(c["replay"][key] for c in circuits)

    def counter(name):
        return sum(c["counters"].get(name, 0) for c in circuits)

    traced = [c["traced"] for c in circuits]
    rewrite = [p for t in traced for p in t["passes"]
               if p["name"] == "mc-rewrite"]
    xor = [p for t in traced for p in t["passes"]
           if p["name"] == "xor-resynthesis"]
    rounds = [r for p in rewrite for r in p["rounds"]]
    later = [r for p in rewrite for r in p["rounds"][1:]]
    # One mc-rewrite pass per circuit; its db counts cover that circuit's
    # fresh database.
    exact = sum(p["db_exact"] for p in rewrite)
    built = exact + sum(p["db_heuristic"] for p in rewrite)
    db_misses = counter("db.mc.miss")
    pool_cpu = total("pool.task")

    values = {
        "io.parse_s": total("bench.parse"),
        "io.write_s": total("bench.write"),
        "cut.enumerate_s": replay("enumerate_s"),
        "cut.cuts": replay("cuts"),
        "cut.refresh_s": total("phase.cut-refresh"),
        "cut.nodes_reenumerated": sum(r["nodes_reenumerated"]
                                      for r in rounds),
        "cone.simulate_s": replay("simulate_s"),
        "cone.traversals": replay("traversals"),
        "cone.nodes_visited": replay("nodes_visited"),
        "cone.visits_per_traversal": ratio(replay("nodes_visited"),
                                           replay("traversals")),
        "verify.s": total("bench.verify"),
        "classify.s": replay("classify_s"),
        "classify.calls": replay("classify_calls"),
        "classify.hit_ratio": ratio(replay("classify_hits"),
                                    replay("classify_calls")),
        "db.lookup_s": replay("lookup_s"),
        "db.synthesize_s": own("db.mc.synthesize"),
        "db.hits": counter("db.mc.hit"),
        "db.misses": db_misses,
        "db.exact_ratio": ratio(exact, built),
        "sat.solve_s": total("sat.solve"),
        "sat.solves": counter("sat.solves"),
        "sat.conflicts": counter("sat.conflicts"),
        "sat.conflicts_per_miss": ratio(counter("sat.conflicts"), db_misses),
        "rewrite.pass_s": total("mc-rewrite"),
        "rewrite.evaluate_s": total("phase.evaluate") +
        total("phase.rewrite-loop"),
        "rewrite.commit_s": total("phase.commit"),
        "rewrite.rounds": len(rounds),
        "rewrite.nodes_evaluated": sum(r["nodes_evaluated"] for r in rounds),
        "rewrite.dirty_fraction": ratio(
            sum(r["nodes_evaluated"] for r in later),
            sum(r["nodes_evaluated"] + r["nodes_clean"] for r in later)),
        "rewrite.replacements": sum(r["replacements"] for r in rounds),
        "rewrite.useful_ratio": ratio(
            sum(r["replacements"] for r in rounds),
            sum(r["candidates_built"] for r in rounds)),
        "xor.pass_s": total("xor-resynthesis"),
        "xor.expand_s": total("phase.xor-expand"),
        "xor.pair_s": total("phase.xor-pair"),
        "xor.blocks": sum(p["xor_blocks"] for p in xor),
        "xor.pairs": sum(p["xor_pairs"] for p in xor),
        "xor.saved": sum(p["xors_before"] - p["xors_after"] for p in xor),
        "pool.tasks": counter("pool.tasks"),
        "pool.steals": counter("pool.steals"),
        "pool.cpu_s": pool_cpu,
        "pool.utilisation": ratio(pool_cpu, total("flow") * threads),
        "obs.trace_overhead": ratio(
            sum(t["compile_s"] for t in traced),
            sum(c["untraced"]["compile_s"] for c in circuits)),
    }
    return {k: metric(v, units[k]) for k, v in values.items()}


def tail_percentile(samples):
    """The highest percentile with at least ten samples beyond it, or None
    when there are too few samples for any."""
    n = len(samples)
    if n < 11:
        return None
    p = (100 * (n - 10)) // n
    return {"p": p, "value": sorted(samples)[(n * p) // 100]}


# ----------------------------------------------------------------- main


def run_untraced(exe, args, files, inputs, deadline):
    reps, problems = [], []
    attempted = failed = 0
    checks = []
    start = time.monotonic()
    last = 0.0
    while not reps or (time.monotonic() - start < args.seconds and
                       time.monotonic() + last < deadline):
        t = time.monotonic()
        rec = harness(exe, compile_args(args.workload, args.seed, files, []),
                      deadline)
        last = time.monotonic() - t
        counts = []
        for (spec, _, dst), text, c in zip(files, inputs, rec["circuits"]):
            attempted += 1
            reasons, ind = check_compile(spec, c["untraced"], text, read(dst),
                                         args.seed)
            if reasons:
                failed += 1
                problems += ["%s: %s" % (spec, r) for r in reasons]
            counts.append(ind or {"ands": 0, "xors": 0, "and_depth": 0})
        if checks and counts != checks:
            problems.append("output cost differs between repetitions")
        checks = counts
        reps.append(rec)
    compile_samples = [sum(c["untraced"]["compile_s"] for c in r["circuits"])
                       for r in reps]
    rows = []
    for i, (spec, _, _) in enumerate(files):
        times = [r["circuits"][i]["untraced"]["compile_s"] for r in reps]
        rows.append(dict(checks[i], circuit=spec,
                         compile_s=statistics.median(times),
                         rounds=len(reps[-1]["circuits"][i]["untraced"]
                                    ["passes"][0]["rounds"])))
    detail = {"host": reps[-1]["host"], "threads": reps[-1]["threads"],
              "compile_s": {"median": statistics.median(compile_samples),
                            "samples": compile_samples,
                            "tail": tail_percentile(compile_samples)},
              "setup_samples": sum(len(r["setup_samples"][0]) for r in reps),
              "circuits": rows}
    units, _ = declared_metrics()
    metrics = end_to_end_metrics(reps, checks, attempted, failed, units)
    return metrics, attempted, failed, problems, detail


def run_traced(exe, args, files, inputs, deadline, trace_path):
    rec = harness(exe, compile_args(args.workload, args.seed, files,
                                    ["--trace", trace_path]), deadline)
    problems = []
    attempted = failed = 0
    fidelity = []
    for (spec, _, dst), text, c in zip(files, inputs, rec["circuits"]):
        attempted += 2
        reasons, _ = check_compile(spec, c["untraced"], text, read(dst),
                                   args.seed)
        if reasons:
            failed += 1
        traced_reasons = []
        if not c["traced_output_identical"]:
            traced_reasons.append("traced output differs from untraced")
        round1 = c["traced"]["passes"][0]["rounds"][0]
        counts = {
            "cuts_evaluated": (c["replay"]["cuts_evaluated"],
                               round1["cuts_evaluated"]),
            "classify_calls": (c["replay"]["classify_calls"],
                               round1["canon_hits"] + round1["canon_misses"]),
            "db_lookups": (c["replay"]["lookups"],
                           round1["db_hits"] + round1["db_misses"]),
        }
        row = {"circuit": spec}
        for key, (ours, theirs) in counts.items():
            row.update({"replay_" + key: ours, "round1_" + key: theirs})
        fidelity.append(row)
        for key in WORKLOADS[args.workload]["replay_checked"]:
            ours, theirs = counts[key]
            if ours != theirs:
                traced_reasons.append("replay %s %d, round 1 %d" %
                                      (key, ours, theirs))
        if traced_reasons:
            failed += 1
        problems += ["%s: %s" % (spec, r) for r in reasons + traced_reasons]
    if rec["trace_events_dropped"]:
        problems.append("%d trace events dropped" %
                        rec["trace_events_dropped"])
    trace_spans = spans.load_chrome_trace(trace_path)
    _, units = declared_metrics()
    metrics = layer_metrics(rec, trace_spans,
                            WORKLOADS[args.workload]["threads"], units)
    self_s = {name: {"total_s": t, "self_s": s} for name, (t, s) in
              sorted(spans.span_times(trace_spans).items(),
                     key=lambda kv: -kv[1][1])}
    detail = {"host": rec["host"], "threads": rec["threads"],
              "trace_file": trace_path, "replay_fidelity": fidelity,
              "spans": self_s}
    return metrics, attempted, failed, problems, detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    exe = build()
    deadline = time.monotonic() + RUN_LIMIT_S
    root = os.path.dirname(build_dir())
    work = os.path.join(root, "work", "%s-seed%d-trace%d" %
                        (args.workload, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        files = generate(exe, args.workload, work, deadline)
        inputs = [read(src) for _, src, _ in files]
        if args.trace:
            os.makedirs(os.path.join(root, "traces"), exist_ok=True)
            trace_path = os.path.join(root, "traces", "%s-seed%d.json" %
                                      (args.workload, args.seed))
            result = run_traced(exe, args, files, inputs, deadline,
                                trace_path)
        else:
            result = run_untraced(exe, args, files, inputs, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics, attempted, failed, problems, detail = result

    declared = declared_metrics()[args.trace]
    if set(metrics) != set(declared):
        raise RuntimeError("metrics %s differ from BENCHMARK.json" %
                           sorted(set(metrics) ^ set(declared)))
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  problems=problems)
    print(json.dumps(detail))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()

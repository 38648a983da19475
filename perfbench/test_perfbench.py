"""Tests of the flow benchmark's own logic: span arithmetic, metric names,
metric coverage per workload, and the independent Bristol evaluator.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

None of them builds or runs the library.
"""

import json
import os
import re
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import bristol  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402


class SelfTime(unittest.TestCase):
    def test_synthetic_span_tree(self):
        tree = [
            Span("root", 0, 0.0, 10.0),
            Span("a", 0, 1.0, 4.0),
            Span("g", 0, 2.0, 3.0),  # grandchild: counts against a only
            Span("b", 0, 5.0, 9.0),
            Span("w", 1, 0.0, 6.0),  # another lane: no parent of anything
            Span("a", 1, 7.0, 8.0),
        ]
        times = spans.span_times(tree)
        self.assertEqual(times["root"], (10.0, 3.0))
        self.assertEqual(times["a"], (4.0, 3.0))
        self.assertEqual(times["g"], (1.0, 1.0))
        self.assertEqual(times["b"], (4.0, 4.0))
        self.assertEqual(times["w"], (6.0, 6.0))

    def test_within_keeps_spans_starting_in_a_window(self):
        tree = [Span("bench.compile", 0, 1.0, 2.0), Span("x", 3, 1.5, 2.5),
                Span("y", 0, 0.5, 0.9), Span("bench.compile", 0, 3.0, 4.0),
                Span("z", 2, 3.5, 3.6)]
        names = [s.name for s in spans.within(tree, "bench.compile")]
        self.assertEqual(names, ["bench.compile", "x", "bench.compile", "z"])

    def test_chrome_trace_round_trip(self):
        events = {"traceEvents": [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0},
            {"name": "outer", "ph": "B", "ts": 0.0, "pid": 1, "tid": 0},
            {"name": "inner", "ph": "B", "ts": 250.0, "pid": 1, "tid": 0},
            {"name": "inner", "ph": "E", "ts": 750.0, "pid": 1, "tid": 0},
            {"name": "outer", "ph": "E", "ts": 1000.0, "pid": 1, "tid": 0},
        ]}
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            json.dump(events, f)
        try:
            times = spans.span_times(spans.load_chrome_trace(f.name))
        finally:
            os.unlink(f.name)
        self.assertAlmostEqual(times["outer"][0], 1e-3)
        self.assertAlmostEqual(times["outer"][1], 0.5e-3)
        self.assertAlmostEqual(times["inner"][1], 0.5e-3)


def load_spec():
    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json")) as f:
        return json.load(f)


class MetricNames(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_names_and_units(self):
        spec = load_spec()
        names = [m["name"] for kind in ("end_to_end", "per_layer")
                 for m in spec[kind]] + [w["name"] for w in spec["workloads"]]
        for name in names:
            self.assertRegex(name, self.NAME)
        self.assertEqual(len(names), len(set(names)))
        for kind in ("end_to_end", "per_layer"):
            for m in spec[kind]:
                self.assertRegex(m["unit"], self.UNIT)

    def test_workloads_match_run_py(self):
        self.assertEqual([w["name"] for w in load_spec()["workloads"]],
                         list(run.WORKLOADS))


def fake_compile():
    rounds = [{"cuts_evaluated": 50, "candidates_built": 40,
               "replacements": 2, "nodes_evaluated": 20, "nodes_clean": 0,
               "nodes_reenumerated": 20, "canon_hits": 30, "canon_misses": 10,
               "db_hits": 35, "db_misses": 5}] * 2
    return {
        "compile_s": 1.0, "flow_ok": True, "verified": True,
        "verify_method": "exhaustive", "ands": 8, "xors": 12, "and_depth": 3,
        "passes": [
            {"name": "mc-rewrite", "outcome": "ok", "xors_before": 10,
             "xors_after": 14, "db_exact": 9, "db_heuristic": 1,
             "xor_blocks": 0, "xor_pairs": 0, "rounds": rounds},
            {"name": "xor-resynthesis", "outcome": "ok", "xors_before": 14,
             "xors_after": 12, "db_exact": 0, "db_heuristic": 0,
             "xor_blocks": 3, "xor_pairs": 2, "rounds": []}],
    }


def fake_record(workload, traced):
    threads = run.WORKLOADS[workload]["threads"]
    circuits = []
    for _ in run.WORKLOADS[workload]["circuits"]:
        c = {"untraced": fake_compile()}
        if traced:
            c.update(traced=fake_compile(),
                     traced_output_identical=True,
                     counters={"db.mc.hit": 70, "db.mc.miss": 10,
                               "sat.solves": 4, "sat.conflicts": 100,
                               "pool.tasks": 8 if threads else 0,
                               "pool.steals": 1 if threads else 0},
                     replay={"cuts": 60, "enumerate_s": 0.1,
                             "cuts_evaluated": 50, "traversals": 20,
                             "nodes_visited": 200, "simulate_s": 0.2,
                             "classify_calls": 40, "classify_hits": 30,
                             "classify_s": 0.1, "lookups": 40,
                             "lookup_s": 0.01})
        circuits.append(c)
    return {"host": {}, "threads": threads, "circuits": circuits,
            "setup_samples": [[0.01] * 50] * len(circuits),
            "peak_rss_bytes": 50 << 20, "trace_events_dropped": 0}


class MetricCoverage(unittest.TestCase):
    def test_every_declared_metric_for_every_workload(self):
        end_to_end, per_layer = run.declared_metrics()
        trace = [Span("bench.compile", 0, 0.0, 1.0),
                 Span("flow", 0, 0.05, 0.95), Span("mc-rewrite", 0, 0.1, 0.8),
                 Span("pool.task", 1, 0.2, 0.3), Span("sat.solve", 0, 0.3, 0.4)]
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                n = len(run.WORKLOADS[workload]["circuits"])
                checks = [{"ands": 8, "xors": 12, "and_depth": 3}] * n
                e2e = run.end_to_end_metrics(
                    [fake_record(workload, False)], checks, n, 0, end_to_end)
                self.assertEqual(set(e2e), set(end_to_end))
                layers = run.layer_metrics(
                    fake_record(workload, True), trace,
                    run.WORKLOADS[workload]["threads"], per_layer)
                self.assertEqual(set(layers), set(per_layer))
                for m in list(e2e.values()) + list(layers.values()):
                    self.assertIsInstance(m["value"], (int, float))

    def test_setup_s_sums_each_circuits_fastest_sample(self):
        end_to_end, _ = run.declared_metrics()
        reps = [fake_record("epfl-cold", False) for _ in range(2)]
        for rep in reps:
            rep["setup_samples"] = [[0.5] * 3 for _ in rep["circuits"]]
        reps[0]["setup_samples"][0][1] = 0.1
        reps[1]["setup_samples"][1][2] = 0.2
        n = len(reps[0]["circuits"])
        checks = [{"ands": 8, "xors": 12, "and_depth": 3}] * n
        e2e = run.end_to_end_metrics(reps, checks, n, 0, end_to_end)
        self.assertAlmostEqual(e2e["setup_s"]["value"], 0.3 + 0.5 * (n - 2))


def adder_text(bits):
    """A ripple-carry adder in Bristol fashion: inputs a then b, outputs
    sum bits then carry."""
    gates, wire = [], 2 * bits
    carry = None
    sums = []
    for i in range(bits):
        a, b = i, bits + i
        x = wire
        gates.append("2 1 %d %d %d XOR" % (a, b, x))
        wire += 1
        if carry is None:
            sums.append(x)
            gates.append("2 1 %d %d %d AND" % (a, b, wire))
            carry, wire = wire, wire + 1
            continue
        s = wire
        gates.append("2 1 %d %d %d XOR" % (x, carry, s))
        sums.append(s)
        # carry' = maj(a, b, c) = ((a ^ c) & (b ^ c)) ^ c: one AND per bit.
        ac, bc, t, nc = wire + 1, wire + 2, wire + 3, wire + 4
        gates += ["2 1 %d %d %d XOR" % (a, carry, ac),
                  "2 1 %d %d %d XOR" % (b, carry, bc),
                  "2 1 %d %d %d AND" % (ac, bc, t),
                  "2 1 %d %d %d XOR" % (t, carry, nc)]
        carry, wire = nc, wire + 5
    outputs = sums + [carry]
    for src in outputs:
        gates.append("1 1 %d %d EQW" % (src, wire))
        wire += 1
    return "%d %d\n1 %d\n1 %d\n\n%s\n" % (len(gates), wire, 2 * bits,
                                          len(outputs), "\n".join(gates))


def flip(text, index):
    """The same circuit with gate `index` (AND or XOR) changed to the other."""
    lines = text.split("\n")
    body = [i for i, line in enumerate(lines) if line.endswith(("AND", "XOR"))]
    line = lines[body[index]]
    lines[body[index]] = line[:-3] + ("XOR" if line.endswith("AND") else "AND")
    return "\n".join(lines), len(body)


class BristolEvaluator(unittest.TestCase):
    def test_cost_recount(self):
        ands, xors, depth = bristol.cost(bristol.parse(adder_text(4)))
        self.assertEqual((ands, xors, depth), (4, 4 + 3 * 4, 4))

    def test_adder_adds(self):
        circuit = bristol.parse(adder_text(3))
        words, mask = bristol.exhaustive_patterns(6)
        out = bristol.simulate(circuit, words, mask)
        for p in range(64):
            a, b = p & 7, p >> 3
            got = sum(((out[k] >> p) & 1) << k for k in range(4))
            self.assertEqual(got, a + b)

    def test_rejects_every_single_gate_flip(self):
        # 4-bit adder: 8 inputs, exhaustive; 10-bit adder: 20 inputs, random.
        for bits, method in ((4, "exhaustive"), (10, "random-1024")):
            golden = adder_text(bits)
            ok = bristol.check(golden, golden, seed=7)
            self.assertTrue(ok["equal"])
            self.assertEqual(ok["method"], method)
            _, count = flip(golden, 0)
            for i in range(count):
                with self.subTest(bits=bits, gate=i):
                    bad, _ = flip(golden, i)
                    self.assertFalse(bristol.check(golden, bad, seed=7)
                                     ["equal"])

    def test_rejects_malformed_text(self):
        with self.assertRaises(ValueError):
            bristol.parse("1 3\n1 2\n1 1\n\n2 1 0 1 2 NAND\n")
        with self.assertRaises(ValueError):
            bristol.parse("2 3\n1 2\n1 1\n\n2 1 0 1 2 AND\n")


if __name__ == "__main__":
    unittest.main()

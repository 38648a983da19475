"""Independent Bristol-fashion evaluator for the flow benchmark.

It shares no code with the library under test. It reads a circuit's text,
simulates it, and recounts the gates. The benchmark uses it to check that
each compiled output computes the same function as its input and to take
the AND count, XOR count and AND depth from the output text itself.

Gate kinds: AND, XOR (2 inputs), INV, EQW (wire copy), EQ (constant).
"""

import random

EXHAUSTIVE_MAX_INPUTS = 16
RANDOM_PATTERNS = 1024


class Circuit:
    def __init__(self, num_wires, num_inputs, num_outputs, gates):
        self.num_wires = num_wires
        self.num_inputs = num_inputs
        self.num_outputs = num_outputs
        self.gates = gates  # (kind, in0, in1, out); in1 is None for 1-input gates


def parse(text):
    tokens = text.split()
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("truncated Bristol text")
        pos += 1
        return tokens[pos - 1]

    def take_int():
        return int(take())

    num_gates, num_wires = take_int(), take_int()
    num_inputs = sum(take_int() for _ in range(take_int()))
    num_outputs = sum(take_int() for _ in range(take_int()))
    if num_inputs + num_outputs > num_wires:
        raise ValueError("more inputs and outputs than wires")
    gates = []
    for _ in range(num_gates):
        fan_in, fan_out = take_int(), take_int()
        if fan_in not in (1, 2) or fan_out != 1:
            raise ValueError("bad gate arity %d/%d" % (fan_in, fan_out))
        ins = [take_int() for _ in range(fan_in)]
        out = take_int()
        kind = take()
        if (kind in ("AND", "XOR")) != (fan_in == 2) or kind not in (
                "AND", "XOR", "INV", "EQW", "EQ"):
            raise ValueError("unsupported gate %s/%d" % (kind, fan_in))
        if out >= num_wires:
            raise ValueError("wire %d out of range" % out)
        gates.append((kind, ins[0], ins[1] if fan_in == 2 else None, out))
    if pos != len(tokens):
        raise ValueError("trailing tokens after the last gate")
    return Circuit(num_wires, num_inputs, num_outputs, gates)


def simulate(circuit, inputs, mask):
    """Output words for bit-parallel input words (one int per input wire)."""
    wires = [None] * circuit.num_wires
    wires[:circuit.num_inputs] = inputs
    for kind, a, b, out in circuit.gates:
        if kind == "EQ":
            wires[out] = mask if a else 0
            continue
        x = wires[a]
        if x is None or (b is not None and wires[b] is None):
            raise ValueError("gate reads an undefined wire")
        if kind == "AND":
            wires[out] = x & wires[b]
        elif kind == "XOR":
            wires[out] = x ^ wires[b]
        elif kind == "INV":
            wires[out] = x ^ mask
        else:
            wires[out] = x
    outputs = wires[circuit.num_wires - circuit.num_outputs:]
    if any(w is None for w in outputs):
        raise ValueError("output wire never driven")
    return outputs


def exhaustive_patterns(n):
    """Input words enumerating all 2^n assignments: bit p of word i is bit i of p."""
    width = 1 << n
    words = []
    for i in range(n):
        half = 1 << i
        word, period = ((1 << half) - 1) << half, 2 * half
        while period < width:
            word |= word << period
            period *= 2
        words.append(word)
    return words, (1 << width) - 1


def random_patterns(n, seed, count=RANDOM_PATTERNS):
    rng = random.Random(seed)
    return [rng.getrandbits(count) for _ in range(n)], (1 << count) - 1


def cost(circuit):
    """(ANDs, XORs, AND depth) of the text. XOR of a wire with itself is
    the writer's constant 0 and costs nothing."""
    depth = [0] * circuit.num_wires
    ands = xors = 0
    for kind, a, b, out in circuit.gates:
        if kind == "AND":
            ands += 1
            depth[out] = max(depth[a], depth[b]) + 1
        elif kind == "XOR":
            if a != b:
                xors += 1
                depth[out] = max(depth[a], depth[b])
        elif kind != "EQ":
            depth[out] = depth[a]
    first_output = circuit.num_wires - circuit.num_outputs
    return ands, xors, max(depth[first_output:], default=0)


def check(input_text, output_text, seed):
    """Compare two circuits' functions; recount the output's cost.

    Exhaustive up to EXHAUSTIVE_MAX_INPUTS inputs, otherwise on
    RANDOM_PATTERNS seeded random patterns.
    """
    golden, result = parse(input_text), parse(output_text)
    ands, xors, depth = cost(result)
    report = {"ands": ands, "xors": xors, "and_depth": depth}
    if (golden.num_inputs, golden.num_outputs) != (result.num_inputs,
                                                   result.num_outputs):
        return dict(report, equal=False, method="interface")
    n = golden.num_inputs
    if n <= EXHAUSTIVE_MAX_INPUTS:
        words, mask = exhaustive_patterns(n)
        method = "exhaustive"
    else:
        words, mask = random_patterns(n, seed)
        method = "random-%d" % RANDOM_PATTERNS
    equal = simulate(golden, words, mask) == simulate(result, words, mask)
    return dict(report, equal=equal, method=method)

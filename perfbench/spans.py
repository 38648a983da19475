"""Span arithmetic for the traced run.

Reads the Chrome trace-event JSON the harness writes (balanced B/E events
per lane, timestamps in microseconds) back into spans, and computes each
span name's total and self time. Self time is a span's duration minus the
part of it covered by its child spans on the same lane.
"""

import json
from collections import namedtuple

Span = namedtuple("Span", "name lane start end")  # start/end in seconds


def load_chrome_trace(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans, stacks = [], {}
    for ev in events:
        if ev.get("ph") == "B":
            stacks.setdefault(ev["tid"], []).append(ev)
        elif ev.get("ph") == "E":
            begin = stacks[ev["tid"]].pop()
            if begin["name"] != ev["name"]:
                raise ValueError("unbalanced trace: %s closed by %s" %
                                 (begin["name"], ev["name"]))
            spans.append(Span(ev["name"], ev["tid"], begin["ts"] * 1e-6,
                              ev["ts"] * 1e-6))
    if any(stacks.values()):
        raise ValueError("unbalanced trace: spans left open")
    return spans


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def span_times(spans):
    """{name: (total seconds, self seconds)} summed over all spans."""
    times = {}
    by_lane = {}
    for s in spans:
        by_lane.setdefault(s.lane, []).append(s)
    for lane_spans in by_lane.values():
        # Parents sort before their children: start ascending, end descending.
        lane_spans.sort(key=lambda s: (s.start, -s.end))
        stack, children = [], {}
        for s in lane_spans:
            while stack and stack[-1].end <= s.start:
                stack.pop()
            if stack:
                children.setdefault(id(stack[-1]), []).append(
                    (s.start, min(s.end, stack[-1].end)))
            stack.append(s)
        for s in lane_spans:
            duration = s.end - s.start
            own = duration - _covered(children.get(id(s), []))
            total, self_time = times.get(s.name, (0.0, 0.0))
            times[s.name] = (total + duration, self_time + own)
    return times


def within(spans, window_name):
    """Spans that start inside any span named `window_name` (any lane)."""
    windows = [(s.start, s.end) for s in spans if s.name == window_name]
    return [s for s in spans if any(a <= s.start < b for a, b in windows)]

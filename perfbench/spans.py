"""Spans around the public functions of each ttp2 layer.

Each traced function is replaced by a wrapper under every name that the
package's modules bind it to (``ttp2.scheduler.expand_block`` as well as
``ttp2.blocks.expand_block``), so calls from one layer into another are
timed too.  Spans stay in memory as (name, start, end, parent, op) and are
written out once the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, function): the public entry points the workloads reach
TARGETS = (
    ("instance", "generate_instance"),
    ("instance", "load_instance"),
    ("matching", "min_weight_perfect_matching"),
    ("matching", "build_super_graph"),
    ("matching", "super_pair_matching"),
    ("blocks", "expand_block"),
    ("scheduler", "build_schedule"),
    ("scheduler", "schedule_from_json"),
    ("validator", "validate_schedule"),
    ("validator", "parse_day_list"),
    ("analysis", "total_travel"),
    ("analysis", "lower_bound"),
    ("analysis", "evaluation_report"),
    ("cli", "main"),
)

SETUP_OP = -1


def _count_result(name: str, result, counters) -> None:
    if name in ("scheduler.build_schedule", "scheduler.schedule_from_json"):
        counters["scheduler.schedules"] += 1
        counters["scheduler.flips"] += result.flips
    elif name == "validator.validate_schedule":
        counters["validator.violations"] += len(result.violations)


class Tracer:
    """Spans and result counters of the wrapped functions; ``op`` is the
    index of the operation running, SETUP_OP outside the timed pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = SETUP_OP
        self.missing: set[str] = set()
        self._stack: list[int] = []

    def _code(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name: str, fn):
        code = self._code(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (code, start, end, parent, self.op)
            if self.op != SETUP_OP:
                _count_result(name, result, counters)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every ttp2 module binding of each target; undo on exit."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "ttp2" or key.startswith("ttp2."))]
        patched = []
        for module, func in TARGETS:
            name = f"{module}.{func}"
            owner = sys.modules.get(f"ttp2.{module}")
            original = getattr(owner, func, None)
            if original is None:
                self.missing.add(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, original))
        try:
            yield self
        finally:
            for mod, attr, original in patched:
                setattr(mod, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": self.spans}, fh)

    def layer_totals(self):
        """Per name: calls, total seconds and self seconds over the timed
        operations, and total seconds during set-up; plus the number of team
        matchings solved (solves not made inside super_pair_matching).  Self
        time is a span's duration minus the durations of the spans it called
        directly."""
        child = [0.0] * len(self.spans)
        for code, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        setup = defaultdict(float)
        team_solves = 0
        solve = self._code("matching.min_weight_perfect_matching")
        super_match = self._code("matching.super_pair_matching")
        for i, (code, start, end, parent, op) in enumerate(self.spans):
            name = self.names[code]
            if op == SETUP_OP:
                setup[name] += end - start
                continue
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[i]
            if code == solve and (parent < 0 or self.spans[parent][0] != super_match):
                team_solves += 1
        return calls, total, own, setup, team_solves

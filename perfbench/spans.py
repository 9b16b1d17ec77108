"""Spans around the calls into each module's public functions.

The traced run rebinds module attributes from the benchmark's side, so no
file of the package changes.  Names that other modules imported are
rebound too (``criterion.canonical_mk``, ``cli.decide``, ...), so calls made
from inside ``decide`` and ``cli.main`` are caught.  Spans stay in memory
and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import time

from mkvariance import bell, cli, criterion, linalg, oracle

# span name -> every (owner, attribute) that binds the function.
TARGETS = {
    "criterion.decide": [(criterion, "decide"), (cli, "decide")],
    "criterion.maximize_objective": [(criterion, "maximize_objective")],
    "criterion.variance": [(criterion, "variance"), (cli, "variance")],
    "bell.canonical_mk": [(bell, "canonical_mk"), (criterion, "canonical_mk"), (cli, "canonical_mk")],
    "bell.mk_apply": [(bell.MKOperator, "apply")],
    "bell.max_mk_mean": [(bell, "max_mk_mean"), (cli, "max_mk_mean")],
    "oracle.is_product_oracle": [(oracle, "is_product_oracle"), (cli, "is_product_oracle")],
    "linalg.pure_state": [(linalg.PureState, "__init__")],
    "cli.main": [(cli, "main")],
    "cli.load_state_file": [(cli, "load_state_file")],
}


class Tracer:
    """Records spans as [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def __enter__(self):
        for name, bindings in TARGETS.items():
            for owner, attr in bindings:
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    def totals(self):
        """Per span name: call count, total duration and self time.

        Self time is a span's duration minus the part its children cover;
        calls are single-threaded, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "total": 0.0, "self": 0.0} for name in TARGETS}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - child_time[i]
        return out

"""Spans around the benchmark's calls into the package's layers.

Every call the benchmark makes into a public function of a layer goes
through :meth:`Tracer.call`.  With tracing off that is a plain call; with
it on, the call is recorded as a span (name, start, end, parent op span,
op id) and kept in memory until the run writes them out.  Each timed op
is itself a span, the parent of the layer spans it causes.  There are no
queues and no threads, so no span ever waits: busy time is all there is.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent index, op id, ok]
        self.counts: Counter = Counter()
        self.op_dims: dict[int, int] = {}
        self._parent: int | None = None
        self._op_id: int | None = None

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn``; when tracing, record it as a span named ``<layer>.<function>``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span = [name, time.perf_counter(), None, self._parent, self._op_id, False]
        try:
            result = fn(*args, **kwargs)
            span[5] = True
            return result
        finally:
            span[2] = time.perf_counter()
            self.spans.append(span)

    def add(self, name: str, value: float = 1) -> None:
        """Add to a counter recorded at a layer boundary."""
        if self.enabled:
            self.counts[name] += value

    def open_op(self, op_id: int, kind: str, dim: int) -> int | None:
        if not self.enabled:
            return None
        self.spans.append([f"op.{kind}", time.perf_counter(), None, None, op_id, True])
        self.op_dims[op_id] = dim
        self._parent, self._op_id = len(self.spans) - 1, op_id
        return self._parent

    def close_op(self, index: int | None, end: float, ok: bool) -> None:
        if index is None:
            return
        self.spans[index][2] = end
        self.spans[index][5] = ok
        self._parent = self._op_id = None

    def layer_metrics(self, split_by_dim: bool) -> dict[str, float]:
        """Per-layer calls, busy (self) time, failures and counters.

        Self time is a span's duration minus the time its child spans
        cover.  Op spans contribute their self time, the benchmark's own
        glue inside an op, to ``bench.op_self_ms``.
        """
        covered: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for index, (name, start, end, parent, op_id, ok) in enumerate(self.spans):
            self_ms = (end - start - covered[index]) * 1e3
            if name.startswith("op."):
                out["bench.op_self_ms"] += self_ms
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_ms"] += self_ms
            if not ok:
                out[f"{name}.failed"] += 1
                out[f"{name}.failed_ms"] += self_ms
            if split_by_dim and op_id is not None:
                out[f"{name}.d{self.op_dims[op_id]}.busy_ms"] += self_ms
        out.update(self.counts)
        return dict(out)

    def write(self, path: str, record: dict) -> None:
        """Write the run record and every span, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": name, "start": start - t0, "end": end - t0, "parent": parent, "op": op_id, "ok": ok}
            for name, start, end, parent, op_id, ok in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"record": record, "spans": rows}, fh)

"""In-memory span recorder for the traced pass.

Spans are recorded from the benchmark's own files only, around the calls
into each layer; ``repro`` itself is not instrumented here.  A span is
``(name, start, end, parent, trace)``: ``trace`` is the identifier shared
by the spans of one request (or one ladder batch) and ``parent`` the name
of the span that caused it, so a span's self time is its duration minus
its children's.  Everything stays in memory until :meth:`Recorder.write`,
so recording costs one tuple append.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional, Tuple

Span = Tuple[str, float, float, Optional[str], str]


class Recorder:
    def __init__(self) -> None:
        self.spans: List[Span] = []

    def add(
        self, name: str, start: float, end: float,
        parent: Optional[str], trace: str,
    ) -> None:
        self.spans.append((name, start, end, parent, trace))

    def write(self, path: str, trace_prefix: str) -> int:
        """Write the spans whose trace id starts with ``trace_prefix``; returns how many."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        count = 0
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, trace in self.spans:
                if trace.startswith(trace_prefix):
                    f.write(json.dumps({
                        "name": name, "start": start, "end": end,
                        "parent": parent, "trace": trace,
                    }) + "\n")
                    count += 1
        return count

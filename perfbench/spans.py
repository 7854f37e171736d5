"""In-memory spans around the calls into effcone's public functions.

No file under src/ is edited.  A span wraps a module attribute that callers
look up at call time, so rebinding the attribute catches every call made
through it: `cone.lp_min` from `dual_contained_in_orthant`,
`cone.verify_lp_minimum` from `lp_min` and from `Certificate.__post_init__`,
and `counting.disc`, which is how `forms.disc` is reached from counting.
The wrappers are installed only while a traced operation runs.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter

# (module, attribute its callers use, span name)
TARGETS = (
    ("effcone.cli", "main", "cli.main"),
    ("effcone.picard", "pairing_matrix", "picard.pairing_matrix"),
    ("effcone.picard", "kodaira_full", "picard.kodaira_full"),
    ("effcone.fiber", "kodaira_fiber", "fiber.kodaira_fiber"),
    ("effcone.cone", "dual_contained_in_orthant", "cone.dual_contained_in_orthant"),
    ("effcone.cone", "lp_min", "cone.lp_min"),
    ("effcone.cone", "verify_lp_minimum", "cone.verify_lp_minimum"),
    ("effcone.cone", "kodaira_energy", "cone.kodaira_energy"),
    ("effcone.counting", "count_series", "counting.count_series"),
    ("effcone.counting", "disc", "forms.disc"),
    ("effcone.counting", "fit_exponent", "counting.fit_exponent"),
)

ROOT_SPAN = "op"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for an operation's root
    op: int


class Tracer:
    """Records spans in memory; `write` saves them when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str, op: int) -> Span:
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, op: int):
        def traced(*args, **kwargs):
            span = self._open(name, op)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return traced

    @contextmanager
    def operation(self, op: int):
        """Trace one operation: a root span with the wrappers installed."""
        saved = []
        root = self._open(ROOT_SPAN, op)
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, op))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)
            self._close(root)

    def layers(self, op: int) -> dict[str, tuple[int, float, float]]:
        """Per span name within one operation: (calls, total s, self s).

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span.op == op and span.parent >= 0:
                child_time[span.parent] = (child_time.get(span.parent, 0.0)
                                           + span.end - span.start)
        out: dict[str, tuple[int, float, float]] = {}
        for index, span in enumerate(self.spans):
            if span.op != op:
                continue
            calls, total, own = out.get(span.name, (0, 0.0, 0.0))
            duration = span.end - span.start
            out[span.name] = (calls + 1, total + duration,
                              own + duration - child_time.get(index, 0.0))
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")

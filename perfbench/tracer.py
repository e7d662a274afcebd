"""Spans around calls into the program's layers, kept in memory.

The traced run installs wrappers on the program's entry points (listed
in README.md and in ``layers.TRACE_POINTS``) and records one span per
call: ``[name, start, end, parent, thread]``.  Spans are recorded only
while the tracer is armed, which the workloads do around each measured
client call of an armed round, so set-up, checks and unarmed rounds
leave no spans.  Counts that the
layers report in their return values (water-fill iterations, migrations,
…) are added up by small hooks beside the spans.

A span's self time is its duration minus its children's durations; the
layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.armed = False
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under a span (only recorded while armed)."""
        if not self.armed:
            return fn(*args, **kwargs)
        stack = self._stack()
        rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
               threading.get_ident()]
        stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            stack.pop()

    def wrap(self, name: str | None, fn, hook=None):
        """``fn`` wrapped in a span called ``name`` (``None``: hook only).

        ``hook(args, kwargs, result)`` runs after each armed call.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.armed:
                return fn(*args, **kwargs)
            result = fn(*args, **kwargs) if name is None else tracer.call(
                name, fn, *args, **kwargs)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    # -- installing wrappers -------------------------------------------------

    def patch_method(self, cls, attr: str, name: str | None, hook=None) -> None:
        setattr(cls, attr, self.wrap(name, getattr(cls, attr), hook))

    def patch_function(self, module, attr: str, name: str | None, hook=None) -> None:
        """Wrap a module-level function and every ``from … import`` of it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name, over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[k]
        return out

    def under(self, k: int, prefix: str) -> bool:
        """Whether span ``k`` has an ancestor whose name starts with ``prefix``."""
        parent = self.spans[k][3]
        while parent >= 0:
            if self.spans[parent][0].startswith(prefix):
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, path: Path) -> None:
        """Write every span once, at the end of the run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "thread"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }))

"""In-memory spans around calls into elsurvey's public functions.

A :class:`Tracer` replaces each target function, in every ``elsurvey``
module that holds it under that name, by a wrapper that records one span
``(name, start, end, parent)`` per call plus optional counters read from the
call's arguments and result.  Patching every holder matters because modules
import functions by name (``estimators`` calls ``solve_el`` through its own
global, not through ``elcore``).  Nothing under ``src/`` changes; the
originals are put back when the ``with`` block ends.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

ROOT = -1  # parent index of a span called from untraced code


class Tracer:
    def __init__(self, targets):
        """``targets`` maps ``"module.function"`` to a counter hook or None.

        A hook is called as ``hook(args, kwargs, result)`` after a call
        returns and gives a dict of counter increments.
        """
        self.targets = dict(targets)
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else ROOT])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                counts.update(hook(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "elsurvey" or key.startswith("elsurvey."))]
        for target, hook in self.targets.items():
            modname, attr = target.rsplit(".", 1)
            original = getattr(sys.modules[f"elsurvey.{modname}"], attr)
            wrapper = self._wrap(target, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))
        return self

    def __exit__(self, *exc):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()
        return False


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent != ROOT:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = union_length([(max(s, start), min(e, end)) for s, e in children[idx] if e > start and s < end])
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict:
    """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``; plus
    ``"<root>"`` holding the summed duration of spans with no traced parent."""
    table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    root_s = 0.0
    for (name, start, end, parent), own in zip(spans, self_times(spans)):
        row = table[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
        if parent == ROOT:
            root_s += end - start
    return {"functions": dict(table), "root_s": root_s}

"""Span tracing installed from outside the program.

A Tracer wraps public sgforge functions at every module that holds them
(modules bind names with `from .x import y`, so patching the defining module
alone misses callers). Each wrapped call records a span: id, name, start,
end, parent span id and the pipeline stage it ran in. Spans stay in memory;
`summarize` folds them into per-name calls, busy time and self time, where
self time is a span's duration minus the part of it that child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# span record layout: (id, name, start, end, parent_id, stage); parent -1 is none
ID, NAME, START, END, PARENT, STAGE = range(6)


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[tuple]) -> dict[str, float]:
    """Per span name: `<name>.calls`, `<name>.busy_s` and, for names whose
    spans have children, `<name>.self_s`.

    busy_s counts only spans with no ancestor of the same name, so a
    recursive call is not counted twice; self_s sums every span's own time.
    """
    by_id = {s[ID]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out: Counter = Counter()
    has_children: set[str] = set()
    for s in spans:
        name = s[NAME]
        dur = s[END] - s[START]
        out[f"{name}.calls"] += 1
        p = s[PARENT]
        nested = False
        while p >= 0:
            if by_id[p][NAME] == name:
                nested = True
                break
            p = by_id[p][PARENT]
        if not nested:
            out[f"{name}.busy_s"] += dur
        kids = children.get(s[ID])
        if kids:
            has_children.add(name)
        out[f"{name}.self_s"] += dur - (covered(kids, s[START], s[END]) if kids else 0.0)
    return {
        k: v for k, v in out.items()
        if not k.endswith(".self_s") or k[: -len(".self_s")] in has_children
    }


class Tracer:
    """Collects spans and counts while installed; uninstall restores every
    patched attribute."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.stage = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def run_span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name`."""
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in when the call ends
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self.stage)

    def wrap(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.run_span(name, fn, *args, **kwargs)
            if count is not None:
                count(self.counts, result, args)
            return result

        return wrapper

    def install(self, targets) -> None:
        """targets: (module name, attribute, span name, count function or None).

        An attribute of the form `Class.method` patches the class; a plain
        function is replaced in every loaded sgforge module that bound it.
        """
        for module_name, attr, span_name, count in targets:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(raw.__func__, span_name, count))
                else:
                    new = self.wrap(raw, span_name, count)
                self._patch(cls, meth, raw, new)
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(original, span_name, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "sgforge" or mod_name.startswith("sgforge.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, new) -> None:
        setattr(owner, key, new)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def take(self) -> tuple[list[tuple], Counter]:
        """Return and clear the spans and counts collected so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def write_spans(path: str, passes: list[list[tuple]]) -> None:
    """A header line naming the fields, then one JSON array per span; span
    ids restart with each pass."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(["pass", "id", "name", "start", "end", "parent", "stage"]) + "\n")
        for n, spans in enumerate(passes):
            for s in spans:
                f.write(json.dumps([n, *s], separators=(",", ":")) + "\n")

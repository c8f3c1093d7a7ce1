"""Span recording around fedhar's public functions, from outside the package.

A Tracer replaces each public function of the traced modules with a wrapper
that records one span per call: name, start, end, thread, parent span (the
innermost open span on the same thread) and trace id. The wrapper is
installed at every binding of the function in every loaded ``fedhar``
module, so ``from .training import train`` in ``fedavg``, ``wire`` and
``cli`` is patched as well as ``training.train`` itself. Spans stay in
memory; ``write_chrome_trace`` writes them once the run has ended.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time

TRACED_MODULES = ("tensor", "model", "data", "metrics", "training", "fedavg", "wire", "cli")

# Methods patched on their class: they are the optimizer step and the
# per-client report builder, neither of which is a module-level function.
TRACED_METHODS = (("tensor", "Adam", "step"), ("metrics", "ClientReport", "from_counts"))


def _arg(fn, name):
    """Getter for one argument of ``fn`` by name, however it was passed."""
    sig = inspect.signature(fn)

    def get(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]
    return get


def _extractors(mods):
    """Per-span quantities (rows, bytes, windows) the layer metrics divide by."""
    D, M, TR, W = mods["data"], mods["model"], mods["training"], mods["wire"]
    train_windows = _arg(TR.train, "windows")
    train_config = _arg(TR.train, "config")
    eval_windows = _arg(TR.evaluate, "test_windows")
    write_record = _arg(D.write_subject_csv, "record")
    train_mode = _arg(M.forward, "train_mode")
    blob = _arg(W.decode_weights, "blob")
    return {
        "training.train": lambda a, k, r: {
            "samples": len(train_windows(a, k)) * train_config(a, k).epochs,
            "history": list(r[1])},
        "training.evaluate": lambda a, k, r: {
            "samples": len(eval_windows(a, k)), "mean_ba": r.mean_ba},
        "data.parse_extrasensory_csv": lambda a, k, r: {"rows": r.n_minutes},
        "data.write_subject_csv": lambda a, k, r: {"rows": write_record(a, k).n_minutes},
        "model.forward": lambda a, k, r: {"train": bool(train_mode(a, k))},
        "wire.encode_weights": lambda a, k, r: {"bytes": len(r)},
        "wire.decode_weights": lambda a, k, r: {"bytes": len(blob(a, k))},
        "wire.frame_encode": lambda a, k, r: {"bytes": len(r)},
    }


class Tracer:
    """Wraps fedhar functions; ``only`` limits the wrapped set by span name."""

    def __init__(self, only=None):
        self.only = set(only) if only is not None else None
        self.spans: list[tuple] = []  # (id, name, t0, t1, thread, parent, trace, extra)
        self.trace_id = "setup"
        self.originals: dict[str, object] = {}  # span name -> wrapped function
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, extract):
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter
        get_ident = threading.get_ident
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            trace = tracer.trace_id
            stack.append(sid)
            result = None
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                extra = extract(args, kwargs, result) if (ok and extract) else None
                spans.append((sid, name, t0, t1, get_ident(), parent, trace, extra))
        wrapper.__traced_original__ = fn
        return wrapper

    def install(self) -> "Tracer":
        mods = {m: sys.modules[f"fedhar.{m}"] for m in TRACED_MODULES}
        extractors = _extractors(mods)
        replace: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                if self.only is None or name in self.only:
                    replace[id(obj)] = self._wrap(name, obj, extractors.get(name))
                    self.originals[name] = obj
        # Rebind every module-level reference to a wrapped function, so the
        # by-name imports between fedhar modules record spans too.
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "fedhar" or modname.startswith("fedhar.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None and wrapper.__traced_original__ is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        for short, cls_name, meth in TRACED_METHODS:
            name = f"{short}.{cls_name}.{meth}"
            if self.only is not None and name not in self.only:
                continue
            cls = getattr(mods[short], cls_name)
            raw = cls.__dict__[meth]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapper = self._wrap(name, fn, None)
            self._undo.append((cls, meth, raw))
            setattr(cls, meth, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
            self.originals[name] = fn
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Children run on their parent's thread and do not overlap one another,
    so the time they cover is the sum of their durations.
    """
    child = {}
    for s in spans:
        if s[5]:
            child[s[5]] = child.get(s[5], 0.0) + (s[3] - s[2])
    return {s[0]: (s[3] - s[2]) - child.get(s[0], 0.0) for s in spans}


def write_chrome_trace(spans, path: str, origin: float) -> None:
    """Chrome trace-event JSON: one complete ("X") event per span, in us."""
    threads = {}
    events = []
    for sid, name, t0, t1, tid, parent, trace, _extra in sorted(spans, key=lambda s: s[2]):
        events.append({
            "name": name, "cat": name.split(".", 1)[0], "ph": "X", "pid": 1,
            "tid": threads.setdefault(tid, len(threads) + 1),
            "ts": round((t0 - origin) * 1e6, 3), "dur": round((t1 - t0) * 1e6, 3),
            "args": {"span": sid, "parent": parent, "trace_id": trace},
        })
    for tid, n in threads.items():
        events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": n,
                       "args": {"name": f"thread-{n}"}})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)

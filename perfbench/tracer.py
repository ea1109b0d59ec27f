"""Layer spans recorded from outside the program.

:func:`install` wraps every entry of :data:`perfbench.layers.WRAPPED`.
A wrapper costs one attribute test while the tracer is inactive, so the
traced run can interleave traced and untraced ops and report its own
overhead.  Spans stay in memory as ``(name, start, end, parent, op,
key)`` tuples, one list per thread, and are summarised (and optionally
written out) when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import pkgutil
import sys
import threading
import time
from collections import defaultdict

from .layers import WRAPPED
from .stats import self_times

ROOT = "op"


class Tracer:
    """Thread-aware span recorder; ``active`` gates every wrapper."""

    def __init__(self):
        self.active = False
        self._local = threading.local()
        self._lists: list[list] = []
        self._lock = threading.Lock()
        self._op_ids = itertools.count(1)

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = []
            local.stack = []
            with self._lock:
                self._lists.append(local.spans)
        return local.spans, local.stack

    def call(self, name, fn, args, kwargs, key=None):
        spans, stack = self._state()
        if stack:
            parent, op = stack[-1]
        else:
            parent, op = None, next(self._op_ids)
        index = len(spans)
        spans.append(None)
        stack.append((index, op))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent, op, key)

    def run_op(self, fn, *args, **kwargs):
        """Run one benchmark op under a root span (tracing must be on)."""
        return self.call(ROOT, fn, args, kwargs)

    def spans(self) -> list[list[tuple | None]]:
        """Every span, one list per recording thread; a span still open
        reads as None so parent indices stay valid."""
        with self._lock:
            return [list(spans) for spans in self._lists]

    def write(self, path) -> None:
        """Write every span as one JSON line (thread index first)."""
        with open(path, "w") as handle:
            for thread, spans in enumerate(self._lists):
                for span in spans:
                    if span is not None:
                        handle.write(json.dumps([thread, *span]) + "\n")


def _wrapper(tracer: Tracer, name: str, fn, *, per_namespace=False,
             keyed=False):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        label = name
        if per_namespace:  # ArtifactStore.get/put(self, namespace, ...)
            namespace = args[1] if len(args) > 1 else kwargs["namespace"]
            label = f"{name}.{namespace}"
        key = hash(args[0]) if keyed and args else None
        return tracer.call(label, fn, args, kwargs, key)

    return wrapped


def import_all(package: str = "repro") -> None:
    """Import every submodule, so every import-time binding exists
    before the wrappers replace them."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, prefix=package + "."):
        if info.name.endswith(".__main__"):
            continue
        importlib.import_module(info.name)


def _rebind(original, replacement) -> int:
    """Replace every module-level reference to ``original``."""
    count = 0
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith(("repro", "perfbench")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement
                count += 1
    return count


def install(tracer: Tracer) -> dict[str, int]:
    """Wrap every layer in :data:`WRAPPED`; returns binding sites per
    span name.  Raises when a target is missing, so a renamed layer
    fails the traced run loudly instead of silently losing spans."""
    import_all()
    sites: dict[str, int] = {}
    for name, module_name, target in WRAPPED:
        module = importlib.import_module(module_name)
        per_namespace = name in ("store.get", "store.put")
        keyed = name == "verilog.tokenize"
        if "." in target:
            class_name, method = target.split(".")
            cls = getattr(module, class_name)
            original = cls.__dict__[method]
            setattr(cls, method, _wrapper(tracer, name, original,
                                          per_namespace=per_namespace))
            sites[name] = 1
        else:
            original = getattr(module, target)
            sites[name] = _rebind(original, _wrapper(
                tracer, name, original, keyed=keyed))
        if not sites[name]:
            raise RuntimeError(f"no binding of {module_name}.{target}")
    return sites


def summarize_spans(threads: list[list[tuple]]) -> dict:
    """Per-name totals over all threads.

    ``s`` is inclusive time counted on outermost spans of a name only
    (a recursive call is not counted twice); ``self_s`` subtracts the
    time child spans cover.  Roots are the benchmark's ``op`` spans when
    there are any, else the top-level spans of each thread (the server).
    Returns ``{"layers": {name: {calls, s, self_s}}, "ops": n,
    "root_s": total root time, "root_self_s": unattributed root time,
    "unique_keys": distinct keyed arguments, "keyed_calls": ...}``.
    """
    layers: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    has_ops = any(span and span[0] == ROOT
                  for spans in threads for span in spans)
    ops = 0
    root_s = root_self_s = 0.0
    keys: set = set()
    keyed_calls = 0
    for spans in threads:
        selfs = self_times([(s[1], s[2], s[3]) if s else (0.0, 0.0, None)
                            for s in spans])
        names = [s[0] if s else None for s in spans]
        for i, span in enumerate(spans):
            if span is None:
                continue
            name, start, end, parent, _op, key = span
            duration = end - start
            is_root = (name == ROOT) if has_ops else parent is None
            if is_root:
                ops += 1
                root_s += duration
                if has_ops:
                    root_self_s += selfs[i]
            if name == ROOT:
                continue
            entry = layers[name]
            entry["calls"] += 1
            entry["self_s"] += selfs[i]
            ancestor = parent
            while ancestor is not None and names[ancestor] != name:
                ancestor = spans[ancestor][3] if spans[ancestor] else None
            if ancestor is None:
                entry["s"] += duration
            if key is not None:
                keys.add(key)
                keyed_calls += 1
    return {"layers": dict(layers), "ops": ops, "root_s": root_s,
            "root_self_s": root_self_s,
            "unique_keys": len(keys),
            "keyed_calls": keyed_calls}

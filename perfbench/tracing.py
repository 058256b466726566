"""Spans around the public functions of the supadd modules, installed from
outside the package.

The package imports with `from .x import y`, so one function is reachable
under several module namespaces; `Tracer.install` replaces it in every
`supadd*` module that holds it, and `uninstall` puts the originals back.
Each call appends one span (function, start, end, parent span, job); spans
stay in memory until the caller takes them.
"""

import functools
import json
import sys
import time
import types

PACKAGE = "supadd"
LAYERS = ("cli", "fastcode", "information", "detection", "ensembles", "synth", "_kernels")


def layer_of(module_name: str) -> str:
    """Layer name used in metric names: the module's last dotted part
    without leading underscores (metric names start with a letter)."""
    return module_name.rsplit(".", 1)[-1].lstrip("_")


class Tracer:
    def __init__(self, hooks=None, clock=time.perf_counter):
        self.hooks = hooks or {}
        self.clock = clock
        self.names = []
        self.spans = []
        self.counters = {}
        self.job = None
        self._stack = []
        self._patches = []
        self._wrappers = self._build()

    def _build(self) -> dict:
        """original function -> wrapper, one per distinct function object."""
        aliases = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__
                ):
                    aliases.setdefault(obj, []).append(attr)
        wrappers = {}
        for func, attrs in aliases.items():
            name = f"{layer_of(func.__module__)}.{min(attrs, key=lambda a: (len(a), a))}"
            wrappers[func] = self._wrap(len(self.names), func, self.hooks.get(name))
            self.names.append(name)
        return wrappers

    def _wrap(self, fid: int, func, hook):
        spans, stack, clock = self.spans, self._stack, self.clock
        counters = self.counters

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, start, end, parent, self.job)
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = self._wrappers.get(obj) if isinstance(obj, types.FunctionType) else None
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, obj))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def take(self):
        """The spans and counters recorded since the last take; resets both."""
        spans, counters = list(self.spans), dict(self.counters)
        self.spans.clear()
        self.counters.clear()
        return spans, counters


def aggregate(spans, names, scale: float = 1.0) -> dict:
    """Per function: calls, inclusive seconds and self seconds; per layer:
    self seconds. Self time is a span's duration minus its children's.
    Seconds are multiplied by `scale`."""
    child = [0.0] * len(spans)
    for fid, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    funcs = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in names}
    layers = {layer_of(layer): 0.0 for layer in LAYERS}
    for (fid, start, end, _, _), covered in zip(spans, child):
        entry = funcs[names[fid]]
        entry["calls"] += 1
        entry["s"] += (end - start) * scale
        entry["self_s"] += (end - start - covered) * scale
        layers[names[fid].split(".", 1)[0]] += (end - start - covered) * scale
    return {"functions": funcs, "layers": layers}


def write_spans(path, spans, names) -> None:
    """One JSON object per line; a span's id is its line number from 0."""
    origin = spans[0][1] if spans else 0.0
    with open(path, "w") as out:
        for fid, start, end, parent, job in spans:
            out.write(json.dumps({
                "name": names[fid], "job": job, "parent": parent,
                "start": start - origin, "end": end - origin,
            }) + "\n")

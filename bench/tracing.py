"""Per-layer tracing of the walled_tangles package, applied from outside.

Each layer module's public functions, plus the arithmetic methods listed in
``METHODS``, are replaced by wrappers that record a span (name, start, end,
parent span, operation id).  The modules import each other's functions by
name, so a wrapper is installed under every name in every package module
that is bound to the original function.  Spans stay in memory and are
written out once the pass is over.  A layer's self time is the duration of
its spans minus the part covered by their child spans; time in private
helpers counts for the layer of the wrapped function that called them.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

LAYERS = ("laurent", "tangle", "skein", "rep", "qgroup", "duality", "cli")

#: Class methods traced as layer work: the arithmetic the layers run on.
METHODS = {
    "laurent": ("LaurentPoly", ("__add__", "__sub__", "__rsub__", "__mul__", "__neg__", "__pow__")),
    "rep": ("OperatorMatrix", ("__add__", "__sub__", "__neg__", "scaled", "matmul", "kron", "transpose", "commutator", "evaluate")),
    "skein": ("TangleElement", ("__add__", "__sub__", "__neg__", "scaled")),
}

#: Private functions traced because a per-layer metric is read from them.
PRIVATE = {"duality": ("_rank_of_rows",)}

#: Memo caches read through ``cache_info()``: metric prefix -> (module, name).
CACHES = {
    "skein.descend": ("skein", "_descend"),
    "skein.product": ("skein", "_connector_product"),
    "rep.deposit": ("rep", "_descending_deposit"),
    "tangle.strand_graph": ("tangle", "strand_graph"),
    "laurent.quantum_binom": ("laurent", "_quantum_binom_cached"),
}


def modules() -> dict:
    return {layer: importlib.import_module(f"walled_tangles.{layer}") for layer in LAYERS}


def cache_handles() -> dict:
    """The memo functions themselves, taken before any wrapper is installed;
    a cache that is gone or no longer a memo maps to None."""
    mods = modules()
    handles = {}
    for prefix, (layer, name) in CACHES.items():
        fn = getattr(mods[layer], name, None)
        handles[prefix] = fn if hasattr(fn, "cache_info") else None
    return handles


def cache_metrics(handles: dict) -> dict:
    """Hit ratio and entry count per cache; None marks an absent cache."""
    out = {}
    for prefix, fn in handles.items():
        if fn is None:
            out[f"{prefix}.hit_ratio"] = out[f"{prefix}.entries"] = None
            continue
        info = fn.cache_info()
        lookups = info.hits + info.misses
        out[f"{prefix}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        out[f"{prefix}.entries"] = info.currsize
    return out


class Tracer:
    """Records spans of the wrapped functions; one instance per pass."""

    def __init__(self):
        self.names: list[str] = []
        # Open spans hold their name id; closed ones
        # (name id, start, end, parent index, operation id).
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.counts = {"rep.nonzeros": 0, "qgroup.nonzeros": 0, "duality.unknowns": 0}

    def _wrap(self, name: str, fn, observe=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(nid)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (nid, start, end, parent, self.op)
            if observe is not None:
                observe(result, args)
            return result

        return traced

    def _nonzeros(self, key: str):
        def observe(result, args):
            entries = getattr(result, "entries", None)
            if isinstance(entries, dict):
                self.counts[key] += len(entries)

        return observe

    def _unknowns(self, result, args):
        """Columns of each system eliminated inside ``commutant_dim``."""
        rows = args[0] if args else None
        if isinstance(rows, list) and rows and "duality.commutant_dim" in self.names:
            commutant = self.names.index("duality.commutant_dim")
            if any(self.spans[i] == commutant for i in self.stack):
                self.counts["duality.unknowns"] += len(rows[0])

    def install(self) -> None:
        """Wrap every public function of every layer, and ``METHODS``."""
        mods = modules()
        targets = []
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                public = not name.startswith("_") or name in PRIVATE.get(layer, ())
                if public and (inspect.isfunction(obj) or hasattr(obj, "cache_info")) and obj.__module__ == mod.__name__:
                    targets.append((layer, name, obj))
        for layer, name, fn in targets:
            observe = None
            if layer in ("rep", "qgroup"):
                observe = self._nonzeros(f"{layer}.nonzeros")
            elif name == "_rank_of_rows":
                observe = self._unknowns
            wrapper = self._wrap(f"{layer}.{name}", fn, observe)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
        if "duality._rank_of_rows" not in self.names:
            self.counts["duality.unknowns"] = None
        for layer, (cls_name, methods) in METHODS.items():
            cls = getattr(mods[layer], cls_name, None)
            for method in methods:
                fn = cls.__dict__.get(method) if cls is not None else None
                if fn is None:
                    continue
                wrapper = self._wrap(f"{layer}.{cls_name}.{method}", fn)
                for key, value in list(cls.__dict__.items()):
                    if value is fn:
                        setattr(cls, key, wrapper)

    def summary(self, scale: list[float]) -> dict:
        """Self seconds per layer, calls and seconds per span name; the
        seconds of operation i are multiplied by ``scale[i]``."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(self.names, 0)
        seconds = dict.fromkeys(self.names, 0.0)
        for (nid, start, end, _, op), covered in zip(self.spans, child):
            name = self.names[nid]
            self_s[name.split(".", 1)[0]] += (end - start - covered) * scale[op]
            calls[name] += 1
            seconds[name] += (end - start) * scale[op]
        return {"self_s": self_s, "calls": calls, "seconds": seconds}

    def write(self, path: str, origin: float) -> None:
        """Spans as [name id, start, end, parent, op] with times in whole
        microseconds from ``origin``."""
        def us(t: float) -> int:
            return round((t - origin) * 1e6)

        rows = [[nid, us(start), us(end), parent, op] for nid, start, end, parent, op in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_us", "end_us", "parent", "op"], "names": self.names, "spans": rows}, handle)

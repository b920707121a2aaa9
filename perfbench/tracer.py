"""Per-layer tracing of blockscope from outside the program.

The layers are the library's modules.  ``Tracer.install`` replaces each
public function of a layer, wherever a blockscope module binds it, with a
wrapper that opens a span; nested calls therefore know their parent
span.  A layer's self time is the time inside its spans minus the time
inside their child spans.  The hot tiny calls (``Perm.__mul__``, ``Cyclo``
addition and multiplication, ``ModPContext.reduce``) are only counted,
because a timed span would cost more than the call.

A wrap target that no longer exists is skipped and listed in
``Tracer.skipped``; tracing goes on without it.  Spans that cross a layer
boundary are kept in memory and written out by ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import weakref
from collections import defaultdict

LAYERS = ("perms", "recipes", "groups", "cyclotomic", "modp", "chartable",
          "blocks", "fusion", "classify", "catalog", "cli")

# Counted, never timed: (layer, dotted attribute) -> counter name.
COUNTED = {
    ("perms", "Perm.__mul__"): "perms.mul_calls",
    ("cyclotomic", "Cyclo.__add__"): "cyclotomic.arith_calls",
    ("cyclotomic", "Cyclo.__mul__"): "cyclotomic.arith_calls",
    ("modp", "ModPContext.reduce"): "modp.reduce_calls",
}

# Timed spans whose calls are also counted.
CALL_COUNTED = {
    ("groups", "sylow_subgroup"): "groups.sylow_calls",
    ("groups", "normalizer"): "groups.normalizer_calls",
    ("blocks", "brauer_induce"): "blocks.brauer_induce_calls",
}

# Classes whose public methods are timed as spans of their layer.
SPAN_CLASSES = {"groups": ("PermGroup",), "fusion": ("FusionSystem",),
                "chartable": ("CharacterTable",)}

# Private functions that do a layer's main work and are called from other
# layers (Schreier-Sims, class structure constants).  Without them that
# time would count as the caller's.
PRIVATE_SPANS = (("groups", "_BSGS.__init__"), ("chartable", "_class_matrices"))

# Accessors called once per element lookup; a span would cost more than
# the call and they do no work of their own.
TOO_HOT = {("groups", "PermGroup.class_of"), ("chartable", "CharacterTable.class_index")}


def _resolve(module, dotted: str):
    """(owner, attribute name, value) for 'f' or 'Class.method'."""
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], inspect.getattr_static(owner, parts[-1])


class Tracer:
    """Spans and counters for one traced run.  Not thread-safe: the
    workloads are single-threaded."""

    def __init__(self, package: str = "blockscope"):
        self.package = package
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[list] = []      # [name, start_ns, end_ns, parent span index]
        self.skipped: list[str] = []
        self._stack: list[list] = []     # frames: [start_ns, child_ns, layer, span index]
        self._restore: list[tuple] = []
        self._tables: dict[int, weakref.ref] = {}
        self._top_groups: dict[int, tuple] = {}   # id -> (weakref, sequence number)
        self._top_seq = 0
        self.max_degree = 0                       # largest degree of a top group
        self._p_classes: dict[int, int] = {}      # top group sequence -> class count

    # -- installation

    def install(self) -> list[str]:
        """Wrap every target; returns the names that were skipped."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{self.package}.{layer}")
            except ImportError:
                self.skipped.append(layer)
        targets = {}   # (layer, dotted) -> kind
        for layer, mod in modules.items():
            for name in getattr(mod, "__all__", ()):
                if not hasattr(mod, name):
                    self.skipped.append(f"{layer}.{name}")
                    continue
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    targets[(layer, name)] = "span"
            for cls_name in SPAN_CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name, None)
                if cls is None:
                    self.skipped.append(f"{layer}.{cls_name}")
                    continue
                for attr, value in vars(cls).items():
                    if not attr.startswith("_") and inspect.isfunction(value):
                        targets[(layer, f"{cls_name}.{attr}")] = "span"
        for key in PRIVATE_SPANS:
            targets[key] = "span"
        for key in CALL_COUNTED:
            targets[key] = "span"
        for key in COUNTED:
            targets[key] = "count"
        for key in TOO_HOT:
            targets.pop(key, None)

        for (layer, dotted), kind in sorted(targets.items()):
            mod = modules.get(layer)
            try:
                if mod is None:
                    raise AttributeError(layer)
                owner, attr, original = _resolve(mod, dotted)
            except AttributeError:
                if mod is not None:
                    self.skipped.append(f"{layer}.{dotted}")
                continue
            if kind == "count":
                wrapper = self._counter(original, COUNTED[(layer, dotted)])
            else:
                wrapper = self._span(f"{layer}.{dotted}", layer, original,
                                     CALL_COUNTED.get((layer, dotted)),
                                     self._observer(layer, dotted))
            if owner is mod:
                self._rebind_everywhere(original, wrapper)
            else:
                self._set(owner, attr, wrapper)
        return self.skipped

    def _rebind_everywhere(self, original, wrapper):
        prefix = self.package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- wrappers

    def _counter(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _span(self, name: str, layer: str, fn, count_key, observe):
        stack = self._stack
        spans = self.spans
        self_ns = self.self_ns
        counts = self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if count_key is not None:
                counts[count_key] += 1
            parent = stack[-1] if stack else None
            start = clock()
            if parent is None or parent[2] != layer:
                index = len(spans)
                spans.append([name, start, None,
                              None if parent is None else parent[3]])
            else:
                index = None
            frame = [start, 0, layer, parent[3] if index is None else index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                end = clock()
                took = end - start
                self_ns[layer] += took - frame[1]
                if parent is not None:
                    parent[1] += took
                if index is not None:
                    spans[index][2] = end
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return span

    # -- work-size observers

    def _observer(self, layer: str, dotted: str):
        return {
            ("recipes", "construct_group"): self._saw_top_group,
            ("chartable", "character_table"): self._saw_table,
            ("blocks", "p_subgroup_classes"): self._saw_p_classes,
        }.get((layer, dotted))

    def _saw_top_group(self, args, kwargs, group):
        # groups built from recipes are the ones a workload analyses
        self._top_seq += 1
        self.max_degree = max(self.max_degree, group.degree)
        self._top_groups[id(group)] = (weakref.ref(group), self._top_seq)

    def _saw_table(self, args, kwargs, table):
        ref = self._tables.get(id(table))
        if ref is None or ref() is not table:
            self._tables[id(table)] = weakref.ref(table)
            self.counts["chartable.tables_built"] += 1
            self.counts["chartable.classes_total"] += len(table.degrees)

    def _saw_p_classes(self, args, kwargs, classes):
        group = args[0] if args else kwargs.get("group")
        entry = self._top_groups.get(id(group))
        if entry is not None and entry[0]() is group:
            self._p_classes[entry[1]] = len(classes)

    # -- results

    def metrics(self) -> dict:
        """Self seconds per layer and the counters, by metric name."""
        out = {f"{layer}.self_s": self.self_ns.get(layer, 0) / 1e9 for layer in LAYERS}
        for key in list(COUNTED.values()) + list(CALL_COUNTED.values()) + [
                "chartable.tables_built", "chartable.classes_total"]:
            out[key] = self.counts.get(key, 0)
        out["groups.p_subgroup_classes"] = sum(self._p_classes.values())
        return out

    def write_spans(self, path):
        """One JSON array per line: name, start ns, end ns, parent line or null."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

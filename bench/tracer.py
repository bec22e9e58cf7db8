"""Per-layer tracing installed from outside the library.

A layer is one `superlink` module.  `Tracer.install` wraps every public
function of every layer module, and the public methods of the classes they
define, then rebinds each wrapped function under every name any layer (or
the package) holds it by, since modules import names directly.  Recursive
calls therefore pass through the wrappers too.

A span opens when a call crosses into another layer (the benchmark's own
code is the root layer); calls that stay inside a layer only count.  Spans
are aggregated in memory as they close: a span's self time is its duration
minus the time of the spans it opened.  Nothing is written until `metrics`
is read at the end of the run.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import weakref
from collections import Counter
from time import perf_counter

LAYERS = ("weights", "root_data", "weyl", "whittaker", "blocks", "kl",
          "oracle", "verma_oracle", "cli")
ROOT = "bench"

# private or dunder methods worth wrapping; the rest (hashing, equality,
# iteration) run inside dict and set operations and would only measure the
# wrapper
_DUNDERS = {"weights.Weight.__init__", "weights.Weight.__add__", "weights.Weight.__sub__",
            "weights.Weight.__neg__", "kl.FiniteWeylGroup.__init__"}
# called so often that a span would cost more than the call: count only
_COUNT_ONLY = {"weights.Weight.__init__"}
# functions whose own self time is reported: they open a span even when
# called from inside their layer
_OWN_SPAN = {"blocks.typicality", "oracle.kl_via_inversion"}


class Tracer:
    def __init__(self):
        self.active = False
        self.stack = [[ROOT, ROOT, 0.0]]  # [layer, name, child time]
        self.calls = Counter()  # every call, by qualified name
        self.entries = Counter()  # cross-layer calls, by layer
        self.self_time = Counter()  # by layer
        self.fn_self = Counter()  # by qualified name
        self.counters = Counter()
        self._group_ids = weakref.WeakKeyDictionary()
        self._next_group = itertools.count()
        self._seen = {"kl.kl_polynomial": set(), "kl.bruhat_leq": set()}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("superlink")
        modules = {name: importlib.import_module(f"superlink.{name}") for name in LAYERS}
        replaced = {}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(obj, layer, f"{layer}.{name}")
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        for module in [package, *modules.values()]:
            for name, obj in list(vars(module).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(module, name, replaced[id(obj)])

    def _wrap_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            qual = f"{layer}.{cls.__name__}.{name}"
            if name.startswith("_") and qual not in _DUNDERS:
                continue
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(attr.__func__, layer, qual)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(attr, layer, qual))

    def _wrap(self, fn, layer: str, qual: str):
        hook = _HOOKS.get(qual)
        own_span = qual in _OWN_SPAN
        if qual in _COUNT_ONLY:
            calls = self.calls

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self.active:
                    calls[qual] += 1
                return fn(*args, **kwargs)
            return counted
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer, qual)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.calls[qual] += 1
            if hook is not None:
                hook(self, args)
            stack = self.stack
            crossing = stack[-1][0] != layer
            if not (crossing or own_span):
                result = fn(*args, **kwargs)
            else:
                if crossing:
                    self.entries[layer] += 1
                frame = [layer, qual, 0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(frame, perf_counter() - start)
            post = _POST.get(qual)
            if post is not None:
                post(self, result)
            return result
        return traced

    def _wrap_generator(self, fn, layer: str, qual: str):
        """Each resume of the generator is a span; each item is counted."""
        counter = _YIELDS.get(qual)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not self.active:
                return gen
            self.calls[qual] += 1
            return self._resumes(gen, layer, qual, counter)
        return traced

    def _resumes(self, gen, layer, qual, counter):
        crossing = self.stack[-1][0] != layer
        if crossing:
            self.entries[layer] += 1
        while True:
            if crossing:
                frame = [layer, qual, 0.0]
                self.stack.append(frame)
                start = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(frame, perf_counter() - start)
            else:
                try:
                    item = next(gen)
                except StopIteration:
                    return
            if counter is not None:
                self.counters[counter] += 1
            yield item

    def _close(self, frame, elapsed: float) -> None:
        self.stack.pop()
        self.stack[-1][2] += elapsed
        own = elapsed - frame[2]
        self.self_time[frame[0]] += own
        self.fn_self[frame[1]] += own

    # -- bookkeeping used by the hooks --------------------------------------

    def group_id(self, W) -> int:
        """A serial number per group object; unlike id(), never reused once the
        group is freed."""
        gid = self._group_ids.get(W)
        if gid is None:
            gid = self._group_ids[W] = next(self._next_group)
        return gid

    def seen(self, qual: str, key) -> None:
        memo = self._seen[qual]
        if key in memo:
            self.counters[qual + ".reused"] += 1
        else:
            memo.add(key)

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics as (value, unit) pairs; the tracing overhead
        needs an untraced run and is added by the caller."""
        c, calls = self.counters, self.calls
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_time[layer], "s")
            out[f"{layer}.calls"] = (self.entries[layer], "count")
        edges = c["oracle.bfs.edges"]
        kl_calls, br_calls = calls["kl.kl_polynomial"], calls["kl.bruhat_leq"]
        entries = c["kl.verma_table.entries"]
        out.update({
            "weights.constructed": (calls["weights.Weight.__init__"], "count"),
            "root_data.pairing_coroot.calls": (calls["root_data.pairing_coroot"], "count"),
            "root_data.is_integral.calls": (calls["root_data.is_integral"], "count"),
            "weyl.antidominant_rep.calls": (calls["weyl.antidominant_rep"], "count"),
            "weyl.orbit_dot.points": (c["weyl.orbit_dot.points"], "count"),
            "weyl.length.calls": (calls["weyl.length"], "count"),
            "blocks.typicality.self_s": (self.fn_self["blocks.typicality"], "s"),
            "blocks.block_label.calls": (calls["blocks.block_label"], "count"),
            "oracle.bfs.closures": (calls["oracle.bfs_linkage_closure"], "count"),
            "oracle.bfs.edges": (edges, "count"),
            "oracle.bfs.new_ratio": (_ratio(c["oracle.bfs.new_points"], edges), "ratio"),
            "oracle.box.contains_calls": (calls["oracle.WeightBox.contains"], "count"),
            "oracle.kl_inversion.self_s": (self.fn_self["oracle.kl_via_inversion"], "s"),
            "kl.groups_built": (calls["kl.FiniteWeylGroup.__init__"], "count"),
            "kl.kl_polynomial.calls": (kl_calls, "count"),
            "kl.kl_polynomial.reuse_ratio": (
                _ratio(c["kl.kl_polynomial.reused"], kl_calls), "ratio"),
            "kl.bruhat_leq.calls": (br_calls, "count"),
            "kl.bruhat_leq.reuse_ratio": (_ratio(c["kl.bruhat_leq.reused"], br_calls), "ratio"),
            "kl.verma_table.entries": (entries, "count"),
            "kl.verma_table.read_ratio": (_ratio(calls["kl.MultTable.get"], entries), "ratio"),
            "cli.stdout_bytes": (c["cli.stdout_bytes"], "bytes"),
        })
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _kl_pair(tracer: Tracer, args, qual: str) -> None:
    W, x, w = args[:3]
    tracer.seen(qual, (tracer.group_id(W), x, w))


def _orbit_points(tracer: Tracer, result) -> None:
    tracer.counters["weyl.orbit_dot.points"] += len(result)


def _closure(tracer: Tracer, result) -> None:
    # every point but the seed was first reached by exactly one edge
    tracer.counters["oracle.bfs.new_points"] += len(result) - 1


def _table(tracer: Tracer, result) -> None:
    tracer.counters["kl.verma_table.entries"] += len(result.entries)


_HOOKS = {  # before the call, on its arguments
    "kl.kl_polynomial": lambda t, a: _kl_pair(t, a, "kl.kl_polynomial"),
    "kl.bruhat_leq": lambda t, a: _kl_pair(t, a, "kl.bruhat_leq"),
}
_POST = {  # after the call, on its result
    "weyl.orbit_dot": _orbit_points,
    "oracle.bfs_linkage_closure": _closure,
    "kl.builtin_verma_table": _table,
}
_YIELDS = {"oracle.LinkageGenerators.neighbors": "oracle.bfs.edges"}

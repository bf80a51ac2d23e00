"""Spans around every public function and class of the cubigraph modules,
installed from outside: nothing under src/ changes.

install() wraps each public function, each public method and the
constructor of each public class, then rebinds every module attribute that
names a wrapped function, so `from .presheaf import enumerate_maps` in
skeleta and lifting is caught too.  A wrapper counts every call.  It opens a
span only when the call enters another layer, or another named group of
its own layer (GROUPS); a call that stays inside the current layer and
group adds nothing to time, so its time is the caller's self time.

Spans are kept in memory as name, start, end, parent span and query id;
spans without children fold into one record per parent and name, so a
hot leaf such as Graph.neighbors costs no memory per call.  Self time is
summed as spans close.  dump_spans() writes the spans out when the run
ends; summary() gives self time per layer and group, calls and the work
counters.  Timing a span costs about a microsecond, which the traced run
reports as trace.overhead_s.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("site", "presheaf", "skeleta", "lifting", "product", "graphs",
          "nerve", "pi1", "cli")

# layer -> group -> the public names whose calls form that group
GROUPS = {
    "presheaf": {
        "enumerate_maps": ("enumerate_maps",),
        "build": ("build_standard", "representable", "subpresheaf",
                  "disjoint_union", "quotient", "random_presheaf"),
        "nondeg": ("FinitePresheaf.nondeg", "FinitePresheaf.root"),
        "json": ("FinitePresheaf.to_json", "FinitePresheaf.from_json",
                 "map_to_json", "map_from_json"),
    },
    "skeleta": {"coskeleton": ("coskeleton",)},
    "lifting": {"solve": ("solve",)},
    "graphs": {"neighbors": ("Graph.neighbors",)},
    "nerve": {
        "fibration": ("is_graph_n_fibration_bounded",),
        "fragment": ("nerve_fragment",),
    },
    "pi1": {
        "homotopy": ("path_homotopic_bounded",),
        "presentation": ("a1_presentation", "walk_to_word",
                         "loop_word_trivial", "pi1_functor",
                         "GroupoidPresentation.tree_path",
                         "GroupoidPresentation.generator_loop",
                         "GroupoidPresentation.word_path",
                         "GroupoidPresentation.abelianization"),
        "psi": ("psi_comparison",),
        "isofibration": ("is_isofibration_bounded",),
    },
}


# O(1) accessors: their calls are counted, their time stays with the
# caller, because a span would cost several times the call itself
UNTIMED = {"graphs.Graph.adjacent"}


def _total_cells(X):
    return sum(len(X.cells[d]) for d in X.dims())


class Tracer:
    def __init__(self):
        self.names = []      # name id -> span name
        self.keys = []       # name id -> (layer, group)
        self.call_cells = []  # name id -> [calls]
        self.spans = []  # [name id, parent, query, start, end]
        # (parent, name id) -> [query, first start, total time, calls]
        self.leaves = {}
        self.frames = [[("bench", None), -1, 0.0, 0.0, -1, None]]
        self.self_s = []     # name id -> self time
        self.incl_s = []     # name id -> time of the outermost spans
        self.depth = []      # name id -> open spans of that name
        self.query = -1
        self.counts = defaultdict(int)  # named work counters
        self._shared_budget = None
        self._pending_budget = False

    def reset(self):
        """Forget every span, time and count so far (the set-up work)."""
        self.spans.clear()
        self.leaves.clear()
        for table in (self.self_s, self.incl_s):
            table[:] = [0.0] * len(table)
        for cell in self.call_cells:
            cell[0] = 0
        self.counts.clear()

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name, key):
        self.names.append(name)
        self.keys.append(key)
        self.call_cells.append([0])
        self.self_s.append(0.0)
        self.incl_s.append(0.0)
        self.depth.append(0)
        return len(self.names) - 1

    def enter(self, name_id):
        """Open a span.  A frame is [key, name id, start, child time, span
        index, parent frame]; the span index stays -1 until the frame gets
        a child, because only spans with children are stored one by one."""
        parent = self.frames[-1]
        if parent[4] < 0 and parent[5] is not None:
            parent[4] = len(self.spans)
            self.spans.append([parent[1], parent[5][4], self.query,
                               parent[2], 0.0])
        frame = [self.keys[name_id], name_id, 0.0, 0.0, -1, parent]
        self.frames.append(frame)
        self.depth[name_id] += 1
        frame[2] = time.perf_counter()
        return frame

    def leave(self, frame):
        end = time.perf_counter()
        self.frames.pop()
        name_id, parent = frame[1], frame[5]
        dur = end - frame[2]
        self.self_s[name_id] += dur - frame[3]
        parent[3] += dur
        self.depth[name_id] -= 1
        if not self.depth[name_id]:
            self.incl_s[name_id] += dur
        if frame[4] >= 0:
            self.spans[frame[4]][4] = end
            return
        # spans without children fold into one line per parent and name
        leaf = self.leaves.get((parent[4], name_id))
        if leaf is None:
            self.leaves[(parent[4], name_id)] = [self.query, frame[2], dur, 1]
        else:
            leaf[2] += dur
            leaf[3] += 1

    def bench_span(self, name):
        """Open a span owned by the benchmark itself (a query, a process)."""
        return self.enter(self._name_id(name, ("bench", None)))

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn, layer, qualname, group, hook=(None, None)):
        name = f"{layer}.{qualname}"
        name_id = self._name_id(name, (layer, group))
        key = self.keys[name_id]
        calls = self.call_cells[name_id]
        frames = self.frames
        before, after = hook
        if name in UNTIMED:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[0] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[0] += 1
            if before is not None:
                before(self)
            cur = frames[-1][0]
            if cur == key or (cur[0] == layer and group is None):
                out = fn(*args, **kwargs)
            else:
                frame = self.enter(name_id)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.leave(frame)
            if after is not None:
                after(self, args, out)
            return out

        return wrapper

    def install(self):
        """Wrap every public function and class of the cubigraph modules."""
        modules = {
            layer: importlib.import_module(f"cubigraph.{layer}")
            for layer in LAYERS
        }
        group_of = {
            (layer, name): group
            for layer, groups in GROUPS.items()
            for group, names in groups.items()
            for name in names
        }
        hooks = _hooks()
        wrapped = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self.wrap(
                        obj, layer, name, group_of.get((layer, name)),
                        hooks.get((layer, name), (None, None)))
                elif inspect.isclass(obj) and not issubclass(
                        obj, BaseException):
                    self._wrap_class(obj, layer, group_of, hooks)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)])

    def _wrap_class(self, cls, layer, group_of, hooks):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name != "__init__":
                continue
            qual = f"{cls.__name__}.{name}"
            kind = None
            if isinstance(raw, staticmethod):
                kind, fn = staticmethod, raw.__func__
            elif isinstance(raw, classmethod):
                kind, fn = classmethod, raw.__func__
            elif inspect.isfunction(raw):
                fn = raw
            else:
                continue  # properties and plain attributes
            w = self.wrap(fn, layer, qual, group_of.get((layer, qual)),
                          hooks.get((layer, qual), (None, None)))
            setattr(cls, name, kind(w) if kind else w)

    # -- results -------------------------------------------------------------

    def summary(self):
        """Self time per layer and layer.group, calls and work counters."""
        layer_self = defaultdict(float)
        group_self = defaultdict(float)
        group_incl = defaultdict(float)
        for nid, (layer, group) in enumerate(self.keys):
            layer_self[layer] += self.self_s[nid]
            if group is not None:
                group_self[f"{layer}.{group}"] += self.self_s[nid]
                group_incl[f"{layer}.{group}"] += self.incl_s[nid]
        calls = {
            name: cell[0]
            for name, cell in zip(self.names, self.call_cells) if cell[0]
        }
        return {
            "spans": len(self.spans) + len(self.leaves),
            "layer_self_s": dict(layer_self),
            "group_self_s": dict(group_self),
            "group_incl_s": dict(group_incl),
            "calls": calls,
            "counts": dict(self.counts),
        }

    def dump_spans(self, path):
        """Write the spans as tab-separated lines, gzip-compressed.

        A line with calls > 1 stands for that many childless spans of one
        name under one parent; its end is its start plus their summed
        durations.
        """
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tquery\tname\tstart\tend\tcalls\n")
            for sid, (nid, parent, query, start, end) in enumerate(
                    self.spans):
                fh.write(f"{sid}\t{parent}\t{query}\t{names[nid]}"
                         f"\t{start:.9f}\t{end:.9f}\t1\n")
            for (parent, nid), (query, start, total, calls) in \
                    self.leaves.items():
                fh.write(f"-\t{parent}\t{query}\t{names[nid]}"
                         f"\t{start:.9f}\t{start + total:.9f}\t{calls}\n")


def _hooks():
    """Per-function (before, after) hooks that feed the work counters."""

    def enumerate_maps(tr, args, out):
        tr.counts["presheaf.enumerate_maps.results"] += len(out)

    def coskeleton(tr, args, out):
        tr.counts["skeleta.coskeleton.cells"] += _total_cells(out[0])

    def solve(tr, args, out):
        tr.counts["lifting.solve.lifted"] += "no_lift" not in out

    def squares_over(tr, args, out):
        tr.counts["lifting.squares"] += len(out)

    def product_cells(tr, args, out):
        tr.counts["product.cells"] += _total_cells(out)

    def budget_init(tr, args, out):
        # the first Budget a fibration check builds is its shared one
        if tr._pending_budget:
            tr._shared_budget = args[0]
            tr._pending_budget = False

    def fibration_start(tr):
        tr._pending_budget = True

    def fibration(tr, args, out):
        tr.counts["nerve.fibration.problems"] += out.detail.get("tested", 0)
        tr.counts["nerve.fibration.inconclusive"] += (
            out.verdict == "inconclusive")
        b = tr._shared_budget
        if b is not None:
            tr.counts["nerve.fibration.work_units"] += b.allowance - b.left
        tr._shared_budget = None

    def fragment(tr, args, out):
        tr.counts["nerve.fragment.cells"] += _total_cells(out)

    def homotopy(tr, args, out):
        tr.counts["pi1.homotopy.words"] += out.explored
        tr.counts["pi1.homotopy.inconclusive"] += (
            out.verdict == "inconclusive")

    def loop_word(tr, args, out):
        tr.counts["pi1.loop_word.undecided"] += out is None

    return {
        ("presheaf", "enumerate_maps"): (None, enumerate_maps),
        ("skeleta", "coskeleton"): (None, coskeleton),
        ("lifting", "solve"): (None, solve),
        ("lifting", "squares_over"): (None, squares_over),
        ("product", "geometric_product"): (None, product_cells),
        ("product", "triangulate"): (None, product_cells),
        ("nerve", "Budget.__init__"): (None, budget_init),
        ("nerve", "is_graph_n_fibration_bounded"): (fibration_start,
                                                    fibration),
        ("nerve", "nerve_fragment"): (None, fragment),
        ("pi1", "path_homotopic_bounded"): (None, homotopy),
        ("pi1", "loop_word_trivial"): (None, loop_word),
    }

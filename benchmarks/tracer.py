"""Outside-in span tracer for the pcptest package.

The tracer wraps each layer's public functions (and a few named model
methods) for as long as it is installed, in every pcptest namespace that
holds a reference to them: ``cli`` imports ``per_obs_stats`` by name while
``learners`` reaches ``trees.fit_boosted`` through the module, and both
calls must be seen.  No file of the package is edited.  Each call becomes a
span (name, layer, start, end, parent); spans stay in memory until the
caller summarises them.  Counts that measure work (boosting rounds, tree
nodes, network epochs, Monte Carlo normals) are read at the same boundary
from the returned models, training reports and inputs.

The program is traced in one thread: spans nest strictly, so a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass

PACKAGE = "pcptest"
LAYERS = ("data", "synth", "functionals", "network", "trees", "learners", "inference", "cli")

# Public methods traced besides the module-level functions.  Hot helpers
# such as TreeNode.is_leaf are left out on purpose: they run per tree node
# and the wrapper would cost more than the work it measures.
METHODS = {
    "trees": ("BoostModel.predict_probs", "ForestModel.predict_probs"),
    "learners": ("ClassifierModel.predict_quads",),
}


def _tree_nodes(node) -> int:
    stack, count = [node], 0
    while stack:
        nd = stack.pop()
        count += 1
        if not nd.is_leaf():
            stack.append(nd.left)
            stack.append(nd.right)
    return count


def _count_boosted(args, kwargs, model) -> dict:
    return {
        "trees.rounds": len(model.rounds),
        "trees.nodes": sum(_tree_nodes(t) for rnd in model.rounds for t in rnd),
    }


def _count_forest(args, kwargs, model) -> dict:
    return {"trees.nodes": sum(_tree_nodes(t) for t in model.trees)}


def _count_network_fit(args, kwargs, result) -> dict:
    _, report = result
    return {"network.epochs": report.epochs_run}


def _count_intersection(args, kwargs, result) -> dict:
    inp = args[0] if args else kwargs["inp"]
    return {"inference.mc_normals": inp.mc_draws * inp.L}


def _count_sorted(args, kwargs, result) -> dict:
    return {"inference.sorted_splits": len(result.splits)}


# Work counters, keyed by the traced name whose return value they read.
COUNTERS = {
    "trees.fit_boosted": _count_boosted,
    "trees.fit_forest": _count_forest,
    "network.fit_softmax_network": _count_network_fit,
    "inference.intersection_test": _count_intersection,
    "inference.sorted_groups_run": _count_sorted,
}


@dataclass
class Span:
    name: str  # "<layer>.<function>" or "<layer>.<Class>.<method>"
    layer: str
    parent: int  # index into Tracer.spans of the enclosing span, -1 for a root
    start: float
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct children
    reentrant: bool = False  # an enclosing span has the same name

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _targets() -> list[tuple[str, str, object, str, object]]:
    """(traced name, layer, owner, attribute, original) for every target."""
    found = []
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == mod.__name__:
                found.append((f"{layer}.{attr}", layer, mod, attr, obj))
        for qual in METHODS.get(layer, ()):
            cls_name, meth = qual.split(".")
            cls = getattr(mod, cls_name)
            found.append((f"{layer}.{qual}", layer, cls, meth, vars(cls)[meth]))
    return found


class Tracer:
    """Context manager: installs the wrappers on entry, restores on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        namespaces = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for traced, layer, owner, attr, original in _targets():
            wrapper = self._wrap(traced, layer, original)
            self._patch(owner, attr, wrapper)
            if inspect.isclass(owner):
                continue
            for ns in namespaces:
                for ref_name, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, ref_name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, layer: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(name, layer, parent, 0.0)
            span.reentrant = any(spans[i].name == name for i in stack)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent].child_s += span.duration
            if counter is not None:
                counts.update(counter(args, kwargs, result))
            return result

        return traced

    # ------------------------------------------------------------------
    # Summaries

    def self_by_layer(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for span in self.spans:
            out[span.layer] += span.self_s
        return out

    def inclusive_s(self, name: str) -> float:
        """Wall seconds inside ``name``, counting re-entrant calls once."""
        return sum((s.duration for s in self.spans if s.name == name and not s.reentrant), 0.0)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

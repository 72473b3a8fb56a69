"""Spans around the calls into each numsgps module, installed from outside the
package for the traced run.

Every public function of the six modules, and every public method of the
classes they define, is wrapped; the wrapper replaces the function wherever a
module of the package holds it, so calls through imported names are traced
too. Calls made once per element (``PER_ELEMENT``) stay unwrapped because
their wrapper would cost more than their work. ``Semigroup._residue_table``
is wrapped as well: it is the semigroup layer's main cost and is built
lazily inside other layers' calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import Counter

LAYERS = ("semigroup", "factorizations", "weighted", "parametric", "quasipoly", "cli")
PER_ELEMENT = {
    "semigroup.Semigroup.contains",
    "semigroup.AperySet.max_element",
    "factorizations.Relation.as_pair",
    "weighted.weighted_length",
    "parametric.LinearFamily.generators",
    "parametric.PolynomialFamily.generators",
    "parametric.PolynomialFamily.value",
    "quasipoly.QuasiPolynomial.evaluate",
}
RESIDUE_TABLE = "semigroup.Semigroup._residue_table"


def _count_betti(tracer, args, result):
    c = tracer.counts
    c["betti_calls"] += 1
    c["betti_found"] += len(result)
    gens = args[0].generators
    if gens in tracer.betti_seen:
        c["betti_repeats"] += 1
    tracer.betti_seen.add(gens)


def _count_enumerated(tracer, args, result):
    tracer.counts["enumerated"] += len(result)


def _count_profile(tracer, args, result):
    tracer.counts["profile_calls"] += 1
    tracer.counts["profile_gaps"] += sum(len(gaps) for gaps in result.values())


def _count_residue_table(tracer, args, result):
    tracer.counts["semigroup_members"] += 1
    tracer.counts["residue_classes"] += len(result)


def _count_member(tracer, args, result):
    tracer.counts["family_members"] += 1


COUNTERS = {
    "factorizations.betti_elements": _count_betti,
    "factorizations.factorizations": _count_enumerated,
    "weighted.weighted_delta_profile": _count_profile,
    RESIDUE_TABLE: _count_residue_table,
    "parametric.LinearFamily.instantiate": _count_member,
    "parametric.PolynomialFamily.instantiate": _count_member,
}


class Tracer:
    """Spans kept in memory as ``[job, name, start, end, parent]`` lists,
    where ``parent`` is the index of the enclosing span or -1, plus counts
    taken at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = -1
        self.betti_seen: set = set()
        self._stack: list[int] = []

    def start_job(self, job: int) -> None:
        self.job = job
        self.betti_seen = set()

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [self.job, name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        patches = list(self._patches())
        for owner, attr, _, new in patches:
            setattr(owner, attr, new)
        try:
            yield self
        finally:
            for owner, attr, old, _ in reversed(patches):
                setattr(owner, attr, old)

    def _patches(self):
        """(owner, attribute, original, wrapper) for every traced name."""
        package = importlib.import_module("numsgps")
        modules = [importlib.import_module(f"numsgps.{layer}") for layer in LAYERS]
        namespaces = [package, *modules]
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj) and name not in PER_ELEMENT:
                    wrapper = self.wrap(name, obj)
                    for ns in namespaces:
                        for held, value in list(vars(ns).items()):
                            if value is obj:
                                yield ns, held, obj, wrapper
                elif inspect.isclass(obj):
                    yield from self._class_patches(name, obj)

    def _class_patches(self, prefix: str, cls):
        for attr, obj in list(vars(cls).items()):
            name = f"{prefix}.{attr}"
            if name == RESIDUE_TABLE:
                prop = functools.cached_property(self.wrap(name, obj.func))
                prop.__set_name__(cls, attr)
                yield cls, attr, obj, prop
            elif inspect.isfunction(obj) and not attr.startswith("_") and name not in PER_ELEMENT:
                yield cls, attr, obj, self.wrap(name, obj)


def span_times(spans) -> tuple[Counter, Counter]:
    """(inclusive seconds per span name, self seconds per layer).

    A span's self time is its duration minus the durations of its child
    spans; calls on one thread nest, so children never overlap.
    """
    children = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    inclusive: Counter = Counter()
    self_time: Counter = Counter()
    for (_, name, start, end, _), child in zip(spans, children):
        inclusive[name] += end - start
        self_time[name.split(".", 1)[0]] += end - start - child
    return inclusive, self_time

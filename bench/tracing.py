"""Per-layer tracing of the klrc package from outside it.

``Tracer.install`` replaces each traced function with a wrapper, in the
module that defines it and in every klrc module that imported it by name, and
replaces traced class methods on their classes.  A wrapper pushes a frame on
the tracer's stack, so every traced function knows the time its traced
children took: self time is a call's duration minus its children's.

Functions called once or a few times per query record one span per call
(name, start, end, parent span, query id); spans stay in memory and are
written out when the run ends.  Functions that run up to millions of times a
query (Laurent arithmetic, value-object constructors, node degrees, arrow
tests) keep only aggregate call counts and self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from math import comb

SPAN = True
AGGREGATE = False

# (metric prefix, module, attribute, span?) for module-level functions
FUNCTIONS = (
    ("cli.main", "klrc.cli", "main", SPAN),
    ("cli.build_parser", "klrc.cli", "build_parser", SPAN),
    ("quiver.build_quiver", "klrc.quiver", "build_quiver", SPAN),
    ("quiver.candidate_moves", "klrc.quiver", "candidate_moves", AGGREGATE),
    ("quiver.arrow_test", "klrc.quiver", "arrow_test", AGGREGATE),
    ("quiver.delta_vector", "klrc.quiver", "delta_vector", AGGREGATE),
    ("quiver.witness_sequence", "klrc.quiver", "witness_sequence", AGGREGATE),
    ("quiver.export", "klrc.quiver", "export", SPAN),
    ("maxweights.class_members", "klrc.maxweights", "class_members", SPAN),
    ("maxweights.beta_of", "klrc.maxweights", "beta_of", AGGREGATE),
    ("maxweights.dominantify", "klrc.maxweights", "dominantify", AGGREGATE),
    ("tableaux.graded_hom_dim", "klrc.tableaux", "graded_hom_dim", SPAN),
    ("tableaux.kostka_q", "klrc.tableaux", "kostka_q", AGGREGATE),
    ("tableaux.node_degree", "klrc.tableaux", "node_degree", AGGREGATE),
    ("fock.expand", "klrc.fock", "expand", SPAN),
    ("fock.apply_f", "klrc.fock", "apply_f", AGGREGATE),
    ("fock.apply_divided_f", "klrc.fock", "apply_divided_f", AGGREGATE),
    ("fock.hom_dim", "klrc.fock", "hom_dim", SPAN),
    ("multiplicity.weight_multiplicity", "klrc.multiplicity", "weight_multiplicity", SPAN),
    ("multiplicity.positive_roots_within", "klrc.multiplicity", "positive_roots_within",
     AGGREGATE),
    ("classifier.classify", "klrc.classifier", "classify", SPAN),
    ("classifier.match_case", "klrc.classifier", "match_case", SPAN),
)

# (metric prefix, module, class, method) for methods, all aggregated
METHODS = (
    ("cartan.RootVector", "klrc.cartan", "RootVector", "__post_init__"),
    ("cartan.DominantWeight", "klrc.cartan", "DominantWeight", "__post_init__"),
    ("tableaux.Multipartition", "klrc.tableaux", "Multipartition", "__post_init__"),
    ("laurent.mul", "klrc.laurent", "LaurentPolynomial", "__mul__"),
    ("laurent.mul", "klrc.laurent", "LaurentPolynomial", "__rmul__"),
    ("laurent.add", "klrc.laurent", "LaurentPolynomial", "__add__"),
    ("laurent.add", "klrc.laurent", "LaurentPolynomial", "__radd__"),
    ("laurent.exact_div", "klrc.laurent", "LaurentPolynomial", "exact_div"),
)

# lru caches read with cache_info(): (metric prefix, module, attribute)
CACHES = (
    ("tableaux.kostka_cache", "klrc.tableaux", "_kostka_peel"),
    ("multiplicity.cache", "klrc.multiplicity", "_mult"),
)


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []      # frames: [child seconds, name, span id or None]
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.peaks: Counter = Counter()
        self.query = -1
        self._caches: list = []
        self._last_kostka_shape = None

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn, span: bool, hook=None):
        stack, calls, self_s, spans = self.stack, self.calls, self.self_s, self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans) if span else None
            if span:
                spans.append(None)       # reserve the id; filled in on exit
            frame = [0.0, name, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - frame[0]
                if span:
                    parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
                    spans[span_id] = (span_id, name, start, end, parent, tracer.query)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function, method and generator of the package."""
        import klrc.cli  # noqa: F401  (loads every module of the package)

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "klrc" or n.startswith("klrc."))]
        hooks = self._hooks()
        for name, module, attr, span in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            self._rebind(modules, original,
                         self.wrap(name, original, span, hooks.get(name)))
        gen = sys.modules["klrc.tableaux"].multipartitions
        self._rebind(modules, gen, self._count_yields("tableaux.multipartitions", gen))
        for name, module, cls_name, method in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self.wrap(name, original, AGGREGATE, hooks.get(name)))
        for name, module, attr in CACHES:
            self._caches.append((name, getattr(sys.modules[module], attr)))

    @staticmethod
    def _rebind(modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def _count_yields(self, name: str, gen_fn):
        counts = self.counts

        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                counts[f"{name}.yielded"] += 1
                yield item

        return wrapper

    def _hooks(self) -> dict:
        counts, peaks = self.counts, self.peaks

        def arrow_test(args, result):
            if result is not None:
                counts["quiver.arrow_test.accepted"] += 1

        def export(args, result):
            counts["quiver.export.bytes"] += len(result.encode("utf-8"))

        def build_quiver(args, result):
            counts["quiver.arrows"] += len(result.arrows)
            counts["quiver.quivers"] += 1

        def class_members(args, result):
            weight = args[0]
            counts["maxweights.class_members.members"] += len(result)
            counts["maxweights.class_members.compositions"] += comb(
                weight.level + weight.ell, weight.ell)

        def kostka_q(args, result):
            shape = args[2]
            if not result.is_zero():
                counts["tableaux.kostka_q.nonzero"] += 1
                if shape is not self._last_kostka_shape:
                    counts["tableaux.shapes.useful"] += 1
            self._last_kostka_shape = shape

        def terms(args, result):
            peaks["fock.terms.peak"] = max(peaks["fock.terms.peak"], len(result.terms))

        def exact_div(args, result):
            if self.stack and self.stack[-1][1] == "fock.apply_divided_f":
                counts["fock.apply_divided_f.exact_divs"] += 1

        def classify(args, result):
            counts[f"classifier.verdicts.{result.rep_type.name.lower()}"] += 1

        return {"quiver.arrow_test": arrow_test, "quiver.export": export,
                "quiver.build_quiver": build_quiver,
                "maxweights.class_members": class_members, "tableaux.kostka_q": kostka_q,
                "fock.apply_f": terms, "fock.apply_divided_f": terms, "fock.expand": terms,
                "laurent.exact_div": exact_div, "classifier.classify": classify}

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Calls, self time and counts, under the benchmark's metric names."""
        out: dict[str, float] = {}
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)
        out.update(self.peaks)
        for name, cache in self._caches:
            info = cache.cache_info()
            out[f"{name}.hits"] = info.hits
            out[f"{name}.misses"] = info.misses
            out[f"{name}.entries"] = info.currsize
            out[f"{name}.hit_ratio"] = ratio(info.hits, info.hits + info.misses)
        for cls in ("RootVector", "DominantWeight"):
            out[f"cartan.{cls}.constructed"] = self.calls[f"cartan.{cls}"]
        out["cartan.value_objects.self_s"] = (self.self_s["cartan.RootVector"]
                                              + self.self_s["cartan.DominantWeight"])
        out["tableaux.Multipartition.constructed"] = self.calls["tableaux.Multipartition"]
        c = self.counts
        out["quiver.arrow_test.accept_ratio"] = ratio(c["quiver.arrow_test.accepted"],
                                                      self.calls["quiver.arrow_test"])
        out["quiver.delta_vector.per_arrow"] = ratio(self.calls["quiver.delta_vector"],
                                                     c["quiver.arrows"])
        out["cartan.value_objects.per_quiver"] = ratio(
            self.calls["cartan.RootVector"] + self.calls["cartan.DominantWeight"],
            c["quiver.quivers"])
        out["maxweights.class_members.kept_ratio"] = ratio(
            c["maxweights.class_members.members"], c["maxweights.class_members.compositions"])
        out["tableaux.shapes.useful_ratio"] = ratio(c["tableaux.shapes.useful"],
                                                    c["tableaux.multipartitions.yielded"])
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, query in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "query": query}) + "\n")


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0

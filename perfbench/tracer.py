"""Outside-in tracer for the sigmaring layers.

The tracer replaces each target function or method with a wrapper that
records one span per call: name, start, end and parent span.  A generator
target records one span per next().  The wrapper goes into the defining
module, into every sigmaring module that imported the target by name, and
into the package namespace, so nothing under src/ is edited.

Spans stay in memory until the pass ends.  A span's self time is its
duration minus the time its child spans cover; a layer's self time is the
sum over the spans of its module.

Hot helpers are left unwrapped on purpose (field elements, Word and
LinComb dunders, matrices.as_element, MultiPoly construction): they run
millions of times per pass, and their time counts as the self time of
the wrapped caller.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array

LAYERS = ("words", "ring", "quiver", "sigmatr", "matrices", "relations", "tableau", "cli")

# (module, attribute path, span name, "call" or "gen")
TARGETS = (
    ("words", "canonicalize", "words.canonicalize", "call"),
    ("words", "word_text", "words.word_text", "call"),
    ("ring", "normalize", "ring.normalize", "call"),
    ("ring", "substitute", "ring.substitute", "call"),
    ("ring", "sigma_of_word", "ring.sigma_of_word", "call"),
    ("ring", "power_reduce", "ring.power_reduce", "call"),
    ("ring", "poly_text", "ring.poly_text", "call"),
    ("quiver", "Quiver.closed_cycles", "quiver.closed_cycles", "call"),
    ("quiver", "index_sets", "quiver.index_sets", "gen"),
    ("sigmatr", "sigma_partial", "sigmatr.sigma_partial", "call"),
    ("sigmatr", "sigma_tr", "sigmatr.sigma_tr", "call"),
    ("sigmatr", "sigma_lin", "sigmatr.sigma_lin", "call"),
    ("sigmatr", "sigma_partial_subst", "sigmatr.sigma_partial_subst", "call"),
    ("matrices", "ExactMatrix.__mul__", "matrices.ExactMatrix.mul", "call"),
    ("matrices", "ExactMatrix.sigma", "matrices.ExactMatrix.sigma", "call"),
    ("matrices", "ExactMatrix.det", "matrices.ExactMatrix.det", "call"),
    ("matrices", "EvalContext.__init__", "matrices.EvalContext.init", "call"),
    ("matrices", "EvalContext.word_matrix", "matrices.EvalContext.word_matrix", "call"),
    ("matrices", "EvalContext.sigma", "matrices.EvalContext.sigma", "call"),
    ("matrices", "EvalContext.eval_poly", "matrices.EvalContext.eval_poly", "call"),
    ("matrices", "random_matrix", "matrices.random_matrix", "call"),
    ("relations", "o_relation_generators", "relations.generate", "gen"),
    ("relations", "verify_randomized", "relations.verify_randomized", "call"),
    ("relations", "verify_exact", "relations.verify_exact", "call"),
    ("relations", "certificate", "relations.certificate", "call"),
    ("relations", "poly_degree", "relations.poly_degree", "call"),
    ("relations", "MultiPoly.__mul__", "relations.MultiPoly.mul", "call"),
    ("relations", "MultiPoly.__add__", "relations.MultiPoly.add", "call"),
    ("tableau", "build_T", "tableau.build_T", "call"),
    ("tableau", "bpf", "tableau.bpf", "call"),
    ("tableau", "decompose", "tableau.decompose", "call"),
    ("cli", "main", "cli.main", "call"),
)

# Quantities counted from a call's result, as "<span name>.<quantity>".
RESULT_COUNTS = {
    "quiver.closed_cycles": ("cycles", len),
    "ring.substitute": ("monomials_out", lambda p: len(p.monomials)),
}

# Per-layer metrics reported from a traced pass, with their units.
CALLS_AND_SELF = (
    "matrices.ExactMatrix.mul", "matrices.ExactMatrix.sigma", "matrices.ExactMatrix.det",
    "matrices.EvalContext.word_matrix", "matrices.random_matrix",
    "relations.verify_randomized", "relations.verify_exact",
    "relations.MultiPoly.mul", "relations.MultiPoly.add",
    "ring.substitute", "ring.normalize", "ring.power_reduce",
    "quiver.closed_cycles", "sigmatr.sigma_partial", "tableau.bpf", "words.canonicalize",
)
SELF_ONLY = (
    "matrices.EvalContext.eval_poly", "relations.generate", "ring.sigma_of_word",
    "ring.poly_text", "quiver.index_sets", "tableau.decompose", "cli.main",
)


def metric_units() -> dict[str, str]:
    units = {}
    for name in CALLS_AND_SELF:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    for name in SELF_ONLY:
        units[name + ".self_s"] = "s"
    units.update({
        "matrices.EvalContext.contexts": "count",
        "matrices.sigma_hit_ratio": "ratio",
        "relations.generate.relations": "count",
        "relations.contexts_per_relation": "ratio",
        "ring.substitute.monomials_out": "count",
        "quiver.closed_cycles.cycles": "count",
        "quiver.index_sets.selections": "count",
        "sigmatr.sigma_partial.hit_ratio": "ratio",
    })
    for layer in LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
    units.update({
        "trace.overhead_ratio": "ratio",
        "trace.unattributed_s": "s",
        "trace.attributed_share": "ratio",
        "trace.spans": "count",
    })
    return units


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target; refuse if one is missing or changed kind, so
        that a refactor cannot silently zero a layer."""
        missing = []
        for module, path, name, kind in TARGETS:
            owner = sys.modules.get("sigmaring." + module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, "__dict__", {}).get(attr)
            if not inspect.isfunction(original) or (
                inspect.isgeneratorfunction(original) != (kind == "gen")
            ):
                missing.append(f"sigmaring.{module}.{path} ({kind})")
                continue
            wrapper = self._wrap(name, kind, original)
            if inspect.isclass(owner):
                self._patch(owner, attr, original, wrapper)
            else:
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "sigmaring" or mod_name.startswith("sigmaring."):
                        for alias, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, alias, original, wrapper)
        if missing:
            self.uninstall()
            raise RuntimeError("trace targets missing: " + ", ".join(missing))

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, kind: str, fn):
        nid = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        counts = self.counts
        clock = time.perf_counter

        if kind == "gen":
            created_key, yield_key = name + ".created", name + ".yields"
            counts[created_key] = counts[yield_key] = 0

            def timed(it):
                while True:
                    i = len(starts)
                    names.append(nid)
                    parents.append(stack[-1])
                    ends.append(0.0)
                    stack.append(i)
                    starts.append(clock())
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        ends[i] = clock()
                        stack.pop()
                    counts[yield_key] += 1
                    yield item

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                counts[created_key] += 1
                return timed(fn(*args, **kwargs))

            return gen_wrapper

        counted = RESULT_COUNTS.get(name)
        count_key = f"{name}.{counted[0]}" if counted else None
        if counted:
            counts[count_key] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if counted:
                counts[count_key] += counted[1](result)
            return result

        return wrapper

    # -- analysis ---------------------------------------------------------

    def per_name(self) -> tuple[dict[str, list[float]], float]:
        """{span name: [calls, self seconds]} and the seconds covered by
        root spans."""
        n = len(self.span_start)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        covered = [0.0] * n
        root_s = 0.0
        for i in range(n):
            dur = ends[i] - starts[i]
            p = parents[i]
            if p >= 0:
                covered[p] += dur
            else:
                root_s += dur
        stats = {name: [0, 0.0] for name in self.names}
        for i in range(n):
            entry = stats[self.names[self.span_name[i]]]
            entry[0] += 1
            entry[1] += ends[i] - starts[i] - covered[i]
        return stats, root_s

    def metrics(self, traced_wall_s: float) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_ratio, which needs
        an untraced pass.  A ratio with an empty base reads 0."""
        stats, root_s = self.per_name()
        counts = self.counts
        m: dict[str, float] = {}
        for name in CALLS_AND_SELF:
            m[name + ".calls"] = stats[name][0]
            m[name + ".self_s"] = stats[name][1]
        for name in SELF_ONLY:
            m[name + ".self_s"] = stats[name][1]

        def ratio(a, b):
            return a / b if b else 0.0

        def hit_ratio(misses, lookups):
            return 1.0 - misses / lookups if lookups else 0.0

        contexts = stats["matrices.EvalContext.init"][0]
        relations = counts["relations.generate.yields"]
        m["matrices.EvalContext.contexts"] = contexts
        m["matrices.sigma_hit_ratio"] = hit_ratio(
            stats["matrices.ExactMatrix.sigma"][0], stats["matrices.EvalContext.sigma"][0]
        )
        m["relations.generate.relations"] = relations
        m["relations.contexts_per_relation"] = ratio(contexts, relations)
        m["ring.substitute.monomials_out"] = counts["ring.substitute.monomials_out"]
        m["quiver.closed_cycles.cycles"] = counts["quiver.closed_cycles.cycles"]
        m["quiver.index_sets.selections"] = counts["quiver.index_sets.yields"]
        m["sigmatr.sigma_partial.hit_ratio"] = hit_ratio(
            counts["quiver.index_sets.created"], stats["sigmatr.sigma_partial"][0]
        )
        for layer in LAYERS:
            m[f"layer.{layer}.self_s"] = sum(
                s for name, (_, s) in stats.items() if name.split(".")[0] == layer
            )
        m["trace.unattributed_s"] = traced_wall_s - root_s
        m["trace.attributed_share"] = ratio(root_s, traced_wall_s)
        m["trace.spans"] = len(self.span_start)
        return m

    def write(self, path: str) -> None:
        """All spans as gzipped JSON: names, and per span its name index,
        parent span index (-1 for a root) and start and end seconds."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.span_name.tolist(),
                    "parent": self.span_parent.tolist(),
                    "start": self.span_start.tolist(),
                    "end": self.span_end.tolist(),
                },
                fh,
            )

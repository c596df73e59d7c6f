"""Per-layer tracing from outside the library.

``Tracer.install`` replaces public functions of the unknotforge modules by
wrappers, through module attributes.  Every module imports its siblings as
modules (``from . import planemap as pm``), so calls between layers resolve
the attribute at call time and see the wrappers too.  ``uninstall`` puts the
originals back.

Each wrapped call records a span: name, start, end and the index of the
enclosing wrapped call.  Spans live in flat arrays while the run lasts and
are written out when it ends.  Self time is a span's duration minus the
durations of its direct children (calls nest, so children never overlap).
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array

# (attribute on the library namespace, module name, traced functions)
TRACED = (
    ("iv", "invariants", ("census", "classify", "simplify", "normalized_poly",
                          "kauffman_bracket")),
    ("gn", "generate", ("generate_unknots", "replay_certificate",
                        "trefoil_diagram")),
    ("dc", "decomp", ("greedy_cycle_decomposition", "find_shared_pair",
                      "reduce_to_subshadow", "quotient")),
    ("dg", "digon", ("build_overlay", "digon_avoiding", "split_digon")),
    ("cd", "codec", ("parse", "emit")),
    ("pm", "planemap", ("faces", "excise", "build_shadow", "validate_shadow")),
)
REPLAY_KINDS = ("cycles", "digons-odd", "digons-even", "descending")
ROUTES = ("cycles", "digons-odd", "digons-even")


def span_names():
    """Every span name the tracer can record, in a fixed order."""
    names = []
    for _, module, funcs in TRACED:
        for f in funcs:
            if (module, f) == ("generate", "replay_certificate"):
                names += [f"generate.replay_certificate.{k}" for k in REPLAY_KINDS]
            else:
                names.append(f"{module}.{f}")
    return names


def self_times(starts, ends, parents):
    """Per-span self time: duration minus the durations of direct children.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.
    Returns a list of floats, one per span.
    """
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


def _replay_span_name(result, index):
    """Span name of one replay, by certificate kind (merged results carry
    one context per diagram)."""
    context = result.context
    if context and isinstance(context[0], tuple):
        context = context[index]
    return f"generate.replay_certificate.{context[0]}"


class Tracer:
    """Span recorder plus the counters that only a wrapper can see."""

    def __init__(self, lib):
        self.lib = lib
        self.names = span_names()
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.stack = []
        self.originals = []
        self.counts = {
            "simplify_trivial": 0, "simplify_moves": 0,
            "classify_presumed": 0, "classify_unresolved": 0,
            "bracket_crossings_max": 0, "bracket_state_terms": 0,
            "outputs": 0, "emit_bytes": 0,
        }
        self.routes = dict.fromkeys(ROUTES, 0)
        self.classify_with_bracket = set()
        self.faces_info = lib.pm.faces.cache_info

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn, after=None, name_of=None):
        fixed_id = self.name_id.get(name)
        stack = self.stack
        span_name, starts = self.span_name, self.starts
        ends, parents = self.ends, self.parents
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            span_name.append(fixed_id if name_of is None
                             else self.name_id[name_of(*args, **kwargs)])
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(idx, args, result)
            return result

        return wrapper

    def _after_simplify(self, idx, args, result):
        reduced, moves = result
        self.counts["simplify_moves"] += len(moves)
        if reduced.n == 0:
            self.counts["simplify_trivial"] += 1

    def _after_classify(self, idx, args, result):
        if result.presumed:
            self.counts["classify_presumed"] += 1
        if result.kind == "unresolved":
            self.counts["classify_unresolved"] += 1

    def _after_bracket(self, idx, args, result):
        n = args[0].n
        c = self.counts
        c["bracket_crossings_max"] = max(c["bracket_crossings_max"], n)
        c["bracket_state_terms"] += 1 << n
        classify_id = self.name_id["invariants.classify"]
        p = self.parents[idx]
        while p >= 0 and self.span_name[p] != classify_id:
            p = self.parents[p]
        if p >= 0:
            self.classify_with_bracket.add(p)

    def _after_generate(self, idx, args, result):
        self.counts["outputs"] += result.count
        if result.method in self.routes:
            self.routes[result.method] += 1

    def _after_emit(self, idx, args, result):
        self.counts["emit_bytes"] += len(result)

    def install(self):
        after = {
            "invariants.simplify": self._after_simplify,
            "invariants.classify": self._after_classify,
            "invariants.kauffman_bracket": self._after_bracket,
            "generate.generate_unknots": self._after_generate,
            "codec.emit": self._after_emit,
        }
        for attr, module_name, funcs in TRACED:
            module = getattr(self.lib, attr)
            for f in funcs:
                fn = getattr(module, f)
                name = f"{module_name}.{f}"
                name_of = (_replay_span_name
                           if name == "generate.replay_certificate" else None)
                self.originals.append((module, f, fn))
                setattr(module, f, self._wrap(name, fn, after.get(name), name_of))

    def uninstall(self):
        # a pass clears the faces cache, counters included, when it starts
        self.faces_end = self.faces_info()
        for module, f, fn in reversed(self.originals):
            setattr(module, f, fn)
        self.originals.clear()

    # -- reporting ----------------------------------------------------------

    def _self_times(self):
        return self_times(self.starts, self.ends, self.parents)

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        calls = dict.fromkeys(self.names, 0)
        selfs = dict.fromkeys(self.names, 0.0)
        for nid, t in zip(self.span_name, self._self_times()):
            calls[self.names[nid]] += 1
            selfs[self.names[nid]] += t
        out = {}
        for _, module_name, funcs in TRACED:
            for f in funcs:
                name = f"{module_name}.{f}"
                if name == "generate.replay_certificate":
                    kinds = [f"{name}.{k}" for k in REPLAY_KINDS]
                    out[name + ".calls"] = (sum(calls[k] for k in kinds), "count")
                    out[name + ".self_s"] = (sum(selfs[k] for k in kinds), "s")
                    for k in ROUTES:
                        out[f"{name}.{k}.self_s"] = (selfs[f"{name}.{k}"], "s")
                else:
                    out[name + ".calls"] = (calls[name], "count")
                    out[name + ".self_s"] = (selfs[name], "s")
        c = self.counts
        n_simplify = calls["invariants.simplify"]
        n_classify = calls["invariants.classify"]
        out["invariants.simplify.trivial_ratio"] = (
            c["simplify_trivial"] / n_simplify if n_simplify else 0.0, "ratio")
        out["invariants.simplify.moves"] = (c["simplify_moves"], "count")
        out["invariants.classify.bracket_ratio"] = (
            len(self.classify_with_bracket) / n_classify if n_classify else 0.0,
            "ratio")
        out["invariants.classify.presumed"] = (c["classify_presumed"], "count")
        out["invariants.classify.unresolved"] = (c["classify_unresolved"], "count")
        out["invariants.kauffman_bracket.crossings_max"] = (
            c["bracket_crossings_max"], "count")
        out["invariants.kauffman_bracket.state_terms"] = (
            c["bracket_state_terms"], "count")
        out["generate.generate_unknots.outputs"] = (c["outputs"], "count")
        for k in ROUTES:
            out[f"generate.route.{k}"] = (self.routes[k], "count")
        out["codec.emit.bytes"] = (c["emit_bytes"], "bytes")
        hits, misses = self.faces_end.hits, self.faces_end.misses
        out["planemap.faces.hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0, "ratio")
        return out

    def layer_self_times(self):
        """Total self time per module."""
        out = {}
        for nid, t in zip(self.span_name, self._self_times()):
            module = self.names[nid].split(".", 1)[0]
            out[module] = out.get(module, 0.0) + t
        return out

    def write_spans(self, path):
        """Write every span as CSV: index, name, start, end, parent."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("index,name,start,end,parent\n")
            names = self.names
            for i, (nid, s, e, p) in enumerate(zip(self.span_name, self.starts,
                                                   self.ends, self.parents)):
                f.write(f"{i},{names[nid]},{s:.9f},{e:.9f},{p}\n")

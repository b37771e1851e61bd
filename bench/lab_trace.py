"""Spans and counters around latticelab's public functions, from outside.

`Tracer` patches every module binding of each wrapped function (modules that
did `from .x import f` hold their own reference) and every class attribute
of each wrapped method, and puts each original back on exit.  A span records
calls, errors and self time: its duration minus the time covered by the
spans opened inside it.  Counting wrappers add no span; they only count calls
and, for `hyperbolic.displacement`, charge each call to the innermost open
`displacement_pruned_ball` span as an explored element.

`mat2` and the `MoebiusIsometry` methods are deliberately not wrapped: they
run once per matrix product, so wrapping them would change what is measured.
Their time is self time of the enclosing span.
"""

import functools
import sys
import time

PACKAGE = "latticelab"

# module -> wrapped public functions ("Class.method" for methods)
SPANS = {
    "cli": ["main"],
    "presets": ["get_group", "default_region", "sample_torus"],
    "wordballs": ["word_ball", "displacement_pruned_ball", "displacements_at",
                  "displacements_h2"],
    "hyperbolic": ["classify", "distance"],
    "lattice_lab": ["BallGeometry.__init__", "thick_thin_scan", "injectivity_radius",
                    "gradient_lemma_check", "span_check"],
    "hyperboloid": ["classify_lorentz"],
    "nerve": ["build_eps_net", "nerve", "presentation_from_nerve", "abelianization",
              "SurfaceMetric.__init__"],
    "chabauty": ["chabauty_distance", "ClosedSubgroupRn.truncation_pieces",
                 "lattice_points_in_ball", "chabauty_limit", "mahler_subsequence"],
    "solvable": ["indices", "lattice_certificate", "heisenberg_reduce"],
    "smallness": ["jordan_abelian_index", "max_abelian_index_bruteforce",
                  "commutator_ladder"],
    "euclidean": ["crystallographic_analysis"],
}

# Called too often for a span; counted only.
COUNTS = {
    "hyperbolic": ["displacement"],
    "nerve": ["TorusMetric.minimax_radius"],
    "chabauty": ["ClosedSubgroupRn.distance_to"],
}

# (span name, extra counter, size of the span's return value)
RESULT_SIZES = [
    ("wordballs.word_ball", "elements", len),
    ("wordballs.displacement_pruned_ball", "kept", len),
    ("nerve.build_eps_net", "centers", lambda net: len(net.centers)),
    ("nerve.nerve", "edges", lambda cx: len(cx.edges)),
    ("nerve.nerve", "triangles", lambda cx: len(cx.triangles)),
    ("chabauty.ClosedSubgroupRn.truncation_pieces", "pieces", len),
    ("chabauty.lattice_points_in_ball", "points", len),
]

PRUNED = "wordballs.displacement_pruned_ball"
DISPLACEMENT = "hyperbolic.displacement"


def metric_names():
    """Every per-layer metric, as (name, unit), in a fixed order."""
    out = []
    for mod, funcs in SPANS.items():
        for f in funcs:
            name = "%s.%s" % (mod, f)
            out += [(name + ".calls", "count"), (name + ".self_ms", "ms"),
                    (name + ".errors", "count")]
    for mod, funcs in COUNTS.items():
        for f in funcs:
            out.append(("%s.%s.calls" % (mod, f), "count"))
    for name, counter, _ in RESULT_SIZES:
        out.append(("%s.%s" % (name, counter), "count"))
    out += [(PRUNED + ".explored", "count"), (PRUNED + ".kept_ratio", "ratio"),
            ("trace_overhead", "ratio")]
    return out


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


class Tracer:
    """Context manager: patch on enter, restore on exit, totals in `stats`."""

    def __init__(self):
        self.stats = {}
        self.stack = []             # open spans: [name, start, child_time, explored]
        self.patched = []           # (owner, attribute, original)

    # -- recording -------------------------------------------------------------

    def _add(self, key, value):
        self.stats[key] = self.stats.get(key, 0) + value

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, time.perf_counter(), 0.0, 0]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._add(name + ".errors", 1)
                raise
            finally:
                self.stack.pop()
                elapsed = time.perf_counter() - frame[1]
                self._add(name + ".calls", 1)
                self._add(name + ".self_ms", 1e3 * (elapsed - frame[2]))
                if self.stack:
                    self.stack[-1][2] += elapsed
                if name == PRUNED:
                    self._add(PRUNED + ".explored", frame[3])
            for span, counter, size in RESULT_SIZES:
                if span == name:
                    self._add("%s.%s" % (name, counter), size(result))
            return result
        return wrapper

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._add(name + ".calls", 1)
            if name == DISPLACEMENT:
                for frame in reversed(self.stack):
                    if frame[0] == PRUNED:
                        frame[3] += 1
                        break
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ----------------------------------------------------------------

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if (n == PACKAGE or n.startswith(PACKAGE + ".")) and m is not None]

    def _patch(self, mod_name, path, make):
        module = sys.modules["%s.%s" % (PACKAGE, mod_name)]
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr]
        wrapped = make("%s.%s" % (mod_name, path), original)
        targets = [(owner, attr)]
        if owner is module:
            # Every module that imported the function by name holds a binding.
            targets += [(m, a) for m in self._modules() if m is not module
                        for a, v in list(vars(m).items()) if v is original]
        for obj, a in targets:
            self.patched.append((obj, a, original))
            setattr(obj, a, wrapped)

    def __enter__(self):
        for mod, funcs in SPANS.items():
            for f in funcs:
                self._patch(mod, f, self._span)
        for mod, funcs in COUNTS.items():
            for f in funcs:
                self._patch(mod, f, self._counter)
        return self

    def __exit__(self, *exc):
        for obj, attr, original in reversed(self.patched):
            setattr(obj, attr, original)
        self.patched = []
        return False

    def metrics(self, overhead, factor=1.0):
        """Per-layer metrics; self times are divided by the speed factor."""
        out = {}
        for name, unit in metric_names():
            if name == "trace_overhead":
                value = overhead
            elif name == PRUNED + ".kept_ratio":
                explored = self.stats.get(PRUNED + ".explored", 0)
                value = self.stats.get(PRUNED + ".kept", 0) / explored if explored else 0.0
            else:
                value = self.stats.get(name, 0)
                if unit == "ms":
                    value /= factor
            out[name] = {"value": round(value, 6) if isinstance(value, float) else value,
                         "unit": unit}
        return out

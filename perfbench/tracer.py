"""Traced run: per-layer counts and self times, recorded from outside.

The tracer wraps the public entry points of each library module listed in
``LAYERS`` and records one span per call: layer, parent span, start and
end.  Spans stay in memory (compact arrays) until the pass ends; then each
span's self time is its duration minus the time its child spans cover.
The layer boundaries run check -> algebra / macdonald / quasiinv -> ops ->
laurent -> kernel / linalg; ``Rep.apply_gen`` recurses (a Y image applies T),
which self time handles.

A wrapped name is patched everywhere it is looked up: every loaded
``cycdaha`` module that binds the same function object under some name gets
the wrapper (``quasiinv.nullspace``, ``algebra.op_equal_on_box`` and
``macdonald.op_equal_on_box`` are all imported by name).  An entry point
that no longer exists is reported as absent, not an error.

Scalar field operations are too fine for spans.  ``Fraction``,
``CycloNumber`` and ``RatFunc1`` arithmetic is counted at the class, and
``CycloNumber`` arithmetic is also timed (outermost operation only).

The operator engine's image cache is read from outside: the growth of the
rep's per-generator cache across an ``apply_gen`` call is the number of
fresh images that call computed.
"""

from __future__ import annotations

import fractions
import importlib
import inspect
import resource
import sys
import time
import weakref
from array import array
from collections import defaultdict
from time import perf_counter

from harness import Patches

# metric prefix -> (module, [qualified names]); "*" wraps every public
# function and every public method of the module's own classes
LAYERS = {
    "algebra.verify_family": ("cycdaha.algebra", ["verify_family"]),
    "algebra.catalog": ("cycdaha.algebra", ["catalog", "RelationCatalog.instances"]),
    "macdonald": ("cycdaha.macdonald", ["*"]),
    "quasiinv.graded_basis": ("cycdaha.quasiinv",
                              ["graded_basis", "graded_basis_with_symmetry"]),
    "quasiinv.conditions_matrix": ("cycdaha.quasiinv", ["conditions_matrix"]),
    "quasiinv.check_member": ("cycdaha.quasiinv", ["check_member"]),
    "ops.op_equal": ("cycdaha.ops", ["op_equal_on_box", "op_equal_randomized"]),
    "ops.apply": ("cycdaha.ops", ["Rep.apply", "Rep.apply_word", "apply_expr",
                                  "apply_generator"]),
    "ops.apply_gen": ("cycdaha.ops", ["Rep.apply_gen"]),
    "laurent.addmul": ("cycdaha.laurent", ["LaurentPoly.addmul"]),
    "laurent.exact_divide": ("cycdaha.laurent", ["LaurentPoly.exact_divide"]),
    "laurent.substitute": ("cycdaha.laurent", ["LaurentPoly.substitute"]),
    "laurent.series_on_hyperplane": ("cycdaha.laurent",
                                     ["LaurentPoly.series_on_hyperplane"]),
    "laurent.arith": ("cycdaha.laurent", [
        "LaurentPoly.__add__", "LaurentPoly.__radd__", "LaurentPoly.__sub__",
        "LaurentPoly.__rsub__", "LaurentPoly.__mul__", "LaurentPoly.__rmul__",
        "LaurentPoly.__neg__", "LaurentPoly.__pow__"]),
    "laurent.reindex": ("cycdaha.laurent", [
        "LaurentPoly.scale_var", "LaurentPoly.permute", "LaurentPoly.swap",
        "LaurentPoly.shift", "LaurentPoly.derivative"]),
    "laurent.compare": ("cycdaha.laurent", [
        "LaurentPoly.__eq__", "LaurentPoly.is_symmetric", "LaurentPoly.symmetrize"]),
    "laurent.series": ("cycdaha.laurent", [
        "TruncatedSeries.__add__", "TruncatedSeries.__sub__", "TruncatedSeries.__mul__",
        "TruncatedSeries.__rmul__", "TruncatedSeries.scale_by_scalar_series"]),
    "kernel": ("cycdaha.kernel", [
        "terms_add", "terms_sub", "terms_addmul", "terms_neg", "terms_scale",
        "terms_mul", "terms_shift", "terms_permute", "terms_scale_var"]),
    "linalg.row_echelon": ("cycdaha.linalg", ["row_echelon"]),
    "linalg.nullspace": ("cycdaha.linalg", ["nullspace"]),
    "linalg.matrix": ("cycdaha.linalg", [
        "Matrix.*", "matrix_rank", "span_closure", "algebra_closure_dim",
        "rational_eigenvalues"]),
    "tableaux": ("cycdaha.tableaux", ["*"]),
    "quiver": ("cycdaha.quiver", ["*"]),
    "bow": ("cycdaha.bow", ["*"]),
    "scalars.sample_generic": ("cycdaha.scalars", ["sample_generic"]),
}

# layers reported as calls and self_s; the ops engine and scalars report
# their own counts instead
TIMED = ["check"] + [k for k in LAYERS if k not in ("ops.apply_gen", "scalars.sample_generic")]

_ARITH = ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
          "__mod__", "__rmod__", "__neg__", "__pow__", "__rpow__", "inverse"]


def _public_names(module):
    """Public functions of a module and public methods of its own classes."""
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            out += [f"{name}.{m}" for m, f in vars(obj).items()
                    if not m.startswith("_") and inspect.isfunction(f)]
        elif callable(obj):
            out.append(name)
    return out


class Tracer:
    """Spans and counters of one traced pass; ``install`` patches the entry
    points, ``uninstall`` restores them, ``layer_metrics`` reads the result."""

    def __init__(self):
        self.layer_ids = {}
        self.layers = []
        self.layer_of = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.seen = defaultdict(int)  # "layer:name" -> calls
        self.absent = []
        self.fresh = {}  # apply_gen span -> images it added to the cache
        self.lookups = 0
        self.live_images = 0
        self.peak_images = 0
        self.entries = 0
        self.attempts = 0
        self.sampling = []
        self.qq_ops = [0]
        self.cyclo_ops = [0]
        self.cyclo_s = [0.0]
        self.ratfunc_ops = [0]
        self._cyclo_depth = [0]
        self.patches = Patches()
        self._tracked_reps = {}

    # -- spans ---------------------------------------------------------------

    def layer(self, name):
        if name not in self.layer_ids:
            self.layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self.layer_ids[name]

    def enter(self, lid):
        i = len(self.parent)
        self.layer_of.append(lid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def exit(self, i):
        self.end[i] = perf_counter()
        self.stack.pop()

    def _span_wrapper(self, lid, key, fn):
        seen, enter, exit_ = self.seen, self.enter, self.exit

        def traced(*args, **kwargs):
            seen[key] += 1
            i = enter(lid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(i)

        return traced

    def _apply_gen_wrapper(self, lid, key, fn):
        seen, enter, exit_ = self.seen, self.enter, self.exit
        fresh, tracked = self.fresh, self._tracked_reps

        def apply_gen(rep, g, p, *args, **kwargs):
            seen[key] += 1
            self.lookups += len(p.terms)
            cache = getattr(rep, "_cache", None)
            if cache is None:
                if "ops.fresh_images: Rep._cache" not in self.absent:
                    self.absent.append("ops.fresh_images: Rep._cache")
                cache = {}
            if id(rep) not in tracked:
                tracked[id(rep)] = [0]
                weakref.finalize(rep, self._rep_gone, id(rep))
            before = len(cache.get(g, ()))
            i = enter(lid)
            try:
                return fn(rep, g, p, *args, **kwargs)
            finally:
                exit_(i)
                grown = len(cache.get(g, ())) - before
                if grown:
                    fresh[i] = grown
                    tracked[id(rep)][0] += grown
                    self.live_images += grown
                    if self.live_images > self.peak_images:
                        self.peak_images = self.live_images

        return apply_gen

    def _rep_gone(self, rep_id):
        self.live_images -= self._tracked_reps.pop(rep_id)[0]

    def _row_echelon_wrapper(self, lid, key, fn):
        traced = self._span_wrapper(lid, key, fn)

        def row_echelon(rows, ncols, *args, **kwargs):
            rows = list(rows)
            self.entries += len(rows) * ncols
            return traced(rows, ncols, *args, **kwargs)

        return row_echelon

    def _sample_wrapper(self, lid, key, fn):
        traced = self._span_wrapper(lid, key, fn)

        def sample_generic(names, constraints, *args, **kwargs):
            # each attempt evaluates the first constraint exactly once
            constraints = list(constraints)
            if not constraints:
                self.attempts += 1
            self.sampling.append(constraints[0] if constraints else None)
            try:
                return traced(names, constraints, *args, **kwargs)
            finally:
                self.sampling.pop()

        return sample_generic

    def _count_constraint(self, fn):
        def check_constraint(con, values):
            if self.sampling and con is self.sampling[-1]:
                self.attempts += 1
            return fn(con, values)

        return check_constraint

    # -- installation --------------------------------------------------------

    def _patch_everywhere(self, fn, value):
        """Rebind ``fn`` to ``value`` in every loaded cycdaha module."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "cycdaha" or modname.startswith("cycdaha.")):
                continue
            for name, obj in list(vars(mod).items()):
                if obj is fn:
                    self.patches.set(mod, name, value)

    def install(self):
        special = {
            "ops.apply_gen": self._apply_gen_wrapper,
            "linalg.row_echelon": self._row_echelon_wrapper,
            "scalars.sample_generic": self._sample_wrapper,
        }
        for prefix, (modname, names) in LAYERS.items():
            lid = self.layer(prefix)
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.absent.append(f"{prefix}: module {modname}")
                continue
            expanded = []
            for name in names:
                if name == "*":
                    expanded += _public_names(module)
                elif name.endswith(".*"):
                    cls = getattr(module, name[:-2], None)
                    if cls is None:
                        self.absent.append(f"{prefix}: {modname}.{name}")
                        continue
                    expanded += [f"{name[:-2]}.{m}" for m, f in vars(cls).items()
                                 if inspect.isfunction(f) and (
                                     not m.startswith("_") or m in _ARITH or m == "__eq__")]
                else:
                    expanded.append(name)
            make = special.get(prefix, self._span_wrapper)
            for name in expanded:
                key = f"{prefix}:{name}"
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                target = vars(owner).get(attr) if owner is not None else None
                if target is None or not callable(target):
                    self.absent.append(f"{prefix}: {modname}.{name}")
                    continue
                self.seen[key] += 0
                wrapped = make(lid, key, target)
                if owner_name:
                    self.patches.set(owner, attr, wrapped)
                else:
                    self._patch_everywhere(target, wrapped)
        scalars = importlib.import_module("cycdaha.scalars")
        check = vars(scalars).get("_check_constraint")
        if check is None:
            self.absent.append("scalars.sample_generic.attempts: scalars._check_constraint")
        else:
            self.patches.set(scalars, "_check_constraint", self._count_constraint(check))
        self._count_class(fractions.Fraction, self.qq_ops)
        self._count_class(getattr(scalars, "RatFunc1", None), self.ratfunc_ops)
        self._count_class(getattr(scalars, "CycloNumber", None), self.cyclo_ops,
                          self.cyclo_s)

    def _count_class(self, cls, counter, seconds=None):
        if cls is None:
            self.absent.append("scalars: a counted field class")
            return
        depth = self._cyclo_depth
        for name in _ARITH:
            fn = vars(cls).get(name)
            if fn is None:
                continue
            if seconds is None:
                def op(*args, _fn=fn):
                    counter[0] += 1
                    return _fn(*args)
            else:
                def op(*args, _fn=fn):
                    counter[0] += 1
                    if depth[0]:
                        return _fn(*args)
                    depth[0] = 1
                    t0 = perf_counter()
                    try:
                        return _fn(*args)
                    finally:
                        seconds[0] += perf_counter() - t0
                        depth[0] = 0
            self.patches.set(cls, name, op)

    def uninstall(self):
        self.patches.undo()

    # -- results ---------------------------------------------------------------

    def layer_metrics(self):
        """Replay the spans in start order with a stack of open spans, so
        that each span's direct children are known when it closes; self
        time is its duration minus theirs."""
        n = len(self.parent)
        parent, start, end, layer_of = self.parent, self.start, self.end, self.layer_of
        gen = self.layer_ids["ops.apply_gen"]
        addmul = self.layer_ids["laurent.addmul"]
        calls = [0] * len(self.layers)
        self_s = [0.0] * len(self.layers)
        totals = [0.0, 0.0]  # compose, fresh

        def close(span):
            i, children, to_addmul, to_other = span
            lid = layer_of[i]
            own = end[i] - start[i] - children
            calls[lid] += 1
            self_s[lid] += own
            if lid == gen:
                # a call that added images spent its own time and its
                # non-addmul children on fresh images; addmul composes
                if i in self.fresh:
                    totals[1] += own + to_other
                    totals[0] += to_addmul
                else:
                    totals[0] += own + to_addmul + to_other

        stack = []  # [span, children, direct addmul time, other direct time]
        for i in range(n):
            p = parent[i]
            while stack and stack[-1][0] != p:
                close(stack.pop())
            if stack:
                top = stack[-1]
                dur = end[i] - start[i]
                top[1] += dur
                if layer_of[p] == gen:
                    lid = layer_of[i]
                    if lid == addmul:
                        top[2] += dur
                    elif lid != gen:
                        top[3] += dur
            stack.append([i, 0.0, 0.0, 0.0])
        while stack:
            close(stack.pop())
        compose, fresh_s = totals
        m = {}
        for name in TIMED:
            lid = self.layer(name)
            m[f"{name}.calls"] = (calls[lid] if lid < len(calls) else 0, "count")
            m[f"{name}.self_s"] = (self_s[lid] if lid < len(self_s) else 0.0, "s")
        fresh_images = sum(self.fresh.values())
        m.update({
            "ops.apply_gen.calls": (calls[gen], "count"),
            "ops.lookups": (self.lookups, "count"),
            "ops.fresh_images": (fresh_images, "count"),
            "ops.cache_hit_ratio": (
                1 - fresh_images / self.lookups if self.lookups else 0.0, "ratio"),
            "ops.cache_images": (self.peak_images, "count"),
            "ops.compose_s": (compose, "s"),
            "ops.fresh_s": (fresh_s, "s"),
            "kernel.terms_addmul.calls": (self.seen["kernel:terms_addmul"], "count"),
            "linalg.row_echelon.entries": (self.entries, "count"),
            "scalars.qq.ops": (self.qq_ops[0], "count"),
            "scalars.cyclo.ops": (self.cyclo_ops[0], "count"),
            "scalars.cyclo.self_s": (self.cyclo_s[0], "s"),
            "scalars.ratfunc.ops": (self.ratfunc_ops[0], "count"),
            "scalars.sample_generic.calls": (
                calls[self.layer_ids["scalars.sample_generic"]], "count"),
            "scalars.sample_generic.attempts": (self.attempts, "count"),
            "trace.spans": (n, "count"),
        })
        return m


def run_traced(build, import_s):
    """One traced pass (inputs built under the tracer, so set-up counts
    show), then one untraced pass; the difference in wall time is the
    tracing overhead.  ``build()`` returns a fresh list of groups."""
    from harness import Clock, one_pass

    tracer = Tracer()
    tracer.install()
    root = tracer.layer("check")
    spans = []

    def on_check(name, starting):
        if starting:
            spans.append(tracer.enter(root))
        else:
            tracer.exit(spans.pop())

    cpu0 = time.process_time()
    try:
        checks = one_pass(build(), Clock(), on_check)
    finally:
        tracer.uninstall()
    cpu = time.process_time() - cpu0
    metrics = tracer.layer_metrics()
    plain = one_pass(build(), Clock())
    problems = checks.invalid() + plain.invalid()
    if plain.digest.digest() != checks.digest.digest():
        problems.append("traced and untraced passes disagree on their outputs")
    metrics.update({
        "proc.import_s": (import_s, "s"),
        "proc.cpu_s": (cpu, "s"),
        "trace.wall_s": (checks.wall, "s"),
        "trace.overhead_s": (checks.wall - plain.wall, "s"),
    })
    unseen = sorted(k for k, v in tracer.seen.items() if v == 0)
    info = {
        "outputs_sha256": [checks.digest.hexdigest()],
        "absent": tracer.absent,
        "unseen": unseen,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return problems, checks.attempted, checks.failed, metrics, info

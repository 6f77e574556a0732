"""Per-layer tracing of the weakhopf package from outside it.

The tracer wraps the public functions and methods of each package module (a
layer), plus the arithmetic methods of ``fractions.Fraction`` and of the
GF(p) element class, and rebinds every wrapped name wherever it is looked up
(for example ``weakhopf.cli.parse_spec`` and ``weakhopf.ore.panov_sufficient``).
Hot functions run 10^5-10^6 times, so spans are aggregated in memory as a
count, total time and self time per (function, parent layer); self time is
span time minus the time of traced child spans.  ``uninstall`` restores every
binding it replaced.
"""

from __future__ import annotations

import fractions
import functools
import inspect
import os
import sys
import time

LAYERS = ("fields", "linalg", "bialgebra", "report", "specfile", "groupoid", "grouplike",
          "coderivations", "panov", "ore", "cli", "fixtures")
# Private names traced because a per-layer metric is defined on them.
PRIVATE = {"linalg": {"_rref"}, "groupoid": {"_verify_tensor_factorization"}}
METHOD_DUNDERS = {"__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                  "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__eq__", "__pow__",
                  "__call__"}
SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__rpow__")

# Inclusive-time groups: only the outermost span of a group counts, so nested
# calls (write_spec -> emit_spec, build -> matrix_algebra -> build) add once.
GROUPS = {
    "bialgebra.sweep": ("bialgebra.algebra_report", "bialgebra.coalgebra_report",
                        "bialgebra.check_weak_bialgebra", "bialgebra.check_antipode"),
    "linalg.elim": ("linalg._rref",),
    "specfile.parse": ("specfile.parse_spec",),
    "specfile.emit": ("specfile.emit_spec", "specfile.write_spec", "specfile.spec_text"),
    "groupoid.build": ("groupoid.build_groupoid_algebra",),
    "groupoid.factorization": ("groupoid._verify_tensor_factorization",),
    "coderivations.space": ("coderivations.coderivation_space",),
    "panov.decide": ("panov.panov_necessary", "panov.panov_sufficient", "panov.hopf_conditions"),
    "ore.verify": ("ore.verify_extension",),
}
GROUP_OF = {qual: g for g, quals in GROUPS.items() for qual in quals}


def _bytes_of(source):
    if isinstance(source, (str, os.PathLike)) and os.path.isfile(source):
        return os.path.getsize(source)
    return len(source.encode()) if isinstance(source, str) else 0


# Argument and result probes: (tracer, args, result, frame) -> None.
PROBES = {
    "linalg._rref": lambda t, a, r, f: t.add("linalg.elim_nnz", sum(len(row) for row in a[0])),
    "bialgebra.Algebra.tensor3_mul":
        lambda t, a, r, f: t.add("bialgebra.tensor3_pairs", len(a[1].data) * len(a[2].data)),
    "report.AxiomReport.record": lambda t, a, r, f: t.add("report.failed_checks", not a[2]),
    "specfile.parse_spec": lambda t, a, r, f: t.add("specfile.bytes_read", _bytes_of(a[0])),
    "grouplike.brute_force_weak_grouplikes":
        lambda t, a, r, f: t.add("grouplike.brute_candidates", a[0].field.order ** a[0].dim),
    # A cache hit makes no traced child call; a miss expands x^i b_u.
    "ore.OreAlgebra.mono_mul": lambda t, a, r, f: t.add("ore.mono_mul_hits", f[2] == 0),
    "coderivations.coderivation_constraint_matrix":
        lambda t, a, r, f: t.add("coderivations.constraint_rows", r.rows),
}


class Tracer:
    def __init__(self):
        self.root = ["bench", 0.0, 0]          # [layer, child time, child count]
        self.stack = [self.root]
        self.spans = {}                          # (qual, parent layer) -> [count, total, self]
        self.counters = {}
        self.group_time = dict.fromkeys(GROUPS, 0.0)
        self._group_depth = dict.fromkeys(GROUPS, 0)
        self._undo = []

    def add(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, qual, layer):
        stack, spans, perf = self.stack, self.spans, time.perf_counter
        probe = PROBES.get(qual)
        group = GROUP_OF.get(qual)
        depth, group_time = self._group_depth, self.group_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [layer, 0.0, 0]
            stack.append(frame)
            if group:
                depth[group] += 1
            t0 = perf()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dt = perf() - t0
                stack.pop()
                parent[1] += dt
                parent[2] += 1
                key = (qual, parent[0])
                s = spans.get(key)
                if s is None:
                    s = spans[key] = [0, 0.0, 0.0]
                s[0] += 1
                s[1] += dt
                s[2] += dt - frame[1]
                if group:
                    depth[group] -= 1
                    if not depth[group]:
                        group_time[group] += dt
                if ok and probe is not None:
                    probe(self, args, result, frame)
        return wrapper

    def _leaf(self, fn, qual):
        """Scalar arithmetic: no children, so no frame of its own."""
        stack, spans, perf = self.stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args):
            t0 = perf()
            result = fn(*args)
            dt = perf() - t0
            parent = stack[-1]
            parent[1] += dt
            parent[2] += 1
            key = (qual, parent[0])
            s = spans.get(key)
            if s is None:
                s = spans[key] = [0, 0.0, 0.0]
            s[0] += 1
            s[1] += dt
            s[2] += dt
            return result
        return wrapper

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    # -- installation -----------------------------------------------------

    def install(self, package):
        """Wrap the layers of an imported ``weakhopf`` package."""
        modules = {name: sys.modules[f"{package.__name__}.{name}"] for name in LAYERS}
        namespaces = [package, *modules.values()]
        replaced = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and (
                        not name.startswith("_") or name in PRIVATE.get(layer, ())):
                    replaced[obj] = self._span(obj, f"{layer}.{name}", layer)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer, mod)
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(ns, name, replaced[obj])
        elem = modules["fields"].PrimeElement
        for cls, tag in ((fractions.Fraction, "Fraction"), (elem, "PrimeElement")):
            for name in SCALAR_OPS:
                if name in cls.__dict__:
                    self._set(cls, name, self._leaf(cls.__dict__[name], f"fields.{tag}.{name}"))

    def _wrap_class(self, cls, layer, mod):
        if cls.__name__ == "PrimeElement":   # traced as scalar leaves in install()
            return
        for name, attr in list(cls.__dict__.items()):
            if name.startswith("_") and name not in METHOD_DUNDERS:
                continue
            fn = attr.__func__ if isinstance(attr, (staticmethod, classmethod)) else attr
            # Skip properties and code generated by dataclasses (no source file).
            if not inspect.isfunction(fn) or fn.__code__.co_filename != mod.__file__:
                continue
            wrapped = self._span(fn, f"{layer}.{cls.__name__}.{name}", layer)
            self._set(cls, name, type(attr)(wrapped) if fn is not attr else wrapped)

    def uninstall(self):
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def count(self, *quals):
        return sum(s[0] for (q, _), s in self.spans.items() if q in quals)

    def self_time(self, layer):
        prefix = layer + "."
        return sum(s[2] for (q, _), s in self.spans.items() if q.startswith(prefix))

    def table(self):
        """Aggregated spans, for the results file."""
        return [{"span": q, "parent": p, "count": s[0], "total_s": s[1], "self_s": s[2]}
                for (q, p), s in sorted(self.spans.items())]

"""Outside-in tracer: times calls into each layer of `durrmeyer` without
touching the package's source.

`install()` replaces every public function and method of the layer modules
with a wrapper that records one span (name, parent, start, end) per call.
A function is replaced at every binding site: the defining module and every
`durrmeyer.*` module (and the benchmark's `workloads`) that bound it through
`from .x import f`.  Patching the defining module alone would miss those
internal calls.  Classes are patched in place, so every holder of the class
sees the wrapped methods.

Spans live in flat arrays while the workload runs; `metrics()` reduces them
at the end.  A layer's self time is the sum over its spans of the span's
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

import workloads

LAYERS = ("specfun", "spectrum", "quadrature", "orthopoly", "operators",
          "kfunc", "suite", "harness", "cli")

COUNTS = ("specfun.calls", "specfun.scalar_calls", "spectrum.calls",
          "quadrature.rules_built", "orthopoly.coeff_objects",
          "orthopoly.basis_builds", "orthopoly.basis_hits",
          "orthopoly.eval_values", "operators.plans_built",
          "operators.bernstein_values", "kfunc.k_exact_p2_calls",
          "kfunc.k_upper_calls", "kfunc.norm_contexts")

# Private helpers wrapped because a per-layer count is read off their
# arguments; every other private function counts toward its caller.
_PRIVATE = {"operators": ("_bernstein_matrix",)}
# Index helpers called once per degree block from their own layer: wrapping
# them would cost more than the work they do and blur the self times.
_SKIP = {"orthopoly": ("block_size", "flat_index")}
_DUNDERS = ("__init__", "__post_init__", "__call__", "__add__", "__sub__",
            "__mul__", "__rmul__", "__neg__")


def _is_scalar_call(args):
    return all(np.ndim(a) == 0 for a in args)


class Tracer:
    def __init__(self):
        self.names = []          # (layer, qualname) per name id
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.counts = Counter()
        self.check_spans = {}    # span index -> report id
        self._fresh_bases = set()
        self._patched = []       # (owner, attribute, original)
        self._wrapped = {}       # id(original) -> wrapper

    # -- hooks: per-layer counts read where the work happens ---------------

    def _post_hooks(self):
        counts = self.counts

        def specfun(idx, args, result):
            counts["specfun.calls"] += 1
            if _is_scalar_call(args):
                counts["specfun.scalar_calls"] += 1

        def spectrum(idx, args, result):
            counts["spectrum.calls"] += 1

        def count(key):
            def hook(idx, args, result):
                counts[key] += 1
            return hook

        def basis_init(idx, args, result):
            counts["orthopoly.basis_builds"] += 1
            self._fresh_bases.add(id(args[0]))

        def get_basis(idx, args, result):
            if id(result) in self._fresh_bases:
                self._fresh_bases.discard(id(result))
            else:
                counts["orthopoly.basis_hits"] += 1

        def eval_all(idx, args, result):
            counts["orthopoly.eval_values"] += int(np.size(result))

        def bernstein(idx, args, result):
            n_idx, pts = len(args[1]), np.shape(args[2])[0]
            counts["operators.bernstein_values"] += n_idx * pts

        def harness_report(idx, args, result):
            check_id = getattr(result, "check_id", None)
            if check_id is not None and hasattr(result, "rows"):
                self.check_spans[idx] = check_id

        return {
            "specfun": specfun,
            "spectrum": spectrum,
            "quadrature.QuadratureRule.__post_init__": count("quadrature.rules_built"),
            "orthopoly.SpectralCoefficients.__post_init__": count("orthopoly.coeff_objects"),
            "orthopoly.IntervalBasis.__init__": basis_init,
            "orthopoly.TriangleBasis.__init__": basis_init,
            "orthopoly.get_basis": get_basis,
            "orthopoly.IntervalBasis.eval_all": eval_all,
            "orthopoly.TriangleBasis.eval_all": eval_all,
            "operators.make_plan": count("operators.plans_built"),
            "operators._bernstein_matrix": bernstein,
            "kfunc.k_exact_p2": count("kfunc.k_exact_p2_calls"),
            "kfunc.k_upper_detail": count("kfunc.k_upper_calls"),
            "kfunc.NormContext.__init__": count("kfunc.norm_contexts"),
            "harness": harness_report,
        }

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, layer, qualname, post):
        if id(fn) in self._wrapped:
            return self._wrapped[id(fn)]
        name_id = len(self.names)
        self.names.append((layer, qualname))
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if post is not None:
                post(idx, args, result)
            return result

        self._wrapped[id(fn)] = wrapper
        return wrapper

    def _set(self, owner, attr, value):
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, value)

    def install(self):
        hooks = self._post_hooks()
        for layer in LAYERS:
            mod = importlib.import_module("durrmeyer." + layer)
            for attr, obj in list(vars(mod).items()):
                if attr in _SKIP.get(layer, ()):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and (
                        not attr.startswith("_") or attr in _PRIVATE.get(layer, ())):
                    post = hooks.get("%s.%s" % (layer, attr), hooks.get(layer))
                    self._wrap(obj, layer, attr, post)
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not issubclass(obj, BaseException)):
                    self._wrap_class(obj, layer, hooks)
        sites = [m for name, m in list(sys.modules.items())
                 if name == "durrmeyer" or name.startswith("durrmeyer.")]
        for mod in sites + [workloads]:
            for attr, obj in list(vars(mod).items()):
                wrapper = self._wrapped.get(id(obj))
                if wrapper is not None:
                    self._set(mod, attr, wrapper)
        return self

    def _wrap_class(self, cls, layer, hooks):
        for attr, obj in list(cls.__dict__.items()):
            if (attr.startswith("_") and attr not in _DUNDERS) or attr in _SKIP.get(layer, ()):
                continue
            qualname = "%s.%s" % (cls.__name__, attr)
            post = hooks.get("%s.%s" % (layer, qualname))
            if inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(obj, layer, qualname, post))
            elif isinstance(obj, (classmethod, staticmethod)):
                inner = self._wrap(obj.__func__, layer, qualname, post)
                self._set(cls, attr, type(obj)(inner))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reduction ---------------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.float64)
               - np.frombuffer(self.span_start, dtype=np.float64))
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        return name, parent, dur, dur - child

    def metrics(self):
        """Every per-layer count and time, keyed by metric name."""
        name, parent, dur, self_time = self._arrays()
        layer_of = np.array([LAYERS.index(lay) for lay, _ in self.names] or [0],
                            dtype=np.int64)
        by_layer = np.bincount(layer_of[name], weights=self_time,
                               minlength=len(LAYERS))
        out = {key: float(self.counts[key]) for key in COUNTS}
        out["tracer.spans"] = float(dur.size)
        for i, layer in enumerate(LAYERS):
            out["%s.self_s" % layer] = float(by_layer[i])
        serialize = self.names.index(("cli", "write_report"))
        out["cli.serialize_s"] = float(dur[name == serialize].sum())
        checks = Counter()
        for idx, check_id in self.check_spans.items():
            if not self._inside_check(parent, idx):
                checks[check_id] += float(dur[idx])
        # one timing metric per report id of the battery
        for check_id in workloads.BATTERY_CHECKS:
            out["harness.check.%s_s" % check_id] = float(checks[check_id])
        return out

    def _inside_check(self, parent, idx):
        p = int(parent[idx])
        while p >= 0:
            if p in self.check_spans:
                return True
            p = int(parent[p])
        return False

    def write(self, path):
        """Per-function call count, total and self time, heaviest first."""
        name, _, dur, self_time = self._arrays()
        calls = np.bincount(name, minlength=len(self.names))
        total = np.bincount(name, weights=dur, minlength=len(self.names))
        own = np.bincount(name, weights=self_time, minlength=len(self.names))
        rows = [{"layer": lay, "function": q, "calls": int(calls[i]),
                 "total_s": float(total[i]), "self_s": float(own[i])}
                for i, (lay, q) in enumerate(self.names) if calls[i]]
        rows.sort(key=lambda r: -r["self_s"])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=1)
            fh.write("\n")

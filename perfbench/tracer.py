"""Span tracer for the benchmark's traced run.

The tracer wraps, from outside the package, the public functions of each
layer module (plus the few private or class entry points the benchmark
reports on) and every name another module rebinds to them with
``from ... import``.  Each call becomes a span ``[name, start, end,
parent, raised]`` kept in memory; :meth:`Tracer.layer_metrics` turns the
spans into per-layer and per-function numbers and :meth:`Tracer.dump`
writes them out.  Nothing inside the package is edited, and
:meth:`Tracer.uninstall` puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "splitcone"
LAYERS = ("special", "quadrature", "kernels", "operators", "kalgebra",
          "mellin", "oracles", "report")

# Private functions traced besides every public one.
PRIVATE_FUNCTIONS = {"operators": ("_apply_generic",)}

# Class methods traced; None means every method the class defines.
CLASS_METHODS = {
    "mellin": {"RayTable": ("__init__",)},
    "kalgebra": {"AmbientBasis": None},
}

# Names bound by `from ... import` that must end up traced; install()
# fails if any of them is missed.
REBOUND = ("kernels.hyperbolic_oscillatory", "oracles.hyperbolic_oscillatory",
           "mellin.ray_values", "mellin.make_f_xi_eps", "mellin.gamma_complex")

# Functions whose first argument (or `psi=`) is the test function of the
# delta functional; its evaluations are counted point by point.
PSI_TAKERS = ("kernels.delta_cone_apply", "kernels.delta_hyperboloid_apply")


def _points(args):
    """Elements passed in: the broadcast size of the numeric arguments."""
    shapes = [np.shape(a) for a in args
              if isinstance(a, (int, float, complex)) or hasattr(a, "shape")]
    if not shapes:
        return 0
    try:
        return math.prod(np.broadcast_shapes(*shapes))
    except ValueError:
        return max(math.prod(s) for s in shapes)


class Tracer:
    """Collects spans for the layers of the package while installed."""

    def __init__(self):
        self.names = []
        self.layer_of = []
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self._undo = []

    # ----------------------------------------------------------- install

    def install(self):
        mods = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                for layer in LAYERS}
        wrapped = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE_FUNCTIONS.get(layer, ()):
                    continue
                wrapped[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}", layer))
            for cls_name, methods in CLASS_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                if methods is None:
                    methods = [a for a, v in vars(cls).items() if inspect.isfunction(v)]
                for attr in methods:
                    name = f"{layer}.{cls_name}.{attr}"
                    self._set(cls, attr, self._wrap(vars(cls)[attr], name, layer))
        prefix = PACKAGE + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(prefix)):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        for ref in REBOUND:
            layer, attr = ref.split(".")
            if not hasattr(getattr(mods[layer], attr), "__wrapped__"):
                raise RuntimeError(f"tracer missed the rebound name {ref}")
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _set(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap(self, fn, name, layer):
        idx = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        spans, stack, layer_of = self.spans, self.stack, self.layer_of
        counts, clock = self.counts, time.perf_counter
        count_points = layer == "special"
        takes_psi = name in PSI_TAKERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if count_points and (parent < 0 or layer_of[spans[parent][0]] != layer):
                counts["special.points"] += _points(args)
            if takes_psi:
                args, kwargs = _count_psi(counts, args, kwargs)
            span = [idx, clock(), 0.0, parent, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    # ----------------------------------------------------------- metrics

    def layer_metrics(self):
        """Per-layer and per-function metrics, as {name: (value, unit)}.

        A span's time in its layer is its duration minus the part its
        descendants in other layers cover.  A call nested in the same
        layer is charged once: a layer's calls, errors and self time come
        from the spans that enter it (parent in another layer or none),
        and a function's from its spans not nested in another call of
        the same function.
        """
        spans, layer_of = self.spans, self.layer_of
        own = [t1 - t0 for _, t0, t1, _, _ in spans]
        for i in range(len(spans) - 1, -1, -1):  # children follow parents
            idx, t0, t1, parent, _ = spans[i]
            if parent >= 0:
                same = layer_of[spans[parent][0]] == layer_of[idx]
                own[parent] -= (t1 - t0) - (own[i] if same else 0.0)
        calls, self_s, errors = Counter(), defaultdict(float), Counter()
        for i, (idx, _, _, parent, raised) in enumerate(spans):
            layer = layer_of[idx]
            if parent < 0 or layer_of[spans[parent][0]] != layer:
                calls[layer] += 1
                self_s[layer] += own[i]
                errors[layer] += raised
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.self_s"] = (self_s[layer], "s")
            out[f"{layer}.errors"] = (errors[layer], "count")
        out["special.points"] = (self.counts["special.points"], "count")
        for name in ("special.bessel_kn", "special.ktilde",
                     "quadrature.hyperbolic_oscillatory", "kernels.ft_regularized"):
            out[f"{name}.calls"] = (len(self._outermost(name)), "count")
        for name in ("special.bessel_kn", "quadrature.hyperbolic_oscillatory",
                     "kernels.delta_cone_apply", "kernels.ft_bruteforce_damped",
                     "operators._apply_generic", "operators.op_FC",
                     "kalgebra.AmbientBasis.", "kalgebra.orbit_closure",
                     "report.emit_report"):
            key = name.rstrip(".")
            out[f"{key}.self_s"] = (sum(own[i] for i in self._outermost(name)), "s")
        n_ft = out["kernels.ft_regularized.calls"][0]
        ft = self._ids("kernels.ft_regularized")
        h_in_ft = sum(1 for i in self._outermost("quadrature.hyperbolic_oscillatory")
                      if self._inside(spans[i][3], ft))
        out["quadrature.h_per_ft"] = (h_in_ft / n_ft if n_ft else 0.0, "ratio")
        out["kernels.delta.psi_points"] = (self.counts["kernels.delta.psi_points"], "count")
        out["mellin.RayTable.incl_s"] = (sum(
            spans[i][2] - spans[i][1] for i in self._outermost("mellin.RayTable.__init__")), "s")
        out["trace.spans"] = (len(spans), "count")
        return out

    def _ids(self, name):
        """Function indices named `name`, or under it when it ends in '.'."""
        return {i for i, n in enumerate(self.names)
                if n == name or (name.endswith(".") and n.startswith(name))}

    def _inside(self, parent, ids):
        """True when the span `parent` or one of its ancestors is in `ids`."""
        while parent >= 0:
            if self.spans[parent][0] in ids:
                return True
            parent = self.spans[parent][3]
        return False

    def _outermost(self, name):
        """Indices of the spans of `name` not nested in another of them."""
        ids = self._ids(name)
        return [i for i, (idx, _, _, parent, _) in enumerate(self.spans)
                if idx in ids and not self._inside(parent, ids)]

    def dump(self, path, **meta):
        """Write every span as [name index, start, end, parent, raised]."""
        t_ref = self.spans[0][1] if self.spans else 0.0
        doc = dict(meta, names=self.names, layers=self.layer_of, spans=[
            [idx, round(t0 - t_ref, 7), round(t1 - t_ref, 7), parent, int(raised)]
            for idx, t0, t1, parent, raised in self.spans])
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _count_psi(counts, args, kwargs):
    """Swap the psi argument for a wrapper that counts evaluated points."""
    if args:
        psi, args = args[0], args[1:]
    else:
        psi = kwargs.pop("psi")

    def counted(X):
        n = getattr(X, "shape", (1,))
        counts["kernels.delta.psi_points"] += math.prod(n[:-1]) if len(n) > 1 else 1
        return psi(X)

    return (counted,) + tuple(args), kwargs

"""Span tracing from outside the program.

``Tracer.install`` replaces the public functions of each treelie module
(the names in ``__all__``) and a few hot methods with timing wrappers.
Every binding of the same function object in any loaded treelie module
is replaced, which covers names imported with ``from .liealg import ...``
and the package re-exports.  ``uninstall`` puts every original back.

A span records its request id, its own id, its parent span, name, start,
end and self time (duration minus the time covered by wrapped callees).
Calls to the hot kernels are folded into one aggregate record per
(request, name) so memory stays bounded.  Everything is kept in memory
and written by ``dump`` when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Tuple

LAYERS = ("cli", "trees", "expressions", "polynomials", "liealg", "ideals", "firstorder", "heat")

# wrapped methods: (module, class, attribute) -> span name
METHODS = {
    ("polynomials", "MultiPoly", "__mul__"): "polynomials.mul",
    ("polynomials", "MultiPoly", "__pow__"): "polynomials.pow",
    ("polynomials", "MultiPoly", "__add__"): "polynomials.add",
    ("polynomials", "MultiPoly", "substitute"): "polynomials.substitute",
    ("polynomials", "MultiPoly", "integrate_from_zero"): "polynomials.integrate_from_zero",
    ("polynomials", "MultiPoly", "differentiate"): "polynomials.differentiate",
    ("heat", "HeatSolution", "__call__"): "heat.eval",
}

# names called often enough per request that they are aggregated, not
# recorded one span per call
KERNELS = {
    "polynomials.mul", "polynomials.pow", "polynomials.add", "polynomials.substitute",
    "polynomials.integrate_from_zero", "polynomials.differentiate", "polynomials.series_coeff",
    "heat.eval", "heat.mode_weight", "liealg.root_of_monomial", "liealg.lattice_points",
    "liealg.bracket", "liealg.ell", "liealg.beta", "expressions.evaluate",
    "expressions.diff_expr", "expressions.is_polynomial", "trees.clan", "trees.weights",
    "trees.classify_nodes", "ideals.is_abelian_ideal", "ideals.root_poset",
}


def _count_rk4(tracer, args, kwargs, result):
    steps = kwargs.get("steps", args[3] if len(args) > 3 else None)
    if steps is None:
        steps = sys.modules["treelie.firstorder"].RK4_STEPS
    tracer.counters["firstorder.rk4_steps"] += steps


def _count_structure(tracer, args, kwargs, result):
    nb = result.central_series_dims[0] if result.central_series_dims else 0
    tracer.counters["liealg.bracket_pairs"] += nb * (nb - 1)


def _count_ideals(tracer, args, kwargs, result):
    tracer.counters["ideals.ideals_found"] += result if isinstance(result, int) else len(result)


def _count_fft(tracer, args, kwargs, result):
    box = kwargs.get("box", args[1] if len(args) > 1 else ())
    samples = kwargs.get("samples", args[3] if len(args) > 3 else 0)
    tracer.counters["heat.fft_points"] += samples ** len(box)


COUNTERS: Dict[str, Callable] = {
    "liealg.enumerate_basis": lambda tr, a, k, r: tr.counters.update({"liealg.basis_dim": len(r)}),
    "liealg.verify_structure": _count_structure,
    "ideals.enumerate_ideals": _count_ideals,
    "polynomials.mul": lambda tr, a, k, r: tr.counters.update(
        {"polynomials.mul.terms_out": len(r.terms) if hasattr(r, "terms") else 0}),
    "firstorder.eta_family": lambda tr, a, k, r: tr.counters.update(
        {"firstorder.eta_terms": sum(len(p.terms) for p in r.eta.values())}),
    "firstorder.flow_rk4": _count_rk4,
    "heat.fourier_coefficients": _count_fft,
    "heat.eval": lambda tr, a, k, r: tr.counters.update({"heat.mode_points": len(a[0].modes)}),
}


class Tracer:
    def __init__(self):
        self.request = 0
        self.spans: List[Tuple] = []
        self.kernels: Dict[Tuple[int, str], List[int]] = {}
        self.counters: Counter = Counter()
        self._stack: List[list] = []
        self._next_id = 1
        self._patched: List[Tuple[object, str, object]] = []

    # --------------------------------------------------------- wrapping
    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        stack = self._stack
        kernel = name in KERNELS
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = 0
            if not kernel:
                sid = tracer._next_id
                tracer._next_id += 1
            frame = [0, sid]  # time covered by callees, span id
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                tracer._record(name, kernel, sid, start, end, dur - frame[0])
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped_by_perfbench__ = fn
        return wrapper

    def _record(self, name, kernel, sid, start, end, self_ns):
        if kernel:
            agg = self.kernels.get((self.request, name))
            if agg is None:
                agg = self.kernels[(self.request, name)] = [0, 0, start, end]
            agg[0] += 1
            agg[1] += self_ns
            agg[3] = end
        else:
            parent = 0
            for frame in reversed(self._stack):
                if frame[1]:
                    parent = frame[1]
                    break
            self.spans.append((self.request, sid, parent, name, start, end, self_ns))

    def targets(self) -> Dict[object, str]:
        """Original function object -> span name, for every wrapped target."""
        out: Dict[object, str] = {}
        for layer in LAYERS:
            mod = sys.modules[f"treelie.{layer}"]
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    out[obj] = f"{layer}.{attr}"
        for (layer, cls, attr), name in METHODS.items():
            out[getattr(getattr(sys.modules[f"treelie.{layer}"], cls), attr)] = name
        return out

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = self.targets()
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        owners = [m for k, m in sorted(sys.modules.items()) if k == "treelie" or k.startswith("treelie.")]
        for (layer, cls, _), _name in METHODS.items():
            owners.append(getattr(sys.modules[f"treelie.{layer}"], cls))
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                try:
                    wrapper = wrappers.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._patched.append((owner, attr, value))
                    setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # ---------------------------------------------------------- results
    def totals(self) -> Dict[str, List[int]]:
        """name -> [calls, self_ns] over the whole run."""
        out: Dict[str, List[int]] = {}
        for _, _, _, name, _, _, self_ns in self.spans:
            agg = out.setdefault(name, [0, 0])
            agg[0] += 1
            agg[1] += self_ns
        for (_, name), (calls, self_ns, _, _) in self.kernels.items():
            agg = out.setdefault(name, [0, 0])
            agg[0] += calls
            agg[1] += self_ns
        return out

    def records(self):
        for req, sid, parent, name, start, end, self_ns in self.spans:
            yield {"request": req, "span": sid, "parent": parent, "name": name,
                   "start_ns": start, "end_ns": end, "self_ns": self_ns}
        for (req, name), (calls, self_ns, start, end) in self.kernels.items():
            yield {"request": req, "name": name, "calls": calls, "first_start_ns": start,
                   "last_end_ns": end, "self_ns": self_ns}

    def dump(self, path: str, extra=()) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in list(self.records()) + list(extra):
                fh.write(json.dumps(rec) + "\n")

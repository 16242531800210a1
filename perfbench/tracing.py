"""Layer tracing from outside the program.

The layers are the modules of ``pqmkz``.  ``Tracer.install`` wraps, in every
module namespace, each public function and each name a module imported from
another pqmkz module (``cli.evaluate``, ``statistical.evaluate_many``, ...),
plus the public methods and ``__post_init__`` of public classes, and the
weight pass ``engine._weights_nodes`` for its counters.  A wrapper records a
span (op, id, parent id, layer, name, start, end) in memory; ``uninstall``
puts every original attribute back.  A layer's self time is the duration of
its spans minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
import types
from collections import defaultdict

LAYERS = ["cli", "engine", "bounds", "statistical", "moments", "expressions",
          "pqcore", "presets"]
# Private names wrapped because their arguments and results carry counters.
EXTRA = {("engine", "_weights_nodes")}


def digest(result) -> str:
    rc, out = result
    blob = json.dumps([rc if out is not None else "raised", out], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _modules():
    import importlib

    return {name: importlib.import_module(f"pqmkz.{name}") for name in LAYERS}


def _count_weights(c, args, kwargs, result):
    w, _, _, converged = result
    c["engine.points"] += 1
    c["engine.terms"] += len(w)
    if args[2] > 0.0 and not converged:
        c["engine.nonconverged_points"] += 1


def _count_fvalues(c, args, kwargs, result, needed, op):
    params, fs = args[0], args[1]
    terms = result[0].terms_used if result else 0
    c["engine.fvalue_elems"] += terms * len(fs)
    for f in fs:
        key = (op, params.n, params.pq.p, params.pq.q, id(f))
        needed[key] = max(needed.get(key, 0), terms)


def _count_lattice(c, args, kwargs, result):
    c["bounds.lattice_points"] += kwargs.get("resolution", args[2] if len(args) > 2 else 0)


def _count_scalar(c, args, kwargs, result):
    c["expressions.eval_elems"] += 1


def _count_array(c, args, kwargs, result):
    c["expressions.eval_elems"] += len(args[1])


def _count_excluded(c, args, kwargs, result):
    first = next(iter(result.values()))
    c["statistical.excluded_n"] += first.excluded_counts[-1]


class Tracer:
    def __init__(self):
        self.op = 0
        self.spans: list[tuple] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.needed: dict[tuple, int] = {}
        self._stack: list[int] = []
        self._next = 0
        self._patched: list[tuple] = []
        self._snapshot: list[tuple] = []

    # ------------------------------------------------------------- patching

    def _hook(self, layer: str, name: str):
        hooks = {
            "engine._weights_nodes": _count_weights,
            "engine.evaluate_many": lambda c, a, k, r: _count_fvalues(
                c, a, k, r, self.needed, self.op),
            "bounds.modulus": _count_lattice,
            "bounds.second_modulus": _count_lattice,
            "expressions.Expression.evaluate": _count_scalar,
            "expressions.Expression.evaluate_array": _count_array,
            "statistical.st_korovkin_check": _count_excluded,
        }
        return hooks.get(f"{layer}.{name}")

    def _wrap(self, fn, layer: str, name: str):
        tracer = self
        label = f"{layer}.{name}"
        hook = self._hook(layer, name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else 0
            tracer._next += 1
            sid = tracer._next
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer.spans.append((tracer.op, sid, parent, layer, label, t0, t1))
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def _targets(self):
        """(owner, attribute, original, layer, qualified name) to patch."""
        mods = _modules()
        owners = {m.__name__: short for short, m in mods.items()}
        out = []
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj.__module__ in owners:
                    layer = owners[obj.__module__]
                    if not attr.startswith("_") or (layer, obj.__name__) in EXTRA:
                        out.append((mod, attr, obj, layer, obj.__name__))
                elif (isinstance(obj, type) and obj.__module__ == mod.__name__
                      and not attr.startswith("_")):
                    layer = owners[mod.__name__]
                    for meth, fn in list(vars(obj).items()):
                        if isinstance(fn, types.FunctionType) and (
                                not meth.startswith("_") or meth == "__post_init__"):
                            out.append((obj, meth, fn, layer, f"{attr}.{meth}"))
        return out

    def install(self) -> None:
        wrappers = {}
        for owner, attr, fn, layer, name in self._targets():
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, layer, name)
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._snapshot, self._patched = self._patched, []

    def restored(self) -> bool:
        """True when every attribute patched by install holds its original."""
        return all(vars(owner)[attr] is fn for owner, attr, fn in self._snapshot)

    # ---------------------------------------------------------- aggregation

    def aggregate(self) -> dict[str, float]:
        """Per-layer self times, inclusive times of named spans, counters."""
        child = defaultdict(int)
        for _, _, parent, _, _, t0, t1 in self.spans:
            if parent:
                child[parent] += t1 - t0
        self_ns = defaultdict(int)
        incl = defaultdict(int)
        calls = defaultdict(int)
        for _, sid, parent, layer, label, t0, t1 in self.spans:
            self_ns[layer] += (t1 - t0) - child[sid]
            calls[layer] += 1
            incl[label] += t1 - t0
        out = {f"{layer}.self_s": self_ns[layer] * 1e-9 for layer in LAYERS}
        out["bounds.modulus_s"] = incl["bounds.modulus"] * 1e-9
        out["bounds.second_modulus_s"] = incl["bounds.second_modulus"] * 1e-9
        out["bounds.sup_error_s"] = incl["bounds.sup_error"] * 1e-9
        out["statistical.scheme_build_s"] = incl["statistical.SequenceScheme.__post_init__"] * 1e-9
        out["expressions.parse_s"] = incl["expressions.parse_function"] * 1e-9
        out["expressions.eval_s"] = (incl["expressions.Expression.evaluate"]
                                     + incl["expressions.Expression.evaluate_array"]) * 1e-9
        out["pqcore.calls"] = calls["pqcore"]
        out["statistical.n_evaluated"] = sum(
            1 for s in self.spans if s[4] == "statistical.SequenceScheme.params")
        out["expressions.parse_calls"] = sum(
            1 for s in self.spans if s[4] == "expressions.parse_function")
        for key in ("engine.points", "engine.terms", "engine.nonconverged_points",
                    "engine.fvalue_elems", "bounds.lattice_points",
                    "expressions.eval_elems", "statistical.excluded_n"):
            out[key] = self.counts[key]
        needed = sum(self.needed.values())
        out["engine.fvalue_redundancy"] = (
            self.counts["engine.fvalue_elems"] / needed if needed else 1.0)
        out["trace.spans"] = len(self.spans)
        return out

"""Per-layer tracing of groupdet from outside the package.

``Tracer.install`` wraps the public functions listed in ``WRAPPED`` and
rebinds each name in every ``groupdet.*`` namespace that holds it, because
``from .maps import compose`` gives the importing module its own binding.
Methods are wrapped on their class. A wrapper records the call count and the
span's self time: its duration minus the time of wrapped calls made inside
it. Everything stays in memory until ``metrics`` is read at exit.
"""
from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

WRAPPED = {
    "groups": (
        "FiniteGroup.__init__",
        "direct_product",
        "FiniteGroup.all_subgroups",
        "FiniteGroup.direct_factorizations",
        "are_isomorphic",
        "common_nontrivial_factor",
    ),
    "maps": (
        "GroupMap.__init__",
        "compose",
        "pointwise_sum",
        "pointwise_diff",
        "negate",
        "invert",
        "is_bijective",
        "GroupMap.is_homomorphism",
        "is_normal_endo",
        "enumerate_homs",
        "enumerate_autos",
    ),
    "matrices": (
        "EndoMatrix.__init__",
        "matrix_multiply",
        "recompose",
        "decompose",
        "enumerate_m_matrices",
        "enumerate_A",
        "enumerate_aut_matrices",
        "in_A",
    ),
    "determinant": (
        "is_invertible_via_det",
        "invert_via_det",
        "det_h",
        "det_k",
        "f_determinant",
    ),
    "pairs": (
        "classify_pair",
        "is_incompatible",
        "is_centrally_incompatible",
        "is_totally_incompatible",
        "a_subgroup_check",
    ),
    "autcompare": ("compare_aut_vs_A",),
}

DECIDING = ("determinant.is_invertible_via_det", "determinant.invert_via_det")
PIVOT_ATTEMPTS = ("determinant.det_h", "determinant.det_k", "determinant.f_determinant")


def metric_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname.replace('__init__', 'init')}"


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for module, names in WRAPPED.items():
        for qualname in names:
            base = metric_name(module, qualname)
            out.append((f"{base}.calls", "count"))
            out.append((f"{base}.self_s", "s"))
    out += [(f"{module}.self_s", "s") for module in WRAPPED]
    out += [
        ("maps.compose.repeat_ratio", "ratio"),
        ("maps.enum.repeat_ratio", "ratio"),
        ("determinant.pivot_yield", "ratio"),
        ("trace_overhead_ratio", "ratio"),
    ]
    return out


class Tracer:
    """Call counts and self times of the wrapped functions, plus argument ratios."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        # (metric name, exception class name) -> calls that raised it
        self.raised: dict[tuple[str, str], int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        # child time of each open span; the bottom entry is the untraced root
        self._stack = [0.0]
        self._paused = False
        self._compose_seen: set[int] = set()
        self.compose_repeats = 0
        self._enum_seen: set[tuple] = set()
        self.enum_calls = 0
        self.enum_repeats = 0

    def install(self) -> None:
        """Import groupdet and rebind every wrapped name to its wrapper."""
        importlib.import_module("groupdet")
        hooks = {
            "maps.compose": self._compose_args,
            "maps.enumerate_homs": self._homs_args,
            "maps.enumerate_autos": self._autos_args,
        }
        namespaces = [
            mod for name, mod in list(sys.modules.items())
            if name == "groupdet" or name.startswith("groupdet.")
        ]
        for module, qualnames in WRAPPED.items():
            mod = importlib.import_module(f"groupdet.{module}")
            for qualname in qualnames:
                name = metric_name(module, qualname)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, attr, self._wrap(name, cls.__dict__[attr], hooks.get(name)))
                    continue
                original = getattr(mod, qualname)
                wrapper = self._wrap(name, original, hooks.get(name))
                for ns in namespaces:
                    if ns.__dict__.get(qualname) is original:
                        setattr(ns, qualname, wrapper)

    @contextmanager
    def paused(self):
        """Calls made inside are neither counted nor timed (benchmark-side input work)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, name, fn, hook):
        stack = self._stack
        calls, raised, self_s = self.calls, self.raised, self.self_s
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            if hook is not None:
                h0 = perf_counter()
                hook(*args, **kwargs)
                # hook time is tracing overhead: no span's self time holds it
                stack[-1] += perf_counter() - h0
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dt
                self_s[name] += dt - child
                calls[name] += 1

        return wrapper

    def _compose_args(self, f, g, *_, **__):
        key = hash((id(f.domain), id(f.codomain), id(g.domain), f.values, g.values))
        if key in self._compose_seen:
            self.compose_repeats += 1
        else:
            self._compose_seen.add(key)

    def _enum_key(self, key) -> None:
        self.enum_calls += 1
        if key in self._enum_seen:
            self.enum_repeats += 1
        else:
            self._enum_seen.add(key)

    def _homs_args(self, domain, codomain, restrict_codomain=None):
        allowed = None if restrict_codomain is None else restrict_codomain.elements
        self._enum_key(("homs", id(domain), id(codomain), allowed))

    def _autos_args(self, g):
        self._enum_key(("autos", id(g)))

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace_overhead_ratio, which needs an untraced run."""
        out: dict[str, float] = {}
        module_self: dict[str, float] = defaultdict(float)
        for module, qualnames in WRAPPED.items():
            for qualname in qualnames:
                name = metric_name(module, qualname)
                out[f"{name}.calls"] = self.calls[name]
                out[f"{name}.self_s"] = self.self_s[name]
                module_self[module] += self.self_s[name]
        for module in WRAPPED:
            out[f"{module}.self_s"] = module_self[module]
        n_compose = self.calls["maps.compose"]
        out["maps.compose.repeat_ratio"] = self.compose_repeats / n_compose if n_compose else 0.0
        out["maps.enum.repeat_ratio"] = (
            self.enum_repeats / self.enum_calls if self.enum_calls else 0.0
        )
        decided = sum(
            self.calls[n] - self.raised[(n, "DeterminantUndefinedError")] for n in DECIDING
        )
        attempts = sum(self.calls[n] for n in PIVOT_ATTEMPTS)
        out["determinant.pivot_yield"] = decided / attempts if attempts else 0.0
        return out

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

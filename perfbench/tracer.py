"""Span tracer for the traced benchmark run, installed from outside the package.

Every public module-level function of a layer module, and every public method
of a public class defined there, is replaced by a timing wrapper at each of
its binding sites: every ``orbigenus`` module attribute that refers to it
(``genus.require_admissible`` and ``verify.require_admissible`` are separate
bindings of one function) and the class attribute for methods.
``uninstall`` puts the original objects back and ``wrapped_bindings`` lists
any binding that still holds a wrapper.

A span records its name, start, end, parent span and case id.  A span's self
time is its duration minus the time its child spans cover, so the time of an
unwrapped helper lands in its caller's self time.  Counts are derived from
call arguments and results only.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from collections import Counter, defaultdict
from math import prod
from time import perf_counter

PACKAGE = "orbigenus"
LAYERS = ("cli", "potential", "symmetry", "_engine", "genus", "qseries", "theta",
          "oracle", "verify", "exactmath")

# Arithmetic helpers called per coefficient, per series term or per group
# element.  A wrapper would cost more than their work, and their time belongs
# to the calling function of the same layer anyway.
SKIP = {
    "_engine": {"root_vec", "vec_mul", "vec_conj", "series_mul", "series_add_scaled",
                "series_add_conj"},
    "exactmath": {"lcm", "euler_phi", "CycNum"},
    "symmetry": {"PhaseVector"},
    "qseries": {"Windows"},
}

MARK = "_perfbench_original"


def layer_label(module: str) -> str:
    """Metric prefix of a module; metric names must start with a letter."""
    return module.lstrip("_")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_pairs(counts, args, kwargs, result):
    counts["engine.double_sum.pairs"] += (
        len(_arg(args, kwargs, 1, "reps_l")) * len(_arg(args, kwargs, 2, "reps_r"))
    )


def _count_scanned(counts, args, kwargs, result):
    if result is not None:
        counts["engine.annihilator_elements.scanned"] += prod(_arg(args, kwargs, 1, "moduli"))


def _count_factors(counts, args, kwargs, result):
    params = args[2] if len(args) > 2 else kwargs.get("params")
    params = params or sys.modules[f"{PACKAGE}.theta"].DEFAULT_PARAMS
    counts["theta.factors"] += params.resolve_terms(_arg(args, kwargs, 1, "tau"))


def _count_window(counts, args, kwargs, result):
    counts["genus.window.ycap"] += result.ycap
    counts["genus.window.reach"] += result.ycap - result.boundary_margin


def _count_retries(counts, args, kwargs, result):
    counts["genus.numeric.retries"] += result.retries


def _count_elements(counts, args, kwargs, result):
    counts["symmetry.elements"] += result.order


HOOKS = {
    "engine.double_sum": _count_pairs,
    "engine.annihilator_elements": _count_scanned,
    "theta.theta_value": _count_factors,
    "genus.ell_genus_series": _count_window,
    "genus.ell_genus_numeric": _count_retries,
    "symmetry.SymmetryGroup.generate": _count_elements,
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _is_target(obj) -> bool:
    plain = inspect.isfunction(obj) or hasattr(obj, "cache_info")  # lru_cache wrappers too
    return plain and not inspect.isgeneratorfunction(obj)


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.cases: list[int] = []
        self.counts: Counter = Counter()
        self.case = -1
        self._stack: list[int] = []
        self._active = True
        self._installed: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            idx = len(self.starts)
            self.span_name.append(name_id)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.cases.append(self.case)
            self._stack.append(idx)
            self.ends.append(0.0)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                self._stack.pop()
            if hook is not None:
                self._active = False  # calls made while counting are not spans
                try:
                    hook(self.counts, args, kwargs, result)
                finally:
                    self._active = True
            return result

        setattr(span, MARK, fn)
        return span

    def install(self) -> None:
        """Wrap every target at every binding site of the loaded package."""
        functions: dict[int, tuple[object, str]] = {}
        for module_name in LAYERS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            label = layer_label(module_name)
            skip = SKIP.get(module_name, ())
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or name in skip:
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # imported from elsewhere; wrapped under its own module
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._wrap_methods(obj, f"{label}.{name}")
                elif _is_target(obj):
                    functions[id(obj)] = (obj, f"{label}.{name}")
        wrappers: dict[int, object] = {}
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                target = functions.get(id(value))
                if target is None or target[0] is not value:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(target[1], value)
                self._installed.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])

    def _wrap_methods(self, cls, prefix: str) -> None:
        for attr, member in list(vars(cls).items()):
            func = getattr(member, "__func__", member)  # unwrap classmethod / staticmethod
            if attr.startswith("_") or not _is_target(func):
                continue
            wrapper = self._wrap(f"{prefix}.{attr}", func)
            self._installed.append((cls, attr, member))
            setattr(cls, attr, wrapper if func is member else type(member)(wrapper))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name call counts and self times, per-layer self times, counters."""
        n = len(self.starts)
        covered = [0.0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            self_time[name] += self.ends[i] - self.starts[i] - covered[i]
            calls[name] += 1
        layer_self: dict[str, float] = defaultdict(float)
        for name, seconds in self_time.items():
            layer_self[name.split(".", 1)[0]] += seconds
        return {
            "spans": n,
            "calls": calls,
            "self_s": self_time,
            "layer_self_s": layer_self,
            "counts": self.counts,
            "series_passes": self._count_under("engine.double_sum", "genus.ell_genus_series"),
        }

    def _count_under(self, child: str, ancestor: str) -> int:
        """Number of ``child`` spans that have an ``ancestor`` span above them."""
        if child not in self._name_ids or ancestor not in self._name_ids:
            return 0
        child_id, ancestor_id = self._name_ids[child], self._name_ids[ancestor]
        total = 0
        for i, name_id in enumerate(self.span_name):
            if name_id != child_id:
                continue
            parent = self.parents[i]
            while parent >= 0 and self.span_name[parent] != ancestor_id:
                parent = self.parents[parent]
            total += parent >= 0
        return total

    def write(self, path, case_names: list[str]) -> None:
        """Write every span as one JSON object per line, times from the first span.

        The first line maps case ids to case names: id = pass * len(cases) + index.
        A span's parent is the 0-based index of the parent's span line, or -1.
        """
        origin = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"cases": case_names}) + "\n")
            for i in range(len(self.starts)):
                handle.write(json.dumps({
                    "name": self.names[self.span_name[i]],
                    "start": self.starts[i] - origin,
                    "end": self.ends[i] - origin,
                    "parent": self.parents[i],
                    "case": self.cases[i],
                }) + "\n")


def bindings() -> dict[str, object]:
    """Every module attribute and class attribute of the loaded package, by name."""
    found = {}
    for module in _package_modules():
        for attr, value in vars(module).items():
            found[f"{module.__name__}.{attr}"] = value
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for name, member in vars(value).items():
                    found[f"{module.__name__}.{attr}.{name}"] = member
    return found


def wrapped_bindings() -> list[str]:
    """Bindings in the loaded package that still hold a tracer wrapper."""
    return [name for name, value in bindings().items()
            if hasattr(getattr(value, "__func__", value), MARK)]

"""Layer spans recorded from outside the ktgw package.

`Tracer` wraps the public functions listed in `TARGETS` and rebinds every
name under which a loaded ``ktgw`` module holds them (``gwcount`` calls
``normalize_class`` through its own import, ``cli`` calls ``cr_residual``
through its own import, and so on); a call through a name left unbound would
escape its span.  Each span keeps its parent's id, so a layer's self time is
its duration minus the time covered by its child spans.  Spans stay in memory
until the run ends.

Size counts come from the arguments and return values, never from timing:
word tokens, components as ``|m| sigma_0(gcd(m, n))`` of the inputs, and
residual grid points.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from workloads import component_count


def _size(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 0


def _word_tokens(counts, args, kwargs, result) -> None:
    counts["homs.normalize_class.word_tokens"] += _size(result[0])


def _pushed_tokens(counts, args, kwargs, result) -> None:
    counts["nilalg.h2_pushforward.tokens"] += _size(args[0])


def _enumerated(counts, args, kwargs, result) -> None:
    counts["homs.enumerate_fully_reduced.components"] += component_count(args[0], args[1])


def _gw_components(counts, args, kwargs, result) -> None:
    if result.m:
        counts["gwcount.gw_enumerated.components"] += component_count(result.m, result.n)


# (layer name, size-count hook, whether the call gets a span).  A function
# called once per component in the hot loop of its caller is only counted,
# so that tracing does not swamp the caller's self time.
TARGETS: Tuple[Tuple[str, Optional[Callable], bool], ...] = (
    ("cli.main", None, True),
    ("arith.divisors", None, True),
    ("arith.sigma", None, True),
    ("arith.aut_weight_sum", None, True),
    ("nilalg.h2_pushforward", _pushed_tokens, True),
    ("nilalg.h3_pushforward", None, True),
    ("homs.normalize_class", _word_tokens, True),
    ("homs.enumerate_fully_reduced", _enumerated, True),
    ("geometry.solve_torus_data", None, True),
    ("geometry.cr_residual", None, True),
    ("geometry.eval_class_integrate", None, True),
    ("gwcount.gw_enumerated", _gw_components, True),
    ("gwcount.moduli_components", None, True),
    ("gwcount.aut_size_smith", None, True),
    ("gwcount.aut_size_formula", None, False),
)


class Tracer:
    """Spans and counters for calls into ktgw, switched on and off per deck."""

    package = "ktgw"

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: Dict[str, float] = defaultdict(float)
        self.residual_max = 0.0
        self._stack = [-1]
        self._patches: List[Tuple[object, str, object]] = []
        self._cache_base: Optional[Tuple[int, int]] = None
        self._wrappers: Dict[str, Tuple[object, object]] = {}
        self.spanned = [name for name, _, spanned in TARGETS if spanned]
        for qualname, hook, spanned in TARGETS:
            module_name, attr = qualname.split(".")
            module = sys.modules.get(f"{self.package}.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                continue
            if qualname == "geometry.cr_residual":
                hook = self._residual_hook(original)
            wrap = self._span_wrapper if spanned else self._count_wrapper
            self._wrappers[qualname] = (original, wrap(qualname, original, hook))

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name: str, fn, hook):
        index = len(self.names)
        self.names.append(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(name_of)
            name_of.append(index)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def _count_wrapper(self, name: str, fn, hook):
        counts, key = self.counts, name + ".calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _residual_hook(self, fn):
        param = inspect.signature(fn).parameters.get("grid")
        default_grid = param.default if param is not None else 0

        def hook(counts, args, kwargs, result) -> None:
            grid = args[1] if len(args) > 1 else kwargs.get("grid", default_grid)
            counts["geometry.cr_residual.grid_points"] += grid * grid
            self.residual_max = max(self.residual_max, result)

        return hook

    # -- switching ---------------------------------------------------------

    def install(self) -> None:
        """Rebind every ktgw name that holds a target to its wrapper."""
        targets = {id(orig): wrapped for orig, wrapped in self._wrappers.values()}
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name != self.package and not name.startswith(self.package + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapped = targets.get(id(value))
                if wrapped is not None:
                    setattr(module, attr, wrapped)
                    self._patches.append((module, attr, value))
        self._cache_base = self._cache_info()

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        now = self._cache_info()
        if now is not None and self._cache_base is not None:
            self.counts["arith.divisors.cache_hits"] += now[0] - self._cache_base[0]
            self.counts["arith.divisors.cache_misses"] += now[1] - self._cache_base[1]

    def _cache_info(self) -> Optional[Tuple[int, int]]:
        original = self._wrappers.get("arith.divisors", (None,))[0]
        info = getattr(original, "cache_info", None)
        if info is None:
            return None
        stats = info()
        return stats.hits, stats.misses

    # -- results -----------------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Total self time and span count per layer name."""
        n = len(self.name_of)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for i in range(n):
            name = self.names[self.name_of[i]]
            self_s[name] += end[i] - start[i] - child[i]
            calls[name] += 1
        return self_s, calls

    def write(self, path) -> None:
        """Write every span as one JSON line: id, parent id, layer, start, duration."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            origin = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.name_of)):
                out.write(json.dumps([i, self.parent[i], self.names[self.name_of[i]],
                                      round(self.start[i] - origin, 9),
                                      round(self.end[i] - self.start[i], 9)]))
                out.write("\n")

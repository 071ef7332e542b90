"""Spans around the public functions of radiusseq, recorded from outside.

`install` wraps every public function of the traced modules and rebinds
the wrapper at every module-level name that refers to the original, so a
call is seen however the caller reaches it: through the module
(`covers.verify_cover`), through a name imported with `from ... import`
(`tilings.sequence_from_cover`), or through the package namespace.

Spans nest on a stack. A span's self time is its duration minus the time
covered by the spans it encloses, so the self times of all spans add up
to the traced wall time. Work running inside worker processes is not
traced; it shows as waiting time in the span that started the pool.
Spans are aggregated in memory per function as they close.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

MODULES = ("numtheory", "sequences", "covers", "logarithms", "tilings", "kradius", "cli")


def _verify_symbols(tracer, args, result):
    tracer.add("sequences.verify_symbols", len(args[0].symbols))


def _search_many(tracer, args, result):
    tracer.add("logarithms.candidates", len(result))


def _tiling_sequence(tracer, args, result):
    report = result[1]
    tracer.add("tilings.translate_count", report.translate_count)
    tracer.add("tilings.cover_size", report.cover_size)


def _density_scan(tracer, args, result):
    tracer.add("kradius.primes_scanned", result.primes_scanned)
    tracer.add("kradius.hits", result.k_radius_count)


# Work counts read off the arguments or result of a call as it returns.
COUNTERS = {
    "sequences.verify": _verify_symbols,
    "logarithms.search_many": _search_many,
    "tilings.tiling_sequence": _tiling_sequence,
    "kradius.density_scan": _density_scan,
}


class Tracer:
    """Aggregated spans and counters; one instance per traced process."""

    def __init__(self):
        self._stack: list[list] = []  # per open span: [time covered by its child spans]
        self.functions: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}

    def add(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn):
        hook = COUNTERS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                rec = self.functions.get(name)
                if rec is None:
                    rec = self.functions[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - frame[0]
            if hook is not None:
                hook(self, args, result)
            return result

        return traced


def public_functions(module) -> dict[str, object]:
    """Functions defined in `module` whose names do not start with '_'."""
    return {
        attr: obj
        for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def install(tracer: Tracer) -> None:
    """Wrap the public functions of radiusseq for the rest of the process."""
    package = importlib.import_module("radiusseq")
    modules = [importlib.import_module(f"radiusseq.{m}") for m in MODULES]
    wrappers = {}
    for short, module in zip(MODULES, modules):
        for attr, fn in public_functions(module).items():
            wrappers[id(fn)] = (fn, tracer.wrap(f"{short}.{attr}", fn))
    for namespace in [vars(package)] + [vars(m) for m in modules]:
        for attr, obj in list(namespace.items()):
            original, wrapper = wrappers.get(id(obj), (None, None))
            if original is obj:
                namespace[attr] = wrapper

"""Span tracing of mexkit calls from outside the package.

Each traced function is wrapped at every mexkit module that binds it: a
module that does ``from .graphs import count_cliques`` holds its own
reference, so patching only ``graphs`` would miss the calls made through
``oracle``.  Every wrapper remembers the module it was installed in (its
call site), which is what ratios such as "count_cliques calls made from
oracle" are computed from.

A span opens when a wrapped function is entered and closes when it returns
or raises.  Closed spans are folded into per-name aggregates in memory,
because the closed-form workload closes millions of spans; a span's self
time is its duration minus the time covered by its child spans.  A
generator's span is the sum of the time spent inside it across
resumptions, counted as one call.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

PACKAGE = "mexkit"


class Tracer:
    """Nested spans folded into aggregates as they close."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._stack: list[list] = []  # [name, start, time covered by children]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.site_calls: Counter[tuple[str, str]] = Counter()
        self.counters: Counter[str] = Counter()

    def enter(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0.0])

    def exit(self) -> None:
        name, start, covered = self._stack.pop()
        duration = self._clock() - start
        self.self_s[name] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration

    def calls(self, name: str) -> int:
        return sum(n for (span, _), n in self.site_calls.items() if span == name)

    def to_json(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": {name: self.calls(name) for name in self.self_s},
            "site_calls": [[name, site, n] for (name, site), n in sorted(self.site_calls.items())],
            "counters": dict(self.counters),
        }


ResultHook = Callable[[Counter, object], None]


def _wrap(tracer: Tracer, name: str, site: str, fn: Callable, hook: ResultHook | None) -> Callable:
    key = (name, site)
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def generator_wrapper(*args, **kwargs):
            tracer.site_calls[key] += 1
            inner = fn(*args, **kwargs)
            while True:
                tracer.enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                yield item

        return generator_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.site_calls[key] += 1
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if hook is not None:
            hook(tracer.counters, result)
        return result

    return wrapper


def package_modules() -> list:
    return [
        module
        for modname, module in sorted(sys.modules.items())
        if module is not None and (modname == PACKAGE or modname.startswith(PACKAGE + "."))
    ]


def install(
    tracer: Tracer, targets: list[tuple[str, str]], hooks: dict[str, ResultHook] | None = None
) -> list[tuple[object, str, Callable]]:
    """Wrap each (module, function) target at every binding; return what to restore."""
    hooks = hooks or {}
    modules = package_modules()
    patches = []
    for modname, funcname in targets:
        original = getattr(sys.modules[f"{PACKAGE}.{modname}"], funcname)
        name = f"{modname}.{funcname}"
        for module in modules:
            site = module.__name__.rpartition(".")[2]
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, _wrap(tracer, name, site, original, hooks.get(name)))
                    patches.append((module, attr, original))
    return patches


def uninstall(patches: list[tuple[object, str, Callable]]) -> None:
    for module, attr, original in reversed(patches):
        setattr(module, attr, original)


@contextmanager
def traced(
    tracer: Tracer, targets: list[tuple[str, str]], hooks: dict[str, ResultHook] | None = None
) -> Iterator[Tracer]:
    patches = install(tracer, targets, hooks)
    try:
        yield tracer
    finally:
        uninstall(patches)

"""Interposers: wrappers put in place of asrboot's public functions.

Modules import each other's functions by name (``segment`` binds
``decode``, ``decode`` binds ``state_logliks``), so a wrapper must replace
every module attribute that holds the function, not only the defining
one.  ``Interposer`` finds those bindings by identity, installs wrappers
and restores the originals on ``close``.

Two kinds of wrapper share one factory:

* counting wrappers do no timing and stay on in the untraced run; they
  count calls, errors and result sizes (chunk failures are counted here,
  never through log records);
* timing wrappers are installed only in the traced run.  Each keeps a
  span stack so a function's self time is its span time minus the time
  of wrapped children.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable

PACKAGE = "asrboot"


def _base(fn):
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    return fn


class Stats:
    """Named counters: ``stats[name][quantity]`` accumulates floats."""

    def __init__(self):
        self.values: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self._stack: list[float] = []  # child time of each open span

    def get(self, name: str, quantity: str) -> float:
        return self.values.get(name, {}).get(quantity, 0.0)

    def calls(self, name: str) -> int:
        return int(self.get(name, "calls"))


# called after every call with the result, or None when the call raised
OnReturn = Callable[[dict, tuple, dict, object], None]


def make_wrapper(
    fn, name: str, stats: Stats, timed: bool,
    on_return: OnReturn | None = None, errors: tuple = (),
):
    """Wrap ``fn`` so each call updates ``stats.values[name]``."""
    counters = stats.values[name]

    if not timed:
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            counters["calls"] += 1
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except errors:
                counters["errors"] += 1
                raise
            finally:
                if on_return is not None:
                    on_return(counters, args, kwargs, result)
        return counting

    stack = stats._stack

    @functools.wraps(fn)
    def timing(*args, **kwargs):
        counters["calls"] += 1
        stack.append(0.0)
        result = None
        started = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except errors:
            counters["errors"] += 1
            raise
        finally:
            elapsed = perf_counter() - started
            child = stack.pop()
            if stack:
                stack[-1] += elapsed
            counters["s"] += elapsed
            counters["self_s"] += elapsed - child
            if on_return is not None:
                on_return(counters, args, kwargs, result)
    return timing


class Interposer:
    """Installs wrappers over asrboot functions; ``close`` restores them."""

    def __init__(self, stats: Stats, timed: bool):
        self.stats = stats
        self.timed = timed
        self._saved: list[tuple[object, str, object]] = []

    def function(
        self, module: str, attr: str,
        on_return: OnReturn | None = None, errors: tuple = (),
        everywhere: bool = True,
    ) -> None:
        """Wrap ``module.attr``; with ``everywhere``, every binding of it.

        Counters are keyed ``<module>.<attr>``.  A binding missing from
        the module raises ``LookupError``, so a renamed entry point fails
        loudly.
        """
        mod = sys.modules[f"{PACKAGE}.{module}"]
        if not hasattr(mod, attr):
            raise LookupError(f"{PACKAGE}.{module} has no attribute {attr!r}")
        target = _base(getattr(mod, attr))
        name = f"{module}.{attr}"
        holders = [mod]
        if everywhere:
            holders = [
                m for key, m in sorted(sys.modules.items())
                if m is not None
                and (key == PACKAGE or key.startswith(PACKAGE + "."))
            ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if callable(value) and _base(value) is target:
                    self._replace(holder, key, make_wrapper(
                        value, name, self.stats, self.timed, on_return, errors,
                    ))

    def method(self, module: str, cls: str, attr: str) -> None:
        """Wrap a method on a class; counters keyed ``<module>.<attr>``."""
        klass = getattr(sys.modules[f"{PACKAGE}.{module}"], cls)
        self._replace(klass, attr, make_wrapper(
            vars(klass)[attr], f"{module}.{attr}", self.stats, self.timed,
        ))

    def _replace(self, holder, attr: str, wrapper) -> None:
        self._saved.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, wrapper)

    def close(self) -> None:
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    def __enter__(self) -> "Interposer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

"""Per-layer tracing of the gtl package, applied from outside.

`Tracer.install` replaces every public function of every loaded `gtl.*`
module by a wrapper that counts calls and measures self time (its own
duration minus the duration of the traced calls it made).  Because
`from .x import y` copies the name `y` into the importing module, each
function is replaced at every module attribute that holds it, so calls
through any of those names are seen.  Modules are reached through
`sys.modules`: the package attribute `gtl.identify` is the function, not
the module.  `Tracer.uninstall` puts every original back.

A wrapper's own bookkeeping is charged to no span: each traced call
reports its full wrapper time to its caller, so the caller's self time
excludes it.  The cost shows only in the traced run's wall time, which the
harness reports as `trace.overhead`.
"""

from __future__ import annotations

import functools
import inspect
import sys
import warnings
from time import perf_counter

WRAPPED_MARK = "__perfbench_wrapped__"
_MISSING = object()


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "keys", "warnings")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.keys = set()
        self.warnings = 0


def gtl_modules():
    """The loaded gtl modules by short name (`graph`, `prior`, ...)."""
    return {name.split(".", 1)[1]: mod for name, mod in sorted(sys.modules.items())
            if name.startswith("gtl.") and mod is not None}


def public_functions(module):
    """Functions defined in the module itself whose names are public."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


class Tracer:
    """Wraps gtl's public functions; `keys` maps a span name to a function of
    the call's arguments whose distinct values are counted, and `results`
    maps a span name to a function fed each return value."""

    def __init__(self, keys=None, results=None):
        self.stats = {}
        self._keys = keys or {}
        self._results = results or {}
        self._frames = []  # per active traced call: [span name, child seconds]
        self._patched = []  # (namespace, attribute, original)

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        namespaces = [sys.modules["gtl"], *gtl_modules().values()]
        for short, module in gtl_modules().items():
            for name, fn in public_functions(module).items():
                wrapper = self._wrap(f"{short}.{name}", fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patched.append((ns, attr, fn))
                            setattr(ns, attr, wrapper)
        # catch_warnings restores both the filters and showwarning on exit
        self._warning_state = warnings.catch_warnings()
        self._warning_state.__enter__()
        warnings.simplefilter("always")
        warnings.showwarning = self._on_warning

    def uninstall(self):
        for ns, attr, fn in reversed(self._patched):
            setattr(ns, attr, fn)
        self._patched.clear()
        self._warning_state.__exit__(None, None, None)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _on_warning(self, message, category, filename, lineno, file=None, line=None):
        """Charge each warning to the innermost traced call that was running."""
        name = self._frames[-1][0] if self._frames else "untraced"
        self.stats.setdefault(name, Stat()).warnings += 1

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, Stat())
        frames = self._frames
        key_of = self._keys.get(name)
        on_result = self._results.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = perf_counter()
            if key_of is not None:
                stat.keys.add(key_of(*args, **kwargs))
            frame = [name, 0.0]
            frames.append(frame)
            result = _MISSING
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = perf_counter() - start
                frames.pop()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame[1]
                if on_result is not None and result is not _MISSING:
                    on_result(result)
                if frames:
                    frames[-1][1] += perf_counter() - entered

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper


def leftover_wrappers():
    """Attributes of gtl modules that still hold a tracing wrapper."""
    found = []
    for ns in [sys.modules["gtl"], *gtl_modules().values()]:
        for attr, value in vars(ns).items():
            if getattr(value, WRAPPED_MARK, False):
                found.append(f"{ns.__name__}.{attr}")
    return found

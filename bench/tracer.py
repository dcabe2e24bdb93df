"""Span recording around the public functions of the nlsball modules.

The tracer wraps every public function a layer module defines and rebinds
the wrapper wherever the package bound the original at import (the
package namespace, ``nlsball.cli``'s imports, ``nlsball.branch``'s imports
from ``core`` and so on), so calls made between layers open nested spans
too.  Spans stay in memory until the run ends.  Private helpers such as
the RK4 integrator are not wrapped: their time is self time of the public
function that called them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass

LAYERS = ("core", "shoot", "branch", "asymptotics", "verify", "evolve", "cli")

# Spans of these functions carry a tag taken from their arguments, so that
# the per-layer metrics can tell grid sizes, branch signs and CLI commands
# apart.
_TAG_OF = {
    "core.make_grid": lambda a: a["n_nodes"],
    "core.principal_eigenpair": lambda a: a["grid"].n_nodes,
    "shoot.solve_ball_profile": lambda a: a["mu_sign"],
    "branch.trace": lambda a: (a["sign"], len(a["lambda_grid"])),
    "branch.point_at_alpha": lambda a: a["sign"],
    "cli.main": lambda a: a["argv"][0],
}


@dataclass
class Span:
    name: str                # "<layer>.<function>"
    start: float
    end: float = 0.0
    parent: int = -1         # index into Tracer.spans, -1 for a root span
    tag: object = None       # see _TAG_OF

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per call into a wrapped function."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        tag_of = _TAG_OF.get(name)
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, parent=stack[-1] if stack else -1)
            if tag_of is not None:
                span.tag = tag_of(signature.bind(*args, **kwargs).arguments)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return wrapper

    def install(self, package: str = "nlsball"):
        """Wrap the layers' public functions and rebind every reference."""
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapped[obj])

    def uninstall(self):
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    covered = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            covered[span.parent].append((span.start, span.end))
    out = []
    for span, intervals in zip(spans, covered):
        busy = 0.0
        last_end = span.start
        for lo, hi in sorted(intervals):
            lo, hi = max(lo, last_end), min(hi, span.end)
            if hi > lo:
                busy += hi - lo
                last_end = hi
        out.append(span.duration - busy)
    return out

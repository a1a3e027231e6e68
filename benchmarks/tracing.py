"""Spans around the public functions of the isothc modules, installed from outside.

The package imports functions by name across modules (``algorithm`` takes
the ``focksim`` kernels, ``cli`` takes ``evolve`` and
``factorize_hamiltonian``, ``cli._HANDLERS`` holds the ``cmd_*``
functions), so a wrapper must replace every reference: each module
attribute and each module-level dict value that is the original object.
Methods are wrapped on their class.

Spans are kept in memory as ``(name, start, end, parent)`` tuples and
summarized once the traced call returns.  A span's self time is its
duration minus the durations of its direct children; calls nest on one
thread, so the self times of all spans under a root add up to the root's
duration.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from types import ModuleType

MODULES = ("hamiltonian", "thc", "focksim", "algorithm", "cli")

# spans that get their own metrics besides self time and calls
STEP_SPAN = "algorithm.step"
COMPILE_SPAN = "algorithm.compile"
REFINE_SPAN = "thc.refine"
ADAM_SPAN = "thc.loss_gradient"  # one call per Adam iteration


def isothc_modules() -> dict[str, ModuleType]:
    import isothc.cli  # noqa: F401  (imports every traced module)

    return {short: sys.modules[f"isothc.{short}"] for short in MODULES}


def public_functions(modules: dict[str, ModuleType]) -> dict[str, object]:
    """Span name -> function for the public functions defined in each module."""
    found = {}
    for short, module in modules.items():
        names = getattr(module, "__all__", None)
        if names is None:
            names = [name for name in vars(module) if not name.startswith("_")]
        for name in names:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[f"{short}.{name}"] = obj
    return found


def replace_everywhere(modules: dict[str, ModuleType], swaps: dict[int, object]) -> None:
    """Point every module attribute and module-level dict value at its wrapper.

    ``swaps`` maps ``id(original)`` to the wrapper, which holds the original,
    so the ids stay unique.
    """
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            wrapper = swaps.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    wrapper = swaps.get(id(item))
                    if wrapper is not None:
                        value[key] = wrapper


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def call(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._open.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return wrapper

    def summary(self) -> dict:
        """Per-name calls, self and inclusive seconds, plus step durations."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        total_s: defaultdict = defaultdict(float)
        step_durations = []
        for name, start, end, parent in self.spans:
            duration = end - start
            calls[name] += 1
            self_s[name] += duration
            total_s[name] += duration
            if parent >= 0:
                self_s[self.spans[parent][0]] -= duration
            if name == STEP_SPAN:
                step_durations.append(duration)
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "total_s": dict(total_s),
            "step_durations": step_durations,
            "counts": dict(self.counts),
        }

    def solver(self) -> tuple[int, float]:
        """Solver steps and the seconds spent in them, compilation excluded.

        Trotter steps are ``algorithm.step`` spans.  The first step of each
        engine compiles the step unitary; that compile span is subtracted,
        so only step and reset work is counted.  Without Trotter steps, the
        solver steps are Adam iterations (``thc.loss_gradient`` calls) and
        the seconds those of the enclosing ``thc.refine`` spans.
        """
        steps, seconds = 0, 0.0
        for name, start, end, parent in self.spans:
            if name == STEP_SPAN:
                steps += 1
                seconds += end - start
            elif name == COMPILE_SPAN and parent >= 0 and self.spans[parent][0] == STEP_SPAN:
                seconds -= end - start
        if steps:
            return steps, seconds
        for name, start, end, _parent in self.spans:
            if name == ADAM_SPAN:
                steps += 1
            elif name == REFINE_SPAN:
                seconds += end - start
        return steps, seconds


def _wrap_engine(tracer: Tracer, engine: type) -> None:
    """Span every Trotter step and the compilation of each step unitary."""
    engine.step = tracer.wrap(STEP_SPAN, engine.step)
    dense_unitary = engine.dense_unitary

    @functools.wraps(dense_unitary)
    def compile_once(self):
        # Only the first call per engine builds the unitary; later calls
        # return the cached matrix and are left inside the step span.
        if self._dense is not None:
            return dense_unitary(self)
        tracer.counts["algorithm.compile.columns"] += self.layout.dim
        return tracer.call(COMPILE_SPAN, dense_unitary, (self,), {})

    engine.dense_unitary = compile_once


def install_solver_spans(tracer: Tracer) -> None:
    """Untraced runs: spans only around the solver loops (see ``Tracer.solver``)."""
    modules = isothc_modules()
    thc = modules["thc"]
    replace_everywhere(modules, {
        id(thc.refine): tracer.wrap(REFINE_SPAN, thc.refine),
        id(thc.loss_gradient): tracer.wrap(ADAM_SPAN, thc.loss_gradient),
    })
    _wrap_engine(tracer, modules["algorithm"]._StepEngine)


def install_tracer(tracer: Tracer) -> None:
    """Wrap every public function and the three hot methods."""
    modules = isothc_modules()
    functions = public_functions(modules)
    replace_everywhere(modules, {id(fn): tracer.wrap(name, fn) for name, fn in functions.items()})
    _wrap_engine(tracer, modules["algorithm"]._StepEngine)
    operator = modules["hamiltonian"].ManyBodyOperator
    operator.eigensystem = tracer.wrap("hamiltonian.eigensystem", operator.eigensystem)

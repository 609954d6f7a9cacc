"""The machine's speed, measured by a fixed pure-Python kernel.

On a shared host the same interpreter-bound code runs up to twice as fast
at one moment as at the next, for spells of a second to minutes, as other
tenants come and go. The benchmark times this kernel right before and right
after every timed call and scales the call's time by REF_SECONDS / (kernel
time), so that a figure reads as seconds on a machine that runs the kernel
in REF_SECONDS.

The kernel is the kind of work streamcheck does: a tree-walking evaluator
of fixed random expressions over variable environments, about 1 MB of
dicts in all, so that it meets the same contention for caches and execution
units as the calls it scales. It never imports streamcheck, so a change of
streamcheck's own cost shows in the scaled figures in full, while a change
of the machine's speed, which slows the kernel and the call alike, cancels.
"""

from __future__ import annotations

import gc
import random
import time

# Kernel time on the machine the baseline was measured on (2-vCPU x86-64
# sandbox, Python 3.11.7), in one of its usual states.
REF_SECONDS = 0.010

_rng = random.Random(0)
_NAMES = [f"v{i}" for i in range(400)]
_ENVS = [{n: _rng.randint(-100, 100) for n in _NAMES} for _ in range(60)]


class _Node:
    __slots__ = ("op", "a", "b")

    def __init__(self, op, a, b) -> None:
        self.op, self.a, self.b = op, a, b


def _tree(depth: int) -> _Node:
    if depth == 0:
        if _rng.random() < 0.7:
            return _Node("var", _rng.choice(_NAMES), None)
        return _Node("const", _rng.randint(-5, 5), None)
    return _Node(_rng.choice(("+", "-", "min", "max", "<")), _tree(depth - 1), _tree(depth - 1))


_EXPRS = [_tree(4) for _ in range(30)]


def _evaluate(node: _Node, env: dict):
    op = node.op
    if op == "var":
        return env[node.a]
    if op == "const":
        return node.a
    a, b = _evaluate(node.a, env), _evaluate(node.b, env)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "min":
        return min(a, b)
    if op == "max":
        return max(a, b)
    return a < b


def kernel_seconds() -> float:
    """Time of one run of the kernel, with the garbage collector held off
    so that the heap of the code being measured does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for env in _ENVS:
            for expr in _EXPRS:
                _evaluate(expr, env)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Scales the times of calls by the kernel timed on either side of each.
    Consecutive calls share the kernel run between them:

        clock.ready(); start = time.perf_counter(); call()
        scaled = clock.scale(time.perf_counter() - start)
    """

    def __init__(self) -> None:
        self.kernel: list[float] = []  # every kernel time of the run
        self.raw: list[float] = []  # every call's unscaled time
        self._before: float | None = None

    def ready(self) -> None:
        """Call right before a timed call."""
        if self._before is None:
            self._before = self._kernel()

    def scale(self, seconds: float) -> float:
        """Call right after the timed call, with its time."""
        after = self._kernel()
        self.raw.append(seconds)
        scaled = seconds * REF_SECONDS / ((self._before + after) / 2)
        self._before = after
        return scaled

    def break_off(self) -> None:
        """Untimed work follows, so the next call gets a kernel run of its own."""
        self._before = None

    def _kernel(self) -> float:
        t = kernel_seconds()
        self.kernel.append(t)
        return t

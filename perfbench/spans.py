"""Per-layer spans recorded by interposing on hahncalc's module attributes.

The benchmark does not edit hahncalc.  Instead, Tracer.install replaces
selected module attributes (the names one layer uses to call the next)
with timing wrappers; Tracer.disable puts the originals back and
Tracer.enable applies the wrappers again.  A
span's self time is its duration minus the time covered by the spans it
directly contains, so the self times of all spans add up to the time spent
inside the outermost span.

Per-step helpers (advance_n, lattice_step, q_number, the rhs closures) are
never wrapped: they run about 1.5 million times per sweep, and wrapping them
would measure the wrapper.  Step and factor counts are taken from return
values or computed from the arguments instead.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable

__all__ = ["SpanStats", "Tracer", "qpoch_factors", "steps_needed"]


def qpoch_factors(a: float, q: float, tol: float, max_terms: int) -> int:
    """Factors (a; q)_inf multiplies before |q^k a| < tol (computed, not counted).

    This is the stopping index of hahncalc's product loop, worked out from
    the arguments in closed form; the loop itself may differ by one where
    rounding of the running power q^k a straddles tol.
    """
    size = abs(a)
    if size < tol:
        return 0
    count = math.ceil(math.log(tol / size) / math.log(q))
    # Correct the closed form where rounding puts it one off the loop's test.
    while size * q**count >= tol:
        count += 1
    while count > 0 and size * q ** (count - 1) < tol:
        count -= 1
    return min(count, max_terms)


def steps_needed(t: float, q: float, w0: float, tol: float) -> int:
    """Smallest N with q^N |t - w0| < tol: the lattice depth an iteration needs."""
    gap = abs(t - w0)
    if gap < tol:
        return 0
    return math.ceil(math.log(tol / gap) / math.log(q))


class SpanStats:
    """Aggregate of every span recorded under one name."""

    __slots__ = ("calls", "total_s", "self_s", "failed", "counters")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.failed = 0
        self.counters: dict[str, float] = {}

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


class _Frame:
    __slots__ = ("name", "child_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.child_s = 0.0


# A hook sees (stats, args, kwargs, result) after a call returns normally.
Hook = Callable[[SpanStats, tuple, dict, Any], None]


class Tracer:
    """Span recorder; owns the wrappers it installs and the statistics."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, Any, Any]] = []

    def reset(self) -> None:
        """Forget recorded statistics; installed wrappers stay."""
        self.stats = {}
        self._stack.clear()

    def _stat(self, name: str) -> SpanStats:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = SpanStats()
        return stat

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        """Return fn timed as a span called name.

        A call made while a span of the same name is innermost joins that
        span instead of opening a nested one, so a route that delegates to
        a helper counts once, with the helper's hook still applied.
        """
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = self._stack
            if stack and stack[-1].name == name:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self._stat(name), args, kwargs, result)
                return result
            frame = _Frame(name)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self._close(frame, clock() - start).failed += 1
                raise
            stat = self._close(frame, clock() - start)
            if hook is not None:
                hook(stat, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, frame: _Frame, elapsed: float) -> SpanStats:
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1].child_s += elapsed
        stat = self._stat(frame.name)
        stat.calls += 1
        stat.total_s += elapsed
        stat.self_s += elapsed - frame.child_s
        return stat

    def install(self, owner: object, attr: str, name: str, hook: Hook | None = None) -> bool:
        """Replace owner.attr by its span wrapper; False if owner has no attr."""
        return self.replace(owner, attr, lambda original: self.wrap(name, original, hook))

    def replace(self, owner: object, attr: str, make: Callable[[Any], Any]) -> bool:
        """Replace owner.attr by make(original); False if owner has no attr."""
        original = getattr(owner, attr, None)
        if original is None:
            return False
        replacement = make(original)
        self._patches.append((owner, attr, original, replacement))
        setattr(owner, attr, replacement)
        return True

    def disable(self) -> None:
        """Put every replaced attribute back, newest first."""
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def enable(self) -> None:
        """Apply every replacement again, oldest first."""
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

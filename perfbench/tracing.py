"""Outside-in tracing: timers wrapped around the package's public names.

Nothing here edits the package.  A wrapper is installed on the module (or
class) where the *caller* looks the name up — ``repro.seq.hopcroft_karp``
imported ``alternating_level_bfs`` by name, so that is where the timer goes —
and :func:`installed` puts the original back when the traced run ends, even
when it fails.
"""

from __future__ import annotations

import contextlib
import functools
import time


class CallTimer:
    """Counts calls of one function and the wall seconds spent inside them."""

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0

    def wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start
                self.calls += 1

        timed.__wrapped_by_bench__ = True
        return timed

    def snapshot(self) -> tuple[int, float]:
        return self.calls, self.seconds


@contextlib.contextmanager
def installed(patches):
    """Install ``(owner, attribute, timer)`` wrappers for the ``with`` body.

    ``owner`` is a module or class; the original attribute is restored on
    exit.  Yields nothing: read the timers afterwards.
    """
    originals = []
    try:
        for owner, name, timer in patches:
            original = owner.__dict__[name]
            originals.append((owner, name, original))
            setattr(owner, name, timer.wrap(original))
        yield
    finally:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)


def leftover_wrappers(owners) -> list[str]:
    """``module.name`` of every benchmark wrapper still installed on ``owners``."""
    found = []
    for owner in owners:
        for name, value in vars(owner).items():
            if getattr(value, "__wrapped_by_bench__", False):
                found.append(f"{owner.__name__}.{name}")
    return found


def timing_gpu_class():
    """A :class:`~repro.gpusim.device.VirtualGPU` that times its accounting.

    Built lazily so importing this module does not import the package.
    Every ``charge_kernel`` call records two things: the wall time spent
    inside it (cost-model accounting, the ``gpusim`` layer) and the interval
    since the previous charge returned, attributed to the kernel being
    charged (the repository's charge-after-access convention, as
    ``repro.compiled.calibrate`` uses it).  Ledger contents are untouched, so
    a traced solve returns bit-identical results.
    """
    from repro.gpusim.device import VirtualGPU

    class TimingGPU(VirtualGPU):
        def __init__(self, spec) -> None:
            super().__init__(spec)
            self.charge_seconds = 0.0
            self.intervals: dict[str, float] = {}
            self._mark = time.perf_counter()

        def charge_kernel(self, name, thread_work) -> None:
            start = time.perf_counter()
            self.intervals[name] = self.intervals.get(name, 0.0) + (start - self._mark)
            super().charge_kernel(name, thread_work)
            self._mark = time.perf_counter()
            self.charge_seconds += self._mark - start

    return TimingGPU

"""Host-speed sampling, so that timings can be stated at one reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts: a
fixed piece of Python and numpy work takes anywhere between its fastest
time and about twice that, in stretches of a few seconds to minutes. Wall
time of a run of a minute or less therefore moves by 15-30% with the host,
not with the program.

While a ``Sampler`` is running, a SIGALRM timer interrupts the main thread
every ``PERIOD`` seconds and times ``probe()``, a fixed kernel of the same
kind of work as the library (small numpy operations driven by the
interpreter, and layer-sized matrix products). ``Sampler.seconds(a, b)`` then restates the wall interval
[a, b] at the reference speed: each stretch between two probes is divided
by the slow-down the probes around it measured, and the probes' own time
is left out. The reference speed is the one at which ``probe()`` takes
``REFERENCE_PROBE_S``, its typical time on a 2-core x86-64 VM with
Python 3.11 and numpy 2.x; the raw wall times are kept as well.

The restatement is approximate, because the library and the probe do not
slow down by exactly the same factor: on that VM it cut the run-to-run
spread of the benchmark's times from 0.1-0.3 to 0.04-0.12 of the median.
"""
from __future__ import annotations

import signal
import time

import numpy as np

PERIOD = 0.05  # seconds between probes
REFERENCE_PROBE_S = 0.0008  # probe() time at the reference speed
SMOOTH = 5  # probes in the running median of the slow-down

_ROWS = np.linspace(0.0, 1.0, 64 * 48).reshape(64, 48)
_WEIGHTS = np.linspace(-1.0, 1.0, 128 * 128).reshape(128, 128) / 64.0
_HIDDEN = np.linspace(0.0, 1.0, 50 * 128).reshape(50, 128)


def probe() -> float:
    """Fixed work in two parts, as in the library: interpreter-driven small
    numpy operations, and a few layer-sized matrix products. Either part
    alone follows the host's speed less closely than the library does: the
    first overstates its swings and the second understates them."""
    acc = 0.0
    for i in range(150):
        acc += float((_ROWS[i % 64] * _ROWS[(i * 7) % 64]).sum())
    h = _HIDDEN
    for _ in range(6):
        h = np.tanh(h @ _WEIGHTS)
    return acc + float(h[0, 0])


class Sampler:
    """Times probe() every PERIOD seconds while started; not re-entrant."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None
        self._factor: np.ndarray | None = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._on_alarm(None, None)  # at least one probe, from the start
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _probes(self) -> tuple[np.ndarray, np.ndarray]:
        # a probe may land while this runs: count first, then slice
        n = len(self.ends)
        return np.array(self.starts[:n]), np.array(self.ends[:n])

    def slowdown(self) -> np.ndarray:
        """Per probe: running median of probe time over the reference."""
        starts, ends = self._probes()
        if self._factor is None or self._factor.size != ends.size:
            half = SMOOTH // 2
            padded = np.pad(ends - starts, half, mode="edge")
            windows = np.lib.stride_tricks.sliding_window_view(padded, SMOOTH)
            self._factor = np.median(windows, axis=1) / REFERENCE_PROBE_S
        return self._factor

    def seconds(self, a: float, b: float) -> float:
        """The wall interval [a, b], less probe time, at the reference speed."""
        starts, ends = self._probes()
        if not ends.size:
            raise RuntimeError("no probe ran; the interval cannot be restated")
        factor = self.slowdown()[: ends.size]  # a later probe may have landed
        # stretch k runs from the end of probe k-1 to the start of probe k
        # and is scaled by probe k; the stretch after the last probe by it
        lo = np.concatenate(([-np.inf], ends))
        hi = np.concatenate((starts, [np.inf]))
        f = np.concatenate((factor, factor[-1:]))
        overlap = np.clip(np.minimum(b, hi) - np.maximum(a, lo), 0.0, None)
        return float((overlap / f).sum())

    def wall_seconds(self, a: float, b: float) -> float:
        """The wall interval [a, b] less the probes' own time."""
        starts, ends = self._probes()
        inside = np.clip(np.minimum(b, ends) - np.maximum(a, starts), 0.0, None).sum()
        return (b - a) - float(inside)


def summary(slowdown: np.ndarray) -> dict:
    """Median and range of the slow-downs a run measured."""
    return {
        "probes": int(slowdown.size),
        "median": float(np.median(slowdown)),
        "min": float(slowdown.min()),
        "max": float(slowdown.max()),
    }

"""Machine-speed correction for timings taken on a shared host.

On a shared host one core can run at half speed for seconds at a time while
a neighbour loads its sibling, so raw times of the same work differ by up
to 2x between runs. The benchmark therefore times a fixed probe, before,
after and (from a timer signal every ``INTERVAL`` seconds) during every
operation, and rescales the operation's time to the speed at which the
probe takes ``PROBE_SECONDS``. The probe never changes with the program
under test, so a slower program still reads slower.

The probe does what the program spends its time on: it scans a dict of
points with ``max``/``abs`` comparisons, as point matching does.
"""

import signal
import statistics
import time

# The probe's time on a quiet core of the 2-vCPU Xeon (2.1 GHz) host the
# baseline in baseline.json was measured on.
PROBE_SECONDS = 90e-6
INTERVAL = 0.005

_POINTS = {str(i): ((i * 37) % 101 * 1.5, (i * 53) % 97 * 2.0)
           for i in range(200)}


def _probe_work():
    n = 0
    for qx, qy in ((20.0, 30.0), (80.0, 150.0)):
        for _name, (x, y) in _POINTS.items():
            if max(abs(qx - x), abs(qy - y)) <= 4.0:
                n += 1
    return n


_spent = 0.0  # seconds spent in probes run from the timer signal


def clock() -> float:
    """``time.perf_counter()`` without the time spent in timer probes."""
    return time.perf_counter() - _spent


def probe() -> float:
    """Seconds taken by one run of the probe work now."""
    t0 = time.perf_counter()
    _probe_work()
    return time.perf_counter() - t0


class Sampler:
    """Context manager that probes machine speed while its body runs.

    Time the body with ``clock()``, which leaves out the probes taken inside
    it. ``scale()`` is the factor that rescales that time to reference
    speed.
    """

    def __init__(self):
        self.samples = []
        self._saved = None

    def _on_alarm(self, _signum, _frame):
        global _spent
        t0 = time.perf_counter()
        self.samples.append(probe())
        _spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples.append(probe())
        self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        self.samples.append(probe())
        return False

    def scale(self) -> float:
        return PROBE_SECONDS / statistics.fmean(self.samples)

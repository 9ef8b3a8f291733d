"""The host's speed, sampled while the timed code runs, and host times
rescaled by it.

The host the benchmark runs on shares its processor with other tenants, and
its speed swings by up to a factor of two, in spells from a fraction of a
second to minutes, whatever the benchmark does.  A host time measured
across such spells tells as much about the host as about the program.

While :func:`start` is in effect, ``SIGALRM`` interrupts the running Python
code every :data:`PERIOD_S` seconds, and the handler times a fixed loop of
:data:`LOOP` iterations.  :func:`scaled` gives the host seconds between two
instants at the nominal speed: the measured seconds times
:data:`NOMINAL_LOOP_S` over the median loop time sampled between them.  On a
host running at the nominal speed the scaled and the measured time agree;
when the host slows, both the program and the loop slow, and the scaled
time does not.  The loop costs about 1% of the timed code's time.

Only the main thread of this process is sampled.  Interrupted system calls
are restarted by Python, so the sampled code sees no difference besides the
time the loop takes.
"""

import atexit
import bisect
import signal
import statistics
import time

#: Iterations of the timed loop.
LOOP = 5000

#: Seconds between two samples.
PERIOD_S = 0.05

#: The loop's median time on the host the bounds were tuned on, in a fast
#: spell (Xeon, Python 3.11.7): the speed scaled times are given at.
NOMINAL_LOOP_S = 3.4e-4

#: Fewest samples a scaled time rests on; a shorter interval borrows the
#: nearest samples outside it.
MIN_SAMPLES = 5

_starts: list = []
_loops: list = []


def _sample(signum, frame) -> None:
    t0 = time.perf_counter()
    s = 0
    for i in range(LOOP):
        s += i * i
    _starts.append(t0)
    _loops.append(time.perf_counter() - t0)


def start() -> None:
    """Sample the host's speed from now on, until :func:`stop` or exit.

    Sampling must stop before the interpreter shuts down: shutdown resets
    the handler, and the next ``SIGALRM`` would then end the process.
    """
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    atexit.register(stop)


def stop() -> None:
    """Stop sampling; the samples taken stay."""
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def loop_time(t0: float, t1: float) -> float:
    """Median loop time sampled from ``t0`` to ``t1`` (``perf_counter``)."""
    lo = bisect.bisect_left(_starts, t0)
    hi = bisect.bisect_right(_starts, t1)
    while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(_starts)):
        if lo > 0 and (hi == len(_starts)
                       or t0 - _starts[lo - 1] <= _starts[hi] - t1):
            lo -= 1
        else:
            hi += 1
    if lo == hi:
        raise RuntimeError("no host-speed samples: call start() first")
    return statistics.median(_loops[lo:hi])


def scaled(t0: float, t1: float) -> float:
    """Host seconds from ``t0`` to ``t1`` at the nominal host speed."""
    return (t1 - t0) * NOMINAL_LOOP_S / loop_time(t0, t1)


def summary() -> str:
    """One line on the samples taken so far."""
    if len(_loops) < 2:
        return f"host speed: {len(_loops)} samples"
    q = statistics.quantiles(_loops, n=4)
    return (f"host speed: {len(_loops)} samples, loop time quartiles "
            f"{q[0] * 1e3:.3f} / {q[1] * 1e3:.3f} / {q[2] * 1e3:.3f} ms "
            f"(nominal {NOMINAL_LOOP_S * 1e3:.3f} ms)")

"""Host-speed calibration: a clock that reads reference-host seconds.

The shared host this benchmark runs on changes speed by tens of percent
within a second, so raw CPU seconds of the same work do not repeat.  This
module measures the host's speed with a short fixed kernel and rescales
the process's CPU time by it.

The kernel runs in the measured process itself, on a wall-clock timer
(every ``SAMPLE_INTERVAL_S``) and at every explicit :meth:`RefClock.sample`
call, which the benchmark makes at each run-point boundary.  Its own CPU
time is subtracted from every interval the benchmark reports.  The CPU
time the program spends between two samples is charged at the speed the
earlier sample measured::

    reference seconds = CPU seconds * REFERENCE_KERNEL_S / kernel seconds

so a run on a host at reference speed reads its CPU seconds.

The kernel is stdlib-only and independent of the program's heap: it
walks a 256-entry dict and list of small ints and builds small records it
frees at once, and it runs with the garbage collector off, so a large
program heap cannot trigger a collection inside it.  This module never
imports the program under test.
"""

import gc
import signal
from itertools import repeat
from time import thread_time

#: Median kernel time (seconds) on the reference host: the 2-vCPU Xeon
#: VM this benchmark was calibrated on.  Changing it rescales every
#: reference-second figure, so it is fixed with the benchmark.
REFERENCE_KERNEL_S = 1.2e-4
#: Loop rounds of one timed kernel run, and of the untimed run before it.
KERNEL_ROUNDS = 800
WARMUP_ROUNDS = 100
#: Wall-clock period of the in-process speed samples.
SAMPLE_INTERVAL_S = 0.02

_DICT = {i: (i * 97 + 13) % 256 for i in range(256)}
_LIST = [(i * 45 + 7) % 256 for i in range(256)]


class _Record:
    __slots__ = ("key", "pair", "items")

    def __init__(self, key, pair, items):
        self.key = key
        self.pair = pair
        self.items = items


def kernel(rounds=KERNEL_ROUNDS):
    """Fixed loops in the shapes the simulator spends its time in:
    small-table dict and list lookups, and building and dropping small
    records.  Every object it builds is freed within the round, so the
    allocator reuses the same blocks whatever the program's heap holds.
    """
    table = _DICT
    items = _LIST
    value = 0
    for _ in repeat(None, rounds):
        value = table[value]
        value = items[value]
        value = table[value]
        value = items[value]
    kept = None
    for _ in repeat(None, rounds // 5):
        record = _Record(value, (value, kept), [value])
        kept = (record.key, record.pair[0], record.items[0])
        value = items[kept[1]]
    return value


def time_kernel():
    """CPU seconds of one ``KERNEL_ROUNDS`` kernel run, with the
    collector off.

    A short untimed run first reloads the caches the program evicted:
    timing the kernel cold made it slow down more than the program does
    when the host is busy.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel(WARMUP_ROUNDS)
        start = thread_time()
        kernel()
        return thread_time() - start
    finally:
        if enabled:
            gc.enable()


class RefClock:
    """This thread's CPU time, rescaled to a reference-speed host.

    :meth:`start` takes the first sample, which charges everything the
    process did before it (interpreter start-up) at that sample's speed,
    and arms the wall-clock sampler.  :meth:`now` reads reference
    seconds; :meth:`cpu` reads the raw CPU seconds behind them.  Both
    exclude the kernel's own time.
    """

    def __init__(self):
        #: CPU seconds spent sampling (kernel plus bookkeeping)
        self.kernel_s = 0.0
        self.samples = 0
        self.min_factor = None
        self.max_factor = None
        self._ref = 0.0         # reference seconds up to ``_mark``
        self._mark = 0.0        # program CPU seconds at the last sample
        self._factor = None     # speed factor of the last sample
        # set while clock state is read or written: a timer sample that
        # lands then is skipped rather than interleaved
        self._busy = False
        self._armed = False

    def start(self):
        """Take the first sample and arm the periodic sampler.

        The sampler is a wall-clock timer read with ``thread_time``:
        arming a process CPU timer (``ITIMER_PROF``) makes Linux update
        the process CPU clock only at scheduler ticks, which turns a
        0.1 ms kernel reading into 0 or 4 ms.
        """
        self.sample()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        self._armed = True

    def stop(self):
        """Disarm the periodic sampler (idempotent)."""
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._armed = False

    def _on_alarm(self, signum, frame):
        if not self._busy:
            self.sample()

    def sample(self):
        """Measure the host's speed now; returns :meth:`now` at the mark."""
        self._busy = True
        entered = thread_time()
        seconds = time_kernel()
        factor = REFERENCE_KERNEL_S / max(seconds, 1e-9)
        program = entered - self.kernel_s
        previous = self._factor if self._factor is not None else factor
        self._ref += (program - self._mark) * previous
        self._mark = program
        self._factor = factor
        self.samples += 1
        if self.min_factor is None or factor < self.min_factor:
            self.min_factor = factor
        if self.max_factor is None or factor > self.max_factor:
            self.max_factor = factor
        ref = self._ref
        self.kernel_s += thread_time() - entered
        self._busy = False
        return ref

    def now(self):
        """Reference seconds of program CPU time so far."""
        self._busy = True
        program = thread_time() - self.kernel_s
        ref = self._ref + (program - self._mark) * self._factor
        self._busy = False
        return ref

    def cpu(self):
        """Raw CPU seconds of program time so far (kernel excluded)."""
        self._busy = True
        program = thread_time() - self.kernel_s
        self._busy = False
        return program

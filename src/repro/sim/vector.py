"""The numpy-vectorized batch-advance simulation kernel.

:class:`VectorSimulation` is a drop-in :class:`~repro.sim.engine.Simulation`
that retires *runs* of plain timers with array operations instead of
one ``heappop`` per event.  It is selected with
``make_simulation(kernel="vector")`` (or ``--kernel vector`` on the
CLI) and is required to be **bit-identical** to the reference kernel:
the ``kernel-backend`` axis of :mod:`repro.verify.differential` holds a
seeded scenario fixed and demands equal outcome signatures from both
backends.

Timer store + one proxy event, one loop
---------------------------------------
There is no second event loop.  Every event that carries an object —
processes, timeouts someone waits on, interrupts, condition events,
the replay cursor — flows through the ordinary binary heap and is fired
by :meth:`Simulation.run`.  The vector kernel only adds an array store
for *pure* timers (no callback, no waiter) fed by
:meth:`VectorSimulation.schedule_timers`:

``_bt : float64[n]``
    due times, sorted;
``_bk : int64[n]``
    the engine's sequence numbers, so the store and the heap share one
    ``(time, key)`` total order;
``_bcur : int``
    index of the store head; entries before it are retired.

Whenever the store is non-empty, one shared proxy :class:`Event` sits
in the heap keyed at the store head's own ``(time, key)`` — the exact
heap entry a ``Timeout`` for that timer would have had.  Two
invariants make the proxy invisible:

* a proxy in the heap is always keyed at a still-pending timer (an
  earlier batch may leave extra proxies behind the newest one; they are
  discarded when they reach the heap head);
* proxies consume no sequence numbers, so every other event keeps the
  key it has on the reference kernel.

Batch boundary = next real heap entry
-------------------------------------
When the base loop pops the proxy, its callback retires every stored
timer that sorts before the next *real* heap entry (all of them if
none remains) with one ``searchsorted``, sets the clock to the last
retired time and re-arms the proxy at the new head.  Pure timers have
no callbacks, so no observer can distinguish firing them one at a time
from retiring them in bulk; telemetry counts events by difference
(:meth:`Simulation._pending`), so the retired run is counted too.

Float-determinism policy
------------------------
No tolerance windows: times stored in the float64 array are the same
IEEE doubles the heap tuples would carry (``float(np.float64)`` is
exact), sequence numbers are consumed identically, and comparisons use
the same ``(time, key)`` order, so outcomes are required to be
bit-identical — the differential oracle hashes them with no epsilon.
"""

from __future__ import annotations

from heapq import heappop, heappush

import numpy as np

from repro.sim.engine import Simulation
from repro.sim.events import Event

__all__ = [
    "KERNELS",
    "UnsupportedKernelFeature",
    "VectorSimulation",
    "make_simulation",
]

#: Selectable kernel backends, reference first.
KERNELS = ("reference", "vector")

_EMPTY_T = np.empty(0, dtype=np.float64)
_EMPTY_K = np.empty(0, dtype=np.int64)


class UnsupportedKernelFeature(RuntimeError):
    """A selected kernel cannot run the requested feature.

    Raised instead of silently falling back to another backend; the
    CLI maps it to exit code 2.
    """


def make_simulation(
    kernel: str = "reference", start: float = 0.0, telemetry=None
) -> Simulation:
    """Build a simulation on the selected kernel backend.

    ``kernel="reference"`` returns the plain heap-driven
    :class:`Simulation`; ``"vector"`` returns a
    :class:`VectorSimulation`.  Anything else raises ``ValueError`` —
    there is no silent fallback.
    """
    if kernel == "reference":
        return Simulation(start=start, telemetry=telemetry)
    if kernel == "vector":
        return VectorSimulation(start=start, telemetry=telemetry)
    raise ValueError(f"kernel must be one of {KERNELS}: {kernel!r}")


class VectorSimulation(Simulation):
    """Batch-advance kernel: heap for object events, arrays for timers.

    See the module docstring for the store layout and the batching
    rule.  All :class:`Simulation` APIs behave identically except
    :meth:`step`, which bulk retirement cannot honour event-by-event
    and therefore refuses (:class:`UnsupportedKernelFeature`).
    """

    kernel = "vector"

    __slots__ = ("_bt", "_bk", "_bcur", "_proxy", "_proxies")

    def __init__(self, start: float = 0.0, telemetry=None) -> None:
        super().__init__(start=start, telemetry=telemetry)
        self._bt = _EMPTY_T
        self._bk = _EMPTY_K
        self._bcur = 0
        #: The shared proxy event and how many heap entries carry it.
        #: Sharing one object keeps equal-keyed proxy entries
        #: comparable (tuple comparison stops at identity).
        self._proxy = proxy = Event(self)
        proxy._ok = True
        proxy._value = None
        proxy._callbacks = self._retire
        self._proxies = 0

    def schedule_timers(self, delays) -> int:
        """Schedule a whole batch of pure timers in one array operation.

        ``delays`` is a 1-D array-like of non-negative delays from
        ``now``.  Consumes one sequence number per timer — exactly what
        the same batch of ``sim.timeout(d)`` calls would consume — but
        allocates no :class:`Event` objects, so draining the batch is
        eligible for bulk retirement.  Returns the number scheduled.
        """
        arr = np.asarray(delays, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"delays must be 1-D, got shape {arr.shape}")
        n = int(arr.size)
        if n == 0:
            return 0
        if np.any(arr < 0):
            raise ValueError("negative timeout delay in batch")
        times = self._now + arr
        seq = self._seq
        keys = np.arange(seq + 1, seq + n + 1, dtype=np.int64)
        self._seq = seq + n
        bcur = self._bcur
        armed = None
        if bcur < self._bt.size:
            armed = self._bk[bcur]
            times = np.concatenate((self._bt[bcur:], times))
            keys = np.concatenate((self._bk[bcur:], keys))
        # Pending keys all precede the new ones and the pending segment
        # is already sorted, so a stable sort on time alone yields
        # ``(time, key)`` order.
        order = np.argsort(times, kind="stable")
        self._bt = times[order]
        self._bk = keys = keys[order]
        self._bcur = 0
        if armed is None or keys[0] != armed:
            self._arm()
        return n

    def _arm(self) -> None:
        """Push a proxy heap entry keyed at the store head."""
        bcur = self._bcur
        self._proxies += 1
        heappush(
            self._queue,
            (float(self._bt[bcur]), int(self._bk[bcur]), self._proxy),
        )

    def _retire(self, proxy: Event) -> None:
        """Proxy callback: retire the timers due before the next real event."""
        proxy._callbacks = self._retire
        queue = self._queue
        proxies = self._proxies - 1
        while queue and queue[0][2] is proxy:
            heappop(queue)
            proxies -= 1
        self._proxies = proxies
        bt = self._bt
        end = bt.size
        if queue:
            limit_t, limit_k = queue[0][0], queue[0][1]
            bk = self._bk
            bcur = self._bcur
            end = bcur + int(bt[bcur:].searchsorted(limit_t, side="left"))
            while end < bt.size and bt[end] == limit_t and bk[end] < limit_k:
                end += 1
        self._now = float(bt[end - 1])
        self._bcur = end
        if end < bt.size:
            self._arm()

    def close(self, processes=()) -> None:
        """Also empty the timer store and let go of the proxy event,
        whose callback is a bound method of this simulation."""
        super().close(processes)
        self._bt = _EMPTY_T
        self._bk = _EMPTY_K
        self._bcur = self._proxies = 0
        self._proxy = None

    def _pending(self) -> int:
        return len(self._queue) - self._proxies + self._bt.size - self._bcur

    def step(self) -> None:
        """Refused: bulk retirement has no single-event granularity."""
        raise UnsupportedKernelFeature(
            "the vector kernel advances in batches and does not support "
            "manual single-event stepping; use kernel='reference' for "
            "step()-driven debugging"
        )

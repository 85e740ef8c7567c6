"""Supervised worker processes: the stack's one process fan-out.

Both batch runners execute here.  Fleet campaigns (:mod:`repro.fleet`)
run long enough that the execution layer itself must be as
fault-tolerant as the storage it models — workers get SIGKILLed by the
OOM killer, wedge in uninterruptible sleep, or straggle an order of
magnitude behind their peers — and use all of it;
:class:`~repro.parallel.runner.SweepRunner` runs its cache misses on the
same workers with death detection and the retry policy only (no
heartbeat, deadline or speculation).  :class:`SupervisedRunner` feeds
tasks to a fixed set of supervised worker processes — forked per slot,
not per attempt — and supervises every attempt end to end.

Worker lifecycle: ``map()`` forks a worker the first time a slot is
needed, at most ``workers`` of them.  Right after the fork the
supervisor moves the worker of slot *k* onto the (*k*+1)-th allowed CPU
after its own and then hands it the whole set back, so the first worker
runs at once on a CPU the supervisor is not using, even where the
kernel does not balance forked children.  A worker loops
*receive a task index → run ``fn(**param_sets[index])`` → answer ``ok``
or ``err``* over one duplex pipe; under fork it inherits ``fn`` and the
parameter sets, so only the index crosses the pipe and parameters need
not be picklable (spawn-only platforms pickle the list once per
worker).  A worker that answers — a task that *raises* included — goes
back to the idle list and is handed the next ready attempt *before*
``on_result`` runs for the task it finished, so a checkpoint never
holds a slot idle.  **Kill and
refill:** a worker is never repaired; on pipe EOF, a missed deadline, missed
heartbeats, or when a speculative twin wins, the *worker* is
SIGTERM→SIGKILLed and joined, and the slot is refilled by a fresh fork
at the next launch.  An idle worker found dead at hand-over is replaced
the same way and no task is charged an attempt.  Workers belong to one
``map()`` call: all are reaped before it returns or raises, and the
runner instance holds none.  Should the supervisor itself be SIGKILLed,
a worker notices within a second of going idle that it is no longer
its child, and exits.

* **worker-death detection** — each worker holds a pipe to the
  supervisor; a killed worker closes it, and the EOF is observed on
  the next poll, not after a batch barrier;
* **heartbeats** — one daemon thread per worker, for its whole life,
  beats every ``heartbeat_interval`` seconds from the start of each
  task and never while the worker is idle, so a worker that is
  alive-but-frozen (SIGSTOP, D-state) is distinguished from one that
  is merely slow and is declared lost after ``heartbeat_grace`` missed
  beats; the progress probe is reset before each task, so no beat
  carries the previous task's progress;
* **hung-task deadline** — a task that exceeds ``task_timeout``
  wall-clock seconds (e.g. an accidental sleep-forever) is terminated
  and treated like any other failed attempt;
* **retries with seeded backoff** — every failure mode feeds one
  :class:`RetryPolicy`: exponential backoff with *deterministic*
  per-(task, attempt) jitter, so a thundering herd of retries spreads
  out identically on every run;
* **straggler re-dispatch** — once half the tasks have finished, a
  task running longer than ``straggler_factor`` times the median
  completion time is speculatively duplicated on a free slot; the
  first copy to finish wins and the loser is terminated.  Tasks are
  pure functions of their parameters, so speculation can never change
  a result, only its arrival time;
* **graceful degradation** — a task that exhausts its attempts is
  reported as a failed :class:`TaskOutcome` instead of poisoning the
  batch; callers salvage the completed remainder (see the campaign
  completeness fraction in :mod:`repro.fleet.campaign`).

Determinism contract: supervision affects *when* results arrive, never
*what* they are.  Task functions must be pure functions of their
kwargs (the :mod:`repro.parallel` rule), which makes retries and
speculative duplicates observationally free.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.obs.worker import PROBE, peak_rss_kb
from repro.parallel.cache import derive_seed

__all__ = ["RetryPolicy", "SupervisedRunner", "TaskOutcome"]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic, seeded jitter.

    ``max_attempts`` counts *all* attempts, the first included; the
    delay before attempt ``k+1`` is ``backoff_base *
    backoff_multiplier**(k-1)`` capped at ``backoff_max`` and shrunk by
    up to ``jitter`` (a fraction) using a hash of ``(seed, task,
    attempt)`` — the same task retries at the same instants on every
    run, but different tasks never retry in lockstep.
    """

    max_attempts: int = 3
    backoff_base: float = 0.5
    backoff_multiplier: float = 2.0
    backoff_max: float = 30.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {self.max_attempts}")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError(
                f"backoff_multiplier must be >= 1: {self.backoff_multiplier}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1]: {self.jitter}")

    def delay(self, attempt: int, task_index: int = 0) -> float:
        """Backoff before retrying after ``attempt`` failed tries (>= 1)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1: {attempt}")
        base = min(
            self.backoff_max,
            self.backoff_base * self.backoff_multiplier ** (attempt - 1),
        )
        if base == 0.0 or self.jitter == 0.0:
            return base
        unit = derive_seed(self.seed, attempt * 1_000_003 + task_index) / float(
            1 << 63
        )
        return base * (1.0 - self.jitter * unit)


@dataclass
class TaskOutcome:
    """What supervision observed for one task, success or not."""

    index: int
    ok: bool = False
    value: Any = None
    error: Optional[str] = None
    #: Attempts actually started (1 for a clean first-try success).
    attempts: int = 0
    #: Attempts terminated by the hung-task deadline.
    timeouts: int = 0
    #: Attempts that ended with the worker process dying.
    worker_deaths: int = 0
    #: Attempts whose heartbeats stopped while the task kept running.
    stalls: int = 0
    #: Wall-clock duration of the winning (or final failing) attempt.
    duration: float = 0.0
    #: Speculative duplicates launched for this task.
    speculated: int = 0
    #: Last progress sample shipped with a heartbeat (the worker-side
    #: :data:`repro.obs.worker.PROBE` payload), if any arrived.
    last_progress: Optional[dict] = None
    #: Wall-clock (``time.time``) moment the task last *advanced* —
    #: not merely beat — so a degraded campaign can say when a shard
    #: actually wedged, not when supervision gave up on it.
    last_progress_time: Optional[float] = None
    #: Highest ``ru_maxrss`` shipped with this task's heartbeats and
    #: replies, if the worker platform reports it.  That is a
    #: process-lifetime high-water mark and workers are reused: it reads
    #: "peak of the worker up to that message", earlier tasks included,
    #: not "peak of this attempt".
    peak_rss_kb: Optional[int] = None


class _Heartbeat:
    """One worker's beat thread, and the result sends that share its pipe
    (``Connection.send`` is not thread-safe).

    The thread lives as long as the worker.  While a task runs it beats
    at ``start + k * interval`` of that task; while the worker is idle
    it only naps, one interval at a time, so whenever a task begins the
    thread wakes no later than the task's first beat is due and no wake
    is needed.  :meth:`reply` marks the task over under the same lock
    the beats are sent under: no beat follows a task's result onto the
    pipe, where the supervisor would book it, and the progress it
    carries, on the worker's *next* task.  With ``interval <= 0`` there
    is no thread.
    """

    def __init__(self, conn, interval: float) -> None:
        self._conn = conn
        self._interval = interval
        self._lock = threading.Lock()
        self._busy = False
        self._closed = False
        self._due = 0.0
        if interval > 0:
            threading.Thread(target=self._run, daemon=True).start()

    def begin(self) -> None:
        """A task starts now: its first beat is due one interval on."""
        with self._lock:
            self._busy = True
            self._due = time.monotonic() + self._interval

    def reply(self, message) -> None:
        """End the running task with ``message``, its result."""
        with self._lock:
            self._busy = False
            self._conn.send(message)

    def close(self) -> None:
        """The worker is exiting: no beat from here on."""
        with self._lock:
            self._busy = False
            self._closed = True

    def _run(self) -> None:
        interval = self._interval
        while True:
            with self._lock:
                if self._closed:
                    return
                now = time.monotonic()
                nap = interval
                if self._busy:
                    if self._due <= now:
                        try:
                            self._conn.send(("hb", PROBE.payload()))
                        except Exception:
                            return
                        while self._due <= now:  # skip beats a stall missed
                            self._due += interval
                    nap = self._due - now
            time.sleep(nap)


def _current_cpu() -> Optional[int]:
    """The CPU the calling thread last ran on (field 39 of its
    ``/proc`` ``stat`` line), or ``None`` where that cannot be read."""
    try:
        with open("/proc/thread-self/stat", "rb") as handle:
            return int(handle.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _slot_cpu(
    slot: int, allowed, current: Optional[int] = None
) -> Optional[int]:
    """The CPU worker slot ``slot`` starts on: the CPUs of ``allowed`` in
    ascending order, round-robin, slot 0 taking the first one after
    ``current`` (the supervisor's CPU) — or, with ``current`` unknown or
    outside the set, the lowest.  ``None`` when there is no choice to
    make (one CPU, or a platform without affinity calls)."""
    if len(allowed) < 2:
        return None
    cpus = sorted(allowed)
    first = cpus.index(current) + 1 if current in allowed else 0
    return cpus[(first + slot) % len(cpus)]


def _place(pid: int, slot: int) -> None:
    """Move the freshly forked worker ``pid`` onto its slot's CPU, then
    hand it back the supervisor's whole mask.

    A scheduler that does not balance load across CPUs
    (``cpuset.sched_load_balance = 0``) leaves a forked child on its
    parent's CPU, where it cannot run until the supervisor yields — after
    forking every other worker.  The one-CPU mask migrates the waiting
    child at once; restoring the whole mask leaves it free to move
    again, so nothing is pinned.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    try:
        allowed = os.sched_getaffinity(0)
        cpu = _slot_cpu(slot, allowed, _current_cpu())
        if cpu is None:
            return
        os.sched_setaffinity(pid, {cpu})
        os.sched_setaffinity(pid, allowed)
    except OSError:
        pass  # the worker already died, or a CPU went offline


def _supervised_worker(
    conn, fn, param_sets, heartbeat_interval, supervisor
) -> None:
    """Worker entry point: serve task indices until the supervisor is gone.

    Each index received runs ``fn(**param_sets[index])`` with a reset
    :data:`PROBE` under the worker's one :class:`_Heartbeat` (so the
    beat interval restarts with the task), and answers ``("ok", value,
    rss_kb)`` or ``("err", message, rss_kb)``, ``rss_kb`` being the
    worker's peak RSS so far (a task shorter than one beat sends no
    other).  An ``Exception`` is an answer and the worker carries on;
    ``SystemExit`` / ``KeyboardInterrupt`` and a result that cannot be
    sent end the process, which the supervisor reads as a death.
    ``supervisor`` is the pid this worker must stay a child of.
    """
    # Everything alive here was inherited from the supervisor (fork) or
    # made by importing this module (spawn) and lives as long as the
    # worker: move it out of the collector's sight, so that a task's
    # full collection neither traverses the driver's heap nor
    # copy-on-write-faults every page of it.
    gc.freeze()
    beat = _Heartbeat(conn, heartbeat_interval)
    try:
        while True:
            # A forked worker holds a copy of the supervisor's end of its
            # own pipe (and of every pipe open at its fork), so a
            # SIGKILLed supervisor need not read as EOF: an idle worker
            # also watches whose child it is.
            while not conn.poll(1.0):
                if os.getppid() != supervisor:
                    return
            index = conn.recv()
            PROBE.reset()
            beat.begin()
            try:
                message = ("ok", fn(**param_sets[index]))
            except Exception as exc:
                message = ("err", f"{type(exc).__name__}: {exc}")
            beat.reply(message + (peak_rss_kb(),))
    except (EOFError, OSError):
        pass  # supervisor gone
    finally:
        beat.close()
        conn.close()


class _Worker:
    """One worker process and, while it is busy, the attempt it runs."""

    __slots__ = (
        "process", "conn", "slot",
        "index", "attempt", "started", "last_beat", "speculative",
    )

    def __init__(self, process, conn, slot):
        self.process = process
        self.conn = conn
        self.slot = slot


@dataclass
class _Pending:
    """A task attempt waiting for a slot (possibly in backoff)."""

    index: int
    attempt: int
    ready_at: float = 0.0


class SupervisedRunner:
    """Run pure tasks under full supervision (see module docstring).

    Parameters
    ----------
    workers:
        Maximum concurrently running worker processes (default: CPU
        count).  ``0``/``1`` still supervises — one worker at a time —
        because supervision, not parallelism, is the point here.
    task_timeout:
        Hung-task deadline in wall-clock seconds per attempt
        (``None`` disables).
    heartbeat_interval:
        Worker heartbeat period in seconds (``0`` disables heartbeats
        and stall detection).
    heartbeat_grace:
        Missed-beat multiplier: a worker silent for
        ``heartbeat_grace * heartbeat_interval`` seconds is lost.
    retry:
        :class:`RetryPolicy`; default three attempts with jittered
        exponential backoff.
    straggler_factor:
        Speculative re-dispatch threshold as a multiple of the median
        completed duration (``None`` disables speculation).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`;
        supervision counters land in it under ``supervise.*``.
    """

    _POLL = 0.05  # max seconds between supervision sweeps

    def __init__(
        self,
        workers: Optional[int] = None,
        task_timeout: Optional[float] = None,
        heartbeat_interval: float = 1.0,
        heartbeat_grace: float = 5.0,
        retry: Optional[RetryPolicy] = None,
        straggler_factor: Optional[float] = None,
        metrics=None,
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        self.workers = max(1, int(workers))
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive: {task_timeout}")
        self.task_timeout = task_timeout
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_grace = float(heartbeat_grace)
        self.retry = retry if retry is not None else RetryPolicy()
        if straggler_factor is not None and straggler_factor <= 1.0:
            raise ValueError(
                f"straggler_factor must exceed 1: {straggler_factor}"
            )
        self.straggler_factor = straggler_factor
        self.metrics = metrics
        # Fork keeps task functions defined in __main__ usable, lets a
        # worker inherit the parameter sets instead of unpickling them
        # and skips re-importing the world; spawn-only platforms fall
        # back to their default.
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else None)

    # -- internals -----------------------------------------------------------

    def _spawn(self, fn, param_sets, slot: int) -> _Worker:
        """Fork the worker of ``slot`` and :func:`_place` it."""
        parent, child = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_supervised_worker,
            args=(child, fn, param_sets, self.heartbeat_interval, os.getpid()),
            daemon=True,
        )
        process.start()
        _place(process.pid, slot)
        child.close()
        self._count("supervise.spawns")
        return _Worker(process, parent, slot)

    @staticmethod
    def _reap(workers: Sequence[_Worker]) -> None:
        """SIGTERM (then SIGKILL) every worker in ``workers`` and join it."""
        for worker in workers:
            worker.process.terminate()
        for worker in workers:
            try:
                worker.process.join(timeout=2.0)
                if worker.process.is_alive():
                    worker.process.kill()
                    worker.process.join(timeout=2.0)
            finally:
                worker.conn.close()

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    # -- the supervision loop ------------------------------------------------

    def map(
        self,
        fn: Callable,
        param_sets: Sequence[dict],
        on_result: Optional[Callable[[TaskOutcome], None]] = None,
        on_event: Optional[Callable[[str, int, dict], None]] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> List[TaskOutcome]:
        """Supervise ``fn(**params)`` for every parameter set.

        Returns one :class:`TaskOutcome` per input, in input order;
        failed tasks come back with ``ok=False`` and the last error
        rather than raising, so a batch always completes.  ``on_result``
        fires once per task the moment its outcome is final (completion
        order, not input order) — campaigns use it to checkpoint shards
        as they land rather than after a barrier.  It runs after the
        sweep that booked the outcome has handed the freed worker its
        next ready attempt, never while a slot waits on it.

        ``on_event`` is a purely observational stream for monitors:
        ``(kind, task_index, info)`` with kinds ``attempt_started``,
        ``heartbeat``, ``attempt_failed`` and ``attempt_ok``.  It is
        exception-isolated — a broken observer degrades monitoring,
        never supervision.

        ``should_stop`` is a cooperative cancellation probe, polled
        once per supervision sweep (so within ``_POLL`` seconds).  When
        it returns ``True`` every in-flight attempt is terminated, the
        queue is abandoned, and each unfinished task's outcome comes
        back ``ok=False`` with ``error="cancelled"`` — ``on_result`` is
        *not* fired for them, so checkpointing callers never journal a
        cancelled task.  Already-finished tasks keep their results, and
        ``on_result`` still fires for each of them.

        The worker processes belong to this call: they are forked as
        slots are first needed and all reaped before it returns or
        raises, so concurrent ``map()`` calls on one runner share
        nothing.
        """
        outcomes = [TaskOutcome(index=i) for i in range(len(param_sets))]

        def emit(kind: str, index: int, info: dict) -> None:
            if on_event is None:
                return
            try:
                on_event(kind, index, info)
            except Exception:
                pass
        queue: deque = deque(_Pending(i, 0) for i in range(len(param_sets)))
        running: Dict[Any, _Worker] = {}  # conn -> busy worker
        idle: List[_Worker] = []
        done: set = set()
        landed: deque = deque()  # final outcomes on_result has not seen
        durations: List[float] = []
        self._count("supervise.tasks", len(param_sets))

        def pop_ready(now: float) -> Optional[_Pending]:
            """First queued attempt whose backoff has elapsed."""
            for position, pending in enumerate(queue):
                if pending.ready_at <= now:
                    del queue[position]
                    return pending
            return None

        def engage(index: int) -> _Worker:
            """Hand task ``index`` to an idle worker, else to a fresh one
            in the lowest slot no running worker holds."""
            while idle:
                worker = idle.pop()
                try:
                    worker.conn.send(index)
                    return worker
                except OSError:
                    # Died while idle: replaced, and no task is charged.
                    self._reap([worker])
            taken = {w.slot for w in running.values()}
            slot = next(s for s in range(self.workers) if s not in taken)
            worker = self._spawn(fn, param_sets, slot)
            try:
                worker.conn.send(index)
            except OSError:
                pass  # stillborn; the EOF on the next poll reports the death
            return worker

        def launch(index: int, attempt: int, now: float, speculative: bool) -> None:
            worker = engage(index)
            worker.index = index
            worker.attempt = attempt
            worker.started = worker.last_beat = now
            worker.speculative = speculative
            running[worker.conn] = worker
            outcomes[index].attempts += 1
            emit(
                "attempt_started", index,
                {
                    "attempt": attempt,
                    "speculative": speculative,
                    "pid": worker.process.pid,
                },
            )

        def book_rss(outcome: TaskOutcome, rss: Optional[int]) -> None:
            if rss is not None:
                outcome.peak_rss_kb = max(outcome.peak_rss_kb or 0, int(rss))

        def finish(outcome: TaskOutcome) -> None:
            done.add(outcome.index)
            if not outcome.ok:
                self._count("supervise.failed")
            if on_result is not None:
                landed.append(outcome)

        def report() -> None:
            """``on_result`` for every outcome finished since the last
            call, in completion order."""
            while landed:
                on_result(landed.popleft())

        def retire(worker: _Worker, now: float, kind: str, error: str) -> None:
            """An attempt failed; retry with backoff or finalise.

            A worker that answered ``err`` is sound and goes back to the
            idle list; after a death, deadline or stall it is killed and
            its slot refilled by a fresh fork on the next launch.
            """
            del running[worker.conn]
            if kind == "error":
                idle.append(worker)
            else:
                self._reap([worker])
            if worker.index in done:
                return  # a speculative twin already won
            emit(
                "attempt_failed", worker.index,
                {
                    "attempt": worker.attempt,
                    "kind": kind,
                    "error": error,
                    "duration": now - worker.started,
                },
            )
            outcome = outcomes[worker.index]
            outcome.error = error
            outcome.duration = now - worker.started
            if kind == "timeout":
                outcome.timeouts += 1
                self._count("supervise.timeouts")
            elif kind == "stall":
                outcome.stalls += 1
                self._count("supervise.stalls")
            elif kind == "death":
                outcome.worker_deaths += 1
                self._count("supervise.worker_deaths")
            else:
                self._count("supervise.errors")
            # Another in-flight copy of the same task keeps its chance.
            if any(w.index == worker.index for w in running.values()):
                return
            if worker.attempt >= self.retry.max_attempts:
                finish(outcome)
                return
            self._count("supervise.retries")
            queue.append(
                _Pending(
                    worker.index,
                    worker.attempt,
                    ready_at=now + self.retry.delay(worker.attempt, worker.index),
                )
            )

        def succeed(worker: _Worker, now: float, value: Any) -> None:
            del running[worker.conn]
            idle.append(worker)
            if worker.index in done:
                return
            emit(
                "attempt_ok", worker.index,
                {"attempt": worker.attempt, "duration": now - worker.started},
            )
            outcome = outcomes[worker.index]
            outcome.ok = True
            outcome.value = value
            outcome.error = None
            outcome.duration = now - worker.started
            durations.append(outcome.duration)
            # Kill the losing twins (speculation).  No retry of this task
            # can be queued: one is queued only when no copy is in flight.
            twins = [w for w in running.values() if w.index == worker.index]
            for twin in twins:
                del running[twin.conn]
            self._reap(twins)
            finish(outcome)

        stopped = False
        try:
            while queue or running:
                if should_stop is not None and should_stop():
                    stopped = True
                    self._count("supervise.cancelled_sweeps")
                    break
                now = time.monotonic()
                # Launch everything ready while slots are free.
                while len(running) < self.workers and queue:
                    pending = pop_ready(now)
                    if pending is None:
                        break
                    if pending.index in done:
                        continue
                    launch(pending.index, pending.attempt + 1, now, False)
                    self._count("supervise.attempts")
                # Speculative straggler re-dispatch.
                if (
                    self.straggler_factor is not None
                    and len(running) < self.workers
                    and not queue
                    and len(durations) * 2 >= len(param_sets)
                    and durations
                ):
                    median = sorted(durations)[len(durations) // 2]
                    threshold = self.straggler_factor * max(median, self._POLL)
                    for worker in list(running.values()):
                        if len(running) >= self.workers:
                            break
                        if worker.speculative or now - worker.started < threshold:
                            continue
                        copies = sum(
                            1 for w in running.values() if w.index == worker.index
                        )
                        if copies > 1:
                            continue
                        launch(worker.index, worker.attempt, now, True)
                        outcomes[worker.index].speculated += 1
                        self._count("supervise.speculative")
                # Every freed slot has its next attempt: now checkpoint.
                report()
                if not running:
                    if queue:
                        wake = min(p.ready_at for p in queue)
                        time.sleep(min(max(wake - now, 0.0), self._POLL) or 0.001)
                    continue
                for conn in mp_connection.wait(list(running), timeout=self._POLL):
                    worker = running.get(conn)
                    if worker is None:
                        continue
                    now = time.monotonic()
                    try:
                        kind, payload, *reply = conn.recv()
                    except (EOFError, OSError):
                        retire(
                            worker, now, "death",
                            f"worker pid={worker.process.pid} died "
                            f"(attempt {worker.attempt})",
                        )
                        continue
                    if kind == "hb":
                        worker.last_beat = now
                        outcome = outcomes[worker.index]
                        if isinstance(payload, dict):
                            previous = (outcome.last_progress or {}).get(
                                "done", -1
                            )
                            if payload.get("done", 0) > previous:
                                outcome.last_progress_time = time.time()
                            outcome.last_progress = payload
                            book_rss(outcome, payload.get("rss_kb"))
                        emit(
                            "heartbeat", worker.index,
                            {"attempt": worker.attempt, "payload": payload},
                        )
                        continue
                    # A reply carries the worker's peak RSS too: a task
                    # shorter than one heartbeat ships it nowhere else.
                    book_rss(outcomes[worker.index], *reply)
                    if kind == "ok":
                        succeed(worker, now, payload)
                    else:
                        retire(worker, now, "error", str(payload))
                # Deadline / heartbeat sweeps.
                now = time.monotonic()
                for worker in list(running.values()):
                    if (
                        self.task_timeout is not None
                        and now - worker.started > self.task_timeout
                    ):
                        retire(
                            worker, now, "timeout",
                            f"task exceeded {self.task_timeout:.3g}s deadline "
                            f"(attempt {worker.attempt})",
                        )
                    elif (
                        self.heartbeat_interval > 0
                        and now - worker.last_beat
                        > self.heartbeat_grace * self.heartbeat_interval
                    ):
                        progress = outcomes[worker.index].last_progress
                        note = (
                            f", last progress {progress.get('done')}"
                            f"/{progress.get('total')}"
                            if progress
                            else ""
                        )
                        retire(
                            worker, now, "stall",
                            f"no heartbeat for "
                            f"{now - worker.last_beat:.3g}s "
                            f"(attempt {worker.attempt}{note})",
                        )
            report()  # the last results, or those landed before a stop
        finally:
            # Normal return, should_stop, KeyboardInterrupt or a raising
            # on_result: no worker outlives the call.
            self._reap(list(running.values()) + idle)
        if stopped:
            for outcome in outcomes:
                if outcome.index in done:
                    continue
                outcome.ok = False
                outcome.error = "cancelled"
                self._count("supervise.cancelled")
        return outcomes

"""Dispatch loop: feeds queued jobs to :class:`CampaignRunner` pools.

The scheduler owns the execution side of the service: a small
dispatcher thread claims jobs from the :class:`~repro.service.queue.
JobQueue` (fair-share, quota-capped) and hands each to a slot in a
thread pool.  Each slot runs one campaign end to end — journal under
``campaigns/<job id>``, a :class:`~repro.obs.monitor.CampaignMonitor`
that answers the API's live status (:meth:`CampaignScheduler.
live_status`) and appends the ``events.jsonl`` its streaming endpoint
relays, and the queue's cancel flag wired into the runner's
``should_stop`` poll.

Outcome mapping::

    CampaignResult            → done   (metrics payload on the job)
    CampaignCancelled + flag  → cancelled
    CampaignCancelled + drain → released back to queued (resume later)
    anything else             → failed (message on the job)

Because every campaign checkpoints per shard, none of these paths can
duplicate work: a resumed or retried job replays completed shards from
the journal as cache hits.

Dispatch is event-driven: the dispatcher blocks, with no timeout, on
the queue's :attr:`~repro.service.queue.JobQueue.wakeup` event, which
is raised wherever a job can become claimable (``submit``, ``release``)
or a slot can become free (the end of :meth:`CampaignScheduler.
_execute`, which follows the job's ``finish`` and so covers a client's
quota too), and by :meth:`CampaignScheduler.stop`.  Each round is
*clear → claim until nothing is claimable or no slot is free → wait*:
a signal raised after the clear leaves the event set, so the wait
returns at once and the next round claims; one raised before the clear
is followed by that round's own claim.  No wake-up can be lost and no
fallback timer is needed: an idle service makes no claim attempts, and
a job submitted to one is claimed at once.

Claims are rate-limited, though: at most ``max_jobs`` of them start in
any :attr:`CampaignScheduler.claim_spacing` window, so a slot is
refilled no sooner than that after it was last filled.  Every thread
of the service shares one interpreter lock; a closed loop of callers
that always has the next job queued would otherwise keep the slots
busy all the time, the API would answer each request only between a
campaign's bytecodes, and the job rate would be whatever the host's
CPU speed is that minute.  The spacing is the one timed wait on the
dispatch path; it is entered only when a claim comes due sooner than
the spacing after an earlier one, and :meth:`CampaignScheduler.stop`
cuts it short.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional

from repro.fleet.campaign import CampaignCancelled, CampaignRunner
from repro.fleet.spec import spec_from_dict
from repro.obs.monitor import CampaignMonitor
from repro.parallel.supervise import RetryPolicy
from repro.service.queue import Job, JobQueue

__all__ = ["CampaignScheduler"]


class CampaignScheduler:
    """Runs queued campaigns until stopped.

    Parameters
    ----------
    queue:
        The persistent job queue.
    campaigns_dir:
        Root for per-job journal + observability directories.
    max_jobs:
        Campaigns executing concurrently (thread-pool slots).
    workers:
        Worker processes *per campaign* (``0``/``1`` = serial shards).
    client_quota:
        Max running jobs per client (``0`` = unlimited).
    task_timeout, max_attempts:
        Per-shard supervision knobs, forwarded to the runner.
    """

    #: Seconds in which at most ``max_jobs`` claims start (see the
    #: module docstring): about two tiny campaigns' slot time, so that
    #: under saturation the API keeps half of the interpreter.
    claim_spacing = 0.028

    def __init__(
        self,
        queue: JobQueue,
        campaigns_dir,
        max_jobs: int = 1,
        workers: int = 0,
        client_quota: int = 0,
        task_timeout: Optional[float] = None,
        max_attempts: int = 3,
    ) -> None:
        self.queue = queue
        self.campaigns_dir = str(campaigns_dir)
        os.makedirs(self.campaigns_dir, exist_ok=True)
        self.max_jobs = max(1, int(max_jobs))
        self.workers = workers
        self.client_quota = client_quota
        self.task_timeout = task_timeout
        self.max_attempts = max(1, int(max_attempts))
        self._stop = threading.Event()
        self._dispatcher: Optional[threading.Thread] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._inflight: Dict[str, object] = {}
        #: Running jobs' monitors, by job id (under ``_inflight_lock``).
        self._monitors: Dict[str, CampaignMonitor] = {}
        self._inflight_lock = threading.Lock()
        #: ``"Type: message"`` of the last exception a dispatch round
        #: raised (the round's jobs stay ``queued``); ``None`` so far.
        self.last_error: Optional[str] = None
        #: ``time.monotonic()`` of the latest ``max_jobs`` claims.
        self._claimed: deque = deque(maxlen=self.max_jobs)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._dispatcher is not None:
            raise RuntimeError("scheduler already started")
        self._stop.clear()
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_jobs, thread_name_prefix="repro-campaign"
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-dispatch", daemon=True
        )
        self._dispatcher.start()

    def stop(self) -> None:
        """Drain: stop claiming, ask running campaigns to pause.

        In-flight campaigns see ``should_stop`` fire, checkpoint what
        they finished, and are *released* back to ``queued`` — the next
        service picks them up as resumes.
        """
        self._stop.set()
        self.queue.wakeup.set()
        if self._dispatcher is not None:
            self._dispatcher.join()
            self._dispatcher = None
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    @property
    def alive(self) -> bool:
        """Whether the dispatcher thread is running."""
        return self._dispatcher is not None and self._dispatcher.is_alive()

    def job_dir(self, job_id: str) -> str:
        return os.path.join(self.campaigns_dir, job_id)

    def obs_dir(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "obs")

    def events_path(self, job_id: str) -> str:
        return os.path.join(self.obs_dir(job_id), "events.jsonl")

    def live_status(self, job_id: str) -> Optional[dict]:
        """A running job's :meth:`CampaignMonitor.status`; ``None`` once
        it has ended (the fold of its ``events.jsonl`` then gives the last
        one)."""
        with self._inflight_lock:
            monitor = self._monitors.get(job_id)
        return None if monitor is None else monitor.status()

    # -- dispatch ------------------------------------------------------------

    def _slots_free(self) -> bool:
        with self._inflight_lock:
            return len(self._inflight) < self.max_jobs

    def _dispatch_loop(self) -> None:
        wakeup = self.queue.wakeup
        while True:
            # Clear before looking, so a signal raised from here on
            # survives to the wait below (see the module docstring).
            wakeup.clear()
            if self._stop.is_set():
                return
            try:
                self._dispatch_round()
            except Exception as exc:
                # The queue commits a claim only once it is on disk, so
                # the job is still ``queued`` and the next wake-up (any
                # submit or slot release) claims it: no retry loop here.
                self.last_error = f"{type(exc).__name__}: {exc}"
            wakeup.wait()

    def _dispatch_round(self) -> None:
        """Fill free slots with claimable jobs, ``claim_spacing`` apart."""
        while self._slots_free():
            if len(self._claimed) == self.max_jobs:
                pause = self._claimed[0] + self.claim_spacing - time.monotonic()
                if pause > 0 and self._stop.wait(pause):
                    return
            job = self.queue.claim_next(self.client_quota)
            if job is None:
                return
            self._claimed.append(time.monotonic())
            with self._inflight_lock:
                self._inflight[job.id] = self._pool.submit(self._execute, job)

    def _execute(self, job: Job) -> None:
        try:
            self._run_job(job)
        except Exception:  # pragma: no cover - defensive: keep the slot alive
            try:
                self.queue.finish(job.id, "failed", error=traceback.format_exc(limit=20))
            except Exception:
                pass
        finally:
            with self._inflight_lock:
                self._inflight.pop(job.id, None)
                self._monitors.pop(job.id, None)
            self.queue.wakeup.set()

    def _run_job(self, job: Job) -> None:
        spec = spec_from_dict(job.spec)
        jdir = self.job_dir(job.id)
        os.makedirs(jdir, exist_ok=True)
        monitor = CampaignMonitor(self.obs_dir(job.id))
        with self._inflight_lock:
            self._monitors[job.id] = monitor

        def should_stop() -> bool:
            if self._stop.is_set():
                return True
            try:
                return self.queue.get(job.id).cancel_requested
            except KeyError:  # pragma: no cover - record vanished underneath us
                return True

        runner = CampaignRunner(
            spec,
            journal_dir=os.path.join(jdir, "journal"),
            workers=self.workers,
            task_timeout=self.task_timeout,
            retry=RetryPolicy(max_attempts=self.max_attempts, seed=spec.seed),
            monitor=monitor,
            should_stop=should_stop,
        )
        try:
            result = runner.run()
        except CampaignCancelled as exc:
            if self.queue.get(job.id).cancel_requested:
                self.queue.finish(job.id, "cancelled", error=str(exc))
            else:
                # Drain, not cancel: hand the job back for a later resume.
                self.queue.release(job.id)
            return
        except Exception as exc:
            self.queue.finish(
                job.id, "failed", error=f"{type(exc).__name__}: {exc}"
            )
            return
        payload = {
            "campaign_digest": job.id,
            "metrics": result.metrics_dict(),
            "shards_total": result.shards_total,
            "shards_completed": result.shards_completed,
            "shards_resumed": result.shards_resumed,
            "shards_failed": result.shards_failed,
            "completeness": result.completeness,
            "supervision": dict(result.supervision),
        }
        self.queue.finish(job.id, "done", result=payload)

"""Persistent, content-addressed campaign job queue.

The orchestration service's source of truth.  Every job is one file,
``jobs/<id>.json``, written with the same atomic temp-file +
``os.replace`` pattern the result cache uses for its entries: a
crash can lose at most the *latest* transition, never corrupt a
record.  The job id is :func:`~repro.fleet.spec.campaign_digest` of
the submitted spec, so identical campaigns are identical jobs —
resubmission is answered from the existing record and never schedules
duplicate work.

States and transitions::

    queued ──claim──▶ running ──finish──▶ done | failed
      │                  │
      │ cancel           │ cancel flag, honoured by the runner's
      ▼                  ▼ ``should_stop`` poll
    cancelled         cancelled

``release`` moves ``running`` back to ``queued`` (service drain: the
shards already checkpointed stay in the journal, so the re-claim is a
resume, not a redo).  Recovery on open does the same for any job a
dead service left ``running`` — unless its cancel flag was up, in
which case it lands in ``cancelled``.  Either way an opened queue
never contains an orphaned ``running`` entry.

Ordering is made *assertable*, not just fair on average: every
transition stamps a monotone sequence number (``seq`` at submit,
``started_seq`` at claim, ``finished_seq`` at finish), so tests can
check "B's first job started before A's second" as a total order
instead of sampling timings.

A transition is durable before it is visible: each one builds the next
record as a copy, writes it, and only after ``os.replace`` returned
swaps it into memory and advances the sequence counters.  A write that
fails (``ENOSPC``) therefore leaves memory, disk and a reopened queue
agreeing on the *old* record, and the retried transition gets the
sequence number the failed one would have had.

The queue also owns the dispatcher's wake-up signal, :attr:`JobQueue.
wakeup`: a :class:`threading.Event` raised whenever a job becomes
claimable (``submit`` of a new or requeued job, ``release``).  The
scheduler raises it as well when a slot frees, and blocks on it instead
of polling — so anything that drives a ``JobQueue`` without the HTTP
layer wakes the dispatcher just the same.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.fleet.spec import campaign_digest, spec_from_dict, spec_to_dict

__all__ = [
    "ACTIVE_STATES",
    "Job",
    "JobQueue",
    "QueueError",
    "TERMINAL_STATES",
]

#: States a job can be observed in.
STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})
ACTIVE_STATES = frozenset({"queued", "running"})


class QueueError(ValueError):
    """Malformed submission or an impossible state transition."""


@dataclass
class Job:
    """One campaign job; the on-disk record is :meth:`to_dict`."""

    id: str
    spec: dict
    client: str
    state: str = "queued"
    #: Monotone submission order (first submission; dedup keeps it).
    seq: int = 0
    #: Monotone claim order; ``-1`` until first claimed.
    started_seq: int = -1
    #: Monotone completion order; ``-1`` until terminal.
    finished_seq: int = -1
    #: Times this job was claimed (resumes and retries included).
    attempts: int = 0
    cancel_requested: bool = False
    error: Optional[str] = None
    #: Scheduler-written payload (metrics, completeness, ...) for
    #: ``done`` jobs.
    result: Optional[dict] = None
    shards_total: int = 0
    created: float = 0.0
    updated: float = 0.0
    #: Wall clock of the latest claim and of reaching a terminal state;
    #: ``0.0`` until set, and again after a requeue by resubmission.
    started: float = 0.0
    finished: float = 0.0

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "spec": self.spec,
            "client": self.client,
            "state": self.state,
            "seq": self.seq,
            "started_seq": self.started_seq,
            "finished_seq": self.finished_seq,
            "attempts": self.attempts,
            "cancel_requested": self.cancel_requested,
            "error": self.error,
            "result": self.result,
            "shards_total": self.shards_total,
            "created": self.created,
            "updated": self.updated,
            "started": self.started,
            "finished": self.finished,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Job":
        fields = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(data) - fields
        if unknown:
            raise QueueError(f"job record has unknown fields: {sorted(unknown)}")
        missing = {"id", "spec", "client"} - set(data)
        if missing:
            raise QueueError(f"job record missing fields: {sorted(missing)}")
        job = cls(**data)
        if job.state not in STATES:
            raise QueueError(f"job {job.id}: unknown state {job.state!r}")
        return job


class JobQueue:
    """Crash-safe on-disk queue with content-addressed dedup.

    All methods are thread-safe (one lock; every mutation persists the
    next record before it becomes visible).  Reads return *copies* so
    callers can never mutate queue state behind the lock's back.
    """

    def __init__(self, root) -> None:
        self.root = str(root)
        self.jobs_dir = os.path.join(self.root, "jobs")
        os.makedirs(self.jobs_dir, exist_ok=True)
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._seq = 0
        self._started_seq = 0
        self._finished_seq = 0
        self._recovered: List[str] = []
        #: Raised whenever a job becomes claimable; the dispatcher blocks
        #: on it (and raises it itself when a slot frees or it stops).
        self.wakeup = threading.Event()
        self._load()

    # -- persistence ---------------------------------------------------------

    def _path(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, f"{job_id}.json")

    def _persist(self, job: Job) -> None:
        path = self._path(job.id)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(job.to_dict(), handle, sort_keys=True)
                handle.write("\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _commit(self, job: Job, **changes) -> Job:
        """Persist ``job`` with ``changes`` applied, then make it visible.

        The live record is replaced only after the write succeeded, so
        a failing ``_persist`` leaves the queue as it was.  Callers
        advance their sequence counter after this returns.
        """
        record = replace(job, updated=time.time(), **changes)
        self._persist(record)
        self._jobs[record.id] = record
        return replace(record)

    def _load(self) -> None:
        """Read every record; heal interrupted states.

        A job left ``running`` by a dead service is re-queued (its
        checkpoints make the next claim a resume) — unless cancellation
        was already requested, in which case the cancel wins.
        """
        for name in sorted(os.listdir(self.jobs_dir)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.jobs_dir, name)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    job = Job.from_dict(json.load(handle))
            except (OSError, ValueError) as exc:
                raise QueueError(f"unreadable job record {name}: {exc}") from exc
            if job.id != name[: -len(".json")]:
                raise QueueError(f"job record {name} claims id {job.id}")
            self._jobs[job.id] = job
            if job.state == "running":
                if job.cancel_requested:
                    self._commit(
                        job,
                        state="cancelled",
                        error="cancelled while service was down",
                        finished_seq=self._finished_seq,
                    )
                else:
                    self._commit(job, state="queued")
                self._recovered.append(job.id)
        self._seq = 1 + max((j.seq for j in self._jobs.values()), default=-1)
        self._started_seq = 1 + max(
            (j.started_seq for j in self._jobs.values()), default=-1
        )
        self._finished_seq = 1 + max(
            (j.finished_seq for j in self._jobs.values()), default=-1
        )

    @property
    def recovered(self) -> Tuple[str, ...]:
        """Job ids healed out of ``running`` when this queue opened."""
        return tuple(self._recovered)

    # -- submission ----------------------------------------------------------

    def submit(self, spec_dict: dict, client: str = "anonymous") -> Tuple[Job, bool]:
        """Submit a campaign; returns ``(job, created)``.

        The spec is validated by round-tripping through
        :func:`spec_from_dict` and the job id is the digest of the
        *canonical* spec, so two submissions that differ only in JSON
        accidents (key order, ``6`` vs ``6.0``) still collide.  Dedup:

        * active (queued/running) or ``done`` → the existing job,
          ``created=False``; no new work is scheduled;
        * ``failed`` / ``cancelled`` → the job is reset to ``queued``
          (``created=False``): the journal still holds its completed
          shards, so the retry resumes rather than restarts.
        """
        if not isinstance(spec_dict, dict):
            raise QueueError("campaign spec must be a JSON object")
        try:
            spec = spec_from_dict(spec_dict)
        except ValueError as exc:
            raise QueueError(f"invalid campaign spec: {exc}") from exc
        job_id = campaign_digest(spec)
        canonical = spec_to_dict(spec)
        with self._lock:
            existing = self._jobs.get(job_id)
            if existing is not None:
                if existing.state in ("failed", "cancelled"):
                    requeued = self._commit(
                        existing,
                        state="queued",
                        cancel_requested=False,
                        error=None,
                        finished_seq=-1,
                        started=0.0,
                        finished=0.0,
                    )
                    self.wakeup.set()
                    return requeued, False
                return replace(existing), False
            job = self._commit(
                Job(
                    id=job_id,
                    spec=canonical,
                    client=client,
                    seq=self._seq,
                    shards_total=spec.shards,
                    created=time.time(),
                )
            )
            self._seq += 1
            self.wakeup.set()
            return job, True

    # -- scheduling ----------------------------------------------------------

    def claim_next(self, client_quota: int = 0) -> Optional[Job]:
        """Claim the next runnable job, fair-share across clients.

        Among queued jobs, picks the one whose client currently has the
        fewest ``running`` jobs, so a client that dumped fifty campaigns
        cannot starve one that submitted a single job.  Ties go to the
        client served least recently (the smallest latest
        ``started_seq`` over its jobs), then to submission order: which
        client wins must not depend on whether the other's last running
        job ended a moment before or after the claim.  ``client_quota >
        0`` caps running jobs per client; clients at quota are skipped
        entirely.
        """
        with self._lock:
            running: Dict[str, int] = {}
            served: Dict[str, int] = {}
            for job in self._jobs.values():
                if job.state == "running":
                    running[job.client] = running.get(job.client, 0) + 1
                served[job.client] = max(
                    served.get(job.client, -1), job.started_seq
                )
            best: Optional[Job] = None
            best_key: Tuple[int, int, int] = (0, 0, 0)
            for job in self._jobs.values():
                if job.state != "queued":
                    continue
                load = running.get(job.client, 0)
                if client_quota > 0 and load >= client_quota:
                    continue
                key = (load, served[job.client], job.seq)
                if best is None or key < best_key:
                    best, best_key = job, key
            if best is None:
                return None
            claimed = self._commit(
                best,
                state="running",
                attempts=best.attempts + 1,
                started_seq=self._started_seq,
                started=time.time(),
            )
            self._started_seq += 1
            return claimed

    def finish(
        self,
        job_id: str,
        state: str,
        result: Optional[dict] = None,
        error: Optional[str] = None,
    ) -> Job:
        """Move a running job to a terminal state."""
        if state not in TERMINAL_STATES:
            raise QueueError(f"finish() requires a terminal state, got {state!r}")
        with self._lock:
            job = self._require(job_id)
            if job.state != "running":
                raise QueueError(
                    f"job {job_id} is {job.state}, cannot finish to {state}"
                )
            finished = self._commit(
                job,
                state=state,
                result=result,
                error=error,
                finished_seq=self._finished_seq,
                finished=time.time(),
            )
            self._finished_seq += 1
            return finished

    def release(self, job_id: str) -> Job:
        """Return a running job to the queue (service drain, not failure)."""
        with self._lock:
            job = self._require(job_id)
            if job.state != "running":
                raise QueueError(f"job {job_id} is {job.state}, cannot release")
            released = self._commit(job, state="queued")
            self.wakeup.set()
            return released

    def request_cancel(self, job_id: str) -> Job:
        """Cancel a job.

        ``queued`` jobs cancel immediately; ``running`` jobs get the
        flag raised for the runner's ``should_stop`` poll; terminal
        jobs are a no-op (cancellation is idempotent).
        """
        with self._lock:
            job = self._require(job_id)
            if job.state == "queued":
                cancelled = self._commit(
                    job,
                    state="cancelled",
                    cancel_requested=True,
                    finished_seq=self._finished_seq,
                    finished=time.time(),
                )
                self._finished_seq += 1
                return cancelled
            if job.state == "running" and not job.cancel_requested:
                return self._commit(job, cancel_requested=True)
            return replace(job)

    # -- inspection ----------------------------------------------------------

    def _require(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(job_id)
        return job

    def get(self, job_id: str) -> Job:
        with self._lock:
            return replace(self._require(job_id))

    def jobs(self) -> List[Job]:
        """All jobs in submission order (copies)."""
        with self._lock:
            return [replace(j) for j in sorted(self._jobs.values(), key=lambda j: j.seq)]

    def counts(self) -> Dict[str, int]:
        with self._lock:
            out = {state: 0 for state in STATES}
            for job in self._jobs.values():
                out[job.state] += 1
            return out

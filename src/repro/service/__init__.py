"""Campaign orchestration service.

``repro fleet`` runs one campaign in one process; operators queue
*many* campaigns from many clients and want them deduplicated,
fairly scheduled, observable while running and durable across service
crashes.  This package is that layer, stdlib-only:

* :mod:`repro.service.queue` — persistent content-addressed job queue
  (job id = campaign digest; atomic per-job records; crash recovery
  never leaves a ``running`` orphan);
* :mod:`repro.service.scheduler` — fair-share, event-driven dispatcher
  (woken by the queue, never polling; claims rate-limited) feeding
  :class:`~repro.fleet.campaign.CampaignRunner` slots, with the queue's
  cancel flag wired into cooperative cancellation;
* :mod:`repro.service.api` — HTTP/1.1 API on the stdlib's threading
  server, with keep-alive (submit, status, NDJSON event streaming,
  HTML reports, cancel);
* :mod:`repro.service.client` — stdlib client keeping one connection,
  used by ``repro submit`` and the contract tests.

Durability composes instead of duplicating: the queue journal decides
*which* campaign runs, the campaign journal makes *resuming* it
bit-identical, and the campaign monitor's ``events.jsonl`` is what the
API streams — byte for byte.

CLI entry points: ``repro serve`` and ``repro submit``.
"""

from repro.service.api import CampaignService
from repro.service.client import ServiceClient, ServiceTimeout
from repro.service.queue import (
    ACTIVE_STATES,
    TERMINAL_STATES,
    Job,
    JobQueue,
    QueueError,
)
from repro.service.scheduler import CampaignScheduler

__all__ = [
    "ACTIVE_STATES",
    "CampaignScheduler",
    "CampaignService",
    "Job",
    "JobQueue",
    "QueueError",
    "ServiceClient",
    "ServiceTimeout",
    "TERMINAL_STATES",
]

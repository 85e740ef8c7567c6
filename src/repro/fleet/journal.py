"""The durable campaign journal: checkpoint, crash, resume, verify.

A campaign that simulates millions of drive-years will be interrupted
— a SIGKILLed driver, a ^C, a lost machine.  The journal makes that a
non-event:

* **Per-shard checkpoints** are content-addressed: each completed
  shard's result is stored in a :class:`~repro.parallel.cache.ResultCache`
  under the key of ``fleet_shard_task`` + its canonicalized parameters
  (which embed the whole :class:`~repro.fleet.spec.CampaignSpec`).
  Writes are atomic (temp file + ``os.replace``), so a kill mid-write
  leaves the previous state, never a torn checkpoint; and entries are
  self-verifying, so a corrupt checkpoint is *evicted* and recomputed
  rather than trusted or fatal.
* **The manifest** (``manifest.json``) is a write-once header: the
  manifest format, the campaign digest and the shard count, published
  whole with ``os.link`` when the journal is created and never
  rewritten.  Opening a journal whose digest does not match the
  offered spec raises :class:`JournalError`: a resume can never
  silently mix shards from two different campaigns.  A format-2
  manifest, which also carried a shard->key map, opens the same way;
  its map is ignored.
* **Resume is just cache hits.**  The runner recomputes every shard's
  key from the spec — deterministically — and asks the journal; hits
  are completed shards, misses are remaining work.  Because shard
  results are pure functions of the spec, a resumed campaign finishes
  bit-identical to an uninterrupted one, and
  :func:`repro.verify.fleet.check_campaign_journal` audits a journal
  the same way: every spec-derived key it holds, and no checkpoint
  beyond them.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Optional, Tuple, Union

from repro.fleet.spec import CampaignSpec, campaign_digest
from repro.parallel.cache import ResultCache

__all__ = ["CampaignJournal", "JournalError"]

_MANIFEST = "manifest.json"
_FORMAT = 3
#: Mixed into every checkpoint key, so it must not follow ``_FORMAT``:
#: a new value would orphan every checkpoint already on disk.
_CACHE_VERSION = "fleet-journal-2"


class JournalError(RuntimeError):
    """The journal directory cannot serve this campaign."""


class CampaignJournal:
    """Checkpoint store for one campaign in one directory.

    Parameters
    ----------
    root:
        Journal directory (created if missing).  One campaign per
        directory: reopening with a different spec raises
        :class:`JournalError`.
    spec:
        The campaign this journal belongs to.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`;
        checkpoint evictions are counted in it.
    """

    def __init__(
        self,
        root: Union[str, Path],
        spec: CampaignSpec,
        metrics=None,
    ) -> None:
        self.root = Path(root)
        self.spec = spec
        self.digest = campaign_digest(spec)
        self.root.mkdir(parents=True, exist_ok=True)
        self.cache = ResultCache(
            self.root / "checkpoints", version=_CACHE_VERSION, metrics=metrics
        )
        self._manifest_path = self.root / _MANIFEST
        manifest = self._load_manifest() or self._create_manifest()
        if manifest.get("campaign_digest") != self.digest:
            raise JournalError(
                f"journal at {self.root} belongs to campaign "
                f"{manifest.get('campaign_digest', '?')[:12]}..., not "
                f"{self.digest[:12]}...; refusing to mix campaigns"
            )

    # -- manifest ------------------------------------------------------------

    def _load_manifest(self) -> Optional[dict]:
        try:
            with open(self._manifest_path, "r") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as exc:
            # Checkpoints are content-addressed, so a new header is
            # safe — but it must be an explicit decision, not a silent one.
            raise JournalError(
                f"unreadable manifest at {self._manifest_path}: {exc}; "
                "delete it to rebuild from checkpoints"
            )

    def _create_manifest(self) -> dict:
        """Publish the header: ``os.link`` lands it whole and never
        over an existing file (whose header then wins)."""
        header = {
            "format": _FORMAT,
            "campaign_digest": self.digest,
            "shards_total": len(self.spec.shard_ranges()),
        }
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(header, fh, indent=1, sort_keys=True)
            os.link(tmp, self._manifest_path)
        except FileExistsError:
            return self._load_manifest()
        finally:
            os.unlink(tmp)
        return header

    # -- checkpoints ---------------------------------------------------------

    def key_for(self, params: dict) -> str:
        """Content-addressed checkpoint key for one shard's parameters."""
        from repro.fleet.montecarlo import fleet_shard_task

        return self.cache.key(fleet_shard_task, params)

    def load(self, params: dict, key: Optional[str] = None) -> Tuple[bool, Any]:
        """``(hit, result)`` for a shard; corrupt checkpoints miss.

        ``key`` is ``key_for(params)`` when the caller already holds it.
        """
        return self.cache.get(key if key is not None else self.key_for(params))

    def record(
        self,
        shard_index: int,
        params: dict,
        result: Any,
        key: Optional[str] = None,
    ) -> str:
        """Durably checkpoint one completed shard; returns its key.

        ``key`` is ``key_for(params)`` when the caller already holds it
        (canonicalising the whole spec is the costly part of a record).
        The checkpoint is found by its key alone: ``shard_index`` names
        the shard for the caller's benefit (``bench/wl_fleet.py`` passes
        it) and is not stored.
        """
        if key is None:
            key = self.key_for(params)
        self.cache.put(key, result)
        return key

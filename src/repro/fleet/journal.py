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
* **The manifest** (``manifest.json``, also atomically replaced)
  records the campaign digest and the shard->key map.  Opening a
  journal whose digest does not match the offered spec raises
  :class:`JournalError`: a resume can never silently mix shards from
  two different campaigns.  The manifest is written when the journal
  is created and again when the campaign's run ends — done, cancelled
  or raising — by :meth:`CampaignJournal.flush`, which the journal
  calls on leaving its ``with`` block.  In between, the map grows in
  memory only: no result depends on it.
* **Resume is just cache hits.**  The runner recomputes every shard's
  key from the spec — deterministically — and asks the journal; hits
  are completed shards, misses are remaining work.  Hits are noted in
  the map too (:meth:`~CampaignJournal.note`), so the manifest after
  any run that ends names every checkpointed shard.  A SIGKILLed run
  leaves its checkpoints but the map of its last flush; the next run's
  hits restore the rest.  Because shard results are pure functions of
  the spec, a resumed campaign finishes bit-identical to an
  uninterrupted one, and
  :func:`repro.verify.fleet.check_campaign_journal` can audit the
  digest chain end to end (of a killed, not yet resumed journal: the
  shards its map names).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.fleet.spec import CampaignSpec, campaign_digest
from repro.parallel.cache import ResultCache

__all__ = ["CampaignJournal", "JournalError"]

_MANIFEST = "manifest.json"
_FORMAT = 2


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

    Used as a context manager, the journal flushes its shard map on
    exit; a flush that fails while another exception propagates leaves
    that exception the one raised.
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
            self.root / "checkpoints",
            version=f"fleet-journal-{_FORMAT}",
            metrics=metrics,
        )
        self._manifest_path = self.root / _MANIFEST
        #: The in-memory shard map differs from the manifest on disk.
        self._dirty = False
        manifest = self._load_manifest()
        if manifest is None:
            self._manifest = {
                "format": _FORMAT,
                "campaign_digest": self.digest,
                "shards_total": len(spec.shard_ranges()),
                "shards": {},
            }
            self._write_manifest()
        else:
            if manifest.get("campaign_digest") != self.digest:
                raise JournalError(
                    f"journal at {self.root} belongs to campaign "
                    f"{manifest.get('campaign_digest', '?')[:12]}..., not "
                    f"{self.digest[:12]}...; refusing to mix campaigns"
                )
            self._manifest = manifest

    # -- manifest ------------------------------------------------------------

    def _load_manifest(self) -> Optional[dict]:
        try:
            with open(self._manifest_path, "r") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as exc:
            # A torn manifest is recoverable: checkpoints are still
            # content-addressed, so rebuilding the map is safe — but it
            # must be an explicit decision, not a silent one.
            raise JournalError(
                f"unreadable manifest at {self._manifest_path}: {exc}; "
                "delete it to rebuild from checkpoints"
            )

    def _write_manifest(self) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(self._manifest, fh, indent=1, sort_keys=True)
            os.replace(tmp, self._manifest_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._dirty = False

    def flush(self) -> None:
        """Write the manifest if the shard map changed since it was last written."""
        if self._dirty:
            self._write_manifest()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.flush()
        except Exception:
            if exc_type is None:
                raise
            # The campaign's own exception is the one worth reporting.

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
        The checkpoint lands on disk now; the shard enters the map in
        memory and reaches the manifest at the next :meth:`flush`, so
        the manifest never names a checkpoint that is not there.  A
        SIGKILL before that flush leaves the checkpoint unnamed until
        a resume hits it and notes it.
        """
        if key is None:
            key = self.key_for(params)
        self.cache.put(key, result)
        self.note(shard_index, key)
        return key

    def note(self, shard_index: int, key: str) -> None:
        """Name a checkpointed shard in the map (written at :meth:`flush`)."""
        shards = self._manifest["shards"]
        index = str(int(shard_index))
        if shards.get(index) != key:
            shards[index] = key
            self._dirty = True

    def completed(self) -> Dict[int, str]:
        """Shard index -> checkpoint key for every recorded shard."""
        return {
            int(index): key
            for index, key in self._manifest["shards"].items()
        }

    @property
    def shards_total(self) -> int:
        return int(self._manifest["shards_total"])

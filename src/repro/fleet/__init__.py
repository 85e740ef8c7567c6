"""Fleet-scale reliability campaigns (PR 7).

The paper evaluates scrub policies one drive at a time; operators ask
fleet-level questions — MTTDL and probability of data loss under a
scrub-policy choice, over tens of thousands of heterogeneous drives
and millions of simulated drive-years.  This package answers them with
an execution layer as fault-tolerant as the storage it models:

* :mod:`repro.fleet.spec` — :class:`FleetSpec` /
  :class:`CampaignSpec`: heterogeneous drive classes, RAID grouping,
  deterministic per-drive seed derivation, content digests;
* :mod:`repro.fleet.montecarlo` — the pure, checkpointable shard task
  simulating whole-drive failure + rebuild on top of the
  :mod:`repro.raid.reliability` cycle model, with the scrub policy
  entering through its measured latent window;
* :mod:`repro.fleet.journal` — durable content-addressed per-shard
  checkpoints; a killed campaign resumes bit-identical;
* :mod:`repro.fleet.campaign` — :class:`CampaignRunner`: supervised
  execution, per-shard checkpointing, graceful degradation with an
  explicit completeness fraction, merged telemetry, and MTTDL /
  P(loss) estimates with confidence intervals cross-checked against
  the closed-form model.

CLI entry point: ``repro fleet`` (``--resume`` just points at the same
journal directory).
"""

from repro import _lazy

_EXPORTS = {
    "CampaignCancelled": ".campaign",
    "CampaignJournal": ".journal",
    "CampaignResult": ".campaign",
    "CampaignRunner": ".campaign",
    "CampaignSpec": ".spec",
    "DriveClass": ".spec",
    "FleetSpec": ".spec",
    "JournalError": ".journal",
    "PolicyEstimate": ".campaign",
    "ScrubPolicySpec": ".spec",
    "campaign_digest": ".spec",
    "closed_form_policy": ".campaign",
    "fleet_shard_task": ".montecarlo",
    "group_profile": ".spec",
    "group_profiles": ".spec",
    "group_seed": ".spec",
    "loss_rate_interval": ".campaign",
    "resolve_latent_windows": ".spec",
    "simulate_group": ".montecarlo",
    "spec_from_dict": ".spec",
    "spec_to_dict": ".spec",
    "wilson_interval": ".campaign",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)

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

from repro.fleet.campaign import (
    CampaignCancelled,
    CampaignResult,
    CampaignRunner,
    PolicyEstimate,
    closed_form_policy,
    loss_rate_interval,
    wilson_interval,
)
from repro.fleet.journal import CampaignJournal, JournalError
from repro.fleet.montecarlo import fleet_shard_task, simulate_group
from repro.fleet.spec import (
    CampaignSpec,
    DriveClass,
    FleetSpec,
    ScrubPolicySpec,
    campaign_digest,
    group_profile,
    group_profiles,
    group_seed,
    resolve_latent_windows,
    spec_from_dict,
    spec_to_dict,
)

__all__ = [
    "CampaignCancelled",
    "CampaignJournal",
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "DriveClass",
    "FleetSpec",
    "JournalError",
    "PolicyEstimate",
    "ScrubPolicySpec",
    "campaign_digest",
    "closed_form_policy",
    "fleet_shard_task",
    "group_profile",
    "group_profiles",
    "group_seed",
    "loss_rate_interval",
    "resolve_latent_windows",
    "simulate_group",
    "spec_from_dict",
    "spec_to_dict",
    "wilson_interval",
]

"""Tests for the fleet conservation laws and journal audit.

Every check is exercised both ways: a genuine campaign artifact passes
untouched, and each class of tampering — a group counted in two
states, loss modes that don't sum, shard ranges that overlap, a
checkpoint that no key derived from its spec names — raises a structured
:class:`InvariantViolation` naming the broken invariant.
"""

import copy
import math

import pytest

from repro.fleet import (
    CampaignJournal,
    CampaignRunner,
    CampaignSpec,
    DriveClass,
    FleetSpec,
    ScrubPolicySpec,
    fleet_shard_task,
)
from repro.verify import (
    InvariantViolation,
    check_campaign_journal,
    check_fleet_conservation,
    check_shard_result,
)


def _spec(groups=40, shards=4):
    return CampaignSpec(
        fleet=FleetSpec(
            groups=groups,
            disks_per_group=4,
            mttr_hours=24.0,
            spare_delay_hours=6.0,
            classes=(
                DriveClass(mttf_hours=2.0e4, lse_burst_rate_per_hour=2e-4),
            ),
        ),
        policies=(ScrubPolicySpec(name="weekly", latent_window_hours=84.0),),
        mission_years=5.0,
        seed=5,
        shards=shards,
    )


@pytest.fixture(scope="module")
def spec():
    return _spec()


@pytest.fixture(scope="module")
def shards(spec):
    params = CampaignRunner.shard_param_sets(spec)
    return [fleet_shard_task(**p) for p in params]


def _expect(invariant, fn, *args, **kwargs):
    with pytest.raises(InvariantViolation) as excinfo:
        fn(*args, **kwargs)
    assert excinfo.value.invariant == invariant


class TestShardResult:
    def test_genuine_shard_passes(self, spec, shards):
        for shard in shards:
            check_shard_result(spec, shard)

    def test_state_double_counting_is_caught(self, spec, shards):
        bad = copy.deepcopy(shards[0])
        bad["policies"][0]["states"]["ok"] += 1
        _expect("fleet-state-conservation", check_shard_result, spec, bad)

    def test_unknown_state_is_caught(self, spec, shards):
        bad = copy.deepcopy(shards[0])
        bad["policies"][0]["states"]["limbo"] = 0
        _expect("fleet-state-conservation", check_shard_result, spec, bad)

    def test_loss_mode_sum_mismatch_is_caught(self, spec, shards):
        bad = copy.deepcopy(shards[0])
        bad["policies"][0]["losses"] += 1
        _expect("fleet-state-conservation", check_shard_result, spec, bad)

    def test_lost_state_vs_loss_events_mismatch_is_caught(self, spec, shards):
        bad = copy.deepcopy(shards[0])
        block = bad["policies"][0]
        block["losses"] += 1
        block["losses_by_mode"]["double"] += 1
        _expect("fleet-state-conservation", check_shard_result, spec, bad)

    def test_rebuilds_exceeding_failures_is_caught(self, spec, shards):
        bad = copy.deepcopy(shards[0])
        block = bad["policies"][0]
        block["rebuilds_completed"] = block["drive_failures"] + 1
        _expect("fleet-state-conservation", check_shard_result, spec, bad)

    def test_observed_hours_beyond_mission_is_caught(self, spec, shards):
        bad = copy.deepcopy(shards[0])
        block = bad["policies"][0]
        block["observed_group_hours"] = (
            block["groups"] * spec.mission_years * 8760.0 * 2
        )
        block["group_hours"] = [
            h * 2 for h in block["group_hours"]
        ]
        _expect("fleet-state-conservation", check_shard_result, spec, bad)

    def test_group_hours_ledger_mismatch_is_caught(self, spec, shards):
        bad = copy.deepcopy(shards[0])
        bad["policies"][0]["group_hours"][0] += 1.0
        _expect("fleet-state-conservation", check_shard_result, spec, bad)

    def test_missing_policy_block_is_caught(self, spec, shards):
        bad = copy.deepcopy(shards[0])
        bad["policies"] = []
        _expect("fleet-shard-shape", check_shard_result, spec, bad)


class TestFleetConservation:
    def test_complete_fleet_passes(self, spec, shards):
        check_fleet_conservation(spec, shards)

    def test_gap_rejected_unless_partial(self, spec, shards):
        partial = shards[:-1]
        _expect("fleet-conservation", check_fleet_conservation, spec, partial)
        check_fleet_conservation(spec, partial, allow_partial=True)

    def test_overlap_is_caught_even_when_partial(self, spec, shards):
        overlapping = [shards[0], copy.deepcopy(shards[0])]
        _expect(
            "fleet-conservation",
            check_fleet_conservation, spec, overlapping, True,
        )

    def test_out_of_range_shard_is_caught(self, spec, shards):
        bad = copy.deepcopy(shards[-1])
        bad["group_count"] += spec.fleet.groups
        # Scale the per-policy ledgers to stay internally consistent so
        # only the fleet-level range check can fire.
        _expect("fleet-shard-shape", check_fleet_conservation, spec,
                [dict(bad, group_start=spec.fleet.groups)], True)


class TestJournalAudit:
    def test_genuine_journal_verifies_every_checkpoint(self, tmp_path):
        spec = _spec()
        CampaignRunner(spec, journal_dir=tmp_path).run()
        assert check_campaign_journal(tmp_path, spec) == 4

    def test_foreign_spec_is_rejected(self, tmp_path):
        CampaignRunner(_spec(), journal_dir=tmp_path).run()
        _expect(
            "checkpoint-digest",
            check_campaign_journal, tmp_path, _spec(groups=44),
        )

    @staticmethod
    def _checkpoint(tmp_path, spec, shard_index):
        journal = CampaignJournal(tmp_path, spec)
        params = CampaignRunner.shard_param_sets(spec)[shard_index]
        return journal.cache._path(journal.key_for(params))

    def test_forged_checkpoint_key_is_caught(self, tmp_path):
        spec = _spec()
        CampaignRunner(spec, journal_dir=tmp_path).run()
        path = self._checkpoint(tmp_path, spec, 1)
        forged = path.with_name(("0" * 8) + path.name[8:])
        path.rename(forged)
        _expect("checkpoint-digest", check_campaign_journal, tmp_path, spec)

    def test_missing_checkpoint_file_is_caught(self, tmp_path):
        spec = _spec()
        first = CampaignRunner(spec, journal_dir=tmp_path).run()
        self._checkpoint(tmp_path, spec, 2).unlink()
        # A missing checkpoint is remaining work: the audit counts the
        # other three, and a resume recomputes exactly that shard.
        assert check_campaign_journal(tmp_path, spec) == 3
        landed = []
        resumed = CampaignRunner(
            spec, journal_dir=tmp_path,
            on_shard=lambda shard_index, result: landed.append(shard_index),
        ).run()
        assert landed == [2]
        assert resumed.shards_resumed == 3
        assert resumed.metrics_dict() == first.metrics_dict()

    def test_corrupt_checkpoint_is_caught_not_trusted(self, tmp_path):
        spec = _spec()
        CampaignRunner(spec, journal_dir=tmp_path).run()
        path = self._checkpoint(tmp_path, spec, 0)
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF
        path.write_bytes(bytes(blob))
        _expect("checkpoint-digest", check_campaign_journal, tmp_path, spec)

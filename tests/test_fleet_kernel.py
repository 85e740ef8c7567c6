"""The fleet shard kernel against its reference ledger.

``fleet_shard_task`` walks each group's failure history once and lets
every policy settle against that walk; ``repro.verify.fleet`` keeps the
per-(policy, group) loop it replaced.  Everything here is an equality
with that reference — shard results, group profiles, the closed form,
journals — on seeded drawn specs, so a divergence reproduces from the
spec index alone.  The kernel seeds a shard's generators in one batch;
numpy's ``default_rng`` is the reference for that (``TestSeeding``).
"""

import math

import numpy as np
import pytest

from repro.fleet import (
    CampaignRunner,
    CampaignSpec,
    DriveClass,
    FleetSpec,
    ScrubPolicySpec,
    closed_form_policy,
    fleet_shard_task,
    group_profile,
    group_profiles,
    group_seed,
    simulate_group,
)
from repro.fleet.spec import (
    _GROUP_STREAM,
    _generators,
    _group_generators,
    _seed_words,
)
from repro.parallel.cache import canonicalize
from repro.raid.reliability import HOURS_PER_YEAR, group_reliability
from repro.verify.fleet import (
    reference_group_profile,
    reference_shard_task,
    reference_simulate_group,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - the container ships hypothesis
    given = None

_PRESETS = ("ultrastar", "caviar", "deskstar")


def _draw_spec(rng: np.random.Generator) -> CampaignSpec:
    """One loss-rich campaign small enough to run ~100 of per second."""
    raid_level = ("raid5", "raid1", "none")[int(rng.integers(3))]
    raid5_disks, bare_disks = int(rng.integers(3, 9)), int(rng.integers(1, 5))
    disks = {"raid5": raid5_disks, "raid1": 2, "none": bare_disks}[raid_level]
    jitter = bool(rng.integers(2))
    classes = tuple(
        DriveClass(
            preset=_PRESETS[index],
            weight=float(rng.uniform(0.5, 4.0)),
            mttf_hours=float(rng.uniform(5e3, 4e4)),
            lse_burst_rate_per_hour=float(rng.choice([0.0, 2e-4, 2e-3])),
            age_years=float(rng.choice([0.0, 1.5])),
            wearout_per_year=float(rng.choice([0.0, 0.08])),
        )
        for index in range(int(rng.integers(1, 4)))
    )
    policies = tuple(
        ScrubPolicySpec(
            name=f"p{index}",
            latent_window_hours=float(rng.choice([0.0, 20.0, 84.0, 500.0])),
        )
        for index in range(int(rng.integers(1, 5)))
    )
    return CampaignSpec(
        fleet=FleetSpec(
            groups=int(rng.integers(16, 41)),
            disks_per_group=disks,
            raid_level=raid_level,
            mttr_hours=float(rng.uniform(6.0, 48.0)),
            spare_delay_hours=float(rng.choice([0.0, 6.0])),
            classes=classes,
            age_spread_years=float(rng.uniform(0.5, 4.0)) if jitter else 0.0,
        ),
        policies=policies,
        mission_years=float(rng.uniform(2.0, 6.0)),
        seed=int(rng.integers(0, 2**31 - 1)),
        shards=(1, 3, 16)[int(rng.integers(3))],
    )


def _drawn_specs(n=60, seed=12):
    rng = np.random.default_rng(seed)
    return [_draw_spec(rng) for _ in range(n)]


def _ledger(shard: dict):
    """A shard result minus its wall-clock ``phases``, canonicalised."""
    return canonicalize({k: v for k, v in shard.items() if k != "phases"})


class TestShardKernel:
    def test_drawn_specs_equal_the_reference_group_by_group(self):
        specs = _drawn_specs()
        assert {len(s.policies) for s in specs} == {1, 2, 3, 4}
        assert {s.fleet.raid_level for s in specs} == {"raid5", "raid1", "none"}
        assert {len(s.fleet.classes) for s in specs} == {1, 2, 3}
        assert {s.fleet.age_spread_years > 0 for s in specs} == {True, False}
        lse_losses = 0
        for index, spec in enumerate(specs):
            for params in CampaignRunner.shard_param_sets(spec):
                kernel = fleet_shard_task(**params)
                reference = reference_shard_task(**params)
                for got, want in zip(kernel["policies"], reference["policies"]):
                    assert canonicalize(got["group_hours"]) == canonicalize(
                        want["group_hours"]
                    ), f"spec #{index} shard {params['shard_index']} {got['name']}"
                    lse_losses += got["losses_by_mode"]["lse"]
                assert _ledger(kernel) == _ledger(reference), (
                    f"spec #{index} shard {params['shard_index']}"
                )
        # The settling branch is what the two loops do differently.
        assert lse_losses > 100

    def test_simulate_group_equals_the_reference(self):
        for seed in range(200):
            args = dict(
                disks=4, redundancy=1, mttf_hours=1.5e4, mttr_hours=24.0,
                spare_delay_hours=6.0, p_lse=(0.0, 0.05, 0.4, 1.0)[seed % 4],
                mission_hours=5 * HOURS_PER_YEAR,
            )
            got = simulate_group(np.random.default_rng(seed), **args)
            want = reference_simulate_group(np.random.default_rng(seed), **args)
            assert canonicalize(got) == canonicalize(want)
            assert list(got) == list(want)

    def test_equal_windows_produce_equal_blocks(self):
        spec = _drawn_specs(1, seed=4)[0]
        twins = (
            ScrubPolicySpec(name="a", latent_window_hours=84.0),
            ScrubPolicySpec(name="other", latent_window_hours=300.0),
            ScrubPolicySpec(name="b", algorithm="staggered", latent_window_hours=84.0),
        )
        spec = CampaignSpec(
            fleet=spec.fleet, policies=twins, mission_years=spec.mission_years,
            seed=spec.seed, shards=1,
        )
        (params,) = CampaignRunner.shard_param_sets(spec)
        a, other, b = fleet_shard_task(**params)["policies"]
        assert canonicalize(dict(a, name="")) == canonicalize(dict(b, name=""))
        assert a["losses"] <= other["losses"]

    def test_probe_and_phases_keep_their_per_policy_shape(self):
        from repro.obs.worker import PROBE

        spec = _drawn_specs(1, seed=9)[0]
        for params in CampaignRunner.shard_param_sets(spec):
            result = fleet_shard_task(**params)
            assert PROBE.total == params["group_count"] * len(spec.policies)
            assert PROBE.done == PROBE.total
            assert [p["policy"] for p in result["phases"]] == [
                policy.name for policy in spec.policies
            ]
            assert all(p["wall_s"] >= 0 for p in result["phases"])


def _assert_numpy_seeded(generators, seeds):
    """Each generator is ``np.random.default_rng(seed)``: state and draws."""
    generators = list(generators)
    assert len(generators) == len(seeds)
    for rng, seed in zip(generators, seeds):
        want = np.random.default_rng(seed)
        assert rng.bit_generator.state == want.bit_generator.state, seed
        assert rng.random(8).tolist() == want.random(8).tolist(), seed


@pytest.mark.filterwarnings("error")
class TestSeeding:
    """The batch seeding is numpy's ``SeedSequence`` -> ``PCG64``, word
    for word, and a group's generator does not depend on its batch."""

    EDGES = (0, 1, 2**32 - 1, 2**32, 2**63 - 1)

    def test_edge_seeds(self):
        for seed, words in zip(self.EDGES, _seed_words(self.EDGES)):
            want = np.random.SeedSequence(seed).generate_state(4, np.uint64)
            assert words.tolist() == want.tolist(), seed
        _assert_numpy_seeded(_generators(self.EDGES), self.EDGES)

    def test_every_group_of_the_bench_campaign(self):
        seeds = [group_seed(7, group) for group in range(4000)]
        _assert_numpy_seeded(_group_generators(7, _GROUP_STREAM, 0, 4000), seeds)

    @pytest.mark.skipif(given is None, reason="needs hypothesis")
    def test_drawn_seeds(self):
        @settings(max_examples=200, deadline=None)
        @given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=16))
        def check(seeds):
            _assert_numpy_seeded(_generators(seeds), seeds)

        check()

    def test_a_group_s_generator_does_not_depend_on_its_batch(self):
        states = [
            list(_group_generators(3, _GROUP_STREAM, start, count))[13 - start]
            .bit_generator.state
            for start, count in ((13, 1), (13, 250), (0, 4000))
        ]
        assert states[0] == states[1] == states[2]
        _assert_numpy_seeded(
            _group_generators(3, _GROUP_STREAM, 13, 1), [group_seed(3, 13)]
        )
        (neighbour,) = _group_generators(3, _GROUP_STREAM, 14, 1)
        (other_campaign,) = _group_generators(4, _GROUP_STREAM, 13, 1)
        assert neighbour.bit_generator.state != states[0]
        assert other_campaign.bit_generator.state != states[0]


def _bits(profile):
    return (profile.class_index, profile.preset, profile.mttf_hours.hex(),
            profile.lse_burst_rate_per_hour.hex(), profile.age_years.hex())


class TestGroupProfiles:
    FLEETS = {
        "no-draw": FleetSpec(groups=40),
        "no-draw-negative-zero-age": FleetSpec(
            groups=40, classes=(DriveClass(age_years=-0.0, wearout_per_year=0.1),)
        ),
        "one-class-jittered": FleetSpec(
            groups=40, age_spread_years=2.0,
            classes=(DriveClass(age_years=1.0, wearout_per_year=0.1),),
        ),
        "three-classes": FleetSpec(
            groups=40,
            classes=(
                DriveClass(weight=0.1),
                DriveClass(preset="caviar", weight=0.2, mttf_hours=5e4),
                DriveClass(preset="deskstar", weight=0.3, age_years=-0.0),
            ),
        ),
        "three-classes-jittered": FleetSpec(
            groups=40, age_spread_years=3.0,
            classes=(
                DriveClass(weight=3.0, wearout_per_year=0.05),
                DriveClass(preset="caviar", weight=1.0, age_years=2.0),
                DriveClass(preset="deskstar", weight=0.7, wearout_per_year=0.2),
            ),
        ),
    }

    @pytest.mark.parametrize("name", sorted(FLEETS))
    def test_batch_equals_single_equals_reference(self, name):
        fleet = self.FLEETS[name]
        for seed, start, count in ((0, 0, 40), (7, 13, 9), (2**40, 39, 1)):
            batch = group_profiles(fleet, seed, start, count)
            assert len(batch) == count
            for offset, profile in enumerate(batch):
                single = group_profile(fleet, seed, start + offset)
                reference = reference_group_profile(fleet, seed, start + offset)
                assert _bits(profile) == _bits(single) == _bits(reference)

    def test_negative_zero_age_comes_out_positive(self):
        fleet = self.FLEETS["no-draw-negative-zero-age"]
        (profile,) = group_profiles(fleet, 0, 5, 1)
        assert math.copysign(1.0, profile.age_years) == 1.0

    def test_classes_are_drawn_by_weight(self):
        fleet = self.FLEETS["three-classes"]
        picks = [p.class_index for p in group_profiles(fleet, 1, 0, 600)]
        assert picks.count(0) < picks.count(1) < picks.count(2)

    def test_empty_range(self):
        for fleet in self.FLEETS.values():
            assert group_profiles(fleet, 0, 3, 0) == []


def _per_group_closed_form(spec, window):
    """The closed form as a plain per-group sum over reference profiles."""
    fleet = spec.fleet
    rate_sum = p_sum = 0.0
    for group_index in range(fleet.groups):
        profile = reference_group_profile(fleet, spec.seed, group_index)
        rel = group_reliability(
            disks=fleet.disks_per_group,
            mttf_hours=profile.mttf_hours,
            mttr_hours=fleet.mttr_hours,
            mission_hours=spec.mission_years * HOURS_PER_YEAR,
            spare_delay_hours=fleet.spare_delay_hours,
            lse_burst_rate_per_hour=profile.lse_burst_rate_per_hour,
            latent_window_hours=window,
            redundancy=fleet.redundancy,
        )
        rate_sum += rel.loss_rate_per_hour
        p_sum += rel.p_loss_mission
    mean_rate = rate_sum / fleet.groups
    return (math.inf if mean_rate == 0 else 1.0 / mean_rate), p_sum / fleet.groups


class TestClosedForm:
    def test_memoised_sum_equals_the_per_group_sum(self):
        for spec in _drawn_specs(20, seed=5):
            profiles = group_profiles(spec.fleet, spec.seed, 0, spec.fleet.groups)
            for policy in spec.policies:
                window = policy.latent_window_hours
                got = closed_form_policy(spec, profiles, window)
                want = _per_group_closed_form(spec, window)
                assert canonicalize(got) == canonicalize(want)

    def test_campaign_reports_it(self):
        spec = _drawn_specs(1, seed=6)[0]
        result = CampaignRunner(spec).run()
        for policy, estimate in zip(spec.policies, result.policies):
            mttdl, p_loss = _per_group_closed_form(spec, policy.latent_window_hours)
            assert estimate.closed_form_mttdl_hours == mttdl
            assert estimate.closed_form_p_loss == p_loss


class TestJournalCompatibility:
    def test_reference_written_journal_resumes_in_full(self, tmp_path):
        for index, spec in enumerate(_drawn_specs(6, seed=8)):
            journal = tmp_path / f"journal-{index}"
            written = CampaignRunner(
                spec, journal_dir=journal, task=reference_shard_task
            ).run()
            resumed = CampaignRunner(spec, journal_dir=journal).run()
            fresh = CampaignRunner(spec).run()
            assert resumed.shards_resumed == resumed.shards_total
            assert canonicalize(resumed.metrics_dict()) == canonicalize(
                written.metrics_dict()
            )
            assert canonicalize(fresh.metrics_dict()) == canonicalize(
                written.metrics_dict()
            )
            assert canonicalize(fresh.telemetry) == canonicalize(written.telemetry)

    def test_record_with_a_precomputed_key_is_the_same_record(self, tmp_path):
        from repro.fleet import CampaignJournal

        spec = _drawn_specs(1, seed=8)[0]
        params = CampaignRunner.shard_param_sets(spec)[0]
        result = fleet_shard_task(**params)
        plain = CampaignJournal(tmp_path / "plain", spec)
        keyed = CampaignJournal(tmp_path / "keyed", spec)
        key = keyed.key_for(params)
        assert plain.record(0, params, result) == keyed.record(0, params, result, key)
        assert plain.completed() == keyed.completed() == {0: key}
        assert keyed.load(params, key)[0] and keyed.load(params)[0]

